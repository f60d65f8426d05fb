//! Fast end-to-end smoke test for CI: the full streaming stack — a
//! two-phase-locking primary, the `LogShipper`, and a `C5Replica` — run for a
//! few hundred transactions, with every shipped segment recorded so the final
//! state (and a handful of states sampled mid-replication) can be verified
//! against the monotonic-prefix-consistency checker's serial replay.
//!
//! This is deliberately small (a second or two on one core): the heavyweight
//! protocol matrix lives in `replication_pipeline.rs` and `mpc_consistency.rs`;
//! this test exists so every CI run exercises primary → log → scheduler →
//! workers → snapshotter → read views end to end even when someone only runs
//! the default test target.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use c5_repro::prelude::*;
use c5_repro::workloads::synthetic::{adversarial_population, hot_row};

const CLIENTS: usize = 2;
const TXNS_PER_CLIENT: u64 = 150;

#[test]
fn tpl_to_c5_pipeline_converges_and_is_mpc_clean() {
    let rows = adversarial_population();

    // Primary: 2PL engine streaming its log through a shipper.
    let (shipper, receiver) = LogShipper::unbounded();
    let logger = StreamingLogger::new(64, shipper);
    let primary = Arc::new(TplEngine::new(
        Arc::new(MvStore::default()),
        PrimaryConfig::default().with_threads(CLIENTS),
        logger,
    ));
    for (row, value) in &rows {
        primary.load_row(*row, value.clone());
    }

    // Backup: a faithful C5 replica over an identically preloaded store.
    let store = Arc::new(MvStore::default());
    for (row, value) in &rows {
        store.install(
            *row,
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(value.clone()),
        );
    }
    let replica = C5Replica::new(
        C5Mode::Faithful,
        store,
        ReplicaConfig::default()
            .with_workers(2)
            .with_snapshot_interval(Duration::from_millis(1)),
    );

    // Apply the log as it streams, keeping a copy of every segment so the
    // MPC checker can replay the ground truth afterwards.
    let applier = {
        let replica = Arc::clone(&replica);
        std::thread::spawn(move || {
            let mut segments = Vec::new();
            while let Some(segment) = receiver.recv() {
                segments.push(segment.clone());
                replica.apply_segment(segment);
            }
            replica.finish();
            segments
        })
    };

    // Sample read views while replication is in flight; each must later check
    // out against the serial replay at its own cut. The sampler is paced by
    // deadline arithmetic and runs until the applier finishes — no fixed
    // iteration count, so the test holds under arbitrary CI load.
    let replication_done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let replica = Arc::clone(&replica);
        let done = Arc::clone(&replication_done);
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !done.load(Ordering::Acquire) {
                let view = replica.read_view();
                samples.push((view.as_of(), view.scan_all()));
                std::thread::sleep(Duration::from_micros(200));
            }
            samples
        })
    };

    let factory: Arc<dyn TxnFactory> = Arc::new(AdversarialWorkload::new(3));
    let stats = ClosedLoopDriver::with_seed(42).run_tpl(
        &primary,
        &factory,
        CLIENTS,
        RunLength::PerClientCount(TXNS_PER_CLIENT),
    );
    let expected_txns = CLIENTS as u64 * TXNS_PER_CLIENT;
    assert_eq!(
        stats.committed, expected_txns,
        "primary must commit everything"
    );
    primary.close_log();

    let segments = applier.join().unwrap();
    replication_done.store(true, Ordering::Release);
    let samples = sampler.join().unwrap();

    // Convergence: everything applied, everything exposed.
    let metrics = replica.metrics();
    assert_eq!(metrics.applied_txns, expected_txns);
    assert_eq!(metrics.exposed_seq, metrics.applied_seq);
    assert_eq!(replica.lag().len() as u64, expected_txns);

    // MPC cleanliness: the final state and every mid-flight sample match the
    // serial replay of the recorded log at their respective cuts.
    let mut checker = MpcChecker::new(&rows, &segments);
    for (cut, state) in samples {
        checker
            .verify_state(cut, state)
            .unwrap_or_else(|e| panic!("sampled view violates MPC: {e}"));
    }
    let final_view = replica.read_view();
    assert_eq!(
        final_view.as_of(),
        checker.final_seq(),
        "backup did not expose the full log"
    );
    checker
        .verify_state(final_view.as_of(), final_view.scan_all())
        .unwrap_or_else(|e| panic!("final state violates MPC: {e}"));

    // And the backup's state equals the primary's, row for row.
    let primary_state = primary.store().scan_all_at(Timestamp::MAX);
    assert_eq!(final_view.scan_all().len(), primary_state.len());
    for (row, value) in primary_state {
        assert_eq!(final_view.get(row).as_ref(), Some(&value), "row {row}");
    }
    assert_eq!(
        final_view.get(hot_row()).unwrap().as_u64(),
        primary.store().read_latest(hot_row()).unwrap().as_u64(),
    );
}
