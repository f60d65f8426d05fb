//! One table, every protocol: what a replica must do whatever its ordering.
//!
//! A protocol in this workspace is only its *ordering* (a `PipelinePolicy`);
//! the store, the cut, the lag samples and the counters behind it are the
//! one *exposure*, written once. These tests pin that seam from the outside:
//! they drive the same mixed log — a hot-row chain through every
//! transaction, multi-write transactions, inserts and deletes — through
//! every protocol and assert the same observable contract of each.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use c5_repro::prelude::*;

/// Keys of the preloaded table, and the key space sharded replicas split.
const KEY_SPACE: u64 = 64;
const TXNS: u64 = 3_000;

/// Transaction `t` updates the hot row (one per-row chain through the whole
/// log), updates one of the other preloaded rows, inserts a fresh row, and
/// every fifth transaction deletes a row inserted earlier.
fn mixed_log() -> (Vec<(RowRef, Value)>, Vec<Segment>) {
    let population: Vec<(RowRef, Value)> = (0..KEY_SPACE)
        .map(|k| (RowRef::new(0, k), Value::from_u64(0)))
        .collect();
    let entries: Vec<TxnEntry> = (1..=TXNS)
        .map(|t| {
            let mut writes = vec![
                RowWrite::update(RowRef::new(0, 0), Value::from_u64(t)),
                RowWrite::update(RowRef::new(0, 1 + t % (KEY_SPACE - 1)), Value::from_u64(t)),
                RowWrite::insert(RowRef::new(1, KEY_SPACE + t), Value::from_u64(t)),
            ];
            if t % 5 == 0 {
                writes.push(RowWrite::delete(RowRef::new(1, KEY_SPACE + t / 2)));
            }
            TxnEntry::new(Timestamp(t), writes)
        })
        .collect();
    (population, segments_from_entries(&entries, 16))
}

fn preloaded(population: &[(RowRef, Value)]) -> Arc<MvStore> {
    let store = Arc::new(MvStore::default());
    c5_bench::harness::preload(&store, population);
    store
}

fn config(shards: usize) -> ReplicaConfig {
    ReplicaConfig::default()
        .with_workers(3)
        .with_shards(shards)
        .with_shard_key_space(KEY_SPACE)
        .with_snapshot_interval(Duration::from_micros(200))
}

type Build = fn(Arc<MvStore>) -> Arc<dyn ClonedConcurrencyControl>;

/// Every protocol, by report name (faithful C5 at one and at four shards).
const PROTOCOLS: [(&str, Build); 7] = [
    ("c5", |s| C5Replica::new(C5Mode::Faithful, s, config(1))),
    ("c5", |s| C5Replica::new(C5Mode::Faithful, s, config(4))),
    ("c5-myrocks", |s| {
        C5Replica::new(C5Mode::OneWorkerPerTxn, s, config(1))
    }),
    ("kuafu", |s| {
        KuaFuReplica::new(s, config(1), KuaFuConfig::default())
    }),
    ("single-threaded", |s| {
        SingleThreadedReplica::new(s, config(1))
    }),
    ("table-granularity", |s| {
        CoarseGrainReplica::new(Granularity::Table, s, config(1))
    }),
    ("page-granularity", |s| {
        CoarseGrainReplica::new(Granularity::Page { rows_per_page: 8 }, s, config(1))
    }),
];

/// Calls `sample` back to back on a second thread while `run` executes, and
/// once more after it returns. No pacing: the sampler yields between samples
/// and stops on the flag.
fn sample_while<R>(mut sample: impl FnMut() + Send, run: impl FnOnce() -> R) -> R {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            let last = done.load(Ordering::Acquire);
            sample();
            if last {
                return;
            }
            std::thread::yield_now();
        });
        let out = run();
        done.store(true, Ordering::Release);
        out
    })
}

#[test]
fn every_protocol_honours_the_replica_contract() {
    let (population, segments) = mixed_log();
    let boundaries: HashSet<u64> = std::iter::once(0)
        .chain(
            segments
                .iter()
                .flat_map(|s| &s.records)
                .filter(|r| r.is_txn_last())
                .map(|r| r.seq.as_u64()),
        )
        .collect();
    let total_writes: u64 = segments.iter().map(|s| s.len() as u64).sum();
    let last = segments.last().unwrap().last_seq().unwrap();

    for (name, build) in PROTOCOLS {
        let replica = build(preloaded(&population));
        assert_eq!(replica.name(), name);

        // Mid-run: every metrics snapshot is internally consistent, and the
        // cut it shows is a transaction boundary that never moves backwards.
        let mut previous_cut = SeqNo::ZERO;
        let mut samples = 0u64;
        sample_while(
            || {
                let m = replica.metrics();
                samples += 1;
                assert!(
                    boundaries.contains(&m.exposed_seq.as_u64()),
                    "{name}: cut {} is not a transaction boundary",
                    m.exposed_seq
                );
                assert!(m.exposed_seq >= previous_cut, "{name}: the cut moved back");
                previous_cut = m.exposed_seq;
                assert!(
                    m.exposed_seq <= m.applied_seq,
                    "{name}: exposed {} beyond applied {}",
                    m.exposed_seq,
                    m.applied_seq
                );
                // The log starts at position 1 with one write per position.
                assert!(
                    m.applied_seq.as_u64() <= m.applied_writes,
                    "{name}: applied through {} with {} writes counted",
                    m.applied_seq,
                    m.applied_writes
                );
                assert!(
                    m.applied_txns <= m.applied_writes,
                    "{name}: {} transactions counted over {} writes",
                    m.applied_txns,
                    m.applied_writes
                );
            },
            || drive_segments(replica.as_ref(), segments.clone()),
        );
        assert!(samples >= 2, "{name}: the sampler ran");

        // Drained: totals equal the log's, one lag sample per transaction.
        let m = replica.metrics();
        assert_eq!(m.applied_writes, total_writes, "{name}");
        assert_eq!(m.applied_txns, TXNS, "{name}");
        assert_eq!((m.applied_seq, m.exposed_seq), (last, last), "{name}");
        assert_eq!(replica.lag().len() as u64, TXNS, "{name}");

        // The final state is the serial replay's.
        let view = replica.read_view();
        MpcChecker::new(&population, &segments)
            .verify_state(view.as_of(), view.scan_all())
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        // Promotion after `finish` seals at the same cut.
        let promotion = replica.promote();
        assert_eq!((promotion.protocol, promotion.cut), (name, last));
    }
}

/// The thread that feeds a replica is its scheduler: whatever the protocol,
/// when `apply_segment` returns the segment's work is with the workers —
/// `shipped_seq` covers it with no wait, on every shard — and nothing the
/// replica has applied or exposed is ahead of what it was handed.
#[test]
fn apply_segment_is_synchronous_dispatch_for_every_protocol() {
    let (population, segments) = mixed_log();
    let last = segments.last().unwrap().last_seq().unwrap();
    for (name, build) in PROTOCOLS {
        let replica = build(preloaded(&population));
        assert_eq!(replica.metrics().shipped_seq, SeqNo::ZERO, "{name}");
        for segment in &segments {
            let through = segment.last_seq().unwrap();
            replica.apply_segment(segment.clone());
            let m = replica.metrics();
            assert_eq!(m.shipped_seq, through, "{name}: dispatched on return");
            assert!(
                m.exposed_seq <= m.applied_seq && m.applied_seq <= m.shipped_seq,
                "{name}: exposed {} / applied {} / shipped {}",
                m.exposed_seq,
                m.applied_seq,
                m.shipped_seq
            );
        }
        replica.finish();
        let m = replica.metrics();
        assert_eq!(
            (m.shipped_seq, m.applied_seq, m.exposed_seq),
            (last, last, last),
            "{name}"
        );
    }
}

/// Checkpoints exported back to back while `replica` applies the mixed log
/// with `gc_trail = 0` — so every exposed position is also a GC horizon, and
/// an export that did not cap the horizon would lose the versions at its cut
/// to the installs after the first cut published during its scan. Each checkpoint must be the
/// serial state at its cut, and a faithful replica with `replica`'s shard
/// count, resumed from it and fed the rest of the log, must end at the
/// serial final state.
fn checkpoints_survive_zero_trail_gc(replica: &C5Replica) {
    let (population, segments) = mixed_log();
    let archive = LogArchive::new();
    segments.iter().for_each(|segment| archive.append(segment));

    let mut checkpoints = Vec::new();
    sample_while(
        || checkpoints.push(replica.checkpoint()),
        || drive_segments(replica, segments.clone()),
    );

    // Thin the samples to a handful spread over the run (the first and the
    // last included) so the serial replays below stay cheap.
    let stride = (checkpoints.len() / 8).max(1);
    let last = checkpoints.len() - 1;
    for (i, checkpoint) in checkpoints.iter().enumerate() {
        if i % stride != 0 && i != last {
            continue;
        }
        let resumed = C5Replica::resume_from_checkpoint(
            C5Mode::Faithful,
            checkpoint,
            config(replica.config().shards),
        );
        let mut checker = MpcChecker::new(&population, &segments);
        checker
            .verify_view(resumed.read_view().as_ref())
            .unwrap_or_else(|e| panic!("checkpoint at {}: {e}", checkpoint.cut()));
        let tail = archive
            .replay_from(checkpoint.cut())
            .expect("nothing was truncated");
        drive_segments(resumed.as_ref(), tail);
        assert_eq!(resumed.exposed_seq(), checker.final_seq());
        checker
            .verify_view(resumed.read_view().as_ref())
            .unwrap_or_else(|e| panic!("replay from {}: {e}", checkpoint.cut()));
    }
}

#[test]
fn checkpoints_under_zero_trail_gc_replay_mpc_clean() {
    let (population, _) = mixed_log();
    for (mode, shards) in [
        (C5Mode::Faithful, 1),
        (C5Mode::OneWorkerPerTxn, 1),
        (C5Mode::Faithful, 4),
    ] {
        let replica = C5Replica::new(
            mode,
            preloaded(&population),
            config(shards).with_gc_trail(0),
        );
        checkpoints_survive_zero_trail_gc(&replica);
    }
}
