//! The replay phase: a fresh fleet of the workload's spec consumes the
//! materialised log as fast as the wire and `apply_segment` accept it. The
//! rate is the backup's keep-up headroom and its failover drain rate.
//!
//! The log travels the same path as in the paced phase (shipper, durable
//! archive where the workload has one, subscriptions, feeder threads), so
//! whatever sits on that path is in the number.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_common::{ReadConfig, RowRef, SeqNo, Value};
use c5_core::mpc::MpcChecker;
use c5_log::Segment;
use c5_read::ReadRouter;

use crate::fleet::{Fault, Fleet, ReplayLog};
use crate::paced::{feed, Failures, ReadClient};
use crate::workload::{Reader, WorkloadSpec};

/// One replay repetition.
#[derive(Debug)]
pub struct Replayed {
    /// Thousand records per second: records ÷ wall until the last replica's
    /// `finish()` returned.
    pub krec_per_s: f64,
    /// `deferred_writes ÷ applied_writes`, summed over the fleet.
    pub deferred_share: f64,
    /// Snapshot transactions the reader completed meanwhile (`reads.mixed`).
    pub reads: u64,
    /// Correctness checks performed.
    pub checks: u64,
    /// Checks that failed.
    pub failures: Failures,
}

/// Replays `log` once through a fresh fleet and verifies what it exposes.
pub fn run_once(
    spec: &WorkloadSpec,
    population: &[(RowRef, Value)],
    log: &ReplayLog,
    seed: u64,
    fault: Option<Fault>,
) -> std::io::Result<Replayed> {
    let Fleet {
        shipper,
        receivers,
        replicas,
        archive,
    } = Fleet::start(spec, population, fault)?;
    let segments = log.segments.clone();
    // No primary exists during a replay, so the router has no frontier and
    // the reader issues the snapshot transactions only: they are what
    // competes with the applies for the store's shards and the two cores.
    let router = Arc::new(ReadRouter::new(replicas.clone(), ReadConfig::default()));
    let replaying = AtomicBool::new(true);
    let mut failures = Failures::default();

    let start = Instant::now();
    let (wall, reads) = std::thread::scope(|scope| {
        let reader = matches!(spec.reader, Reader::Mixed { .. }).then(|| {
            scope.spawn(|| {
                let mut client = ReadClient::new(Arc::clone(&router), spec.traffic, seed);
                while replaying.load(Ordering::Acquire) {
                    client.snapshot_txn();
                }
                client.samples
            })
        });

        let begun = Instant::now();
        let feeders: Vec<_> = replicas
            .iter()
            .zip(receivers)
            .map(|(replica, receiver)| scope.spawn(move || feed(replica, receiver, start, false)))
            .collect();
        for segment in segments {
            shipper.ship(segment);
        }
        shipper.close();
        for feeder in feeders {
            feeder.join().expect("feeder thread");
        }
        let wall = begun.elapsed();
        replaying.store(false, Ordering::Release);
        let reads = reader.map(|r| r.join().expect("reader thread"));
        (wall, reads)
    });
    drop(archive);

    let reads = reads.map_or(0, |samples| {
        failures.absorb(samples.failures);
        samples.attempted
    });
    let last = log
        .segments
        .last()
        .map_or(SeqNo::ZERO, Segment::covered_through);
    let (mut applied, mut deferred, mut checks) = (0, 0, 0);
    for (r, replica) in replicas.iter().enumerate() {
        checks += 2;
        if replica.exposed_seq() != last {
            failures.push(|| {
                format!(
                    "replay: replica {r} drained at cut {} but the log ends at {last}",
                    replica.exposed_seq()
                )
            });
        }
        if replica.read_view().scan_all() != log.final_state {
            failures.push(|| format!("replay: replica {r} diverged from the primary's state"));
        }
        let metrics = replica.metrics();
        applied += metrics.applied_writes;
        deferred += metrics.deferred_writes;
    }
    Ok(Replayed {
        krec_per_s: log.records as f64 / wall.as_secs_f64() / 1e3,
        deferred_share: deferred as f64 / applied.max(1) as f64,
        reads,
        checks,
        failures,
    })
}

/// Records of the log prefix the monotonic-prefix-consistency pass replays:
/// small enough that a full scan per sampled view stays cheap.
const MPC_PREFIX_RECORDS: usize = 100_000;
/// Views taken while that prefix is applied.
const MPC_VIEWS: usize = 12;

/// Replays a prefix of `log` through a fresh replica, pausing [`MPC_VIEWS`]
/// times to take a `read_view()` of whatever is exposed, and checks every
/// view — and the final one — against `MpcChecker`'s serial replay: each
/// must be a transaction-aligned prefix of the log, and they must never move
/// backwards.
///
/// The feed pauses until the cut has caught up before each view is scanned:
/// the store's version GC trails the exposed cut and does not wait for
/// pinned views, so a full scan racing a full-speed replay would lose rows
/// to it. For the same reason the pass is kept out of the timed phases, where
/// a scan per view would show up as lag spikes. Returns the number of views
/// checked.
pub fn mpc_pass(
    spec: &WorkloadSpec,
    population: &[(RowRef, Value)],
    log: &ReplayLog,
    fault: Option<Fault>,
) -> std::io::Result<(u64, Failures)> {
    let mut prefix = Vec::new();
    let mut records = 0;
    for segment in &log.segments {
        if records >= MPC_PREFIX_RECORDS {
            break;
        }
        records += segment.len();
        prefix.push(segment.clone());
    }
    let mut checker = MpcChecker::new(population, &prefix);
    let fleet = Fleet::start(spec, population, fault)?;
    let replica = &fleet.replicas[0];

    let mut failures = Failures::default();
    let mut views = Vec::with_capacity(MPC_VIEWS + 1);
    let every = prefix.len().div_ceil(MPC_VIEWS).max(1);
    for (i, segment) in prefix.into_iter().enumerate() {
        let through = segment.covered_through();
        replica.apply_segment(segment);
        if i % every == every - 1 {
            if !replica.wait_until_exposed(through, Duration::from_secs(30)) {
                failures.push(|| format!("mpc: cut {through} was never exposed"));
            }
            let view = replica.read_view();
            views.push((view.as_of(), view.scan_all()));
        }
    }
    for replica in &fleet.replicas {
        replica.finish();
    }
    let view = replica.read_view();
    views.push((view.as_of(), view.scan_all()));

    if views.last().map(|(cut, _)| *cut) != Some(checker.final_seq()) {
        failures.push(|| "mpc: the drained replica does not expose the whole prefix".into());
    }
    let checked = views.len() as u64 + 1;
    for (cut, state) in views {
        if let Err(err) = checker.verify_state(cut, state) {
            failures.push(|| format!("mpc: {err}"));
        }
    }
    Ok((checked, failures))
}
