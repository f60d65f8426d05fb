//! Failover: kill the primary mid-workload, promote the backup, resume.
//!
//! The point of cloned concurrency control is that a backup which always
//! keeps up makes failover cheap: when the primary dies, the backup's
//! remaining work is exactly its replication backlog, so promotion latency is
//! bounded by replication lag. This scenario measures that end to end for C5
//! (both modes) against KuaFu and table-granularity on the adversarial
//! workload: the 2PL primary runs for the scenario duration, its log crashes
//! without flushing (the unshipped tail is lost, as under asynchronous
//! replication), the backup drains to a clean cut and is promoted, and a new
//! primary resumes committing on the promoted store at the cut.
//!
//! For the C5 rows the cycle is closed with a **cold standby**: a checkpoint
//! of the promoted state is exported at the cut, installed into a fresh
//! store, and caught up from the resumed primary's retained log tail
//! (`LogArchive::replay_from`) — then verified row-for-row against the
//! promoted primary.
//!
//! Built-in assertions (also exercised by the CI smoke step): every
//! promotion lands at or above the last cut the backup exposed before the
//! kill; the resumed primary serves traffic; the standby catches up exactly;
//! and C5's takeover stays within a small multiple of its replication lag
//! (no unbounded drain), while protocols that fall behind pay for their whole
//! backlog at promotion time.

use std::sync::Arc;

use c5_workloads::synthetic::{adversarial_population, AdversarialWorkload};

use crate::harness::{print_json_table, run_scenario, Event, ReplicaSpec, Scenario};
use crate::scale::Scale;

/// The protocols the failover sweep promotes.
pub const PROTOCOLS: [ReplicaSpec; 4] = [
    ReplicaSpec::C5Faithful,
    ReplicaSpec::C5MyRocks,
    ReplicaSpec::KuaFu {
        ignore_constraints: false,
    },
    ReplicaSpec::TableGranularity,
];

/// One backup of `spec` under the adversarial workload; the primary is killed
/// when the load window closes and resumed for half as long again.
pub fn scenario(scale: &Scale, spec: ReplicaSpec, standby: bool) -> Scenario {
    let kill = Event::KillPrimary {
        resume: scale.duration / 2,
        standby,
    };
    Scenario {
        events: vec![(scale.duration, kill)],
        ..Scenario::new(
            scale,
            adversarial_population(),
            Arc::new(AdversarialWorkload::new(4)),
            vec![spec],
        )
    }
}

/// Runs the failover sweep and prints one row per promoted protocol.
pub fn run(scale: &Scale) {
    let mut rows = Vec::new();
    for spec in PROTOCOLS {
        let is_c5 = matches!(spec, ReplicaSpec::C5Faithful | ReplicaSpec::C5MyRocks);
        let outcome = run_scenario(&scenario(scale, spec, is_c5));
        let failover = outcome.failover.as_ref().expect("the kill fired");
        // Promotion must never land below what the backup already exposed:
        // the promoted state extends, and never rolls back, the prefix
        // read-only transactions observed before the failure.
        assert!(
            failover.promoted_cut >= failover.exposed_at_kill,
            "{:?}: promoted cut {} below the last exposed cut {}",
            spec,
            failover.promoted_cut,
            failover.exposed_at_kill
        );
        assert!(
            failover.resumed.committed > 0,
            "{:?}: the promoted primary must serve traffic",
            spec
        );
        if is_c5 {
            assert!(
                failover.drain_bounded_by_lag(),
                "{:?}: takeover {:?} exceeds the lag bound (lag max {:?} ms) — \
                 a keeping-up backup must not have an unbounded drain",
                spec,
                failover.takeover,
                failover.lag_at_kill.as_ref().map(|l| l.max_ms)
            );
            assert!(
                outcome.all_converged(),
                "{:?}: the cold standby must converge to the promoted primary's state",
                spec
            );
        }
        rows.push(outcome.to_json());
    }
    let columns = "protocol primary_tps shipped_seq backlog_records lag_at_kill_ms/p50 \
         lag_at_kill_ms/p99 lag_at_kill_ms/max takeover_ms promotion_drain_ms \
         promoted_cut resumed_committed standby/checkpoint_rows \
         standby/replayed_records";
    print_json_table(
        "Failover (measured on this host): primary killed after the run duration, \
         unshipped tail lost, backup promoted; adversarial workload",
        &rows,
        columns,
    );
}
