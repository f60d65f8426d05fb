//! Read-serving over the fan-out fleet: consistency-class sessions against
//! 1 primary → N replicas.
//!
//! The paper measures read-only clients against a *single* backup's exposed
//! snapshot (Figures 8 and 9: lag and throughput as closed-loop point-query
//! clients are added). This scenario measures the layer the paper motivates
//! but does not build: a fleet of clones serving reads with per-read
//! consistency classes. A mixed workload — background writers on the 2PL
//! primary plus reader sessions committing their own tokened writes — runs
//! while every read names its guarantee:
//!
//! * `strong` reads verify against the primary's log frontier,
//! * `causal` reads carry session tokens (read-your-writes),
//! * `bounded` reads accept bounded staleness and take whichever replica is
//!   fresh enough and least loaded.
//!
//! Correctness is asserted inside the run: a read-your-writes read never
//! observes a state older than its token (value-checked, not just
//! cut-checked), a session never reads backwards across replica switches,
//! and a closing strong read covers the whole log. The tables report
//! per-class throughput, latency percentiles, block time, and observed
//! staleness, plus per-replica load and lag.

use std::sync::Arc;

use c5_workloads::synthetic::{adversarial_population, AdversarialWorkload};

use crate::harness::{
    fmt_cell, print_table, run_scenario, Outcome, Readers, ReplicaSpec, Scenario,
};
use crate::scale::Scale;

/// The per-class table's header.
pub(crate) const CLASS_COLUMNS: [&str; 11] = [
    "class",
    "reads",
    "reads_per_sec",
    "ro_txns",
    "blocked",
    "block_ms",
    "timeouts",
    "latency_ms/p50",
    "latency_ms/p99",
    "staleness_ms/p50",
    "staleness_ms/p99",
];

/// The per-member table's header.
pub(crate) const MEMBER_COLUMNS: [&str; 7] = [
    "replica",
    "joined_mid_run",
    "exposed_seq",
    "served",
    "applied_txns",
    "lag_ms/p50",
    "lag_ms/max",
];

/// `scale.read_sessions` sessions over `scale.fanout_replicas` faithful C5
/// backups, adversarial background load.
pub fn scenario(scale: &Scale) -> Scenario {
    Scenario {
        readers: Readers::Sessions(scale.read_sessions),
        ..Scenario::new(
            scale,
            adversarial_population(),
            Arc::new(AdversarialWorkload::new(4)),
            vec![ReplicaSpec::C5Faithful; scale.fanout_replicas],
        )
    }
}

/// A session run's per-class rows and per-member rows, in [`CLASS_COLUMNS`]
/// and [`MEMBER_COLUMNS`] order.
///
/// # Panics
/// Panics if `outcome` ran no sessions.
pub(crate) fn rows(outcome: &Outcome) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
    let sessions = outcome.sessions.as_ref().expect("sessions ran");
    let classes = (sessions.per_class.iter())
        .map(|class| {
            let (latency, staleness) = (class.latency.as_ref(), class.staleness.as_ref());
            vec![
                class.kind.name().to_string(),
                class.reads.to_string(),
                fmt_cell(class.throughput(outcome.wall)),
                class.txns.to_string(),
                class.blocked.to_string(),
                fmt_cell(class.mean_block_ms()),
                class.timeouts.to_string(),
                fmt_cell(latency.map(|l| l.p50_ms)),
                fmt_cell(latency.map(|l| l.p99_ms)),
                fmt_cell(staleness.map(|l| l.p50_ms)),
                fmt_cell(staleness.map(|l| l.p99_ms)),
            ]
        })
        .collect();
    let members = (outcome.replicas.iter())
        .map(|r| {
            let lag = r.lag.as_ref();
            vec![
                r.replica.to_string(),
                if r.joined_mid_run { "yes" } else { "no" }.to_string(),
                r.metrics.exposed_seq.as_u64().to_string(),
                r.served.to_string(),
                r.metrics.applied_txns.to_string(),
                fmt_cell(lag.map(|l| l.p50_ms)),
                fmt_cell(lag.map(|l| l.max_ms)),
            ]
        })
        .collect();
    (classes, members)
}

/// Asserts what every session run must show — the fleet converged and each
/// of the three classes served reads — and prints the per-class and
/// per-replica tables.
pub(crate) fn report_sessions(title: &str, outcome: &Outcome) {
    assert!(
        outcome.all_converged(),
        "every serving replica must end at the primary's full final state"
    );
    let sessions = outcome.sessions.as_ref().expect("sessions ran");
    assert_eq!(sessions.per_class.len(), 3, "one row per consistency class");
    for class in &sessions.per_class {
        assert!(class.reads > 0, "{} served no reads", class.kind.name());
    }
    println!(
        "{} sessions: {} reads served, {} tokened writes, {} read-your-writes reads asserted \
         fresh, {} replica switches under the monotonic floor, {} timeouts, {} routing \
         generations",
        sessions.sessions,
        sessions.per_class.iter().map(|c| c.reads).sum::<u64>(),
        sessions.writes,
        sessions.ryw_reads,
        sessions.replica_switches,
        sessions.timeouts,
        sessions.generations,
    );
    let (classes, members) = rows(outcome);
    print_table(title, &CLASS_COLUMNS, &classes);
    print_table(
        "Serving members (a mid-run joiner's lag covers only its post-join life)",
        &MEMBER_COLUMNS,
        &members,
    );
}

/// Runs the read-serving scenario and prints the per-class and per-replica
/// tables.
pub fn run(scale: &Scale) {
    let outcome = run_scenario(&scenario(scale));
    report_sessions(
        &format!(
            "Read serving (measured on this host): {} sessions over 1 primary -> {} replicas, \
             mixed read/write",
            scale.read_sessions, scale.fanout_replicas
        ),
        &outcome,
    );
    println!(
        "note: read-your-writes and monotonic-session guarantees are hard assertions inside \
         the run — reaching this line means no read ever observed a state older than its \
         token and no session ever read backwards."
    );
}
