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

use crate::harness::{print_json_table, run_scenario, Outcome, Readers, ReplicaSpec, Scenario};
use crate::json::JsonValue;
use crate::scale::Scale;

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

/// Asserts what every session run must show — the fleet converged and every
/// class served reads — and prints the per-class and per-replica tables.
pub(crate) fn report_sessions(title: &str, outcome: &Outcome) {
    assert!(
        outcome.all_converged(),
        "every serving replica must end at the primary's full final state"
    );
    let doc = outcome.to_json();
    let rows = |key| doc.at(key).and_then(JsonValue::as_arr).unwrap_or(&[]);
    for class in rows("classes") {
        let reads = class.at("reads").and_then(JsonValue::as_num);
        assert!(reads > Some(0.0), "a class served no reads: {class:?}");
    }
    let session = |key| doc.at(key).and_then(JsonValue::as_num).unwrap_or(0.0);
    println!(
        "{} sessions: {} reads served, {} tokened writes, {} read-your-writes reads asserted \
         fresh, {} replica switches under the monotonic floor, {} timeouts, {} routing \
         generations",
        session("sessions"),
        session("total_reads"),
        session("session/writes"),
        session("session/ryw_reads"),
        session("session/replica_switches"),
        session("session/timeouts"),
        session("generations"),
    );
    let columns = "class reads reads_per_sec ro_txns blocked block_ms timeouts latency_ms/p50 \
         latency_ms/p99 staleness_ms/p50 staleness_ms/p99";
    print_json_table(title, rows("classes"), columns);
    let columns = "replica joined_mid_run exposed_seq served applied_txns lag_ms/p50 lag_ms/max";
    print_json_table(
        "Serving members (a mid-run joiner's lag covers only its post-join life)",
        rows("replicas"),
        columns,
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
