//! 1 primary → N replicas log fan-out.
//!
//! The paper evaluates a single backup; the deployment it motivates
//! (Section 2.1: Meta's read-mostly tier) serves reads from *many* replicas
//! of one primary. This scenario runs the adversarial workload on the 2PL
//! primary while its log fans out to N independent backups — one bounded
//! channel per replica, so backpressure and lag are per-replica — and
//! reports each replica's apply wall, progress, and lag distribution. Every
//! replica must keep up individually: C5's keep-up claim is per-clone, and
//! fanning the log out does not change any replica's apply path.
//!
//! The single-threaded baseline is included as the contrast: its replicas
//! all lag identically (the bottleneck is the protocol, not the fan-out).

use std::sync::Arc;

use c5_workloads::synthetic::{adversarial_population, AdversarialWorkload};

use crate::harness::{print_json_table, run_scenario, ReplicaSpec, Scenario};
use crate::scale::Scale;

/// `scale.fanout_replicas` backups of `spec` under the adversarial workload.
pub fn scenario(scale: &Scale, spec: ReplicaSpec) -> Scenario {
    Scenario::new(
        scale,
        adversarial_population(),
        Arc::new(AdversarialWorkload::new(4)),
        vec![spec; scale.fanout_replicas],
    )
}

/// Runs the fan-out scenario and prints one row per replica.
pub fn run(scale: &Scale) {
    let mut rows = Vec::new();
    for spec in [ReplicaSpec::C5Faithful, ReplicaSpec::SingleThreaded] {
        let outcome = run_scenario(&scenario(scale, spec));
        println!(
            "{}: primary {:.0} txns/s, worst replica median lag {:.2} ms across {} replicas",
            outcome.replicas[0].protocol,
            outcome.primary.throughput(),
            outcome.worst_p50_ms(),
            outcome.replicas.len()
        );
        assert!(
            outcome.all_converged(),
            "{spec:?}: every replica must end at the primary's state"
        );
        let doc = outcome.to_json();
        rows.extend_from_slice(doc.at("replicas").and_then(|r| r.as_arr()).unwrap_or(&[]));
    }
    let title = format!(
        "Fan-out (measured on this host): 1 primary -> {} replicas, adversarial workload",
        scale.fanout_replicas
    );
    let columns = "protocol replica applied_txns exposed_seq lag_ms/p50 lag_ms/max wall_ms";
    print_json_table(&title, &rows, columns);
}
