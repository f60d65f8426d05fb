//! Figure 7: adversarial workload on the 2PL (MyRocks) primary — backup
//! throughput relative to the primary's as the number of non-conflicting
//! inserts per transaction grows.
//!
//! Paper result: KuaFu's relative throughput falls from ~0.7 at 1 insert to
//! ~0.38 at 64 inserts; C5-MyRocks stays at ~1.0 throughout.

use std::sync::Arc;

use c5_lagmodel::{
    simulate_backup, simulate_primary_2pl, BackupProtocol, ModelParams, ModelWorkload,
};
use c5_workloads::synthetic::{adversarial_population, AdversarialWorkload};

use crate::harness::{fmt_ratio, fmt_tps, print_table, run_scenario, ReplicaSpec, Scenario};
use crate::scale::Scale;

/// The inserts-per-transaction sweep of the paper's Figure 7.
pub const INSERTS_PER_TXN: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// Runs the experiment and prints the model and measured tables.
pub fn run(scale: &Scale) {
    let params = ModelParams::paper_like(20);
    let mut model_rows = Vec::new();
    let mut measured_rows = Vec::new();

    for &n in INSERTS_PER_TXN {
        // --- Model series -----------------------------------------------------
        // The adversarial workload *is* the Theorem 1 construction: n
        // non-conflicting inserts followed by one write to the shared row.
        let workload = ModelWorkload::theorem1(2_000, n + 1, 1);
        let primary = simulate_primary_2pl(&params, &workload);
        let kuafu = simulate_backup(&params, &primary, BackupProtocol::TxnGranularity);
        let c5 = simulate_backup(&params, &primary, BackupProtocol::RowGranularity);
        model_rows.push(vec![
            n.to_string(),
            format!("{:.2}", (c5.throughput() / primary.throughput()).min(1.05)),
            format!("{:.2}", kuafu.throughput() / primary.throughput()),
        ]);

        // --- Measured series ---------------------------------------------------
        let measure = |spec| {
            run_scenario(&Scenario::new(
                scale,
                adversarial_population(),
                Arc::new(AdversarialWorkload::new(n)),
                vec![spec],
            ))
        };
        let c5_out = measure(ReplicaSpec::C5MyRocks);
        let kuafu_out = measure(ReplicaSpec::KuaFu {
            ignore_constraints: false,
        });
        measured_rows.push(vec![
            n.to_string(),
            fmt_tps(c5_out.primary.throughput()),
            fmt_ratio(c5_out.relative_throughput()),
            fmt_ratio(kuafu_out.relative_throughput()),
        ]);
    }

    print_table(
        "Figure 7 (model, m=20 cores): backup throughput relative to primary, adversarial workload",
        &["inserts/txn", "c5 relative", "kuafu relative"],
        &model_rows,
    );
    print_table(
        "Figure 7 (measured on this host): adversarial workload",
        &[
            "inserts/txn",
            "primary txns/s",
            "c5 relative",
            "kuafu relative",
        ],
        &measured_rows,
    );
}
