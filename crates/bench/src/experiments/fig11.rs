//! Figure 11: adversarial workload on the Cicada (MVTSO) primary — backup
//! throughput relative to the primary as inserts per transaction grow.
//!
//! Paper result: C5-Cicada's relative throughput stays at or above 1.0 and
//! actually rises past 4–8 inserts per transaction (more parallel work per
//! transaction lets it use more workers); KuaFu's falls to ~0.4 at 128.

use std::sync::Arc;

use c5_lagmodel::{
    simulate_backup, simulate_primary_2pl, BackupProtocol, ModelParams, ModelWorkload,
};
use c5_workloads::synthetic::{adversarial_population, AdversarialWorkload};

use crate::harness::{fmt_ratio, fmt_tps, print_table, run_offline_mvtso, ReplicaSpec};
use crate::scale::Scale;

/// Inserts-per-transaction sweep of Figure 11.
pub const INSERTS_PER_TXN: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Runs the experiment and prints the model and measured tables.
pub fn run(scale: &Scale) {
    let params = ModelParams::paper_like(20);
    let mut model_rows = Vec::new();
    let mut measured_rows = Vec::new();

    for &n in INSERTS_PER_TXN {
        // --- Model series -----------------------------------------------------
        let workload = ModelWorkload::theorem1(2_000, n + 1, 1);
        let primary = simulate_primary_2pl(&params, &workload);
        let kuafu = simulate_backup(&params, &primary, BackupProtocol::TxnGranularity);
        let c5 = simulate_backup(&params, &primary, BackupProtocol::RowGranularity);
        model_rows.push(vec![
            n.to_string(),
            format!("{:.2}", c5.throughput() / primary.throughput()),
            format!("{:.2}", kuafu.throughput() / primary.throughput()),
        ]);

        // --- Measured series ----------------------------------------------------
        // Keep the total write volume roughly constant across the sweep so the
        // quick scale stays quick.
        let txns_per_thread = (scale.offline_txns_per_thread() / (1 + n / 4)).max(50);
        let measure = |spec| {
            run_offline_mvtso(
                scale,
                &adversarial_population(),
                txns_per_thread,
                Arc::new(AdversarialWorkload::new(n)),
                spec,
            )
        };
        let c5_out = measure(ReplicaSpec::C5Faithful);
        let kuafu_out = measure(ReplicaSpec::KuaFu {
            ignore_constraints: false,
        });
        measured_rows.push(vec![
            n.to_string(),
            fmt_tps(c5_out.primary.throughput()),
            format!("{:.0}%", c5_out.primary.abort_rate() * 100.0),
            fmt_ratio(c5_out.relative_throughput()),
            fmt_ratio(kuafu_out.relative_throughput()),
        ]);
    }

    print_table(
        "Figure 11 (model, m=20 cores): adversarial workload, backup throughput relative to primary",
        &["inserts/txn", "c5 relative", "kuafu relative"],
        &model_rows,
    );
    print_table(
        "Figure 11 (measured, MVTSO primary on this host): adversarial workload",
        &[
            "inserts/txn",
            "primary txns/s",
            "abort rate",
            "c5 relative",
            "kuafu relative",
        ],
        &measured_rows,
    );
}
