//! Figure 10: Cicada (MVTSO) primary, 50/50 NewOrder/Payment (optimized),
//! sweeping the number of districts from 10 down to 1.
//!
//! Paper result: KuaFu lags behind the primary at 10–4 districts; below that
//! the extra contention hurts Cicada's own throughput more than KuaFu's
//! (abort rates climb to ~75%), so KuaFu catches up. C5-Cicada keeps up at
//! every district count. Section 7.3's text adds the ablation: with its
//! transaction-granularity constraints disabled, KuaFu no longer lags —
//! demonstrating the constraints, not implementation overhead, are the cause.

use std::sync::Arc;

use c5_lagmodel::{simulate_backup, simulate_primary_2pl, BackupProtocol, ModelParams};
use c5_primary::TxnFactory;
use c5_workloads::tpcc::{population, TpccMix};

use crate::experiments::recorder::record_workload;
use crate::harness::{fmt_ratio, fmt_tps, print_table, run_offline_mvtso, ReplicaSpec};
use crate::scale::Scale;

/// District counts swept by Figure 10.
pub const DISTRICTS: &[u64] = &[1, 2, 4, 6, 8, 10];

/// Runs the experiment and prints the model and measured tables. When
/// `ablation` is true the measured table also includes KuaFu with its
/// constraints disabled.
pub fn run(scale: &Scale, ablation: bool) {
    let params = ModelParams::paper_like(20);
    let mut model_rows = Vec::new();
    let mut measured_rows = Vec::new();

    for &districts in DISTRICTS {
        let cfg = scale.tpcc().with_districts(districts).with_optimized(true);

        // --- Model series -------------------------------------------------
        let mix = TpccMix::half_and_half(cfg);
        let recorded = record_workload(&mix, &population(&cfg), 2_000, 100 + districts);
        let primary = simulate_primary_2pl(&params, &recorded);
        let kuafu = simulate_backup(&params, &primary, BackupProtocol::TxnGranularity);
        let c5 = simulate_backup(&params, &primary, BackupProtocol::RowGranularity);
        model_rows.push(vec![
            districts.to_string(),
            format!("{:.3}", primary.throughput()),
            format!("{:.2}", (c5.throughput() / primary.throughput()).min(1.05)),
            format!("{:.2}", kuafu.throughput() / primary.throughput()),
        ]);

        // --- Measured series (real MVTSO primary; abort rates are the part
        // the model cannot show) -------------------------------------------
        let factory: Arc<dyn TxnFactory> = Arc::new(TpccMix::half_and_half(cfg));
        let measure = |spec| {
            run_offline_mvtso(
                scale,
                &population(&cfg),
                scale.offline_txns_per_thread() / 4,
                Arc::clone(&factory),
                spec,
            )
        };
        let c5_out = measure(ReplicaSpec::C5Faithful);
        let kuafu_out = measure(ReplicaSpec::KuaFu {
            ignore_constraints: false,
        });
        let mut row = vec![
            districts.to_string(),
            fmt_tps(c5_out.primary.throughput()),
            format!("{:.0}%", c5_out.primary.abort_rate() * 100.0),
            fmt_ratio(c5_out.relative_throughput()),
            fmt_ratio(kuafu_out.relative_throughput()),
        ];
        if ablation {
            let unconstrained = measure(ReplicaSpec::KuaFu {
                ignore_constraints: true,
            });
            row.push(fmt_ratio(unconstrained.relative_throughput()));
        }
        measured_rows.push(row);
    }

    print_table(
        "Figure 10 (model, m=20 cores): 50/50 NewOrder-Payment (optimized) vs district count",
        &["districts", "primary", "c5 relative", "kuafu relative"],
        &model_rows,
    );
    let mut headers = vec![
        "districts",
        "primary txns/s",
        "abort rate",
        "c5 relative",
        "kuafu relative",
    ];
    if ablation {
        headers.push("kuafu-unconstrained relative");
    }
    print_table(
        "Figure 10 (measured, MVTSO primary on this host): district sweep",
        &headers,
        &measured_rows,
    );
    println!(
        "note: the measured abort-rate column reproduces Section 7.3's observation that contention \
         below ~4 districts hurts the MVTSO primary itself, which is what lets KuaFu catch up."
    );
}
