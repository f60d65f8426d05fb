//! Figure 6: TPC-C NewOrder and Payment, before and after the contention
//! deferral optimization (MyRocks / 2PL primary).
//!
//! Paper result: the optimizations raise the primary's throughput (Payment by
//! over 700%); KuaFu keeps up on NewOrder but cannot keep up on the optimized
//! Payment workload, while C5-MyRocks always keeps up.

use std::sync::Arc;

use c5_lagmodel::{simulate_backup, simulate_primary_2pl, BackupProtocol, ModelParams};
use c5_primary::TxnFactory;
use c5_workloads::tpcc::{population, TpccMix};

use crate::experiments::recorder::record_workload;
use crate::harness::{fmt_ratio, fmt_tps, print_table, run_scenario, ReplicaSpec, Scenario};
use crate::scale::Scale;

/// Runs the experiment and prints the model and measured tables.
pub fn run(scale: &Scale) {
    let params = ModelParams::paper_like(20);
    let mut model_rows = Vec::new();
    let mut measured_rows = Vec::new();

    for (workload_name, new_order_pct) in [("new-order", 100u32), ("payment", 0u32)] {
        for optimized in [false, true] {
            let cfg = scale.tpcc().with_optimized(optimized);
            let variant = if optimized { "opt" } else { "unopt" };

            // --- Model series -------------------------------------------------
            let mix = TpccMix::new(cfg, new_order_pct);
            let recorded =
                record_workload(&mix, &population(&cfg), 2_000, 6 + new_order_pct as u64);
            let primary = simulate_primary_2pl(&params, &recorded);
            let kuafu = simulate_backup(&params, &primary, BackupProtocol::TxnGranularity);
            let c5 = simulate_backup(&params, &primary, BackupProtocol::RowGranularity);
            model_rows.push(vec![
                workload_name.to_string(),
                variant.to_string(),
                format!("{:.3}", primary.throughput()),
                format!("{:.3}", c5.throughput().min(primary.throughput() * 1.05)),
                format!("{:.3}", kuafu.throughput()),
                yes_no(kuafu.throughput() >= primary.throughput() * 0.95),
            ]);

            // --- Measured series ----------------------------------------------
            let factory: Arc<dyn TxnFactory> = Arc::new(TpccMix::new(cfg, new_order_pct));
            let measure = |spec| {
                run_scenario(&Scenario::new(
                    scale,
                    population(&cfg),
                    Arc::clone(&factory),
                    vec![spec],
                ))
            };
            let c5_out = measure(ReplicaSpec::C5MyRocks);
            let kuafu_out = measure(ReplicaSpec::KuaFu {
                ignore_constraints: false,
            });
            measured_rows.push(vec![
                workload_name.to_string(),
                variant.to_string(),
                fmt_tps(c5_out.primary.throughput()),
                fmt_tps(c5_out.replicas[0].throughput()),
                fmt_ratio(c5_out.relative_throughput()),
                fmt_tps(kuafu_out.replicas[0].throughput()),
                fmt_ratio(kuafu_out.relative_throughput()),
                yes_no(kuafu_out.keeps_up(&kuafu_out.replicas[0])),
            ]);
        }
    }

    print_table(
        "Figure 6 (model, m=20 cores): TPC-C throughput before/after optimization [txns per time unit]",
        &["workload", "variant", "primary", "c5", "kuafu", "kuafu keeps up?"],
        &model_rows,
    );
    print_table(
        "Figure 6 (measured on this host): primary vs backup apply throughput [txns/s]",
        &[
            "workload",
            "variant",
            "primary",
            "c5",
            "c5/primary",
            "kuafu",
            "kuafu/primary",
            "kuafu keeps up?",
        ],
        &measured_rows,
    );
}

fn yes_no(v: bool) -> String {
    if v {
        "yes".into()
    } else {
        "no".into()
    }
}
