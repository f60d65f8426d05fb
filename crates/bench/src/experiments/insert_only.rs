//! Section 6.2 / 7.3 text results: the insert-only workload.
//!
//! Paper result: with no conflicts at all, both C5 and KuaFu keep up with the
//! primary — on MyRocks (~40,500 txns/s) and on Cicada (~87 M rows/s, with
//! the backups replaying slightly faster than the primary executed). The
//! experiment checks the "keeps up" property for every protocol, which also
//! produces the data for Table 1's summary matrix.

use std::sync::Arc;

use c5_workloads::synthetic::InsertOnlyWorkload;

use crate::harness::{
    fmt_ratio, fmt_tps, print_table, run_offline_mvtso, run_scenario, ReplicaSpec, Scenario,
};
use crate::scale::Scale;

/// Protocols compared on the insert-only workload.
pub const SPECS: &[ReplicaSpec] = &[
    ReplicaSpec::C5MyRocks,
    ReplicaSpec::C5Faithful,
    ReplicaSpec::KuaFu {
        ignore_constraints: false,
    },
    ReplicaSpec::SingleThreaded,
    ReplicaSpec::TableGranularity,
    ReplicaSpec::PageGranularity { rows_per_page: 64 },
];

/// Runs the streaming (MyRocks-style) variant.
pub fn run_myrocks(scale: &Scale) {
    let mut rows = Vec::new();
    for spec in SPECS {
        let out = run_scenario(&Scenario::new(
            scale,
            Vec::new(),
            Arc::new(InsertOnlyWorkload::new(4)),
            vec![*spec],
        ));
        rows.push(vec![
            out.replicas[0].protocol.to_string(),
            fmt_tps(out.primary.throughput()),
            fmt_tps(out.replicas[0].throughput()),
            fmt_ratio(out.relative_throughput()),
            if out.keeps_up(&out.replicas[0]) {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    print_table(
        "Insert-only, 2PL/MyRocks primary (measured): does every protocol keep up when nothing conflicts?",
        &["protocol", "primary txns/s", "backup txns/s", "relative", "keeps up?"],
        &rows,
    );
}

/// Runs the offline (Cicada-style) variant: 16-insert transactions, matching
/// the paper's best-throughput configuration.
pub fn run_cicada(scale: &Scale) {
    let mut rows = Vec::new();
    for spec in &[
        ReplicaSpec::C5Faithful,
        ReplicaSpec::KuaFu {
            ignore_constraints: false,
        },
    ] {
        let out = run_offline_mvtso(
            scale,
            &[],
            scale.offline_txns_per_thread() / 4,
            Arc::new(InsertOnlyWorkload::new(16)),
            *spec,
        );
        let rows_per_s_primary = out.primary.throughput() * 16.0;
        let rows_per_s_backup = out.replica_throughput() * 16.0;
        rows.push(vec![
            out.protocol.to_string(),
            fmt_tps(rows_per_s_primary),
            fmt_tps(rows_per_s_backup),
            fmt_ratio(out.relative_throughput()),
        ]);
    }
    print_table(
        "Insert-only, MVTSO/Cicada primary (measured): 16-insert transactions [rows/s]",
        &["protocol", "primary rows/s", "backup rows/s", "relative"],
        &rows,
    );
}
