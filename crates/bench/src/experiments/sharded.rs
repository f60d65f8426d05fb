//! Sharded replication: per-partition apply under the cross-shard cut
//! coordinator.
//!
//! The paper's replica applies one log with one pipeline; the ROADMAP
//! north-star is a keyspace that shards. This scenario runs the shard-span
//! workload (two uniform updates per transaction, so roughly `1 - 1/N` of
//! transactions cross shards at N shards) on the 2PL primary while a
//! `ShardedC5Replica` applies the log at 1, 2, 4, … shards, keeping the
//! total worker count as close to constant as divisibility allows
//! (`max(1, total / shards)` workers per shard — each pipeline needs at
//! least one worker, so shard counts above the total run more; the table's
//! `workers_total` column reports the actual number so rows stay comparable).
//! Reported per shard count: primary throughput, the cross-shard share,
//! global lag, and per-shard lag (a transaction's sample lands on the shard
//! owning its final write).
//!
//! The 1-shard row is the control: it must match the unsharded faithful
//! replica, because the cut protocol degenerates to the paper's
//! single-log cut when the vector has one component
//! (`tests/protocol_conformance.rs` holds it to that).

use std::sync::Arc;

use c5_workloads::synthetic::{shard_span_population, ShardSpanWorkload};

use crate::harness::{
    fmt_cell, print_table, run_scenario, Outcome, ReplicaOutcome, ReplicaSpec, Scenario,
};
use crate::scale::Scale;

/// The preloaded key space the workload updates (and the router partitions).
/// Divides evenly into up to 64 range shards.
pub const KEY_SPACE: u64 = 4096;

/// Largest shard count of the sweep, which doubles from 1 up to this.
const MAX_SWEEP_SHARDS: usize = 8;

/// The sweep table's header: one row per shard count.
pub(crate) const COLUMNS: [&str; 8] = [
    "shards",
    "workers_total",
    "applied_txns",
    "cross_shard_share",
    "cuts_taken",
    "lag_ms/p50",
    "lag_ms/max",
    "wall_ms",
];

/// The per-shard table's header.
pub(crate) const SHARD_COLUMNS: [&str; 4] = ["shard", "owned_txns", "lag_ms/p50", "lag_ms/max"];

/// One sharded backup at `shards` shards under the shard-span workload.
pub fn scenario(scale: &Scale, shards: usize) -> Scenario {
    Scenario::new(
        scale,
        shard_span_population(KEY_SPACE),
        Arc::new(ShardSpanWorkload::new(KEY_SPACE)),
        vec![ReplicaSpec::C5Sharded {
            shards,
            key_space: KEY_SPACE,
        }],
    )
}

/// The share of `replica`'s applied transactions that spanned shards.
fn cross_shard_share(replica: &ReplicaOutcome) -> f64 {
    replica.metrics.cross_shard_txns as f64 / replica.metrics.applied_txns.max(1) as f64
}

/// The sharded backup's sweep row and its per-shard rows, in [`COLUMNS`] and
/// [`SHARD_COLUMNS`] order.
pub(crate) fn rows(outcome: &Outcome) -> (Vec<String>, Vec<Vec<String>>) {
    let replica = &outcome.replicas[0];
    let lag = replica.lag.as_ref();
    let row = vec![
        replica.per_shard.len().max(1).to_string(),
        replica.workers.to_string(),
        replica.metrics.applied_txns.to_string(),
        fmt_cell(cross_shard_share(replica)),
        replica.cuts_taken.to_string(),
        fmt_cell(lag.map(|l| l.p50_ms)),
        fmt_cell(lag.map(|l| l.max_ms)),
        fmt_cell(replica.wall.as_secs_f64() * 1e3),
    ];
    let shards = (replica.per_shard.iter().enumerate())
        .map(|(shard, (owned, lag))| {
            vec![
                shard.to_string(),
                owned.to_string(),
                fmt_cell(lag.as_ref().map(|l| l.p50_ms)),
                fmt_cell(lag.as_ref().map(|l| l.max_ms)),
            ]
        })
        .collect();
    (row, shards)
}

/// Runs the sweep; returns one outcome per shard count.
///
/// # Panics
/// Panics if a replica does not converge, or if the span workload is not at
/// least 10% cross-shard above one shard.
fn sweep(scale: &Scale) -> Vec<Outcome> {
    let shard_counts = std::iter::successors(Some(1), |n| Some(n * 2));
    (shard_counts.take_while(|&n| n <= MAX_SWEEP_SHARDS))
        .map(|shards| {
            let outcome = run_scenario(&scenario(scale, shards));
            let share = cross_shard_share(&outcome.replicas[0]);
            println!(
                "{shards} shard(s): primary {:.0} txns/s, {:.0}% cross-shard, lag p50 {:.2} ms, \
                 {} cuts",
                outcome.primary.throughput(),
                share * 100.0,
                outcome.worst_p50_ms(),
                outcome.replicas[0].cuts_taken,
            );
            assert!(
                outcome.all_converged(),
                "{shards} shards: the replica must end at the primary's state"
            );
            assert!(
                shards == 1 || share >= 0.10,
                "{shards} shards: the span workload must be >=10% cross-shard (got {share})"
            );
            outcome
        })
        .collect()
}

/// Runs the sweep and prints one table of global rows and one of shard rows
/// per shard count.
pub fn run(scale: &Scale) {
    let (table, per_shard): (Vec<_>, Vec<_>) = sweep(scale).iter().map(rows).unzip();
    let title = format!(
        "Sharded replication (measured on this host): ~{} total workers (see workers_total), \
         shard-span workload over {KEY_SPACE} keys",
        scale.replica_workers
    );
    print_table(&title, &COLUMNS, &table);
    for shards in per_shard {
        let title = format!("Per-shard lag at {} shard(s)", shards.len());
        print_table(&title, &SHARD_COLUMNS, &shards);
    }
}
