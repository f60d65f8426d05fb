//! Sharded replication: key-range lane groups under one global cut.
//!
//! The paper's replica applies one log with one pipeline; the ROADMAP
//! north-star is a keyspace that shards. This scenario runs the shard-span
//! workload (two uniform updates per transaction, so roughly `1 - 1/N` of
//! transactions cross shards at N shards) on the 2PL primary while a
//! faithful `C5Replica` applies the log at 1, 2, 4, … shards, keeping the
//! total worker count as close to constant as divisibility allows
//! (`max(1, total / shards)` workers per shard — each shard needs at least
//! one worker lane, so shard counts above the total run more; the table's
//! `workers_total` column reports the actual number so rows stay comparable).
//! Reported per shard count: primary throughput, the cross-shard share, the
//! cuts the replica published (its sink's expose-stage item count) and lag.
//! The 1-shard row is the unsharded faithful replica itself.

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

/// Cuts the scenario's one replica published: the expose stage's item count
/// in the run's sink.
pub(crate) fn cuts_taken(outcome: &Outcome) -> u64 {
    (outcome.obs.metrics)
        .counter("stage_items_total{stage=\"expose\"}")
        .get()
}

/// The sharded backup's sweep row at `shards` shards, in [`COLUMNS`] order.
pub(crate) fn row(shards: usize, outcome: &Outcome) -> Vec<String> {
    let replica = &outcome.replicas[0];
    let lag = replica.lag.as_ref();
    vec![
        shards.to_string(),
        replica.workers.to_string(),
        replica.metrics.applied_txns.to_string(),
        fmt_cell(cross_shard_share(replica)),
        cuts_taken(outcome).to_string(),
        fmt_cell(lag.map(|l| l.p50_ms)),
        fmt_cell(lag.map(|l| l.max_ms)),
        fmt_cell(replica.wall.as_secs_f64() * 1e3),
    ]
}

/// Runs the sweep; returns one table row per shard count.
///
/// # Panics
/// Panics if a replica does not converge, or if the span workload is not at
/// least 10% cross-shard above one shard.
fn sweep(scale: &Scale) -> Vec<Vec<String>> {
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
                cuts_taken(&outcome),
            );
            assert!(
                outcome.all_converged(),
                "{shards} shards: the replica must end at the primary's state"
            );
            assert!(
                shards == 1 || share >= 0.10,
                "{shards} shards: the span workload must be >=10% cross-shard (got {share})"
            );
            row(shards, &outcome)
        })
        .collect()
}

/// Runs the sweep and prints its table.
pub fn run(scale: &Scale) {
    let table = sweep(scale);
    let title = format!(
        "Sharded replication (measured on this host): ~{} total workers (see workers_total), \
         shard-span workload over {KEY_SPACE} keys",
        scale.replica_workers
    );
    print_table(&title, &COLUMNS, &table);
}
