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
//! `workers` column reports the actual number so rows stay comparable).
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

use crate::harness::{print_json_table, run_scenario, ReplicaSpec, Scenario};
use crate::json::JsonValue;
use crate::scale::Scale;

/// The preloaded key space the workload updates (and the router partitions).
/// Divides evenly into up to 64 range shards.
pub const KEY_SPACE: u64 = 4096;

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

/// Runs the sweep up to `scale.max_sweep_shards`; returns one
/// [`Outcome::to_json`](crate::harness::Outcome::to_json) document per shard
/// count.
///
/// # Panics
/// Panics if a replica does not converge, or if the span workload is not at
/// least 10% cross-shard above one shard.
pub fn sweep(scale: &Scale) -> Vec<JsonValue> {
    (scale.sweep_shards().into_iter())
        .map(|shards| {
            let outcome = run_scenario(&scenario(scale, shards));
            let doc = outcome.to_json();
            let share = doc
                .at("replicas/0/cross_shard_share")
                .and_then(JsonValue::as_num);
            println!(
                "{shards} shard(s): primary {:.0} txns/s, {:.0}% cross-shard, lag p50 {:.2} ms, \
                 {} cuts",
                outcome.primary.throughput(),
                share.unwrap_or(0.0) * 100.0,
                outcome.worst_p50_ms(),
                outcome.replicas[0].cuts_taken,
            );
            assert!(
                outcome.all_converged(),
                "{shards} shards: the replica must end at the primary's state"
            );
            assert!(
                shards == 1 || share >= Some(0.10),
                "{shards} shards: the span workload must be >=10% cross-shard (got {share:?})"
            );
            doc
        })
        .collect()
}

/// Runs the sweep and prints one table of global rows and one of shard rows
/// per shard count.
pub fn run(scale: &Scale) {
    let sweep = sweep(scale);
    let title = format!(
        "Sharded replication (measured on this host): ~{} total workers (see workers_total), \
         shard-span workload over {KEY_SPACE} keys",
        scale.replica_workers
    );
    let rows: Vec<JsonValue> = (sweep.iter())
        .filter_map(|doc| doc.at("replicas/0").cloned())
        .collect();
    let columns = "shards workers_total applied_txns cross_shard_share cuts_taken lag_ms/p50 \
                   lag_ms/max wall_ms";
    print_json_table(&title, &rows, columns);
    for row in &rows {
        let shards = row.at("per_shard").and_then(JsonValue::as_arr);
        let title = format!("Per-shard lag at {} shard(s)", shards.map_or(0, <[_]>::len));
        print_json_table(
            &title,
            shards.unwrap_or(&[]),
            "shard owned_txns lag_ms/p50 lag_ms/max",
        );
    }
}
