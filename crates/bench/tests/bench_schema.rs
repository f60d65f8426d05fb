//! Schema contract for the `BENCH_*.json` scenario documents.
//!
//! Runs the full bench emitter at reduced parameters into a scratch
//! directory, re-parses every emitted file, and asserts that each one
//! carries every field the performance-methodology docs promise, with
//! values in sane ranges. This is what keeps the emitter, the validator,
//! and DESIGN.md's field tables from drifting apart: a field
//! renamed or dropped in the emitter fails here before it lands.

use c5_bench::json::JsonValue;
use c5_bench::report;
use c5_bench::Scale as BenchConfig;
use std::time::Duration;

/// A configuration small enough for a debug-build test run: tiny streaming
/// windows, a short replay log, and a 1..=4 shard sweep. Schema coverage is
/// identical to the `fixed` runs — only the magnitudes shrink.
fn tiny() -> BenchConfig {
    BenchConfig {
        duration: Duration::from_millis(150),
        apply_txns: 2_000,
        max_sweep_shards: 4,
        ..BenchConfig::smoke()
    }
}

fn scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("c5-bench-schema-{}", std::process::id()))
}

/// Asserts `doc` has every field in `fields` (dot-separated paths walk
/// nested objects).
fn assert_fields(name: &str, doc: &JsonValue, fields: &[&str]) {
    for field in fields {
        let mut node = doc;
        for part in field.split('.') {
            node = node
                .get(part)
                .unwrap_or_else(|| panic!("BENCH_{name}.json missing `{field}`"));
        }
    }
}

#[test]
fn emitted_bench_files_carry_every_documented_field() {
    let out_dir = scratch_dir();
    let written = report::run(&tiny(), "smoke", &out_dir).expect("bench run");
    assert_eq!(
        written.len(),
        7,
        "one file per scenario: pipeline, fanout, sharded, failover, reads, elastic, obs"
    );

    for name in [
        "pipeline", "fanout", "sharded", "failover", "reads", "elastic", "obs",
    ] {
        let path = out_dir.join(format!("BENCH_{name}.json"));
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let doc = c5_bench::json::parse(&raw)
            .unwrap_or_else(|e| panic!("BENCH_{name}.json is not valid JSON: {e}"));

        // The emitter's own validator must accept what it wrote.
        report::validate_bench(name, &doc)
            .unwrap_or_else(|e| panic!("BENCH_{name}.json fails validation: {e}"));

        // Envelope, shared by every file.
        assert_fields(
            name,
            &doc,
            &[
                "schema_version",
                "name",
                "mode",
                "config.duration_ms",
                "config.primary_threads",
                "config.replica_workers",
                "config.segment_records",
                "config.apply_txns",
                "config.fanout_replicas",
                "config.read_sessions",
                "config.max_sweep_shards",
                "config.seed",
            ],
        );
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_num),
            Some(1.0)
        );
        assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some(name));
        assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("smoke"));

        // Per-scenario payloads, matching DESIGN.md's field tables.
        match name {
            "pipeline" => {
                assert_fields(
                    name,
                    &doc,
                    &[
                        "apply_path",
                        "streaming.protocol",
                        "streaming.workload",
                        "streaming.primary_tps",
                        "streaming.committed",
                        "streaming.replica_tps",
                        "streaming.keeps_up",
                        "streaming.lag_ms.p50",
                        "streaming.lag_ms.p99",
                        "streaming.lag_ms.max",
                        "stage_ns.schedule.count",
                        "stage_ns.apply.count",
                        "stage_ns.expose.count",
                        "stage_ns.apply.p50",
                        "stage_ns.apply.p99",
                        "stage_ns.apply.max",
                        "stage_ns.apply.mean",
                    ],
                );
                for stage in ["schedule", "apply", "expose"] {
                    let count = doc
                        .get("stage_ns")
                        .and_then(|s| s.get(stage))
                        .and_then(|s| s.get("count"))
                        .and_then(JsonValue::as_num)
                        .expect("stage count number");
                    assert!(count >= 1.0, "stage `{stage}` recorded no dwell samples");
                }
                let targets = doc
                    .get("apply_path")
                    .and_then(JsonValue::as_arr)
                    .expect("apply_path array");
                assert_eq!(targets.len(), 3, "c5, c5-myrocks, c5-sharded-8");
                for target in targets {
                    for field in [
                        "protocol",
                        "records",
                        "txns",
                        "replays",
                        "best_wall_ms",
                        "ns_per_record",
                    ] {
                        assert!(
                            target.get(field).is_some(),
                            "apply_path entry missing `{field}`"
                        );
                    }
                    let ns = target
                        .get("ns_per_record")
                        .and_then(JsonValue::as_num)
                        .expect("ns_per_record number");
                    assert!(
                        (1.0..1e9).contains(&ns),
                        "ns_per_record {ns} outside sane range"
                    );
                }
            }
            "fanout" => {
                assert_fields(
                    name,
                    &doc,
                    &[
                        "primary_tps",
                        "committed",
                        "worst_p50_ms",
                        "all_converged",
                        "replicas",
                    ],
                );
                for replica in doc.get("replicas").and_then(JsonValue::as_arr).unwrap() {
                    for field in [
                        "replica",
                        "wall_ms",
                        "applied_txns",
                        "lag_ms.p50",
                        "lag_ms.p99",
                    ] {
                        let mut node = replica;
                        for part in field.split('.') {
                            node = node.get(part).unwrap_or_else(|| {
                                panic!("fanout replica entry missing `{field}`")
                            });
                        }
                    }
                }
            }
            "sharded" => {
                assert_fields(name, &doc, &["workload", "key_space", "sweep"]);
                let sweep = doc.get("sweep").and_then(JsonValue::as_arr).unwrap();
                assert_eq!(sweep.len(), 3, "1, 2, 4 shards at max_sweep_shards = 4");
                let mut last_shards = 0.0;
                for point in sweep {
                    for field in [
                        "shards",
                        "workers_total",
                        "primary_tps",
                        "applied_txns",
                        "cross_shard_share",
                        "cuts_taken",
                        "replica_wall_ms",
                        "lag_ms.p50",
                        "lag_ms.p99",
                        "lag_ms.max",
                        "converged",
                    ] {
                        let mut node = point;
                        for part in field.split('.') {
                            node = node
                                .get(part)
                                .unwrap_or_else(|| panic!("sweep point missing `{field}`"));
                        }
                    }
                    let shards = point.get("shards").and_then(JsonValue::as_num).unwrap();
                    assert!(shards > last_shards, "sweep must be strictly increasing");
                    last_shards = shards;
                    let cuts = point.get("cuts_taken").and_then(JsonValue::as_num).unwrap();
                    assert!(cuts >= 1.0, "a converged run publishes at least one cut");
                }
            }
            "failover" => assert_fields(
                name,
                &doc,
                &[
                    "protocol",
                    "primary_tps",
                    "committed",
                    "shipped_seq",
                    "applied_at_kill",
                    "backlog_records",
                    "promotion_drain_ms",
                    "takeover_ms",
                    "drain_bounded_by_lag",
                    "resumed_tps",
                    "standby_caught_up",
                ],
            ),
            "reads" => {
                assert_fields(
                    name,
                    &doc,
                    &[
                        "staleness_bound_ms",
                        "primary_tps",
                        "wall_ms",
                        "sessions",
                        "total_reads",
                        "all_converged",
                        "classes",
                        "session.writes",
                        "session.ryw_reads",
                        "session.replica_switches",
                        "session.timeouts",
                    ],
                );
                let classes = doc.get("classes").and_then(JsonValue::as_arr).unwrap();
                assert_eq!(classes.len(), 3, "strong, causal, bounded");
                for class in classes {
                    for field in ["class", "reads", "reads_per_sec", "timeouts"] {
                        assert!(class.get(field).is_some(), "class entry missing `{field}`");
                    }
                }
            }
            "elastic" => {
                assert_fields(
                    name,
                    &doc,
                    &[
                        "seed_replicas",
                        "staleness_bound_ms",
                        "primary_tps",
                        "wall_ms",
                        "sessions",
                        "generations",
                        "join.replica",
                        "join.checkpoint_cut",
                        "join.stream_start",
                        "join.replayed_records",
                        "join.join_to_serving_ms",
                        "retire.replica",
                        "retire.drain_ms",
                        "retire.retired_exposed",
                        "survivors_converged",
                        "survivors",
                        "classes",
                        "session.writes",
                        "session.ryw_reads",
                        "session.replica_switches",
                        "session.timeouts",
                    ],
                );
                let survivors = doc.get("survivors").and_then(JsonValue::as_arr).unwrap();
                assert!(!survivors.is_empty(), "at least one surviving member");
                let joiners = survivors
                    .iter()
                    .filter(|s| matches!(s.get("joined_mid_run"), Some(JsonValue::Bool(true))))
                    .count();
                assert_eq!(joiners, 1, "exactly one mid-run joiner survives");
                let classes = doc.get("classes").and_then(JsonValue::as_arr).unwrap();
                assert_eq!(classes.len(), 3, "strong, causal, bounded");
            }
            "obs" => {
                assert_fields(
                    name,
                    &doc,
                    &[
                        "events_total",
                        "events_dropped",
                        "by_kind.stage",
                        "by_kind.ship",
                        "by_kind.route",
                        "by_kind.lifecycle",
                        "by_kind.recovery",
                        "by_kind.span",
                        "stage_samples.schedule",
                        "stage_samples.apply",
                        "stage_samples.expose",
                        "snapshot.counters",
                        "snapshot.gauges",
                        "snapshot.histograms",
                    ],
                );
                // Every instrumented subsystem must have spoken.
                for kind in ["stage", "ship", "route", "lifecycle"] {
                    let n = doc
                        .get("by_kind")
                        .and_then(|k| k.get(kind))
                        .and_then(JsonValue::as_num)
                        .expect("kind count number");
                    assert!(n >= 1.0, "no `{kind}` events in the dumped timeline");
                }
            }
            _ => unreachable!(),
        }
    }

    std::fs::remove_dir_all(&out_dir).ok();
}

/// The validator is not a rubber stamp: a document with a field knocked out
/// must be rejected.
#[test]
fn validator_rejects_a_mutilated_document() {
    let out_dir = scratch_dir().join("mutate");
    report::run(
        &BenchConfig {
            duration: Duration::from_millis(120),
            apply_txns: 1_000,
            max_sweep_shards: 2,
            ..BenchConfig::smoke()
        },
        "smoke",
        &out_dir,
    )
    .expect("bench run");
    let raw = std::fs::read_to_string(out_dir.join("BENCH_pipeline.json")).unwrap();
    let doc = c5_bench::json::parse(&raw).unwrap();
    report::validate_bench("pipeline", &doc).expect("intact document validates");

    // Drop `apply_path` and the validator must object.
    let JsonValue::Obj(mut fields) = doc else {
        panic!("document root is an object")
    };
    fields.retain(|(k, _)| k != "apply_path");
    assert!(
        report::validate_bench("pipeline", &JsonValue::Obj(fields)).is_err(),
        "validator must reject a document missing apply_path"
    );

    std::fs::remove_dir_all(&out_dir).ok();
}
