//! The `bench` sub-command: seven `BENCH_<name>.json` documents, one schema.
//!
//! Every scenario runs at [`Scale::fixed`] (CI: [`Scale::smoke`]) and its
//! document is written to `BENCH_OUT_DIR`, or to a scratch directory: none
//! is committed. They are scenario outputs kept for their field sets and
//! their invariants; the repo's performance gate is `benchmark/` (see
//! DESIGN.md, "Performance methodology", which also says what each file and
//! field measures).
//!
//! A document is the envelope plus the projection of a source object —
//! normally [`Outcome::to_json`](crate::harness::Outcome::to_json) — through
//! the rows [`SCHEMA`] lists for it, so the table *is* each file's field set;
//! [`validate_bench`] walks the same rows to check a document (emitted or
//! re-read), and nothing is written that fails it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use c5_obs::{MetricsSnapshot, Obs};
use c5_primary::TxnFactory;
use c5_workloads::synthetic::{shard_span_population, ShardSpanWorkload};

use crate::experiments::{elastic, failover, fanout, obs, reads, sharded};
use crate::harness::{materialize_log, replay_log, run_scenario, ReplicaSpec, SEED};
use crate::json::JsonValue;
use crate::json_obj;
use crate::obs_export::stage_ns_json;
use crate::scale::Scale;

/// Schema version stamped into every emitted file. Bump when a field is
/// renamed or removed (adding fields is backward compatible).
pub const SCHEMA_VERSION: u64 = 1;

/// The apply-path replay targets: report name and replica.
const APPLY_TARGETS: [(&str, ReplicaSpec); 3] = [
    ("c5", ReplicaSpec::C5Faithful),
    ("c5-myrocks", ReplicaSpec::C5MyRocks),
    (
        "c5-sharded-8",
        ReplicaSpec::C5Sharded {
            shards: 8,
            key_space: sharded::KEY_SPACE,
        },
    ),
];

/// Runs the whole suite and writes `BENCH_*.json` into `out_dir`. Returns
/// the validated file names, or the first validation/IO failure.
pub fn run(config: &Scale, mode: &str, out_dir: &Path) -> Result<Vec<String>, String> {
    config.validate().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut written = Vec::new();
    let mut emit = |name: &str, source: JsonValue| {
        let mut doc = envelope(name, mode, config);
        for (path, _) in rows_of(name) {
            copy(&source, &mut doc, &path);
        }
        validate_bench(name, &doc)
            .map_err(|e| format!("BENCH_{name}.json failed validation: {e}"))?;
        let file = format!("BENCH_{name}.json");
        let path = out_dir.join(&file);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("bench: wrote {}", path.display());
        written.push(file);
        Ok::<(), String>(())
    };
    let run = |scenario| run_scenario(&scenario).to_json();
    let c5 = ReplicaSpec::C5Faithful;
    println!("bench: running the {mode} suite...");
    emit("pipeline", pipeline_source(config, mode))?;
    emit("fanout", run(fanout::scenario(config, c5)))?;
    emit(
        "sharded",
        json_obj! {
            "workload": "shard-span",
            "key_space": sharded::KEY_SPACE,
            "sweep": sharded::sweep(config),
        },
    )?;
    emit("failover", run(failover::scenario(config, c5, true)))?;
    emit("reads", run(reads::scenario(config)))?;
    // One elastic run is both documents: what it measured, and what its sink
    // (a run-local one, as every scenario's is) captured while it did.
    let churn = run_scenario(&elastic::scenario(config));
    emit("elastic", churn.to_json())?;
    emit("obs", obs::document(&churn.obs))?;
    Ok(written)
}

/// The directory `BENCH_*.json` files are written to: the `BENCH_OUT_DIR`
/// environment variable if set (CI points it at its artifact directory),
/// otherwise a scratch directory under the system temp dir. Never the
/// repository: the documents are run outputs, not committed numbers.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("BENCH_OUT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("c5-bench-{}", std::process::id())),
    }
}

/// The source of `BENCH_pipeline.json`: the offline apply-path replays, the
/// faithful replay's stage breakdown, one live run.
fn pipeline_source(config: &Scale, mode: &str) -> JsonValue {
    // One deterministic log from the shard-span workload: two uniform updates
    // per transaction over preloaded rows, so it carries real per-row
    // dependency chains *and* routes across every shard count.
    let population = shard_span_population(sharded::KEY_SPACE);
    let factory: Arc<dyn TxnFactory> = Arc::new(ShardSpanWorkload::new(sharded::KEY_SPACE));
    let per_thread = config.offline_txns_per_thread();
    let (_, segments) = materialize_log(config, &population, per_thread, &factory);
    let total_records = segments.iter().map(c5_log::Segment::len).sum::<usize>() as u64;

    // Same log, three replicas, best-of-N walls. Every replay runs with a
    // fresh sink attached, so the ns/record numbers are measured *with*
    // instrumentation — the overhead is part of the product.
    let replays: usize = if mode == "fixed" { 3 } else { 1 };
    let mut stage_snapshot = MetricsSnapshot::default();
    let apply_path = APPLY_TARGETS.map(|(target, spec)| {
        let mut best = (Duration::MAX, 0);
        for _ in 0..replays {
            let sink = Obs::new();
            let log = segments.clone();
            let (_, wall, metrics) = replay_log(config, &population, log, spec, Arc::clone(&sink));
            assert_eq!(
                metrics.applied_writes, total_records,
                "{target}: replay must apply the whole log"
            );
            if wall < best.0 {
                best = (wall, metrics.applied_txns);
                if target == "c5" {
                    stage_snapshot = sink.metrics.snapshot();
                }
            }
        }
        let ns_per_record = best.0.as_nanos() as f64 / total_records.max(1) as f64;
        println!("  apply {target}: {ns_per_record:.0} ns/record (best of {replays})");
        json_obj! {
            "protocol": target,
            "records": total_records,
            "txns": best.1,
            "replays": replays,
            "best_wall_ms": best.0.as_secs_f64() * 1e3,
            "ns_per_record": ns_per_record,
        }
    });

    // One live leg for throughput + lag under the paper-like cost model (the
    // keep-up quantity; the replay above deliberately removes it).
    let lone = Scale {
        fanout_replicas: 1,
        ..*config
    };
    let mut streaming = run_scenario(&fanout::scenario(&lone, ReplicaSpec::C5Faithful)).to_json();
    streaming.merge(json_obj! { "workload": "adversarial" });

    json_obj! {
        "apply_path": apply_path.to_vec(),
        "stage_ns": stage_ns_json(&stage_snapshot),
        "streaming": streaming,
    }
}

fn envelope(name: &str, mode: &str, config: &Scale) -> JsonValue {
    json_obj! {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "mode": mode,
        "config": json_obj! {
            "duration_ms": config.duration.as_secs_f64() * 1e3,
            "primary_threads": config.primary_threads,
            "replica_workers": config.replica_workers,
            "segment_records": config.segment_records,
            "apply_txns": config.apply_txns,
            "fanout_replicas": config.fanout_replicas,
            "read_sessions": config.read_sessions,
            "max_sweep_shards": config.max_sweep_shards,
            "seed": SEED,
        },
    }
}

// ---------------------------------------------------------------------------
// The schema
// ---------------------------------------------------------------------------

/// What must hold of the value(s) a [`SCHEMA`] path names. The first group
/// is checked of each value, the second of all of a path's values together
/// (a path through `[]` names one value per array element).
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// Present; any value (names, notes, free-form subtrees).
    Any,
    /// A finite number in `[lo, hi]`.
    Num(f64, f64),
    /// A boolean.
    Bool,
    /// `true`: an invariant the run must have upheld.
    True,
    /// An object with at least one entry.
    NonEmptyObj,
    /// A number at most the sibling field's.
    AtMost(&'static str),
    /// A percentile summary: `count >= 1`, `0 <= min <= p50 <= p99 <= max`,
    /// `mean >= 0`.
    Lag,
    /// A [`Rule::Lag`], or `null` where no samples is a legitimate outcome.
    LagOrNull,
    /// A [`Rule::LagOrNull`] that may not be `null` if the sibling is `true`.
    LagIf(&'static str),
    /// A [`Rule::Lag`] that also carries a non-negative `sum` (stage dwell).
    Dwell,

    /// Exactly these strings, in this order.
    Are(&'static [&'static str]),
    /// At least one; non-negative numbers, strictly increasing.
    Increasing,
    /// Booleans, exactly one of them `true`.
    OneTrue,
}

use Rule::{Any, Bool, Dwell, Lag, LagOrNull, True};
const NONNEG: Rule = Rule::Num(0.0, f64::INFINITY);
const POS: Rule = Rule::Num(f64::MIN_POSITIVE, f64::INFINITY);
const ONE_UP: Rule = Rule::Num(1.0, f64::INFINITY);

/// Every field of every `BENCH_<name>.json` after the envelope's
/// `schema_version`, `name` and `mode`: `(documents, path, rule)` rows in file
/// order, where `documents` is `*` for all of them or `|`-separated names.
///
/// A path is `.`-separated keys; `key[]` steps into every element of an
/// array, and a last step `{a,b}` stands for one row per listed key. The
/// emitter fills a document by copying, for each row, the value at the same
/// path of the scenario's source object — or, where a step is written
/// `key=source`, of `source` (a `/`-separated [`JsonValue::at`] path relative
/// to the enclosing step's source); a row naming a subtree copies all of it.
/// So a key is in a file if and only if a row here says so, and DESIGN.md's
/// "Performance methodology" says what each one measures.
#[rustfmt::skip]
pub const SCHEMA: &[(&str, &str, Rule)] = &[
    ("*", "config.{duration_ms,primary_threads,replica_workers,segment_records}", POS),
    ("*", "config.{apply_txns,fanout_replicas,read_sessions,max_sweep_shards}", POS),
    ("*", "config.seed", NONNEG),

    ("pipeline", "apply_path[].protocol", Rule::Are(&["c5", "c5-myrocks", "c5-sharded-8"])),
    ("pipeline", "apply_path[].{records,txns,replays,best_wall_ms}", POS),
    ("pipeline", "apply_path[].ns_per_record", Rule::Num(1.0, 1e9)),
    ("pipeline", "stage_ns.{schedule,apply,expose}", Dwell),
    ("pipeline", "streaming.{protocol,workload}", Any),
    ("pipeline", "streaming.{primary_tps,committed}", POS),
    ("pipeline", "streaming.replica_tps=replicas/0/replica_tps", POS),
    ("pipeline", "streaming.keeps_up=replicas/0/keeps_up", Bool),
    ("pipeline", "streaming.lag_ms=replicas/0/lag_ms", Lag),

    ("fanout", "protocol", Any),
    ("fanout", "{primary_tps,committed,worst_p50_ms}", NONNEG),
    ("fanout", "all_converged=converged", True),
    ("fanout", "replicas[].replica", Rule::Increasing),
    ("fanout", "replicas[].{wall_ms,applied_txns}", NONNEG),
    ("fanout", "replicas[].lag_ms", Lag),

    ("sharded", "workload", Any),
    ("sharded", "key_space", NONNEG),
    ("sharded", "sweep[].shards=replicas/0/shards", Rule::Increasing),
    ("sharded", "sweep[].workers_total=replicas/0/workers_total", POS),
    ("sharded", "sweep[].primary_tps", POS),
    ("sharded", "sweep[].applied_txns=replicas/0/applied_txns", POS),
    ("sharded", "sweep[].cross_shard_share=replicas/0/cross_shard_share", Rule::Num(0.0, 1.0)),
    ("sharded", "sweep[].cuts_taken=replicas/0/cuts_taken", NONNEG),
    ("sharded", "sweep[].replica_wall_ms=replicas/0/wall_ms", POS),
    ("sharded", "sweep[].lag_ms=replicas/0/lag_ms", Lag),
    ("sharded", "sweep[].converged", True),

    ("failover", "protocol", Any),
    ("failover", "{primary_tps,committed,shipped_seq}", POS),
    ("failover", "{applied_at_kill,backlog_records}", NONNEG),
    ("failover", "lag_at_kill_ms", LagOrNull),
    ("failover", "promotion_drain_ms", NONNEG),
    ("failover", "takeover_ms", POS),
    ("failover", "drain_bounded_by_lag", Bool),
    ("failover", "resumed_tps", NONNEG),
    ("failover", "standby_caught_up=converged", True),

    ("reads|elastic", "protocol", Any),
    ("elastic", "seed_replicas", NONNEG),
    ("reads|elastic", "{staleness_bound_ms,primary_tps,wall_ms,sessions}", NONNEG),
    ("reads", "total_reads", POS),
    ("reads", "all_converged=converged", True),
    // Churn must be visible in the routing metadata.
    ("elastic", "generations", POS),
    ("elastic", "join=joins/0.{replica,checkpoint_cut,stream_start,replayed_records}", NONNEG),
    // Above the stream start, the gap-closure invariant would have a hole.
    ("elastic", "join=joins/0.checkpoint_cut", Rule::AtMost("stream_start")),
    ("elastic", "join=joins/0.join_to_serving_ms", POS),
    ("elastic", "retire=retires/0.{replica,drain_ms,retired_exposed}", NONNEG),
    ("elastic", "survivors_converged=converged", True),
    ("elastic", "survivors=replicas[].replica", Rule::Increasing),
    ("elastic", "survivors=replicas[].joined_mid_run", Rule::OneTrue),
    // The joiner's samples are all post-join: lag during churn.
    ("elastic", "survivors=replicas[].lag_ms", Rule::LagIf("joined_mid_run")),
    ("reads|elastic", "classes[].class", Rule::Are(&["strong", "causal", "bounded"])),
    ("reads|elastic", "classes[].reads", POS),
    ("reads|elastic", "classes[].{reads_per_sec,timeouts}", NONNEG),
    ("reads|elastic", "classes[].{latency_ms,staleness_ms}", LagOrNull),
    ("reads|elastic", "session.{writes,ryw_reads}", POS),
    ("reads|elastic", "session.{replica_switches,timeouts}", NONNEG),

    ("obs", "events_total", POS),
    ("obs", "events_dropped", NONNEG),
    // The acceptance gate of the observability layer: the pipeline, the
    // shipper, the router and the fleet controller each spoke.
    ("obs", "by_kind", Any),
    ("obs", "by_kind.{stage,ship,route,lifecycle}", POS),
    ("obs", "by_kind.{recovery,span}", NONNEG),
    ("obs", "stage_samples.{schedule,apply,expose}", ONE_UP),
    ("obs", "snapshot", Any),
    ("obs", "snapshot.{counters,gauges,histograms}", Rule::NonEmptyObj),
    // Series every layer must have registered.
    ("obs", "snapshot.counters.{ship_segments_total,ship_records_total}", POS),
    ("obs", "snapshot.histograms.ship_ns.count", ONE_UP),
    ("obs", "snapshot.histograms.fleet_join_to_serving_ns.count", ONE_UP),
];

/// The schema rows of document `name` (`*`: the rows of every document), in
/// file order, `{a,b}` steps expanded.
fn rows_of(name: &str) -> impl Iterator<Item = (String, Rule)> + '_ {
    (SCHEMA.iter())
        .filter(move |(docs, ..)| docs.split('|').any(|doc| doc == name))
        .flat_map(|&(_, path, rule)| {
            let (stem, keys) = match path.split_once('{') {
                Some((stem, keys)) => (stem, keys.trim_end_matches('}')),
                None => ("", path),
            };
            keys.split(',')
                .map(move |key| (format!("{stem}{key}"), rule))
        })
}

/// The first step of a schema path: `(key, source, iterate, rest)`.
fn first_step(path: &str) -> (&str, &str, bool, Option<&str>) {
    let (step, rest) = match path.split_once('.') {
        Some((step, rest)) => (step, Some(rest)),
        None => (path, None),
    };
    let (step, iterate) = match step.strip_suffix("[]") {
        Some(step) => (step, true),
        None => (step, false),
    };
    let (key, source) = step.split_once('=').unwrap_or((step, step));
    (key, source, iterate, rest)
}

/// Copies what `path` names from `source` into the object `out`. What is not
/// there is not copied; [`validate_bench`] reports it.
fn copy(source: &JsonValue, out: &mut JsonValue, path: &str) {
    let (key, from, iterate, rest) = first_step(path);
    let (Some(value), JsonValue::Obj(fields)) = (source.at(from), out) else {
        return;
    };
    let index = fields
        .iter()
        .position(|(k, _)| k == key)
        .unwrap_or_else(|| {
            fields.push((key.to_string(), JsonValue::Null));
            fields.len() - 1
        });
    let slot = &mut fields[index].1;
    match (rest, iterate, value.as_arr()) {
        (None, ..) => *slot = value.clone(),
        (Some(rest), false, _) => {
            if !matches!(slot, JsonValue::Obj(_)) {
                *slot = json_obj! {};
            }
            copy(value, slot, rest);
        }
        (Some(rest), true, Some(items)) => {
            if !matches!(slot, JsonValue::Arr(_)) {
                *slot = JsonValue::Arr(items.iter().map(|_| json_obj! {}).collect());
            }
            let JsonValue::Arr(elements) = slot else {
                return;
            };
            for (item, element) in items.iter().zip(elements) {
                copy(item, element, rest);
            }
        }
        (Some(_), true, None) => {}
    }
}

/// One value a schema path names: where, the value, the object holding it.
type Found<'a> = (String, &'a JsonValue, &'a JsonValue);

/// Collects every value `path` names under `node`; a key missing anywhere
/// along the way is the error.
fn find<'a>(
    node: &'a JsonValue,
    path: &str,
    at: &str,
    found: &mut Vec<Found<'a>>,
) -> Result<(), String> {
    let (key, _, iterate, rest) = first_step(path);
    let at = format!("{at}{}{key}", if at.is_empty() { "" } else { "." });
    let value = node.get(key).ok_or_else(|| format!("missing field {at}"))?;
    match (rest, iterate) {
        (None, _) => found.push((at, value, node)),
        (Some(rest), false) => find(value, rest, &at, found)?,
        (Some(rest), true) => {
            let items = value
                .as_arr()
                .ok_or_else(|| format!("{at} is not an array"))?;
            for (i, item) in items.iter().enumerate() {
                find(item, rest, &format!("{at}[{i}]"), found)?;
            }
        }
    }
    Ok(())
}

fn number(at: &str, value: &JsonValue) -> Result<f64, String> {
    match value.as_num() {
        Some(n) if n.is_finite() => Ok(n),
        _ => Err(format!("{at} is not a finite number")),
    }
}

fn summary(at: &str, value: &JsonValue, with_sum: bool) -> Result<(), String> {
    let field = |key: &str| match value.get(key) {
        Some(v) => number(&format!("{at}.{key}"), v),
        None => Err(format!("missing field {at}.{key}")),
    };
    let (count, min, p50) = (field("count")?, field("min")?, field("p50")?);
    let (p99, max, mean) = (field("p99")?, field("max")?, field("mean")?);
    let sum = if with_sum { field("sum")? } else { 0.0 };
    if count < 1.0 || sum < 0.0 || mean < 0.0 {
        return Err(format!("{at}: no samples, or a negative sum or mean"));
    }
    if !(0.0 <= min && min <= p50 && p50 <= p99 && p99 <= max) {
        return Err(format!(
            "{at}: percentiles out of order (min {min}, p50 {p50}, p99 {p99}, max {max})"
        ));
    }
    Ok(())
}

impl Rule {
    fn check(self, path: &str, found: &[Found<'_>]) -> Result<(), String> {
        let all = |ok: bool, what: &str| ok.then_some(()).ok_or_else(|| format!("{path}: {what}"));
        match self {
            Rule::Are(names) => {
                let found: Vec<_> = found.iter().map(|(_, v, _)| v.as_str()).collect();
                let names: Vec<_> = names.iter().copied().map(Some).collect();
                all(
                    found == names,
                    &format!("{found:?} where {names:?} are expected"),
                )
            }
            Rule::Increasing => {
                let numbers: Result<Vec<f64>, String> =
                    found.iter().map(|(at, v, _)| number(at, v)).collect();
                let n = numbers?;
                all(
                    n.first().is_some_and(|&n| n >= 0.0) && n.windows(2).all(|w| w[0] < w[1]),
                    "not increasing from zero or above",
                )
            }
            Rule::OneTrue => {
                let bools = found
                    .iter()
                    .all(|(_, v, _)| matches!(v, JsonValue::Bool(_)));
                let set = found
                    .iter()
                    .filter(|(_, v, _)| **v == JsonValue::Bool(true));
                all(
                    bools && set.count() == 1,
                    "expected booleans, exactly one of them true",
                )
            }
            _ => found.iter().try_for_each(|f| self.check_one(f)),
        }
    }

    fn check_one(self, (at, value, parent): &Found<'_>) -> Result<(), String> {
        let fail = |what: &str| Err(format!("{at} {what}"));
        let sibling_is_true = |key: &str| parent.get(key) == Some(&JsonValue::Bool(true));
        match (self, value) {
            (Rule::Num(lo, hi), _) => match number(at, value)? {
                n if n < lo || n > hi => fail(&format!("= {n} is outside [{lo}, {hi}]")),
                _ => Ok(()),
            },
            (Bool, JsonValue::Bool(_)) | (True, JsonValue::Bool(true)) => Ok(()),
            (Bool, _) => fail("is not a boolean"),
            (True, _) => fail("must be true"),
            (Rule::NonEmptyObj, JsonValue::Obj(entries)) if !entries.is_empty() => Ok(()),
            (Rule::NonEmptyObj, _) => fail("is not a non-empty object"),
            (Rule::AtMost(sibling), _) => {
                let bound = parent
                    .get(sibling)
                    .ok_or_else(|| format!("{at}: no {sibling}"))?;
                match (number(at, value)?, number(sibling, bound)?) {
                    (n, bound) if n > bound => fail(&format!("= {n} is above {sibling} {bound}")),
                    _ => Ok(()),
                }
            }
            (LagOrNull, JsonValue::Null) => Ok(()),
            (Rule::LagIf(sibling), JsonValue::Null) if !sibling_is_true(sibling) => Ok(()),
            (Lag | LagOrNull | Rule::LagIf(_), _) => summary(at, value, false),
            (Dwell, _) => summary(at, value, true),
            (Any | Rule::Are(_) | Rule::Increasing | Rule::OneTrue, _) => Ok(()),
        }
    }
}

/// Validates `doc` against the [`SCHEMA`] rows of document `name` alone (not
/// the envelope): the scenario-specific body. Returns the first violation.
pub fn validate_body(name: &str, doc: &JsonValue) -> Result<(), String> {
    for (path, rule) in rows_of(name) {
        let mut found = Vec::new();
        find(doc, &path, "", &mut found)?;
        rule.check(&path, &found)?;
    }
    Ok(())
}

/// Validates an emitted (or re-read) `BENCH_<name>.json` document: every
/// field [`SCHEMA`] lists present and within its rule. Returns the first
/// violation.
pub fn validate_bench(name: &str, doc: &JsonValue) -> Result<(), String> {
    let version = doc.get("schema_version").and_then(JsonValue::as_num);
    if version != Some(SCHEMA_VERSION as f64) {
        return Err(format!("schema_version {version:?} != {SCHEMA_VERSION}"));
    }
    if doc.get("name").and_then(JsonValue::as_str) != Some(name) {
        return Err(format!("name field does not match {name}"));
    }
    match doc.get("mode").and_then(JsonValue::as_str) {
        Some("fixed") | Some("smoke") => {}
        other => return Err(format!("mode must be fixed|smoke, got {other:?}")),
    }
    if name == "*" || rows_of(name).next().is_none() {
        return Err(format!("unknown scenario {name}"));
    }
    validate_body("*", doc)?;
    validate_body(name, doc)
}
