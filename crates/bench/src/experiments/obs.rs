//! The observability smoke: run a full-stack workload and dump everything
//! its `c5-obs` sink captured.
//!
//! The elastic-fleet scenario is the one run that touches every
//! instrumented subsystem at once — the four pipeline stages on every
//! member, the log shipper's fan-out, the read router's per-class
//! decisions, and the fleet controller's join/retire lifecycle — and every
//! scenario run records into a sink of its own ([`Outcome::obs`], not the
//! process global, so the dump contains exactly this run). This experiment
//! exposes that sink three ways:
//!
//! 1. Prometheus-style text ([`c5_obs::MetricsSnapshot::to_prometheus`]),
//!    followed by a digest of the log shipper's batching series
//!    (`ship_segment_records`, `ship_partial_segments_total`,
//!    `wire_queue_wait_ns`, `archive_append_ns`),
//! 2. the snapshot as JSON ([`crate::obs_export::snapshot_json`]),
//!    round-tripped through the workspace parser as a self-check,
//! 3. the merged trace timeline, counted by kind and shown head-first.
//!
//! The acceptance criterion of the observability layer is hard-asserted
//! here by validating [`document`] — the body of `BENCH_obs.json` — against
//! the bench schema: the `stage`, `ship`, `route`, and `lifecycle` event
//! kinds must each appear at least once in the dumped timeline, and every
//! pipeline stage must have recorded dwell samples.
//!
//! [`Outcome::obs`]: crate::harness::Outcome::obs

use c5_obs::{Obs, PipelineStage};

use crate::harness::run_scenario;
use crate::json::JsonValue;
use crate::obs_export::{kind_counts, snapshot_json, timeline_json};
use crate::scale::Scale;

/// Timeline rows printed before eliding the rest.
const TIMELINE_HEAD: usize = 12;

/// What a run's sink captured, as the body of `BENCH_obs.json`: the merged
/// trace timeline counted by kind, dwell samples per pipeline stage, and the
/// full metrics snapshot.
pub fn document(obs: &Obs) -> JsonValue {
    let snap = obs.metrics.snapshot();
    let timeline = obs.trace.merged();
    let by_kind = (kind_counts(&timeline).into_iter())
        .map(|(kind, n)| (kind.to_string(), n.into()))
        .collect();
    let stage_samples = (PipelineStage::all().iter())
        .map(|stage| {
            let series = format!("stage_dwell_ns{{stage=\"{}\"}}", stage.name());
            let samples = snap.histogram(&series).map_or(0, |h| h.count());
            (stage.name().to_string(), samples.into())
        })
        .collect();
    crate::json_obj! {
        "events_total": timeline.len(),
        "events_dropped": obs.trace.dropped(),
        "by_kind": JsonValue::Obj(by_kind),
        "stage_samples": JsonValue::Obj(stage_samples),
        "snapshot": snapshot_json(&snap),
    }
}

/// Runs the observability smoke and dumps the captured state.
pub fn run(scale: &Scale) {
    let outcome = run_scenario(&super::elastic::scenario(scale));
    assert!(outcome.all_converged(), "elastic run must converge");
    let obs = &outcome.obs;

    println!("== metrics: Prometheus text exposition ==");
    print!("{}", obs.metrics.snapshot().to_prometheus());

    // The wire's natural batching, from the sink alone: how big the
    // segments the idle rule cut were, how many left below the size bound,
    // and what the wire thread spent queueing and archiving them (the
    // sync, bytes and rotations only move over a durable archive).
    println!("\n== log shipping: batch sizes and the wire thread ==");
    let snap = obs.metrics.snapshot();
    println!(
        "ship_partial_segments_total {} of ship_segments_total {}",
        snap.counter("ship_partial_segments_total").unwrap_or(0),
        snap.counter("ship_segments_total").unwrap_or(0)
    );
    for series in [
        "ship_segment_records",
        "wire_queue_wait_ns",
        "archive_append_ns",
        "archive_sync_ns",
    ] {
        let h = (snap.histogram(series)).unwrap_or_else(|| panic!("{series} is registered"));
        println!(
            "{series:<22} n={:<7} mean={:<10.1} p50={:<8} p99={:<8} max={}",
            h.count(),
            h.mean(),
            h.percentile(0.50),
            h.percentile(0.99),
            h.max()
        );
    }

    for series in ["archive_bytes_total", "archive_rotations_total"] {
        let n = (snap.counter(series)).unwrap_or_else(|| panic!("{series} is registered"));
        println!("{series:<22} {n}");
    }

    println!("\n== metrics: JSON exposition (round-tripped) ==");
    let doc = document(obs);
    let text = doc
        .at("snapshot")
        .expect("document has a snapshot")
        .pretty();
    let parsed = crate::json::parse(&text).expect("snapshot JSON must re-parse");
    for section in ["counters", "gauges", "histograms"] {
        match parsed.get(section) {
            Some(JsonValue::Obj(series)) => println!("{section}: {} series", series.len()),
            _ => panic!("{section} is not an object"),
        }
    }
    // The full document is what `experiments bench` commits as
    // BENCH_obs.json; here a size line keeps the dump readable.
    println!("snapshot JSON: {} bytes, parses clean", text.len());

    let merged = obs.trace.merged();
    println!(
        "\n== trace: merged timeline: {} events ({} overwritten by the ring bound) ==",
        merged.len(),
        obs.trace.dropped()
    );
    print!(
        "{}",
        doc.at("by_kind").expect("document counts kinds").pretty()
    );
    let head = timeline_json(&merged[..merged.len().min(TIMELINE_HEAD)]);
    for row in head.as_arr().expect("timeline is an array") {
        let offset = row.at("offset_ns").and_then(JsonValue::as_num);
        let thread = row.at("thread").and_then(JsonValue::as_str).unwrap_or("?");
        let kind = row.at("kind").and_then(JsonValue::as_str).unwrap_or("?");
        println!("  +{:>12.0} ns  {thread:<20} {kind}", offset.unwrap_or(0.0));
    }
    if merged.len() > TIMELINE_HEAD {
        println!("  … {} more events", merged.len() - TIMELINE_HEAD);
    }

    // The acceptance gate: every instrumented subsystem spoke.
    crate::report::validate_body("obs", &doc).unwrap_or_else(|e| panic!("obs coverage: {e}"));
    println!(
        "\nobs smoke OK: stage/ship/route/lifecycle all present, \
         all four stages sampled, snapshot JSON round-trips."
    );
}
