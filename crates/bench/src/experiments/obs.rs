//! The observability smoke: run a full-stack workload and dump everything
//! its `c5-obs` sink captured.
//!
//! The elastic-fleet scenario is the one run that touches every
//! instrumented subsystem at once — the four pipeline stages on every
//! member, the log shipper's fan-out, the read router's per-class
//! decisions, and the fleet controller's join/retire lifecycle — and every
//! scenario run records into a sink of its own ([`Outcome::obs`], not the
//! process global, so the dump contains exactly this run). This experiment
//! exposes that sink two ways:
//!
//! 1. Prometheus-style text ([`c5_obs::MetricsSnapshot::to_prometheus`]),
//!    followed by a digest of the log shipper's batching series
//!    (`ship_segment_records`, `ship_partial_segments_total`,
//!    `ship_drain_tails_total`, `wire_queue_wait_ns`, `archive_append_ns`)
//!    and the share of apply-stage items the feeders applied themselves
//!    (`feeder_applied_items_total`),
//! 2. the merged trace timeline, counted by kind and shown head-first.
//!
//! The acceptance criterion of the observability layer is hard-asserted
//! here ([`assert_full_coverage`]): the `stage`, `ship`, `route`, and
//! `lifecycle` event kinds must each appear at least once in the dumped
//! timeline, and every pipeline stage must have recorded dwell samples.
//!
//! [`Outcome::obs`]: crate::harness::Outcome::obs

use c5_obs::{Obs, PipelineStage, TraceRecord};

use crate::harness::run_scenario;
use crate::scale::Scale;

/// Timeline rows printed before eliding the rest.
const TIMELINE_HEAD: usize = 12;

/// Counts a merged timeline by event kind, in a fixed slug order.
fn kind_counts(records: &[TraceRecord]) -> Vec<(&'static str, usize)> {
    let kinds = ["stage", "ship", "route", "lifecycle", "recovery", "span"];
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
    kinds.into_iter().map(|kind| (kind, count(kind))).collect()
}

/// The acceptance gate of the observability layer, over the sink of one
/// elastic run: the pipeline, the shipper, the router and the fleet
/// controller each spoke, every pipeline stage recorded dwell samples,
/// segments were shipped and a joiner reached serving.
///
/// # Panics
/// Panics naming the first subsystem or series that stayed silent.
pub fn assert_full_coverage(obs: &Obs) {
    let timeline = obs.trace.merged();
    for kind in ["stage", "ship", "route", "lifecycle"] {
        let spoke = timeline.iter().any(|r| r.event.kind() == kind);
        assert!(spoke, "obs coverage: no `{kind}` event in the timeline");
    }
    let snap = obs.metrics.snapshot();
    let samples = |series: &str| snap.histogram(series).map_or(0, |h| h.count());
    for stage in PipelineStage::all() {
        let series = format!("stage_dwell_ns{{stage=\"{}\"}}", stage.name());
        let sampled = samples(&series) > 0;
        assert!(sampled, "obs coverage: {series} has no samples");
    }
    assert!(
        snap.counter("ship_segments_total").unwrap_or(0) > 0,
        "obs coverage: no segment shipped"
    );
    assert!(
        samples("fleet_join_to_serving_ns") >= 1,
        "obs coverage: no join reached serving"
    );
}

/// Runs the observability smoke and dumps the captured state.
pub fn run(scale: &Scale) {
    let outcome = run_scenario(&super::elastic::scenario(scale));
    assert!(outcome.all_converged(), "elastic run must converge");
    let obs = &outcome.obs;

    println!("== metrics: Prometheus text exposition ==");
    print!("{}", obs.metrics.snapshot().to_prometheus());

    // The wire's natural batching, from the sink alone: how big the
    // segments the idle rule cut were, how many left below the size bound
    // (and of those, how many a receiver's drain edge cut), and what the
    // wire thread spent queueing and archiving them (the
    // sync takes next to no time over an in-memory archive).
    println!("\n== log shipping: batch sizes and the wire thread ==");
    let snap = obs.metrics.snapshot();
    println!(
        "ship_partial_segments_total {} (ship_drain_tails_total {}) of ship_segments_total {}",
        snap.counter("ship_partial_segments_total").unwrap_or(0),
        snap.counter("ship_drain_tails_total").unwrap_or(0),
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

    // How many items skipped the hand-off: a feeder caught up with the wire,
    // on a drained pipeline, applies a lone item itself.
    println!("\n== apply stage: items the feeders applied themselves ==");
    let items =
        |series: &str| (snap.counter(series)).unwrap_or_else(|| panic!("{series} is registered"));
    let (feeder, all) = (
        items("feeder_applied_items_total"),
        items("stage_items_total{stage=\"apply\"}"),
    );
    println!(
        "feeder_applied_items_total {feeder} of {all} apply-stage items ({:.1} %)",
        100.0 * feeder as f64 / all.max(1) as f64
    );

    let merged = obs.trace.merged();
    println!(
        "\n== trace: merged timeline: {} events ({} overwritten by the ring bound) ==",
        merged.len(),
        obs.trace.dropped()
    );
    for (kind, n) in kind_counts(&merged) {
        println!("  {kind:<10} {n}");
    }
    let epoch = merged.first().map_or(0, |r| r.at_nanos);
    for r in merged.iter().take(TIMELINE_HEAD) {
        let (offset, thread) = (r.at_nanos.saturating_sub(epoch), &*r.thread);
        println!("  +{offset:>12} ns  {thread:<20} {}", r.event.kind());
    }
    if merged.len() > TIMELINE_HEAD {
        println!("  … {} more events", merged.len() - TIMELINE_HEAD);
    }

    assert_full_coverage(obs);
    println!(
        "\nobs smoke OK: stage/ship/route/lifecycle all present, \
         all three stages sampled."
    );
}
