//! JSON exposition for `c5-obs` snapshots and trace timelines.
//!
//! `c5-obs` sits below `c5-common` and deliberately has no serialization
//! dependency; the workspace's hand-rolled JSON lives here in `c5-bench`
//! ([`crate::json`]), so this module is where a [`MetricsSnapshot`] and a
//! merged [`TraceRecord`] timeline become machine-readable documents — the
//! `experiments obs` dump.
//!
//! Histograms are rendered as summary statistics (count/sum/min/max/mean
//! and the p50/p99 nearest-rank quantiles), not raw buckets: the dump is
//! meant to be read by humans, and 513 bucket counts per series would bury
//! the signal.

use c5_obs::{HistogramSnapshot, MetricsSnapshot, TraceEvent, TraceRecord};

use crate::json::JsonValue;

/// Renders one histogram snapshot as a summary-statistics object.
pub fn histogram_json(h: &HistogramSnapshot) -> JsonValue {
    JsonValue::Obj(vec![
        ("count".into(), JsonValue::num(h.count() as f64)),
        ("sum".into(), JsonValue::num(h.sum() as f64)),
        ("min".into(), JsonValue::num(h.min() as f64)),
        ("p50".into(), JsonValue::num(h.percentile(0.5) as f64)),
        ("p99".into(), JsonValue::num(h.percentile(0.99) as f64)),
        ("max".into(), JsonValue::num(h.max() as f64)),
        ("mean".into(), JsonValue::num(h.mean())),
    ])
}

/// Renders a coherent metrics snapshot as one JSON object with `counters`,
/// `gauges`, and `histograms` sub-objects keyed by metric name (labels
/// embedded in the name are carried through verbatim as part of the key).
pub fn snapshot_json(snap: &MetricsSnapshot) -> JsonValue {
    let counters = snap
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), JsonValue::num(*v as f64)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(name, v)| (name.clone(), JsonValue::num(*v as f64)))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|(name, h)| (name.clone(), histogram_json(h)))
        .collect();
    JsonValue::Obj(vec![
        ("counters".into(), JsonValue::Obj(counters)),
        ("gauges".into(), JsonValue::Obj(gauges)),
        ("histograms".into(), JsonValue::Obj(histograms)),
    ])
}

/// Renders one trace event's payload fields (everything except the
/// timestamp and thread, which belong to the enclosing record).
fn event_json(event: &TraceEvent) -> Vec<(String, JsonValue)> {
    match event {
        TraceEvent::Stage {
            stage,
            dwell_ns,
            queue_depth,
        } => vec![
            ("stage".into(), JsonValue::str(stage.name())),
            ("dwell_ns".into(), JsonValue::num(*dwell_ns as f64)),
            ("queue_depth".into(), JsonValue::num(*queue_depth as f64)),
        ],
        TraceEvent::Ship {
            segment_seq,
            records,
            subscribers,
            elapsed_ns,
        } => vec![
            ("segment_seq".into(), JsonValue::num(*segment_seq as f64)),
            ("records".into(), JsonValue::num(*records as f64)),
            ("subscribers".into(), JsonValue::num(*subscribers as f64)),
            ("elapsed_ns".into(), JsonValue::num(*elapsed_ns as f64)),
        ],
        TraceEvent::Route {
            class,
            replica,
            blocked_ns,
            outcome,
        } => vec![
            ("class".into(), JsonValue::str(*class)),
            (
                "replica".into(),
                match replica {
                    Some(id) => JsonValue::num(*id as f64),
                    None => JsonValue::Null,
                },
            ),
            ("blocked_ns".into(), JsonValue::num(*blocked_ns as f64)),
            ("outcome".into(), JsonValue::str(outcome.name())),
        ],
        TraceEvent::Lifecycle { replica, from, to } => vec![
            ("replica".into(), JsonValue::num(*replica as f64)),
            ("from".into(), JsonValue::str(*from)),
            ("to".into(), JsonValue::str(*to)),
        ],
        TraceEvent::Recovery { phase, elapsed_ns } => vec![
            ("phase".into(), JsonValue::str(*phase)),
            ("elapsed_ns".into(), JsonValue::num(*elapsed_ns as f64)),
        ],
        TraceEvent::Span { name, elapsed_ns } => vec![
            ("name".into(), JsonValue::str(*name)),
            ("elapsed_ns".into(), JsonValue::num(*elapsed_ns as f64)),
        ],
    }
}

/// Renders a merged timeline as a JSON array. Timestamps are emitted as
/// `offset_ns` relative to the first record — absolute epoch nanoseconds
/// exceed f64's integer range (2^53), relative offsets within a run do not.
pub fn timeline_json(records: &[TraceRecord]) -> JsonValue {
    let epoch = records.first().map(|r| r.at_nanos).unwrap_or(0);
    JsonValue::Arr(
        records
            .iter()
            .map(|r| {
                let mut fields = vec![
                    (
                        "offset_ns".into(),
                        JsonValue::num(r.at_nanos.saturating_sub(epoch) as f64),
                    ),
                    ("thread".into(), JsonValue::str(r.thread.as_ref())),
                    ("kind".into(), JsonValue::str(r.event.kind())),
                ];
                fields.extend(event_json(&r.event));
                JsonValue::Obj(fields)
            })
            .collect(),
    )
}

/// Counts a merged timeline by event kind, in a fixed slug order.
pub fn kind_counts(records: &[TraceRecord]) -> Vec<(&'static str, u64)> {
    let kinds = ["stage", "ship", "route", "lifecycle", "recovery", "span"];
    kinds
        .iter()
        .map(|kind| {
            let n = records.iter().filter(|r| r.event.kind() == *kind).count();
            (*kind, n as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_obs::{Obs, PipelineStage, RouteOutcome};

    #[test]
    fn snapshot_round_trips_through_the_parser() {
        let obs = Obs::new();
        obs.metrics.counter("ship_segments_total").add(3);
        obs.metrics.gauge("fleet_serving").set(-2);
        let h = obs.metrics.histogram("ship_ns");
        h.record(100);
        h.record(1_000);

        let doc = snapshot_json(&obs.metrics.snapshot());
        let text = doc.pretty();
        let back = crate::json::parse(&text).expect("snapshot JSON must parse");
        let counters = back.get("counters").unwrap();
        assert_eq!(
            counters.get("ship_segments_total").and_then(|v| v.as_num()),
            Some(3.0)
        );
        let gauges = back.get("gauges").unwrap();
        assert_eq!(
            gauges.get("fleet_serving").and_then(|v| v.as_num()),
            Some(-2.0)
        );
        let hist = back.get("histograms").unwrap().get("ship_ns").unwrap();
        assert_eq!(hist.get("count").and_then(|v| v.as_num()), Some(2.0));
        assert_eq!(hist.get("min").and_then(|v| v.as_num()), Some(100.0));
        assert_eq!(hist.get("max").and_then(|v| v.as_num()), Some(1_000.0));
    }

    #[test]
    fn timeline_uses_relative_offsets_and_typed_fields() {
        let obs = Obs::new();
        obs.trace.record(TraceEvent::Stage {
            stage: PipelineStage::Apply,
            dwell_ns: 42,
            queue_depth: 3,
        });
        obs.trace.record(TraceEvent::Route {
            class: "strong",
            replica: None,
            blocked_ns: 7,
            outcome: RouteOutcome::Timeout,
        });

        let timeline = obs.trace.merged();
        let doc = timeline_json(&timeline);
        let arr = doc.as_arr().expect("timeline is an array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("offset_ns").and_then(|v| v.as_num()), Some(0.0));
        assert_eq!(arr[0].get("kind").and_then(|v| v.as_str()), Some("stage"));
        assert_eq!(arr[0].get("stage").and_then(|v| v.as_str()), Some("apply"));
        assert_eq!(arr[1].get("kind").and_then(|v| v.as_str()), Some("route"));
        assert!(matches!(arr[1].get("replica"), Some(JsonValue::Null)));
        assert_eq!(
            arr[1].get("outcome").and_then(|v| v.as_str()),
            Some("timeout")
        );

        let counts = kind_counts(&timeline);
        assert!(counts.contains(&("stage", 1)));
        assert!(counts.contains(&("route", 1)));
        assert!(counts.contains(&("ship", 0)));
    }
}
