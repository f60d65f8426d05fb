//! The metrics the benchmark reports, by name and unit, and the documents it
//! prints them in.
//!
//! A workload process prints two lines of JSON on standard output: a detail
//! line (everything it measured, for the `run` and `repeat` commands and for
//! people), and — last — the result line of the builder's contract, carrying
//! exactly the end-to-end metrics of an untraced run or exactly the per-layer
//! metrics of a traced one.

use std::fmt::Write;

use crate::json::{quote, Json};
use crate::stats::highest_supported_percentile;

/// Name and unit of every end-to-end metric, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("lag_p50_ms", "ms")];

/// Name and unit of every per-layer metric, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 33] = [
    // Meant to be end-to-end metrics, but too unsteady on a shared two-core
    // sandbox to gate on (see the README): the machine's speed changes by
    // half for minutes at a time, and these follow it more closely than the
    // median lag does.
    ("lag_p99_ms", "ms"),
    ("ryw_p50_ms", "ms"),
    ("replay_krec_per_s", "krec/s"),
    ("snap_read_p50_us", "us"),
    // The lag budget: means of the five terms whose sum is the lag.
    ("primary.commit_ms", "ms"),
    ("log.fill_ship_ms", "ms"),
    ("core.ingest_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.expose_ms", "ms"),
    ("lag_mean_ms", "ms"),
    // The isolation pass.
    ("core.schedule_ns", "ns"),
    ("core.watermark_ns", "ns"),
    ("storage.install_ns", "ns"),
    ("core.waitlist_ns", "ns"),
    ("core.deferred_share", "ratio"),
    ("log.ship_us_1sub", "us"),
    ("log.ship_us_2sub", "us"),
    ("log.encode_ns", "ns"),
    ("log.decode_ns", "ns"),
    ("log.bytes_per_rec", "B"),
    ("log.archive_append_us", "us"),
    ("log.fsyncs_per_seg", "count"),
    ("storage.read_ns", "ns"),
    ("storage.gc_ms", "ms"),
    ("read.route_ns", "ns"),
    ("shim.channel_ns", "ns"),
    // Tails and ratios.
    ("read.ryw_p95_ms", "ms"),
    ("read.snap_p95_us", "us"),
    ("read.strong_p50_ms", "ms"),
    ("read.blocked_share", "ratio"),
    ("gen_late_share", "ratio"),
    ("gen_late_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// What one workload process measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The workload's name.
    pub workload: String,
    /// The seed its inputs were generated from.
    pub seed: u64,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Hash of the materialised log's encoding.
    pub log_hash: u64,
    /// Operations attempted: commits, reads and correctness checks.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The first few failures, spelled out.
    pub failures: Vec<String>,
    /// Every end-to-end metric, in [`END_TO_END`] order.
    pub end_to_end: Vec<f64>,
    /// Every per-layer metric, in [`PER_LAYER`] order (traced runs only).
    pub per_layer: Vec<f64>,
    /// Sample counts behind the percentiles, by sample name.
    pub samples: Vec<(&'static str, usize)>,
}

/// Formats a measurement with all the digits it was measured to.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn metrics_object(defs: &[(&str, &str)], values: &[f64]) -> String {
    let mut out = String::from("{");
    for (i, ((name, unit), value)) in defs.iter().zip(values).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            number(*value),
            quote(unit)
        );
    }
    out.push('}');
    out
}

impl Report {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: `correct`, `attempted`, `failed` and the
    /// metrics of this run's kind.
    pub fn result_line(&self) -> String {
        let metrics = if self.traced {
            metrics_object(&PER_LAYER, &self.per_layer)
        } else {
            metrics_object(&END_TO_END, &self.end_to_end)
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The detail line: identity, input hash, sample counts, failures, and
    /// the end-to-end metrics even of a traced run (so the cost of tracing
    /// can be stated against an untraced one).
    pub fn detail_line(&self) -> String {
        // With each count, the highest tail percentile it supports (ten
        // samples beyond it), so a reader can tell which tails mean anything.
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, count)| {
                let highest = highest_supported_percentile(*count).map_or("null".into(), number);
                format!(
                    "{}: {{\"count\": {count}, \"highest_pct\": {highest}}}",
                    quote(name)
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"log_hash\": \"{:016x}\", \
             \"samples\": {{{}}}, \"failures\": [{}], \"end_to_end\": {}}}",
            quote(&self.workload),
            self.seed,
            self.traced,
            self.log_hash,
            samples.join(", "),
            failures.join(", "),
            metrics_object(&END_TO_END, &self.end_to_end),
        )
    }
}

/// The `name → value` pairs of a metrics object as the lines above write it.
pub fn read_metrics(object: &Json) -> Vec<(String, f64)> {
    object.as_object().map_or_else(Vec::new, |members| {
        members
            .iter()
            .filter_map(|(name, metric)| Some((name.clone(), metric.get("value")?.as_f64()?)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(traced: bool) -> Report {
        Report {
            workload: "stream.uniform".into(),
            seed: 42,
            traced,
            log_hash: 0xABCD,
            attempted: 1000,
            failed: 0,
            failures: vec![],
            end_to_end: (1..=END_TO_END.len()).map(|i| i as f64 + 0.25).collect(),
            per_layer: (1..=PER_LAYER.len()).map(|i| i as f64 * 1.5).collect(),
            samples: vec![("lag", 400_000)],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_this_runs_metrics() {
        for traced in [false, true] {
            let line = Json::parse(&report(traced).result_line()).unwrap();
            let keys: Vec<_> = line.as_object().unwrap().keys().cloned().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let defs: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            let metrics = line.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), defs.len());
            for (name, unit) in defs {
                let metric = &metrics[*name];
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(metric.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let mut failing = report(false);
        failing.failed = 2;
        failing.failures = vec!["replica 0 diverged".into()];
        let line = Json::parse(&failing.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(2.0));
        let detail = Json::parse(&failing.detail_line()).unwrap();
        assert_eq!(detail.get("failures").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(
            detail.get("log_hash").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(
            read_metrics(detail.get("end_to_end").unwrap()).len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} is used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(unit.len() <= 16);
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
    }
}
