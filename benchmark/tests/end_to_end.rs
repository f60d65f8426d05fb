//! The runner end to end, on scaled-down copies of the four workloads: same
//! fleets, readers and phases, a few thousand transactions instead of
//! hundreds of thousands. These check plumbing and the correctness gate, not
//! timings.

use std::collections::BTreeSet;
use std::time::Duration;

use c5_benchmark::fleet::{materialise, preloaded_store, Fault, Fleet, ReplayLog};
use c5_benchmark::json::Json;
use c5_benchmark::paced;
use c5_benchmark::report::{END_TO_END, PER_LAYER};
use c5_benchmark::run::{run_workload, Options};
use c5_benchmark::workload::{population, workload, Traffic, WorkloadSpec, WORKLOADS};
use c5_log::wal;

fn tiny(spec: &WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec {
        traffic: match spec.traffic {
            Traffic::Uniform { value_len, .. } => Traffic::Uniform {
                rows: 2_000,
                value_len,
            },
            Traffic::Hot { .. } => Traffic::Hot { base_rows: 256 },
        },
        rate_tps: 2_000.0,
        replay_txns: 3_000,
        ..*spec
    }
}

fn options(traced: bool) -> Options {
    Options {
        seed: 7,
        window: Duration::from_millis(400),
        traced,
        fault: None,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> BTreeSet<(String, String)> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(defs: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    defs.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_exactly_what_the_runner_emits() {
    let doc = benchmark_json();
    let keys: Vec<_> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        names_and_units(doc.get("end_to_end").unwrap()),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_and_units(doc.get("per_layer").unwrap()),
        owned(&PER_LAYER)
    );

    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            assert_eq!(
                w.as_object().unwrap().len(),
                2,
                "a workload has a name and a why"
            );
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Json::as_str).unwrap()
        })
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, ours);

    let mut has_setup = false;
    for metric in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = metric.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        let better = metric.get("better").and_then(Json::as_str).unwrap();
        assert!(better == "lower" || better == "higher");
        if metric.get("name").and_then(Json::as_str) == Some("setup_s") {
            has_setup = true;
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some("s"));
            assert_eq!(better, "lower");
        }
    }
    assert!(has_setup, "setup_s must be an end-to-end metric");

    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let runs = 4.0 + 22.0 * ours.len() as f64;
    assert!(
        runs * 30.0 < 3420.0,
        "the driver's runs must fit its budget"
    );
    assert_eq!(
        doc.get("paths").and_then(Json::as_array).unwrap(),
        [Json::String("benchmark".into())]
    );
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_own_checks() {
    for spec in &WORKLOADS {
        let spec = tiny(spec);
        for traced in [false, true] {
            let report = run_workload(&spec, &options(traced)).expect("run");
            assert_eq!(
                (report.failed, &report.failures),
                (0, &vec![]),
                "{} (traced: {traced})",
                spec.name
            );
            let line = Json::parse(&report.result_line()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let defs: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
            assert_eq!(metrics.len(), defs.len());
            for (name, unit) in defs {
                let metric = metrics
                    .get(*name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some(), "{} {name} has no value", spec.name);
            }
            Json::parse(&report.detail_line()).expect("detail line parses");
        }
    }
}

#[test]
fn the_same_seed_gives_a_byte_identical_log_and_another_seed_another() {
    for name in ["stream.uniform", "stream.hot"] {
        let spec = tiny(workload(name).unwrap());
        let encode = |seed| -> Vec<Vec<u8>> {
            materialise(&spec, seed)
                .iter()
                .map(wal::encode_segment)
                .collect()
        };
        assert_eq!(encode(42), encode(42), "{name}: same seed, different bytes");
        assert_ne!(
            encode(42),
            encode(43),
            "{name}: different seeds, same bytes"
        );

        let rows = population(&spec.traffic, 42);
        let hash = |seed| ReplayLog::index(materialise(&spec, seed), &rows).hash;
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }
}

#[test]
fn the_lag_budget_sums_to_the_lag_sample() {
    let spec = tiny(workload("stream.hot").unwrap());
    let rows = population(&spec.traffic, 7);
    let fleet = Fleet::start(&spec, &rows, None).unwrap();
    let outcome = paced::run(
        &spec,
        preloaded_store(&rows),
        fleet,
        7,
        Duration::from_millis(500),
        true,
    );
    assert_eq!(outcome.failures.count, 0, "{:?}", outcome.failures.examples);
    assert_eq!(outcome.lag_ms.len(), 1_000);
    assert_eq!(outcome.terms.len(), outcome.lag_ms.len());
    let resolution_ms = paced::OBSERVER_PERIOD.as_secs_f64() * 1e3;
    for (terms, lag) in outcome.terms.iter().zip(&outcome.lag_ms) {
        assert!(
            (terms.sum() - lag).abs() < resolution_ms,
            "{terms:?} sums to {} for a lag of {lag}",
            terms.sum()
        );
        // Both watermarks are read in one poll and stamped once, so a cut
        // is never seen before the applied prefix it rests on.
        assert!(terms.expose >= 0.0);
    }
}

#[test]
fn a_replica_that_exposes_ahead_of_applying_fails_the_run() {
    let spec = tiny(workload("stream.hot").unwrap());
    let broken = Options {
        fault: Some(Fault::ExposedAhead),
        ..options(false)
    };
    let report = run_workload(&spec, &broken).expect("run");
    assert!(report.failed > 0 && !report.correct());
    assert!(
        report.failures.iter().any(|f| f.contains("applied")),
        "the observer must name the lie: {:?}",
        report.failures
    );
    let line = Json::parse(&report.result_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
}
