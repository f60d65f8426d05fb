//! One workload, end to end: set-up, paced phase, drain and verify, replay
//! phase, and — traced — the isolation pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_common::{RowRef, Value};
use c5_log::Segment;
use c5_storage::MvStore;

use crate::fleet::{materialise, preloaded_store, Fault, Fleet, ReplayLog};
use crate::paced::{Failures, LagTerms};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile, sliced_percentile, sorted};
use crate::workload::{population, Traffic, WorkloadSpec};
use crate::{layers, paced, replay};

/// Times an untraced run sets the system up (the median is reported); a
/// traced run, which does not report set-up time, does it once.
const SETUPS: usize = 3;
/// Times a traced run replays the log (the median is reported); an untraced
/// run, which does not report the replay rate, skips the phase.
const REPLAYS: usize = 3;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the paced phase.
    pub window: Duration,
    /// Whether to record the lag budget and run the isolation pass.
    pub traced: bool,
    /// A deliberately broken replica, to prove the correctness gate is live.
    pub fault: Option<Fault>,
}

/// Everything phase 1 builds.
struct SetUp {
    population: Vec<(RowRef, Value)>,
    segments: Vec<Segment>,
    primary_store: Arc<MvStore>,
    fleet: Fleet,
}

/// Phase 1: build the population, preload the primary's and the replicas'
/// stores, materialise the replay log, start the fleet.
fn set_up(spec: &WorkloadSpec, options: &Options) -> std::io::Result<SetUp> {
    let population = population(&spec.traffic, options.seed);
    let primary_store = preloaded_store(&population);
    let segments = materialise(spec, options.seed);
    let fleet = Fleet::start(spec, &population, options.fault)?;
    Ok(SetUp {
        population,
        segments,
        primary_store,
        fleet,
    })
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `spec` under `options` and reports every metric it measured.
pub fn run_workload(spec: &WorkloadSpec, options: &Options) -> std::io::Result<Report> {
    // Phase 1, several times over: each pass is a complete set-up and the
    // last one's products are the ones used.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..if options.traced { 1 } else { SETUPS } {
        drop(built.take());
        let begun = Instant::now();
        built = Some(set_up(spec, options)?);
        setup_s.push(begun.elapsed().as_secs_f64());
    }
    let SetUp {
        population,
        segments,
        primary_store,
        fleet,
    } = built.expect("at least one set-up");
    let log = ReplayLog::index(segments, &population);

    // Phases 2 and 3.
    let paced = paced::run(
        spec,
        primary_store,
        fleet,
        options.seed,
        options.window,
        options.traced,
    );
    let mut failures = Failures::default();
    let mut attempted = paced.attempted + paced.reads.attempted + paced.checks;
    failures.absorb(paced.failures);
    failures.absorb(paced.reads.failures);

    // Phase 4.
    let mut replay_krec_per_s = Vec::new();
    let mut deferred_share = 0.0;
    for _ in 0..if options.traced { REPLAYS } else { 0 } {
        let replayed = replay::run_once(spec, &population, &log, options.seed, options.fault)?;
        replay_krec_per_s.push(replayed.krec_per_s);
        deferred_share = replayed.deferred_share;
        attempted += replayed.checks + replayed.reads;
        failures.absorb(replayed.failures);
    }
    if matches!(spec.traffic, Traffic::Hot { .. }) {
        let (views, mpc_failures) = replay::mpc_pass(spec, &population, &log, options.fault)?;
        attempted += views;
        failures.absorb(mpc_failures);
    }

    // A phase that produced no samples has failed already (nothing exposed,
    // every read timed out); report NaN rather than panic on top of it.
    let or_nan = |samples: &[f64], pick: fn(&[f64], f64) -> f64, p: f64| {
        if samples.is_empty() {
            f64::NAN
        } else {
            pick(samples, p)
        }
    };
    let lag_p50 = or_nan(&paced.lag_ms, sliced_percentile, 50.0);
    let lag_p99 = or_nan(&paced.lag_ms, sliced_percentile, 99.0);
    let lag_mean = mean(&paced.lag_ms);
    let ryw = sorted(paced.reads.ryw_ms);
    let snap = sorted(paced.reads.snap_us);
    let strong = sorted(paced.reads.strong_ms);
    let late = sorted(paced.late_ms);
    let pct = |samples: &[f64], p: f64| or_nan(samples, percentile, p);
    let end_to_end = vec![median(&setup_s), lag_p50];
    debug_assert_eq!(end_to_end.len(), END_TO_END.len());

    let per_layer = if options.traced {
        let costs = layers::measure(spec, &population, &log.segments, options.seed)?;
        let term =
            |pick: fn(&LagTerms) -> f64| mean(&paced.terms.iter().map(pick).collect::<Vec<f64>>());
        let late_share = late.iter().filter(|&&ms| ms > 1.0).count() as f64 / late.len() as f64;
        let values = vec![
            lag_p99,
            pct(&ryw, 50.0),
            median(&replay_krec_per_s),
            pct(&snap, 50.0),
            term(|t| t.commit),
            term(|t| t.fill_ship),
            term(|t| t.ingest),
            term(|t| t.apply),
            term(|t| t.expose),
            lag_mean,
            costs.schedule_ns,
            costs.watermark_ns,
            costs.install_ns,
            costs.waitlist_ns,
            deferred_share,
            costs.ship_us_1sub,
            costs.ship_us_2sub,
            costs.encode_ns,
            costs.decode_ns,
            costs.bytes_per_rec,
            costs.archive_append_us,
            paced.fsyncs_per_seg.unwrap_or(costs.fsyncs_per_seg),
            costs.read_ns,
            costs.gc_ms,
            costs.route_ns,
            costs.channel_ns,
            pct(&ryw, 95.0),
            pct(&snap, 95.0),
            pct(&strong, 50.0),
            paced.blocked_share,
            late_share,
            pct(&late, 99.0),
            peak_rss_mb(),
        ];
        debug_assert_eq!(values.len(), PER_LAYER.len());
        values
    } else {
        Vec::new()
    };

    Ok(Report {
        workload: spec.name.into(),
        seed: options.seed,
        traced: options.traced,
        log_hash: log.hash,
        attempted,
        failed: failures.count,
        failures: failures.examples,
        end_to_end,
        per_layer,
        samples: vec![
            ("setup", setup_s.len()),
            ("lag", paced.lag_ms.len()),
            ("replay", replay_krec_per_s.len()),
            ("ryw", ryw.len()),
            ("snap", snap.len()),
            ("strong", strong.len()),
        ],
    })
}
