//! The benchmark's command line.
//!
//! ```text
//! c5-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced]
//! c5-benchmark repeat N [--seed S] [--seconds N]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints its
//! result as the last line of standard output. `run` without a workload
//! runs every workload, each in a child process of its own, and with
//! `--traced` a second, traced child per workload, stating what tracing cost.
//! `repeat N` runs the whole set N times and prints each metric's spread.
//! Any correctness failure makes the exit code non-zero.

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use c5_benchmark::fleet::Fault;
use c5_benchmark::json::Json;
use c5_benchmark::report::{read_metrics, END_TO_END};
use c5_benchmark::run::{run_workload, Options};
use c5_benchmark::stats::{median, quartiles};
use c5_benchmark::workload::{workload, WORKLOADS};

/// The default seed. The held-out seed, for checking that a claimed gain is
/// not an artefact of one input, is 20220905 (see the README).
const DEFAULT_SEED: u64 = 42;
/// The default paced window, `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: c5-benchmark run [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1 | --traced] | repeat N [--seed S] [--seconds N]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    fault: Option<Fault>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        fault: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--traced" {
            parsed.traced = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            // Undocumented on purpose: swaps in a broken replica to prove
            // the correctness gate fails the run (see the README).
            "--fault" => parsed.fault = Some(Fault::parse(value).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// One workload, in this process.
fn run_here(name: &str, args: &Args) -> Result<ExitCode, String> {
    let spec = workload(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let options = Options {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        traced: args.traced,
        fault: args.fault,
    };
    let report = run_workload(spec, &options).map_err(|e| format!("{name}: {e}"))?;
    for failure in &report.failures {
        eprintln!("{name}: FAILED: {failure}");
    }
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What a workload's child process printed.
struct ChildResult {
    ok: bool,
    log_hash: String,
    /// End-to-end metrics (from the detail line, so also of a traced run).
    end_to_end: Vec<(String, f64)>,
    /// The result line's metrics.
    metrics: Vec<(String, f64)>,
}

/// One workload, in a child process of its own; the child's lines are echoed.
fn run_child(name: &str, args: &Args, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: cannot start the workload process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!("{name}: the workload process printed no result"));
    };
    println!("{detail}\n{result}");
    let result = Json::parse(result).map_err(|e| format!("{name}: result line: {e}"))?;
    let detail = Json::parse(detail).map_err(|e| format!("{name}: detail line: {e}"))?;
    Ok(ChildResult {
        ok: output.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        log_hash: detail
            .get("log_hash")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .into(),
        end_to_end: detail
            .get("end_to_end")
            .map(read_metrics)
            .unwrap_or_default(),
        metrics: result.get("metrics").map(read_metrics).unwrap_or_default(),
    })
}

fn value_of(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |&(_, v)| v)
}

/// Every workload once (and once more traced, when asked).
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut ok = true;
    for spec in &WORKLOADS {
        let plain = run_child(spec.name, args, false)?;
        ok &= plain.ok;
        if args.traced {
            let traced = run_child(spec.name, args, true)?;
            ok &= traced.ok && traced.log_hash == plain.log_hash;
            // A traced run sets up once and a plain one three times, so only
            // the paced phase's metric compares like with like.
            let (off, on) = (
                value_of(&plain.end_to_end, "lag_p50_ms"),
                value_of(&traced.end_to_end, "lag_p50_ms"),
            );
            println!(
                "{{\"workload\": \"{}\", \"trace_overhead_pct\": {{\"lag_p50_ms\": {:.2}}}}}",
                spec.name,
                (on - off) / off * 100.0
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The whole set `times` times; then, per workload and end-to-end metric,
/// the median, the quartiles (as Python's `statistics.quantiles(n=4)` gives
/// them) and (max − min) ÷ median.
fn repeat(times: usize, args: &Args) -> Result<ExitCode, String> {
    let mut ok = true;
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::with_capacity(times); END_TO_END.len()]; WORKLOADS.len()];
    for _ in 0..times {
        for (w, spec) in WORKLOADS.iter().enumerate() {
            let child = run_child(spec.name, args, false)?;
            ok &= child.ok;
            for (m, (name, _)) in END_TO_END.iter().enumerate() {
                values[w][m].push(value_of(&child.metrics, name));
            }
        }
    }
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for (m, (name, unit)) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let mid = median(v);
            let [q1, _, q3] = if v.len() >= 2 { quartiles(v) } else { [mid; 3] };
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            println!(
                "{{\"workload\": \"{}\", \"metric\": \"{name}\", \"unit\": \"{unit}\", \
                 \"runs\": {times}, \"median\": {mid}, \"q1\": {q1}, \"q3\": {q3}, \
                 \"iqr_over_median\": {:.4}, \"range_over_median\": {:.4}}}",
                spec.name,
                (q3 - q1) / mid,
                (hi - lo) / mid
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse(rest).and_then(|args| match args.workload.clone() {
                Some(name) => run_here(&name, &args),
                None => run_all(&args),
            })
        }
        Some((command, rest)) if command == "repeat" => match rest.split_first() {
            Some((times, rest)) => times
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("repeat needs a positive count, got {times}"))
                .and_then(|times| parse(rest).and_then(|args| repeat(times, &args))),
            None => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
