//! The interleaved-pair runner: two built `c5-benchmark` binaries, run
//! alternately, compared the way a performance change has to be.
//!
//! ```text
//! experiments pairs --parent <bin> --change <bin> [--pairs 10] [--seed S]
//!                   [--workload W] [--trace 0|1] [--seconds N]
//! ```
//!
//! Each pair runs both binaries once on the same workload, seed and window
//! (`<bin> run --workload W --seed S --seconds N --trace T`); which side
//! goes first alternates from pair to pair, so a machine that drifts over
//! minutes drifts under both sides equally. The printed table — one row per
//! workload and metric — is the one CHANGES.md entries carry: each side's
//! median and quartiles, the change of the median, how many pairs the change
//! won (ties count for neither side), and whether the change's median lies
//! inside or outside the parent's interquartile range. A gain may be claimed
//! when the change wins at least nine tenths of the pairs and its median is
//! outside that range.
//!
//! Which direction is better, and which workloads exist, comes from the
//! `BENCHMARK.json` in the current directory — run it from the repository
//! root. `benchmark/` itself is not touched: this reads only what its
//! binaries print.

use std::process::Command;

use crate::json::{parse, JsonValue};

const USAGE: &str = "usage: experiments pairs --parent <bin> --change <bin> [--pairs 10] \
                     [--seed S] [--workload W] [--trace 0|1] [--seconds N]";

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The parent commit's `c5-benchmark` binary.
    pub parent: String,
    /// The change's.
    pub change: String,
    /// Pairs per workload.
    pub pairs: usize,
    /// Workload seed handed to both sides.
    pub seed: u64,
    /// One workload, or every workload `BENCHMARK.json` lists.
    pub workload: Option<String>,
    /// Whether the runs are traced (per-layer metrics, replay phase).
    pub trace: bool,
    /// Paced window per run, seconds.
    pub seconds: f64,
}

impl Args {
    /// Parses the arguments after `pairs`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let (mut parent, mut change, mut workload) = (None, None, None);
        let (mut pairs, mut seed, mut trace, mut seconds) = (10, 42, false, 15.0);
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--parent" => parent = Some(value.clone()),
                "--change" => change = Some(value.clone()),
                "--workload" => workload = Some(value.clone()),
                "--pairs" => pairs = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = (value.parse().ok())
                        .filter(|&s: &f64| s > 0.0)
                        .ok_or_else(bad)?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            parent: parent.ok_or("--parent is required")?,
            change: change.ok_or("--change is required")?,
            pairs,
            seed,
            workload,
            trace,
            seconds,
        })
    }
}

/// What `BENCHMARK.json` says about the benchmark being compared.
struct Declared {
    workloads: Vec<String>,
    /// Metrics for which a higher value is the better one.
    higher_is_better: Vec<String>,
}

impl Declared {
    fn read(text: &str) -> Result<Declared, String> {
        let doc = parse(text)?;
        let rows = |key: &str| {
            let rows = doc.get(key).and_then(JsonValue::as_arr).unwrap_or(&[]);
            rows.iter()
        };
        fn name_of(row: &JsonValue) -> Option<String> {
            Some(row.get("name")?.as_str()?.to_string())
        }
        let workloads: Vec<String> = rows("workloads").filter_map(name_of).collect();
        if workloads.is_empty() {
            return Err("BENCHMARK.json lists no workloads".into());
        }
        let higher_is_better = rows("end_to_end")
            .chain(rows("per_layer"))
            .filter(|row| row.get("better").and_then(JsonValue::as_str) == Some("higher"))
            .filter_map(name_of)
            .collect();
        Ok(Declared {
            workloads,
            higher_is_better,
        })
    }
}

/// One run's printed result: every metric by name, plus the failure count.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    metrics: Vec<(String, f64)>,
    failed: f64,
    attempted: f64,
}

/// Reads a run's two printed lines: the detail line (whose `end_to_end`
/// block a traced run's result line omits) and the result line.
fn parse_run(stdout: &str) -> Result<RunResult, String> {
    let mut lines = stdout.lines().rev().filter(|l| l.starts_with('{'));
    let result = parse(lines.next().ok_or("the run printed no result line")?)?;
    let detail = lines.next().map(parse).transpose()?;
    let count = |key: &str| {
        (result.get(key).and_then(JsonValue::as_num))
            .ok_or_else(|| format!("the result line has no `{key}`"))
    };
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let blocks = [
        detail.as_ref().and_then(|d| d.get("end_to_end")),
        result.get("metrics"),
    ];
    for block in blocks.into_iter().flatten() {
        let JsonValue::Obj(fields) = block else {
            continue;
        };
        for (name, entry) in fields {
            let value = entry.get("value").and_then(JsonValue::as_num);
            if let (Some(value), false) = (value, metrics.iter().any(|(n, _)| n == name)) {
                metrics.push((name.clone(), value));
            }
        }
    }
    Ok(RunResult {
        metrics,
        failed: count("failed")?,
        attempted: count("attempted")?,
    })
}

fn run_once(bin: &str, workload: &str, args: &Args) -> Result<RunResult, String> {
    let output = Command::new(bin)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // A run that fails its own correctness gate still prints its numbers;
    // its failures are reported in the table, not hidden behind an abort.
    parse_run(&stdout).map_err(|e| {
        format!(
            "{bin} run --workload {workload} ({}): {e}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

/// First quartile, median, third quartile — Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is what
/// the acceptance check measures the parent's spread with. One value is its
/// own three quartiles.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_unstable_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let n = data.len();
    if n < 2 {
        return [data[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// One table row: a metric's samples on both sides, pair by pair.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    metric: String,
    parent: Vec<f64>,
    change: Vec<f64>,
    higher_is_better: bool,
}

impl Row {
    /// Pairs the change won; ties count for neither side.
    fn won(&self) -> usize {
        (self.parent.iter().zip(&self.change))
            .filter(|(p, c)| if self.higher_is_better { c > p } else { c < p })
            .count()
    }

    fn render(&self, workload: &str) -> String {
        let [p1, p2, p3] = quartiles(&self.parent);
        let [c1, c2, c3] = quartiles(&self.change);
        let delta = if p2 == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.1} %", (c2 - p2) / p2.abs() * 100.0)
        };
        let spread = if (p1..=p3).contains(&c2) {
            "inside"
        } else {
            "outside"
        };
        format!(
            "| {workload} | {} | {p2:.3} [{p1:.3}, {p3:.3}] | {c2:.3} [{c1:.3}, {c3:.3}] | \
             {delta} | {}/{} | {spread} |",
            self.metric,
            self.won(),
            self.parent.len()
        )
    }
}

/// Folds the pairs of one workload into rows, in the order the metrics were
/// first printed. A metric one side did not print in some pair is dropped.
fn rows_of(pairs: &[(RunResult, RunResult)], declared: &Declared) -> Vec<Row> {
    let Some((first, _)) = pairs.first() else {
        return Vec::new();
    };
    let value = |run: &RunResult, metric: &str| {
        (run.metrics.iter())
            .find(|(name, _)| name == metric)
            .map(|&(_, v)| v)
    };
    (first.metrics.iter())
        .filter_map(|(metric, _)| {
            let sides: Option<Vec<(f64, f64)>> = (pairs.iter())
                .map(|(parent, change)| Some((value(parent, metric)?, value(change, metric)?)))
                .collect();
            let (parent, change) = sides?.into_iter().unzip();
            Some(Row {
                metric: metric.clone(),
                parent,
                change,
                higher_is_better: declared.higher_is_better.contains(metric),
            })
        })
        .collect()
}

/// Runs the comparison and prints the table. `Err` is a usage or I/O
/// problem; a benchmark run that fails its correctness gate is a table row.
pub fn run(args: &Args) -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|text| Declared::read(&text))?;
    let workloads = match &args.workload {
        Some(one) => vec![one.clone()],
        None => declared.workloads.clone(),
    };
    println!(
        "pairs: {} per workload, seed {}, {} s window, trace {}, host cores {}\n\
         parent: {}\nchange: {}\n",
        args.pairs,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.parent,
        args.change
    );
    println!(
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | Δ median \
         | pairs won | vs parent IQR |\n|---|---|---|---|---|---|---|"
    );
    for workload in &workloads {
        let mut pairs = Vec::with_capacity(args.pairs);
        for pair in 0..args.pairs {
            // Alternate which side runs first.
            let sides = [&args.parent, &args.change];
            let first = pair % 2;
            let a = run_once(sides[first], workload, args)?;
            let b = run_once(sides[1 - first], workload, args)?;
            pairs.push(if first == 0 { (a, b) } else { (b, a) });
            eprintln!("{workload}: pair {}/{} done", pair + 1, args.pairs);
        }
        for row in rows_of(&pairs, &declared) {
            println!("{}", row.render(workload));
        }
        let total = |side: fn(&(RunResult, RunResult)) -> &RunResult| {
            let (failed, attempted) = pairs.iter().map(side).fold((0.0, 0.0), |acc, run| {
                (acc.0 + run.failed, acc.1 + run.attempted)
            });
            format!("{failed} of {attempted}")
        };
        println!(
            "| {workload} | failed | {} | {} | | | |",
            total(|pair| &pair.0),
            total(|pair| &pair.1)
        );
    }
    Ok(())
}

/// The `experiments pairs` entry point: parses, runs, and turns an error
/// into a message and a non-zero exit code.
pub fn main(args: &[String]) -> std::process::ExitCode {
    match Args::parse(args).and_then(|args| run(&args)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pairs: {message}\n{USAGE}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_nonsense() {
        let args = Args::parse(&strings(&["--parent", "a", "--change", "b"])).unwrap();
        assert_eq!((args.pairs, args.seed, args.trace), (10, 42, false));
        assert_eq!(args.seconds, 15.0);
        assert_eq!(args.workload, None);
        let args = Args::parse(&strings(&[
            "--change",
            "b",
            "--parent",
            "a",
            "--pairs",
            "1",
            "--seed",
            "20220905",
            "--workload",
            "fleet.durable",
            "--trace",
            "1",
            "--seconds",
            "2",
        ]))
        .unwrap();
        assert_eq!((args.pairs, args.seed, args.trace), (1, 20220905, true));
        assert_eq!(args.workload.as_deref(), Some("fleet.durable"));
        assert!(Args::parse(&strings(&["--parent", "a"])).is_err());
        assert!(Args::parse(&strings(&[
            "--parent", "a", "--change", "b", "--pairs", "0"
        ]))
        .is_err());
        assert!(Args::parse(&strings(&[
            "--parent", "a", "--change", "b", "--trace", "2"
        ]))
        .is_err());
        assert!(Args::parse(&strings(&[
            "--parent", "a", "--change", "b", "--bogus", "1"
        ]))
        .is_err());
    }

    #[test]
    fn a_traced_run_is_read_from_both_of_its_lines() {
        let stdout = "noise\n\
            {\"workload\": \"w\", \"end_to_end\": {\"lag_p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}}\n\
            {\"correct\": true, \"attempted\": 100, \"failed\": 1, \"metrics\": \
            {\"log.fill_ship_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n";
        let run = parse_run(stdout).unwrap();
        assert_eq!(
            run.metrics,
            vec![
                ("lag_p50_ms".to_string(), 2.5),
                ("log.fill_ship_ms".to_string(), 1.5)
            ]
        );
        assert_eq!((run.failed, run.attempted), (1.0, 100.0));
        assert!(parse_run("nothing json here").is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn rows_count_wins_by_direction_and_place_the_median_against_the_parent_iqr() {
        let declared = Declared::read(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "lag_p50_ms", "better": "lower"}],
                "per_layer": [{"name": "replay_krec_per_s", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(declared.workloads, ["w"]);
        let run = |lag: f64, replay: f64| RunResult {
            metrics: vec![
                ("lag_p50_ms".to_string(), lag),
                ("replay_krec_per_s".to_string(), replay),
            ],
            failed: 0.0,
            attempted: 10.0,
        };
        // Lag: the change is lower in pairs 1 and 2, ties in pair 3.
        // Replay: the change is higher only in pair 1.
        let pairs = vec![
            (run(2.4, 800.0), run(0.2, 900.0)),
            (run(2.6, 820.0), run(0.3, 810.0)),
            (run(2.5, 810.0), run(2.5, 805.0)),
        ];
        let rows = rows_of(&pairs, &declared);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].won(), rows[1].won()), (2, 1));
        let lag = rows[0].render("w");
        assert!(lag.contains("| 2/3 | outside |"), "{lag}");
        assert!(lag.contains("-88.0 %"), "{lag}");
        let replay = rows[1].render("w");
        assert!(replay.contains("| 1/3 | inside |"), "{replay}");
    }
}
