//! The experiment runner: one sub-command per figure/table of the paper.
//!
//! ```text
//! cargo run -p c5-bench --release --bin experiments -- <command> [--full]
//!
//! commands:
//!   thm1            Theorem 1: unbounded lag for transaction granularity
//!   thm-page        Section 3.1.1: unbounded lag for page granularity
//!   thm2            Theorem 2: row granularity keeps up
//!   table1          Table 1: the keep-up summary matrix
//!   fig6            TPC-C NewOrder/Payment, unoptimized vs optimized
//!   fig7            Adversarial workload on the 2PL primary
//!   fig8 | fig9     Lag and throughput vs read-only clients
//!   fig10           District sweep on the MVTSO primary
//!   fig10-ablation  Same, plus KuaFu with constraints disabled
//!   fig11           Adversarial workload on the MVTSO primary
//!   fig12           The production load-spike trace
//!   fanout          1 primary -> 3 replicas log fan-out, per-replica lag
//!   reads           Consistency-class sessions over the fan-out fleet
//!   elastic         Online join + online retire on a live fleet under load
//!   sharded         Keyspace sharding sweep (1/2/4/8 shards), one cut each
//!   failover        Kill the primary, promote the backup, resume + standby
//!   durability      kill -9 a child process mid-workload, recover from disk
//!   obs             Observability smoke: run the elastic scenario against a
//!                   fresh c5-obs sink, dump Prometheus text + the merged
//!                   trace timeline, assert full coverage
//!   insert-only     Insert-only workload, 2PL primary, all protocols
//!   insert-only-cicada  Insert-only workload, MVTSO primary
//!   sched-offline   Offline scheduler throughput (Section 6.2), then the
//!                   whole apply path's ns/record for c5, c5-myrocks and
//!                   c5 at 8 shards (c5-sharded-8) over one replayed log
//!   pairs           Interleaved parent/change pairs of two built
//!                   c5-benchmark binaries: --parent <bin> --change <bin>
//!                   [--pairs 10] [--seed S] [--workload W] [--trace 0|1]
//!                   [--seconds N]; prints the CHANGES.md comparison table
//!   all             Everything above except pairs, in order
//! ```

use c5_bench::experiments;
use c5_bench::Scale;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A tool with its own flags, not a scenario at a scale.
    if args.first().is_some_and(|a| a == "pairs") {
        return c5_bench::pairs::main(&args[1..]);
    }
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::full() } else { Scale::quick() };
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    // Hidden sub-command: the durability experiment respawns this binary as
    // its crash-test child; the positional argument is the state directory.
    if command == "durability-child" {
        let dir = args
            .iter()
            .skip_while(|a| a.as_str() != "durability-child")
            .nth(1)
            .expect("durability-child needs a state directory argument");
        experiments::durability::run_child(std::path::Path::new(dir));
    }

    println!(
        "# C5 reproduction experiments — command: {command}, scale: {} (host cores: {})",
        if full { "full" } else { "quick" },
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let run_one = |name: &str| match name {
        "thm1" => experiments::theorems::run_thm1(&scale),
        "thm-page" => experiments::theorems::run_thm_page(&scale),
        "thm2" => experiments::theorems::run_thm2(&scale),
        "table1" => experiments::table1::run(&scale),
        "fig6" => experiments::fig6::run(&scale),
        "fig7" => experiments::fig7::run(&scale),
        "fig8" | "fig9" => experiments::fig8_9::run(&scale),
        "fig10" => experiments::fig10::run(&scale, false),
        "fig10-ablation" => experiments::fig10::run(&scale, true),
        "fig11" => experiments::fig11::run(&scale),
        "fig12" => experiments::fig12::run(&scale),
        "fanout" => experiments::fanout::run(&scale),
        "reads" => experiments::reads::run(&scale),
        "elastic" => experiments::elastic::run(&scale),
        "sharded" => experiments::sharded::run(&scale),
        "failover" => experiments::failover::run(&scale),
        "durability" => experiments::durability::run(&scale),
        "obs" => experiments::obs::run(&scale),
        "insert-only" => experiments::insert_only::run_myrocks(&scale),
        "insert-only-cicada" => experiments::insert_only::run_cicada(&scale),
        "sched-offline" => experiments::sched_offline::run(&scale),
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    };

    if command == "all" {
        for name in [
            "thm1",
            "thm-page",
            "thm2",
            "table1",
            "fig6",
            "fig7",
            "fig8",
            "fig10",
            "fig10-ablation",
            "fig11",
            "fig12",
            "fanout",
            "reads",
            "elastic",
            "sharded",
            "failover",
            "durability",
            "obs",
            "insert-only",
            "insert-only-cicada",
            "sched-offline",
        ] {
            run_one(name);
        }
    } else {
        run_one(&command);
    }
    std::process::ExitCode::SUCCESS
}
