//! Experiment harness for the C5 reproduction.
//!
//! The `experiments` binary (in `src/bin`) exposes one sub-command per
//! figure/table of the paper's evaluation; the heavy lifting lives here so
//! the integration tests can reuse it.
//!
//! Two experiment shapes cover everything in the paper:
//!
//! * **Live** ([`harness::run_scenario`]) — the MyRocks-style setup of
//!   Section 6: a two-phase-locking primary executes a workload with
//!   closed-loop clients while its log streams to one or more backups. A
//!   [`harness::Scenario`] says which backups, who reads from them meanwhile,
//!   and what happens to the fleet mid-run (a join, a retire, the primary
//!   dying); the [`harness::Outcome`] carries the primary's throughput, each
//!   backup's apply throughput and replication-lag distribution, and whatever
//!   the readers and events measured. Every live experiment — the figures,
//!   `fanout`, `sharded`, `failover`, `reads`, `elastic`, `obs` — is a
//!   scenario description plus a table over [`harness::Outcome::to_json`].
//! * **Offline replay** ([`harness::run_offline_mvtso`]) — the Cicada-style
//!   setup of Section 7: the MVTSO primary runs the workload (its per-thread
//!   logs are coalesced afterwards, as in the paper's prototype), then the
//!   backup replays the log as fast as it can; comparing the primary's
//!   execution time with the backup's replay time answers "does it keep up?".
//!
//! [`scale::Scale`] sizes every experiment: a quick configuration (seconds,
//! the default), a fuller one (`--full`), and the two `bench` runs at.
//!
//! ## The `BENCH_*.json` documents
//!
//! `experiments bench` ([`report`]) runs seven scenarios at *fixed,
//! documented parameters* ([`Scale::fixed`]) and writes one machine-readable
//! `BENCH_<name>.json` each into `BENCH_OUT_DIR` (or a scratch directory);
//! none is committed — `crates/bench/tests/bench_key_paths.txt` pins their
//! field sets instead. A document is the projection of a scenario's outcome through one declarative table
//! ([`report::SCHEMA`]: path and rule per field), and
//! [`report::validate_bench`] checks a document against the same table, so
//! the field sets cannot drift from their validator. They are scenario
//! outputs: since the repo's benchmark lives in `benchmark/`, nothing gates
//! on their numbers. The JSON is hand-rolled ([`json`]) because the workspace
//! deliberately has no serialization dependency.
//!
//! ## Comparing two commits
//!
//! `experiments pairs` ([`pairs`]) takes two built `c5-benchmark` binaries —
//! the parent commit's and a change's — runs them in interleaved pairs and
//! prints the median / quartile / pairs-won table a performance claim is
//! judged by. It reads only what the binaries print; `benchmark/` stays the
//! unmodified gate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
pub mod json;
pub mod obs_export;
pub mod pairs;
pub mod report;
pub mod scale;

pub use harness::{OfflineOutcome, Outcome, ReplicaSpec, Scenario};
pub use scale::Scale;
