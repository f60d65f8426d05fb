//! The repository's benchmark: open-loop replication lag, replay throughput
//! and read latency of the C5 stack on four workloads sized for two cores.
//! See `README.md` beside this crate's manifest.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fleet;
pub mod json;
pub mod layers;
pub mod paced;
pub mod pacer;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
