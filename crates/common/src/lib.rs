//! Shared vocabulary types for the C5 reproduction.
//!
//! Every other crate in this workspace (storage engine, replication log,
//! primary engines, the C5 protocol itself, the baselines, the workloads, and
//! the benchmark harness) speaks in terms of the identifiers, values, errors,
//! and configuration structs defined here.
//!
//! The paper's system model (Section 3.1) is deliberately minimal: a database
//! maps keys to values, a transaction is an ordered set of reads and writes on
//! individual keys, the primary's log totally orders committed transactions,
//! and the backup's protocol replays that log. The types in this crate mirror
//! that model:
//!
//! * [`TableId`] / [`Key`] / [`RowRef`] identify a row ("row" in the paper's
//!   sense — the unit at which C5 serializes conflicting writes).
//!   [`RowHasher`] is the one way a row is hashed (row-keyed maps are
//!   [`RowMap`]s, maps keyed by a table or a log position [`IdMap`]s, and
//!   store and lock shards come from the same hash).
//! * [`Value`] is an opaque byte payload.
//! * [`Timestamp`] is a Cicada-style write timestamp; [`SeqNo`] is a position
//!   in the primary's replication log. The two are kept as distinct newtypes
//!   because conflating them is a classic source of bugs in cloned
//!   concurrency control implementations.
//! * [`TxnId`] identifies a transaction issued on the primary.
//! * [`Error`] is the workspace-wide error type.
//! * [`OpCost`] models the per-operation execution costs `e` (primary) and
//!   `d` (backup) from Section 3.1 so that benchmark shapes are reproducible
//!   on hosts with very different core counts than the paper's testbed.
//! * [`frame`] is the checksummed length-prefixed frame codec the durable
//!   layers (disk-backed log archive, checkpoint files) build their on-disk
//!   formats from, [`DurabilityPolicy`] names their one sync rule, and [`fs`]
//!   is the file-system seam the log archive's syscalls go through, with an
//!   in-memory one and a double that fails any one of them.
//! * [`ProgressSignal`] ([`signal`]) is the one way a thread waits for
//!   another's progress: an eventcount every waiter blocks on with its own
//!   condition, notified by whoever changed the state. Nothing waits on a
//!   timer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cost;
pub mod error;
pub mod frame;
pub mod fs;
pub mod ids;
pub mod shard;
pub mod signal;
pub mod value;

pub use config::{DurabilityPolicy, PrimaryConfig, ReadConfig, ReplicaConfig};
pub use cost::OpCost;
pub use error::{Error, Result};
pub use ids::{
    IdMap, Key, RowHasher, RowMap, RowRef, SeqNo, SessionId, TableId, Timestamp, TxnId, WorkerId,
};
pub use shard::ShardRouter;
pub use signal::ProgressSignal;
pub use value::{RowWrite, Value, WriteKind};
