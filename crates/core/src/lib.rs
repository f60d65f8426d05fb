//! C5: row-granularity cloned concurrency control.
//!
//! This crate is the paper's primary contribution (Section 4). A backup
//! running C5 consists of three cooperating components:
//!
//! * a **scheduler** ([`scheduler`]) that reads the primary's log in order,
//!   assigns each write its position, and computes, for every write, the
//!   position of the previous write to the same row (the per-row FIFO
//!   constraint that keeps the backup's state convergent with the primary's);
//! * a set of **workers** ([`replica::C5Replica`]) that apply individual row
//!   writes in parallel, constrained only by the per-row order — never by
//!   transaction boundaries — so the backup always has at least as much
//!   execution parallelism available as the primary's concurrency control
//!   used (Theorem 2, Section 4.1.1);
//! * a **snapshotter** ([`snapshotter`]) that exposes a progressing,
//!   prefix-complete, transaction-aligned view of the database to read-only
//!   transactions, so monotonic prefix consistency holds without ever
//!   blocking the workers (Section 4.2).
//!
//! Two execution modes reproduce the paper's two implementations:
//! [`replica::C5Mode::Faithful`] is C5-Cicada (Section 7) and
//! [`replica::C5Mode::OneWorkerPerTxn`] adds the backward-compatibility
//! constraints of C5-MyRocks (Section 5: a transaction's writes all execute
//! on one worker, picked up in commit order; snapshots are whole-database
//! cuts taken at a tunable interval while workers briefly hold back writes
//! past the cut).
//!
//! The crate also hosts everything the baseline protocols share with C5 so
//! that every replica in the workspace is measured identically: the
//! [`replica::ClonedConcurrencyControl`] trait, the shared replication
//! [`pipeline`] runtime every protocol (C5 and baseline alike) runs its
//! ordering on, the one prefix [`exposure`] they all expose through, the
//! applied/exposed progress tracker ([`progress`]), replication-lag metrics
//! ([`lag`]), and the monotonic-prefix-consistency checker ([`mpc`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod design_queues;
pub mod exposure;
pub mod fleet;
pub mod lag;
pub mod mpc;
pub mod pipeline;
pub mod progress;
pub mod recovery;
pub mod replica;
pub mod scheduler;
mod shard;
pub mod snapshotter;

pub use exposure::PrefixExposure;
pub use fleet::{FleetController, FleetRoutingSink, JoinReport, ReplicaLifecycle, RetireReport};
pub use lag::{LagStats, LagTracker};
pub use mpc::MpcChecker;
pub use pipeline::{
    BlockingInstall, PipelineOptions, PipelinePolicy, PipelineRuntime, PipelineSignals, QueuePlan,
    RowWaitList, WorkSink,
};
pub use progress::WatermarkTracker;
pub use recovery::{recover_replica, RecoveredReplica};
pub use replica::{
    drive_from_receiver, drive_segments, C5Mode, C5Replica, ClonedConcurrencyControl, Promotion,
    ReadView, ReplicaMetrics, FLEET_PROGRESS,
};
pub use scheduler::{SchedulerState, SchedulerStats};
