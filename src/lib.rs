//! # c5-repro — a reproduction of *C5: Cloned Concurrency Control That Always Keeps Up* (VLDB 2022)
//!
//! This crate is the façade over the workspace: it re-exports every component
//! so examples, integration tests, and downstream users can depend on one
//! crate and find everything under a single namespace.
//!
//! The pieces, bottom-up:
//!
//! * [`common`] — identifiers, values, errors, configuration, the `e`/`d`
//!   operation-cost model.
//! * [`storage`] — the in-memory multi-version storage engine, whole-database
//!   snapshots, and durable checkpoints.
//! * [`log`] — the replication log: per-write records, transaction
//!   boundaries, segments, per-thread logs with coalescing, shipping.
//! * [`primary`] — the two primary engines: two-phase locking (the MyRocks
//!   role) and MVTSO (the Cicada role), with stored procedures and
//!   closed-loop drivers.
//! * [`core`] — **C5 itself**: the row-granularity scheduler, workers, and
//!   snapshotter, in faithful and MyRocks-constrained modes, plus the replica
//!   trait, lag metrics, and the monotonic-prefix-consistency checker.
//! * [`read`] — the read-serving layer: consistency-class sessions
//!   (read-your-writes, monotonic reads), multi-key read-only transactions
//!   pinned at one cut, and the freshness-aware router over a replica fleet.
//! * [`baselines`] — KuaFu (transaction granularity), single-threaded,
//!   table- and page-granularity replicas.
//! * [`workloads`] — TPC-C (NewOrder/Payment, standard and optimized),
//!   insert-only, adversarial, read-only clients, the load-spike trace.
//! * [`lagmodel`] — the Section 3 discrete-event model used to demonstrate
//!   the paper's theorems numerically.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use c5_repro::prelude::*;
//!
//! // A primary with a streaming replication log.
//! let (shipper, receiver) = LogShipper::unbounded();
//! let logger = StreamingLogger::new(64, shipper);
//! let primary = Arc::new(TplEngine::new(
//!     Arc::new(MvStore::default()),
//!     PrimaryConfig::default(),
//!     logger,
//! ));
//!
//! // A C5 backup applying that log.
//! let backup_store = Arc::new(MvStore::default());
//! let replica = C5Replica::new(C5Mode::Faithful, Arc::clone(&backup_store), ReplicaConfig::default());
//!
//! // Execute a transaction on the primary.
//! primary
//!     .execute(&|ctx: &mut dyn TxnCtx| {
//!         ctx.insert(RowRef::new(0, 1), Value::from_u64(42))
//!     })
//!     .unwrap();
//! primary.close_log();
//!
//! // Drive the backup until the log is fully applied, then read from it.
//! drive_from_receiver(replica.as_ref(), receiver);
//! assert_eq!(
//!     replica.read_view().get(RowRef::new(0, 1)).unwrap().as_u64(),
//!     Some(42)
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use c5_baselines as baselines;
pub use c5_common as common;
pub use c5_core as core;
pub use c5_lagmodel as lagmodel;
pub use c5_log as log;
pub use c5_primary as primary;
pub use c5_read as read;
pub use c5_storage as storage;
pub use c5_workloads as workloads;

/// Convenience re-exports of the types almost every user touches.
pub mod prelude {
    pub use c5_baselines::{
        CoarseGrainReplica, Granularity, KuaFuConfig, KuaFuReplica, SingleThreadedReplica,
    };
    pub use c5_common::{
        DurabilityPolicy, Error, Key, OpCost, PrimaryConfig, ReadConfig, ReplicaConfig, Result,
        RowRef, RowWrite, SeqNo, SessionId, ShardRouter, TableId, Timestamp, TxnId, Value,
        WriteKind,
    };
    pub use c5_core::replica::{
        drive_from_receiver, drive_segments, C5Mode, C5Replica, ClonedConcurrencyControl,
        Promotion, ReadView, ReplicaMetrics,
    };
    pub use c5_core::{
        recover_replica, FleetController, FleetRoutingSink, JoinReport, LagStats, LagTracker,
        MpcChecker, RecoveredReplica, ReplicaLifecycle, RetireReport, WatermarkTracker,
    };
    pub use c5_log::{
        coalesce, segments_from_entries, DurableRecovery, LogArchive, LogReceiver, LogShipper,
        Segment, StreamingLogger, TxnEntry,
    };
    pub use c5_primary::{
        ClosedLoopDriver, MvtsoEngine, RunLength, StoredProcedure, TplEngine, TxnCtx, TxnFactory,
    };
    pub use c5_read::{
        ClassKind, ClassStats, ConsistencyClass, ReadOnlyTxn, ReadRouter, ReadSession,
        ReplicaStatus, SessionRead,
    };
    pub use c5_storage::{
        Checkpoint, CheckpointInstaller, CheckpointWriter, MvStore, ReferenceStore,
    };
    pub use c5_workloads::{
        AdversarialWorkload, InsertOnlyWorkload, SpikeTrace, TpccConfig, TpccMix, SYNTHETIC_TABLE,
    };
}
