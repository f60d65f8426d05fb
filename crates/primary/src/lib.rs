//! Primary-database engines.
//!
//! The paper evaluates C5 against two very different primaries:
//!
//! * **MyRocks** (Sections 5–6): a disk-based MySQL fork whose concurrency
//!   control is two-phase locking. Its essential property for the paper is
//!   that non-conflicting row writes of concurrent transactions execute in
//!   parallel while conflicting writes serialize on row locks, and that the
//!   replication log reflects the commit order. [`tpl::TplEngine`] reproduces
//!   exactly that over the shared [`c5_storage::MvStore`], streaming its log
//!   live through [`c5_log::StreamingLogger`].
//! * **Cicada** (Section 7): an in-memory multi-version database using a
//!   variant of multi-version timestamp ordering with loosely synchronized
//!   per-thread clocks. [`mvtso::MvtsoEngine`] reproduces the protocol: reads
//!   record read timestamps, writes are buffered and validated at commit, and
//!   committed transactions append to per-thread logs that are coalesced into
//!   a totally ordered log afterwards — matching the paper's prototype logger.
//!
//! Both engines execute [`txn::StoredProcedure`]s through the [`txn::TxnCtx`]
//! interface (the paper's workloads all use stored procedures so that parsing
//! and planning never bottleneck the primary), honour the
//! [`c5_common::OpCost`] model, and are driven by the closed-loop clients in
//! [`driver`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod driver;
pub mod lock;
pub mod mvtso;
pub mod stats;
pub mod tpl;
pub mod txn;

/// How many times an engine retries a transaction after a protocol-induced
/// abort before returning the error to the client.
const MAX_RETRIES: usize = 64;

pub use driver::{ClosedLoopDriver, RunLength, TxnFactory};
pub use lock::{LockManager, LockMode};
pub use mvtso::MvtsoEngine;
pub use stats::PrimaryRunStats;
pub use tpl::TplEngine;
pub use txn::{StoredProcedure, TxnCtx};
