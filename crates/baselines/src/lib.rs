//! Baseline cloned concurrency control protocols.
//!
//! The paper's evaluation (Sections 6–8) compares C5 against the protocols
//! that were deployed or proposed before it:
//!
//! * **KuaFu** ([`kuafu::KuaFuReplica`]) — the state-of-the-art
//!   transaction-granularity protocol (Hong et al., ICDE 2013), essentially
//!   identical to MySQL 8's writeset-based parallel replication: transactions
//!   with disjoint write sets apply in parallel, transactions whose write
//!   sets intersect apply in commit order, and all of a transaction's writes
//!   execute on one worker.
//! * **Single-threaded replay** ([`single::SingleThreadedReplica`]) — MySQL
//!   5.6's default and the protocol whose two-hour production lag opens
//!   Section 8 / Figure 12.
//! * **Table- and page-granularity** ([`coarse::CoarseGrainReplica`]) —
//!   protocols that serialize writes touching the same table (Meta's earlier
//!   internal protocol, Figure 12) or the same physical page (Aurora-style
//!   redo shipping, Section 3.1.1). Both are the row-granularity protocol run
//!   with a coarser conflict key, which is exactly how this crate implements
//!   them.
//!
//! A baseline is only its *ordering* — a
//! [`c5_core::pipeline::PipelinePolicy`]: how segments become work items and
//! when a worker may install one. Everything behind it is `c5-core`'s: every
//! baseline applies into and exposes from the same
//! [`c5_core::exposure::PrefixExposure`] C5 uses, on the same runtime, so the
//! experiment harness measures all protocols through the same code.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coarse;
pub mod kuafu;
pub mod single;

pub use coarse::{CoarseGrainReplica, Granularity};
pub use kuafu::{KuaFuConfig, KuaFuReplica};
pub use single::SingleThreadedReplica;
