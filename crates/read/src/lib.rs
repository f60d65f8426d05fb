//! The read-serving layer: the first client-facing surface over the fleet.
//!
//! The paper's backups exist to *serve reads* — C5 keeps clones fresh
//! precisely so read traffic can be offloaded from the primary (Section 2.1's
//! read-mostly tier). The rest of this workspace builds and measures the
//! clones; this crate is the layer a client actually talks to:
//!
//! * [`ConsistencyClass`] names the guarantee each read needs — `Strong`
//!   (primary-verified), `Causal` (covers a commit token), or
//!   `BoundedStaleness` (freshness within a wall-clock bound, mapped onto
//!   the replicas' lag-tracker estimates).
//! * [`ReadSession`] carries causal tokens from primary commits
//!   (`TplEngine::execute_with_token`) and enforces **read-your-writes** and
//!   **monotonic reads** across replica switches: every read is served at a
//!   cut covering the session's floor, waiting (bounded) or re-routing until
//!   some replica's exposed cut covers it.
//! * [`ReadOnlyTxn`] pins one transaction-aligned view for multi-key reads —
//!   batched point reads and table scans all observe a single cut (the
//!   global cut on sharded replicas, including cross-shard scans).
//! * [`ReadRouter`] load-balances sessions across the 1→N fan-out fleet by
//!   per-replica exposed-cut freshness and in-flight load, and reports
//!   per-class throughput, latency percentiles, block time, and observed
//!   staleness ([`ClassStats`]).
//!
//! Everything is written against
//! [`ClonedConcurrencyControl`](c5_core::replica::ClonedConcurrencyControl),
//! so any protocol in the workspace — C5 in either mode, the sharded
//! replica, or a baseline — can serve the fleet.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod consistency;
pub mod metrics;
pub mod router;
pub mod session;
pub mod txn;

pub use consistency::{ClassKind, ConsistencyClass};
pub use metrics::ClassStats;
pub use router::{PrimaryFrontier, ReadRouter, ReplicaStatus};
pub use session::{ReadSession, SessionRead};
pub use txn::ReadOnlyTxn;
