//! In-memory multi-version storage engine for the C5 reproduction.
//!
//! The paper's two implementations sit on top of two very different storage
//! engines:
//!
//! * **Cicada** (Section 7.1) stores each row as a list of versions in
//!   descending timestamp order; workers can install versions at explicit
//!   timestamps, and a read at timestamp `t` observes the newest version with
//!   write timestamp `<= t`. This is what makes the faithful three-snapshot
//!   design of Section 4.2 cheap to implement.
//! * **RocksDB under MyRocks** (Section 5.2) only offers snapshots of "the
//!   current state of the database" — there is no way to ask for a snapshot
//!   as of an arbitrary point, which is why C5-MyRocks must briefly block its
//!   workers when it takes a cut.
//!
//! [`MvStore`] is the multi-version engine (the Cicada role). It holds
//! versions and nothing else: every chain has a head, a delete is a version
//! without a value, and concurrency control (the MVTSO primary's read
//! timestamps and admission rule, the 2PL primary's locks) lives in the
//! primary that uses it. The MyRocks-style restriction is not a type here:
//! a C5-MyRocks backup holds writes past a pending cut back until the
//! applied prefix reaches it, so the store's current state at that instant
//! is the cut, and its views read the store at the cut as the faithful
//! form's do (`c5_core::snapshotter`). [`reference::ReferenceStore`] is a
//! deliberately simple single-threaded store used by the
//! monotonic-prefix-consistency checker and by property tests as the oracle.

//! For failover, [`checkpoint`] adds transplantable snapshots: a
//! [`checkpoint::CheckpointWriter`] exports every row's newest version at a
//! pinned cut (timestamps and deletes preserved, so per-row ordered apply
//! can resume on top), and a [`checkpoint::CheckpointInstaller`] installs
//! one into a fresh store for a cold replica to catch up from the log tail.
//! [`durable`] persists checkpoints across real process restarts: the
//! writer's `save` serializes the rows into a checksummed file and publishes
//! it in one rename (`c5_common::fs::publish`), and the installer's `load`
//! reads the newest one back, failing cleanly (never panicking) on a
//! corrupted file.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod durable;
pub mod mvstore;
pub mod reference;

pub use checkpoint::{Checkpoint, CheckpointInstaller, CheckpointWriter};
pub use mvstore::{MvStore, MvStoreStats, VersionExport};
pub use reference::ReferenceStore;
