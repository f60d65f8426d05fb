//! The replication log.
//!
//! Section 2.2: after a read-write transaction commits, the primary appends
//! its writes to a log that reflects a total order determined by the
//! transaction commit order and the order of each transaction's operations.
//! The log carries, per transaction, the written rows and metadata to
//! demarcate its writes from those of other transactions. The backup's cloned
//! concurrency control protocol consumes this log.
//!
//! Section 7.1 adds the details of the Cicada prototype logger this crate
//! also reproduces: the log is divided into fixed-size segments,
//! transactions never span segment boundaries, and each record carries an initially-unused `prev_timestamp`
//! field that C5's scheduler later fills with the position of the previous
//! write to the same row.
//!
//! Two production modes are provided:
//!
//! * [`logger::StreamingLogger`] — a live, totally ordered log used by the
//!   two-phase-locking primary (the MyRocks role). Commit order is the append
//!   order; completed segments are pushed to a [`ship::LogShipper`].
//! * [`logger::ThreadLog`] + [`logger::coalesce`] — per-thread logs used by
//!   the MVTSO primary (the Cicada role), coalesced into a single log sorted
//!   by commit timestamp before replication starts, exactly as the paper's
//!   prototype does.
//!
//! One representation detail worth calling out: on the backup, all protocols
//! in this reproduction use the *log position* ([`c5_common::SeqNo`]) of a
//! write as the version timestamp they install into the backup's store. The
//! paper's C5-Cicada uses the primary's write timestamps for the same
//! purpose; both choices identify "the previous write to this row in the
//! log", which is the only property the scheduler and snapshotter rely on.
//! Using log positions keeps the backup machinery identical across the 2PL
//! and MVTSO primaries.

//! For failover, the log additionally supports **retention and replay**
//! ([`archive::LogArchive`]): a shipper with an attached archive records
//! every segment that goes on the wire, a checkpoint truncates the archive
//! at its cut, and a cold replica bootstraps by installing the checkpoint
//! and replaying the retained tail from the cut. The archive is one
//! append-only log of CRC-framed segments (each frame's payload is the
//! segment's records, encoded by [`wal`]) in a few chunk files, and keeps no
//! other copy of them: a replay decodes the chunks it reads. An append is one
//! positioned write and one `sync_data` into blocks that already exist.
//! Its calls go through [`c5_common::fs::Fs`]: on disk
//! ([`archive::LogArchive::durable`]), where
//! [`archive::LogArchive::open`] recovers the retained log across a real
//! process restart by scanning the frames, ending the log before a torn or
//! corrupt frame — on a segment, hence transaction, boundary — instead of
//! panicking, and any one call can be made to fail; or in memory
//! ([`archive::LogArchive::new`], over [`c5_common::fs::MemFs`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod archive;
pub mod logger;
pub mod record;
pub mod segment;
pub mod ship;
pub mod wal;

pub use archive::{DurableRecovery, LogArchive};
pub use logger::{coalesce, flatten, segments_from_entries, StreamingLogger, ThreadLog};
pub use record::{now_nanos, LogRecord, TxnEntry};
pub use segment::{Segment, SegmentBuilder};
pub use ship::{LogReceiver, LogShipper, Subscription, SubscriptionId, SUBSCRIPTION_SEGMENTS};
