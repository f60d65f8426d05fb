//! Workspace-wide error type.

use std::fmt;

use crate::ids::{RowRef, SeqNo, TxnId};

/// Convenience alias used throughout the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors surfaced by the storage engine, the primary engines, and the
/// replication machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A read targeted a row that does not exist (or is not visible at the
    /// requested timestamp).
    RowNotFound(RowRef),
    /// An insert targeted a row that already exists.
    DuplicateRow(RowRef),
    /// The transaction was aborted by the concurrency control protocol and
    /// should be retried by the caller.
    TxnAborted {
        /// The aborted transaction.
        txn: TxnId,
        /// Why the protocol aborted it.
        reason: AbortReason,
    },
    /// A component was asked to do something after it was shut down.
    Shutdown(&'static str),
    /// The replication log channel was disconnected unexpectedly.
    LogChannelClosed,
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// The monotonic-prefix-consistency checker found a violation. This is an
    /// error (rather than a panic) so property tests can assert on it.
    ConsistencyViolation(String),
    /// A log-archive replay was requested from a position the archive has
    /// already truncated past: records in `(from, truncated_through]` are
    /// gone, so a replica bootstrapping from `from` cannot be caught up from
    /// this archive. The caller must restart from a checkpoint at or above
    /// `truncated_through` — silently starting cold would replay a log with
    /// a hole in it.
    ArchiveTruncated {
        /// The cut the replay was requested from.
        from: SeqNo,
        /// The largest position truncation has dropped.
        truncated_through: SeqNo,
    },
    /// A durable log archive could not persist a segment. The archive holds
    /// exactly what it held before the failed append; the wire that was
    /// feeding it ends there (`LogShipper::failure` reports this error), so
    /// the archive stays equal to what subscribers were sent. Also what
    /// `LogArchive::truncate_through` reports when it cannot record the
    /// truncation or unlink what it covers.
    ArchiveIo {
        /// First position of the segment that could not be persisted (for a
        /// failed truncation, the first position still retained).
        first: SeqNo,
        /// The archive directory and the operating system's error.
        message: String,
    },
    /// Crash recovery could not read durable state back: the checkpoint
    /// directory (manifest, checkpoint file, or a damaged checkpoint that
    /// failed validation) or the log-archive directory.
    RecoveryIo {
        /// Which half of the state directory failed: `"checkpoint"` or
        /// `"log archive"`.
        what: &'static str,
        /// The directory and the operating system's error.
        message: String,
    },
    /// A fleet-membership operation targeted a replica in the wrong
    /// lifecycle state (or one that is not a fleet member at all), or a
    /// join/retire could not complete its transition — e.g. a joiner that
    /// never caught up to its subscription point, or a retiring replica
    /// whose in-flight reads never drained.
    Lifecycle(String),
    /// A read gave up waiting for any replica's exposed cut to cover the
    /// position its consistency class requires. The caller may retry, route
    /// to the primary, or surface the timeout.
    ReadTimeout {
        /// The log position the read needed covered (causal token, primary
        /// frontier, or session floor).
        required: SeqNo,
        /// The freshest exposed cut in the fleet when the wait gave up.
        freshest: SeqNo,
    },
}

/// Why a concurrency control protocol aborted a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// MVTSO validation failed: a version this transaction read was
    /// overwritten by a transaction with a smaller timestamp, or a write
    /// would be installed below an existing read timestamp.
    ValidationFailed,
    /// 2PL deadlock avoidance (wait-die) killed the transaction.
    Deadlock,
    /// A write-write conflict could not be resolved in favour of this
    /// transaction.
    WriteConflict,
    /// The stored procedure itself requested an abort (e.g. TPC-C's 1%
    /// intentionally failing NewOrder transactions).
    UserRequested,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::ValidationFailed => "validation failed",
            AbortReason::Deadlock => "deadlock avoidance",
            AbortReason::WriteConflict => "write-write conflict",
            AbortReason::UserRequested => "user requested",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::RowNotFound(row) => write!(f, "row {row} not found"),
            Error::DuplicateRow(row) => write!(f, "row {row} already exists"),
            Error::TxnAborted { txn, reason } => write!(f, "{txn} aborted: {reason}"),
            Error::Shutdown(what) => write!(f, "{what} has shut down"),
            Error::LogChannelClosed => write!(f, "replication log channel closed"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::ConsistencyViolation(msg) => {
                write!(f, "monotonic prefix consistency violated: {msg}")
            }
            Error::ArchiveTruncated {
                from,
                truncated_through,
            } => write!(
                f,
                "archive replay from {from} is below the truncation point {truncated_through}: \
                 the records above the requested cut are gone"
            ),
            Error::ArchiveIo { first, message } => write!(
                f,
                "durable archive I/O failed at the segment starting at {first} under {message}"
            ),
            Error::RecoveryIo { what, message } => {
                write!(f, "recovery could not read the {what} under {message}")
            }
            Error::Lifecycle(msg) => write!(f, "fleet lifecycle error: {msg}"),
            Error::ReadTimeout { required, freshest } => write!(
                f,
                "read timed out waiting for cut {required} (freshest replica at {freshest})"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Whether the caller should retry the transaction (true only for
    /// protocol-induced aborts, not user-requested ones).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::TxnAborted {
                reason: AbortReason::ValidationFailed
                    | AbortReason::Deadlock
                    | AbortReason::WriteConflict,
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_classification() {
        let retry = Error::TxnAborted {
            txn: TxnId(1),
            reason: AbortReason::ValidationFailed,
        };
        assert!(retry.is_retryable());

        let user = Error::TxnAborted {
            txn: TxnId(1),
            reason: AbortReason::UserRequested,
        };
        assert!(!user.is_retryable());

        assert!(!Error::LogChannelClosed.is_retryable());
        assert!(!Error::RowNotFound(RowRef::new(0, 0)).is_retryable());
        assert!(!Error::ArchiveTruncated {
            from: SeqNo(2),
            truncated_through: SeqNo(8),
        }
        .is_retryable());
        assert!(!Error::ReadTimeout {
            required: SeqNo(10),
            freshest: SeqNo(4),
        }
        .is_retryable());
        assert!(!Error::Lifecycle("replica 3 is not serving".into()).is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = Error::TxnAborted {
            txn: TxnId(3),
            reason: AbortReason::Deadlock,
        };
        assert_eq!(e.to_string(), "txn3 aborted: deadlock avoidance");
        assert_eq!(
            Error::RowNotFound(RowRef::new(1, 2)).to_string(),
            "row t1/k2 not found"
        );
        let truncated = Error::ArchiveTruncated {
            from: SeqNo(2),
            truncated_through: SeqNo(8),
        };
        assert!(truncated.to_string().contains("seq2"));
        assert!(truncated.to_string().contains("seq8"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::LogChannelClosed);
    }
}
