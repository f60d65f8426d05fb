//! End-to-end crash recovery: checkpoint + durable log tail → running replica.
//!
//! The paper's backup is always running, so it never needs this; a real
//! deployment does, and the durable layers supply the two halves — `c5-storage`'s
//! persisted checkpoints ([`CheckpointInstaller::load`]) and `c5-log`'s
//! disk-backed archive ([`LogArchive::open_on`]). This module composes them into
//! the one operation a restarted process actually wants:
//!
//! 1. load the newest published checkpoint (the highest-cut `ckpt-*.c5c`);
//! 2. reopen the durable log archive, ending the log before any torn or
//!    corrupt frame (a segment, hence transaction, boundary);
//! 3. replay the retained records above the checkpoint cut into a replica
//!    resumed from the checkpoint ([`C5Replica::resume_from_checkpoint`]).
//!
//! Both halves live in one state directory — the archive's chunks and
//! manifest beside the checkpoint file, each side ignoring the other's
//! names — and every call goes through one [`Fs`], so a test can fail any of
//! them. If truncation has outrun the checkpoint — the archive dropped
//! records the checkpoint does not cover, which can only happen if that
//! checkpoint was lost — recovery fails loudly with
//! [`Error::ArchiveTruncated`] instead of silently replaying a log with a
//! hole in it. Every failure is a [`c5_common::Error`].

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use c5_common::fs::Fs;
use c5_common::{DurabilityPolicy, Error, ReplicaConfig, Result, SeqNo};
use c5_log::{LogArchive, Segment};
use c5_storage::CheckpointInstaller;

use crate::replica::{drive_segments, C5Mode, C5Replica};

/// A replica reconstructed from durable state, plus how it got there.
pub struct RecoveredReplica {
    /// The replica, caught up through the end of the recovered log.
    pub replica: Arc<C5Replica>,
    /// The reopened durable archive (still retaining the replayed tail, so
    /// a subsequent checkpoint can truncate it).
    pub archive: Arc<LogArchive>,
    /// The cut of the checkpoint recovery started from (`SeqNo::ZERO` when
    /// no checkpoint was ever published and recovery replayed from scratch).
    pub checkpoint_cut: SeqNo,
    /// Records replayed from the archive on top of the checkpoint.
    pub replayed_records: usize,
    /// The position the recovered replica is complete through.
    pub recovered_through: SeqNo,
    /// Whether the archive's tail was torn or corrupt and the log was ended
    /// before the damaged frame.
    pub torn_tail: bool,
}

impl fmt::Debug for RecoveredReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveredReplica")
            .field("checkpoint_cut", &self.checkpoint_cut)
            .field("replayed_records", &self.replayed_records)
            .field("recovered_through", &self.recovered_through)
            .field("torn_tail", &self.torn_tail)
            .finish_non_exhaustive()
    }
}

/// Recovers a replica from the durable state in `state_dir`, read through
/// `fs`: newest checkpoint, plus the archived log tail above its cut. See
/// the module docs for the exact steps. The archive is reopened on `fs` with
/// `policy` governing post-recovery appends.
///
/// Fails with [`Error::RecoveryIo`] when the checkpoint or the archive
/// cannot be read (or a damaged checkpoint fails validation), and with
/// [`Error::ArchiveTruncated`] when the retained log no longer reaches back
/// to the checkpoint cut.
pub fn recover_replica(
    fs: Arc<dyn Fs>,
    state_dir: &Path,
    mode: C5Mode,
    config: ReplicaConfig,
    policy: DurabilityPolicy,
) -> Result<RecoveredReplica> {
    let io_error = |what: &'static str, e: std::io::Error| Error::RecoveryIo {
        what,
        message: format!("{}: {e}", state_dir.display()),
    };
    // Each recovery phase ends with a typed trace event into the config's
    // observability sink, so a recovered process can show where its
    // startup time went.
    let obs = Arc::clone(&config.obs);
    let phase_start = std::time::Instant::now();
    let trace_phase = |phase: &'static str, started: std::time::Instant| {
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs.trace
            .record(c5_obs::TraceEvent::Recovery { phase, elapsed_ns });
        obs.metrics
            .histogram(&format!("recovery_phase_ns{{phase=\"{phase}\"}}"))
            .record(elapsed_ns);
    };

    let checkpoint =
        CheckpointInstaller::load(fs.as_ref(), state_dir).map_err(|e| io_error("checkpoint", e))?;
    trace_phase("load_checkpoint", phase_start);

    let phase_start = std::time::Instant::now();
    let opened =
        LogArchive::open_on(fs, state_dir, policy).map_err(|e| io_error("log archive", e))?;
    let archive = Arc::new(opened.archive);
    trace_phase("open_archive", phase_start);

    let phase_start = std::time::Instant::now();
    let (replica, cut) = match &checkpoint {
        Some(checkpoint) => (
            C5Replica::resume_from_checkpoint(mode, checkpoint, config),
            checkpoint.cut(),
        ),
        None => (
            C5Replica::new(mode, Arc::new(Default::default()), config),
            SeqNo::ZERO,
        ),
    };
    trace_phase("install_checkpoint", phase_start);

    let phase_start = std::time::Instant::now();
    let tail = archive.replay_from(cut)?;
    let replayed_records = tail.iter().map(Segment::len).sum();
    let recovered_through = tail
        .last()
        .map(Segment::covered_through)
        .unwrap_or(cut)
        .max(cut);
    drive_segments(replica.as_ref(), tail);
    trace_phase("replay_tail", phase_start);

    Ok(RecoveredReplica {
        replica,
        archive,
        checkpoint_cut: cut,
        replayed_records,
        recovered_through,
        torn_tail: opened.torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{drive_within_deadline, within_deadline, ClonedConcurrencyControl};
    use c5_common::fs::{FaultyFs, StdFs};
    use c5_common::{RowRef, RowWrite, Timestamp, Value, WriteKind};
    use c5_log::{segments_from_entries, TxnEntry};
    use c5_storage::{CheckpointWriter, MvStore};
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "c5-recovery-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn test_log() -> Vec<Segment> {
        let entries: Vec<TxnEntry> = (1..=6u64)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(t),
                    vec![
                        RowWrite::update(RowRef::new(0, t % 3), Value::from_u64(t)),
                        RowWrite::update(RowRef::new(0, 10 + t), Value::from_u64(t)),
                    ],
                )
            })
            .collect();
        segments_from_entries(&entries, 4)
    }

    /// Rows 0..3 at timestamp zero: the state the log starts from.
    fn population() -> Arc<MvStore> {
        let store = Arc::new(MvStore::default());
        for k in 0..3u64 {
            store.install(
                RowRef::new(0, k),
                Timestamp::ZERO,
                WriteKind::Insert,
                Some(Value::from_u64(0)),
            );
        }
        store
    }

    /// Recovers from `dir` within the test deadline: the replay drains the
    /// replica, so a lost boundary fails the test instead of hanging it.
    fn recover(fs: Arc<dyn Fs>, dir: &Path) -> Result<RecoveredReplica> {
        let dir = dir.to_path_buf();
        within_deadline("recover_replica", move || {
            recover_replica(
                fs,
                &dir,
                C5Mode::Faithful,
                ReplicaConfig::default().with_workers(2),
                DurabilityPolicy::EverySegment,
            )
        })
    }

    fn sorted_scan(replica: &C5Replica) -> Vec<(RowRef, Value)> {
        let mut rows = replica.read_view().scan_all();
        rows.sort_by_key(|(row, _)| *row);
        rows
    }

    /// Persist a population checkpoint plus the full log, then recover and
    /// compare against an in-memory replica fed the same stream.
    #[test]
    fn recovery_reconstructs_the_replica_from_disk() {
        let dir = scratch_dir("full");
        let segments = test_log();
        let config = ReplicaConfig::default().with_workers(2);

        // The "before the crash" process: populate, checkpoint, archive.
        let population = population();
        let checkpoint = CheckpointWriter::capture(&population, SeqNo::ZERO);
        CheckpointWriter::save(&StdFs, &dir, &checkpoint).expect("save checkpoint");
        let archive =
            LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create archive");
        for segment in &segments {
            archive.append(segment);
        }
        drop(archive); // no clean shutdown — recovery must not need one

        let recovered = recover(Arc::new(StdFs), &dir).expect("recover");
        assert_eq!(recovered.checkpoint_cut, SeqNo::ZERO);
        assert_eq!(recovered.replayed_records, 12);
        assert_eq!(recovered.recovered_through, SeqNo(12));
        assert!(!recovered.torn_tail);

        // The recovered replica reads identically to an in-memory one fed
        // the same log.
        let reference = C5Replica::new(C5Mode::Faithful, population, config);
        drive_within_deadline(&reference, segments);
        assert_eq!(sorted_scan(&reference), sorted_scan(&recovered.replica));

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn recovery_without_any_checkpoint_replays_from_scratch() {
        let dir = scratch_dir("cold");
        let segments = test_log();
        let archive =
            LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create archive");
        for segment in &segments {
            archive.append(segment);
        }
        drop(archive);

        let recovered = recover(Arc::new(StdFs), &dir).expect("recover");
        assert_eq!(recovered.checkpoint_cut, SeqNo::ZERO);
        assert_eq!(recovered.replayed_records, 12);
        // Rows 10+t only ever see one write; spot-check one.
        let view = recovered.replica.read_view();
        assert_eq!(
            view.get(RowRef::new(0, 16)).and_then(|v| v.as_u64()),
            Some(6)
        );

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn truncation_past_the_checkpoint_fails_loudly() {
        let dir = scratch_dir("hole");
        let segments = test_log();
        // Checkpoint published at cut 0, but the archive was truncated
        // through 4 (as if a newer checkpoint had been lost).
        let store = Arc::new(MvStore::default());
        let checkpoint = CheckpointWriter::capture(&store, SeqNo::ZERO);
        CheckpointWriter::save(&StdFs, &dir, &checkpoint).expect("save");
        let archive =
            LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create archive");
        for segment in &segments {
            archive.append(segment);
        }
        assert_eq!(archive.truncate_through(SeqNo(4)), Ok(1));
        drop(archive);

        let err =
            recover(Arc::new(StdFs), &dir).expect_err("the log has a hole below the replay cut");
        assert!(matches!(err, Error::ArchiveTruncated { .. }));

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Every call one recovery makes, failed in turn through the fault
    /// double: each run is a typed error, never a panic, and a rerun on the
    /// real file system recovers exactly what a clean recovery does. The
    /// state is what a crash mid-checkpoint leaves: a checkpoint at cut 4,
    /// the log truncated through it, and the scratch files of the next
    /// checkpoint's and the next truncation's publications.
    #[test]
    fn any_one_failed_call_is_a_typed_error_and_a_rerun_recovers() {
        let segments = test_log();
        let persist = |dir: &Path| {
            let store = population();
            for r in segments.iter().flat_map(|s| &s.records) {
                if r.seq <= SeqNo(4) {
                    let ts = Timestamp(r.seq.as_u64());
                    store.install(r.write.row, ts, r.write.kind, r.write.value.clone());
                }
            }
            let checkpoint = CheckpointWriter::capture(&store, SeqNo(4));
            let published = CheckpointWriter::save(&StdFs, dir, &checkpoint).expect("save");
            let archive =
                LogArchive::durable(dir, DurabilityPolicy::EverySegment).expect("create archive");
            for segment in &segments {
                archive.append(segment);
            }
            assert_eq!(archive.truncate_through(SeqNo(4)), Ok(1));
            let next = published.with_file_name("ckpt-00000000000000000012.c5c.tmp");
            fs::write(next, b"torn").unwrap();
            fs::write(dir.join("archive.meta.tmp"), b"torn").unwrap();
        };

        let reference = C5Replica::new(
            C5Mode::Faithful,
            population(),
            ReplicaConfig::default().with_workers(2),
        );
        drive_within_deadline(&reference, segments.clone());
        let expect = sorted_scan(&reference);

        let probe_dir = scratch_dir("each-call-probe");
        persist(&probe_dir);
        let probe = Arc::new(FaultyFs::new(0, None));
        let clean = recover(probe.clone(), &probe_dir).expect("nothing is told to fail");
        assert_eq!(clean.checkpoint_cut, SeqNo(4));
        assert_eq!(sorted_scan(&clean.replica), expect);
        let calls = probe.calls();
        drop(clean);
        fs::remove_dir_all(&probe_dir).expect("cleanup");

        for fail in 0..calls {
            let dir = scratch_dir("each-call");
            persist(&dir);
            match recover(Arc::new(FaultyFs::new(fail, Some(fail))), &dir) {
                Err(Error::RecoveryIo { .. } | Error::ArchiveIo { .. }) => {}
                other => panic!("call {fail} of {calls}: expected an I/O error, got {other:?}"),
            }
            let rerun = recover(Arc::new(StdFs), &dir).expect("the real file system recovers");
            assert_eq!(rerun.checkpoint_cut, SeqNo(4), "call {fail}");
            assert_eq!(sorted_scan(&rerun.replica), expect, "call {fail}");
            drop(rerun);
            fs::remove_dir_all(&dir).expect("cleanup");
        }
    }
}
