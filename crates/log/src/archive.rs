//! Log retention for failover: keep shipped segments until a checkpoint
//! covers them, and replay the tail to cold replicas.
//!
//! The paper assumes the backup is always running, so the live channel is the
//! whole story. Failover needs two more things from the log: **retention** —
//! segments must outlive the channel so a replica started after the fact can
//! still read them — and **truncation** — once a checkpoint captures the
//! state at a cut, everything at or below the cut is dead weight and can be
//! dropped. [`LogArchive`] provides both: a [`crate::ship::LogShipper`]
//! configured with [`crate::ship::LogShipper::with_archive`] records every
//! shipped segment here, [`LogArchive::truncate_through`] drops whole
//! segments a checkpoint has covered, and [`LogArchive::replay_from`] hands a
//! cold replica exactly the records above its checkpoint cut — trimming the
//! one segment the cut may land inside, so the replayed stream still starts
//! at a transaction boundary and stays contiguous with the checkpoint.
//!
//! Two retention modes share this protocol:
//!
//! * **in-memory** ([`LogArchive::new`]) — "durable" means "outlives the
//!   shipping channel". This is all the in-process failover experiments need.
//! * **disk-backed** ([`LogArchive::durable`] / [`LogArchive::open`]) — every
//!   retained segment is additionally persisted as one [`crate::wal`]-encoded
//!   file, fsynced per [`DurabilityPolicy`], and truncation is recorded in a
//!   manifest written with the write-temp-then-rename discipline. After a
//!   crash, [`LogArchive::open`] rebuilds the archive from the surviving
//!   files, truncating — never panicking — at the first torn or corrupt
//!   frame, and re-aligning the recovered tail to a transaction boundary.

use std::collections::VecDeque;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use c5_common::frame::{read_frames, write_frame, PayloadReader, PayloadWriter};
use c5_common::{DurabilityPolicy, Error, Result, SeqNo};

use crate::segment::Segment;
use crate::wal::{decode_segment, encode_segment};

/// The manifest file recording the archive's truncation point.
const META_FILE: &str = "archive.meta";
/// Scratch name the manifest is written to before the atomic rename.
const META_TMP: &str = "archive.meta.tmp";

fn segment_file_name(first: SeqNo) -> String {
    // Zero-padded so lexicographic directory order is log order.
    format!("seg-{:020}.c5w", first.as_u64())
}

fn is_segment_file(name: &str) -> bool {
    name.starts_with("seg-") && name.ends_with(".c5w")
}

fn sorted_segment_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_str().is_some_and(is_segment_file) {
            files.push(entry.path());
        }
    }
    files.sort();
    Ok(files)
}

/// Best-effort directory fsync, so renames and unlinks are themselves
/// durable on filesystems that need it.
fn sync_dir(dir: &Path) {
    let _ = fs::File::open(dir).and_then(|f| f.sync_all());
}

fn write_meta(dir: &Path, truncated_through: SeqNo) -> io::Result<()> {
    let mut payload = PayloadWriter::new();
    payload.u64(truncated_through.as_u64());
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &payload.finish());

    let tmp = dir.join(META_TMP);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    fs::rename(&tmp, dir.join(META_FILE))?;
    sync_dir(dir);
    Ok(())
}

/// Reads the truncation manifest; a missing or damaged manifest degrades to
/// "nothing recorded" (the opener re-infers the floor from the files).
fn read_meta(dir: &Path) -> SeqNo {
    let Ok(bytes) = fs::read(dir.join(META_FILE)) else {
        return SeqNo::ZERO;
    };
    let scan = read_frames(&bytes);
    let Some(payload) = scan.frames.first() else {
        return SeqNo::ZERO;
    };
    PayloadReader::new(payload)
        .u64()
        .map(SeqNo)
        .unwrap_or(SeqNo::ZERO)
}

/// The disk half of a durable archive.
#[derive(Debug)]
struct DiskBacking {
    dir: PathBuf,
    policy: DurabilityPolicy,
    /// One file path per retained segment, aligned with
    /// `ArchiveInner::segments`.
    files: VecDeque<PathBuf>,
    /// Files written since the last fsync batch
    /// ([`DurabilityPolicy::EveryNSegments`] coalesces syncs).
    unsynced: Vec<PathBuf>,
}

impl DiskBacking {
    fn persist_segment(&mut self, segment: &Segment, first: SeqNo) -> io::Result<()> {
        let path = self.dir.join(segment_file_name(first));
        let mut file = fs::File::create(&path)?;
        file.write_all(&encode_segment(segment))?;
        self.unsynced.push(path.clone());
        if self.policy.should_sync(self.unsynced.len() as u32) {
            if let Err(e) = self.sync_pending() {
                // The segment is not retained, so it must not be synced
                // later either; earlier unsynced files stay pending.
                self.unsynced.pop();
                return Err(e);
            }
        }
        self.files.push_back(path);
        Ok(())
    }

    /// Fsyncs every file written since the last sync, then the directory.
    fn sync_pending(&mut self) -> io::Result<()> {
        for pending in &self.unsynced {
            fs::File::open(pending)?.sync_all()?;
        }
        self.unsynced.clear();
        sync_dir(&self.dir);
        Ok(())
    }
}

/// What [`LogArchive::open`] found on disk.
#[derive(Debug)]
pub struct DurableRecovery {
    /// The recovered archive, ready for appends, truncation, and replay.
    pub archive: LogArchive,
    /// Segments recovered intact (after tail trimming).
    pub recovered_segments: usize,
    /// Records recovered across those segments.
    pub recovered_records: usize,
    /// Whether any damage was found — a torn tail, a corrupt frame, or a
    /// gap — and the log was truncated at it.
    pub torn_tail: bool,
}

/// Retained log segments with truncation at a checkpoint cut and tail replay
/// for cold replicas. All methods are thread-safe; the shipper appends while
/// checkpointers truncate and cold replicas replay.
#[derive(Debug, Default)]
pub struct LogArchive {
    inner: Mutex<ArchiveInner>,
}

#[derive(Debug, Default)]
struct ArchiveInner {
    /// Retained segments, in log order.
    segments: VecDeque<Segment>,
    /// Largest position dropped by truncation; records at or below it are
    /// gone and cannot be replayed.
    truncated_through: SeqNo,
    /// Largest position appended so far (record or coverage watermark).
    last_seq: SeqNo,
    /// Present when the archive is disk-backed.
    disk: Option<DiskBacking>,
}

impl LogArchive {
    /// Creates an empty in-memory archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an archive for a log resuming at `cut` — a promoted primary's
    /// continuation log, whose first segment starts at `cut + 1`. Everything
    /// at or below the cut is covered by the promotion checkpoint, so the
    /// archive treats it as already truncated.
    pub fn starting_at(cut: SeqNo) -> Self {
        let archive = Self::default();
        archive.inner.lock().truncated_through = cut;
        archive
    }

    /// Creates a fresh disk-backed archive in `dir` (created if absent).
    /// Every appended segment is persisted as one segment file and fsynced
    /// according to `policy`; truncation is recorded in a manifest. Fails if
    /// `dir` already holds segment files — recover those with
    /// [`LogArchive::open`] instead of silently shadowing them.
    pub fn durable(dir: impl AsRef<Path>, policy: DurabilityPolicy) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if !sorted_segment_files(&dir)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds archived segments; open() them instead",
                    dir.display()
                ),
            ));
        }
        write_meta(&dir, SeqNo::ZERO)?;
        let archive = Self::default();
        archive.inner.lock().disk = Some(DiskBacking {
            dir,
            policy,
            files: VecDeque::new(),
            unsynced: Vec::new(),
        });
        Ok(archive)
    }

    /// Recovers a disk-backed archive from `dir` after a crash or restart.
    ///
    /// Recovery walks the segment files in log order and keeps the longest
    /// valid prefix: a torn tail (a `kill -9` mid-write), a corrupt frame, or
    /// a sequence gap truncates the recovered log at that point — trimmed
    /// back to a transaction boundary — and deletes the unusable remainder
    /// from disk so a second open sees a clean archive. A missing or damaged
    /// manifest degrades to re-inferring the truncation floor from the first
    /// surviving file. This path never panics on damaged input.
    pub fn open(dir: impl AsRef<Path>, policy: DurabilityPolicy) -> io::Result<DurableRecovery> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let _ = fs::remove_file(dir.join(META_TMP));
        let meta = read_meta(&dir);

        let on_disk = sorted_segment_files(&dir)?;
        let mut segments: VecDeque<Segment> = VecDeque::new();
        let mut files: VecDeque<PathBuf> = VecDeque::new();
        let mut torn_tail = false;
        let mut truncated_through = meta;
        // The position the log is contiguous through so far.
        let mut covered: Option<SeqNo> = None;
        let mut stop_at = on_disk.len();

        for (idx, path) in on_disk.iter().enumerate() {
            let bytes = fs::read(path)?;
            let (decoded, clean) = decode_segment(&bytes).into_segment();
            let Some(segment) = decoded.filter(|s| !s.is_empty()) else {
                torn_tail = true;
                stop_at = idx;
                break;
            };
            let first = segment.first_seq().expect("recovered segment is non-empty");
            match covered {
                None => {
                    // Records below the first surviving file are gone no
                    // matter what the manifest says (a crash between file
                    // deletion and the manifest write leaves the manifest
                    // behind the truth).
                    truncated_through =
                        truncated_through.max(SeqNo(first.as_u64().saturating_sub(1)));
                }
                Some(covered) if first.as_u64() != covered.as_u64() + 1 => {
                    // A gap mid-log: nothing past it can be replayed safely.
                    torn_tail = true;
                    stop_at = idx;
                    break;
                }
                Some(_) => {}
            }
            if !clean {
                // Keep the trimmed prefix and rewrite the file so the
                // damage does not have to be re-truncated on the next open.
                torn_tail = true;
                stop_at = idx + 1;
                let tmp = dir.join(META_TMP);
                let mut file = fs::File::create(&tmp)?;
                file.write_all(&encode_segment(&segment))?;
                file.sync_all()?;
                fs::rename(&tmp, path)?;
                sync_dir(&dir);
                covered = Some(segment.covered_through());
                files.push_back(path.clone());
                segments.push_back(segment);
                break;
            }
            covered = Some(segment.covered_through());
            files.push_back(path.clone());
            segments.push_back(segment);
        }

        for path in &on_disk[stop_at.min(on_disk.len())..] {
            if !files.iter().any(|kept| kept == path) {
                let _ = fs::remove_file(path);
            }
        }
        if stop_at < on_disk.len() {
            sync_dir(&dir);
        }

        let recovered_segments = segments.len();
        let recovered_records = segments.iter().map(Segment::len).sum();
        let last_seq = covered.unwrap_or(SeqNo::ZERO).max(truncated_through);

        let archive = Self::default();
        {
            let mut inner = archive.inner.lock();
            inner.segments = segments;
            inner.truncated_through = truncated_through;
            inner.last_seq = last_seq;
            inner.disk = Some(DiskBacking {
                dir,
                policy,
                files,
                unsynced: Vec::new(),
            });
        }
        Ok(DurableRecovery {
            archive,
            recovered_segments,
            recovered_records,
            torn_tail,
        })
    }

    /// Retains a copy of one shipped segment.
    ///
    /// An **empty** segment carries no replayable records and is not
    /// retained, but its coverage claim still advances the archive's
    /// watermark: shard-routed shipping legitimately produces coverage-only
    /// sub-segments (`covers_through` beyond an empty record slice) for
    /// shards a parent segment skipped, and the next non-empty segment for
    /// that shard starts *after* the covered gap. Skipping the empty segment
    /// without advancing would make that next append look discontiguous.
    /// (Disk-backed archives do not persist coverage-only advances; after a
    /// reopen the watermark regresses to what the retained records show.)
    ///
    /// Fails with [`Error::ArchiveIo`] when the disk backing cannot persist
    /// the segment. The archive is then exactly what it was before the call —
    /// the watermark has not moved and the segment is not retained — so the
    /// in-memory and on-disk logs stay the same log; a file the failed write
    /// left behind is overwritten by a retry or trimmed by the next
    /// [`LogArchive::open`].
    ///
    /// # Panics
    /// Panics if a non-empty segment does not directly follow the archive's
    /// watermark — an archive with a gap would silently replay a corrupt
    /// log, so a misordered producer fails loudly here (mirroring the
    /// replica-side `BoundaryLedger` contiguity assert). That is a bug in
    /// this program, not something the environment can cause.
    pub fn try_append(&self, segment: &Segment) -> Result<()> {
        let mut inner = self.inner.lock();
        let Some(first) = segment.first_seq() else {
            inner.last_seq = inner.last_seq.max(segment.covered_through());
            return Ok(());
        };
        let expected = inner.last_seq.max(inner.truncated_through);
        assert_eq!(
            first.as_u64(),
            expected.as_u64() + 1,
            "archived segments must arrive in log order: got a segment \
             starting at {first} when the archive holds through {expected}"
        );
        if let Some(disk) = inner.disk.as_mut() {
            disk.persist_segment(segment, first)
                .map_err(|e| Error::ArchiveIo {
                    first,
                    message: format!("{}: {e}", disk.dir.display()),
                })?;
        }
        inner.last_seq = segment.covered_through();
        inner.segments.push_back(segment.clone());
        Ok(())
    }

    /// [`LogArchive::try_append`] for callers with nowhere to send an error.
    ///
    /// # Panics
    /// Panics where `try_append` does, and on an I/O failure of the disk
    /// backing: continuing past a failed persist would desynchronize the
    /// archive from whatever the caller does with the segment next.
    pub fn append(&self, segment: &Segment) {
        if let Err(e) = self.try_append(segment) {
            panic!("{e}");
        }
    }

    /// Drops every retained segment that lies entirely at or below `cut`
    /// (a checkpoint at `cut` has made them redundant). A segment straddling
    /// the cut is kept whole — [`replay_from`](Self::replay_from) trims it.
    /// A disk-backed archive also deletes the segments' files and records
    /// the new truncation point in the manifest (write-temp-then-rename).
    /// Returns the number of segments dropped.
    ///
    /// # Panics
    /// Panics if a disk-backed archive cannot rewrite its manifest; a stale
    /// manifest would let a later recovery replay records a checkpoint
    /// already superseded.
    pub fn truncate_through(&self, cut: SeqNo) -> usize {
        let mut inner = self.inner.lock();
        let mut dropped = 0;
        while let Some(front) = inner.segments.front() {
            match front.last_seq() {
                Some(last) if last <= cut => {
                    inner.truncated_through = inner.truncated_through.max(last);
                    inner.segments.pop_front();
                    if let Some(disk) = inner.disk.as_mut() {
                        if let Some(path) = disk.files.pop_front() {
                            disk.unsynced.retain(|p| p != &path);
                            let _ = fs::remove_file(&path);
                        }
                    }
                    dropped += 1;
                }
                _ => break,
            }
        }
        if dropped > 0 {
            if let Some(disk) = inner.disk.as_ref() {
                if let Err(e) = write_meta(&disk.dir, inner.truncated_through) {
                    panic!(
                        "durable archive failed to record truncation through {} \
                         under {}: {e}",
                        inner.truncated_through,
                        disk.dir.display()
                    );
                }
            }
        }
        dropped
    }

    /// The records above `from`, packed into segments a replica can consume
    /// directly after installing a checkpoint at `from`: the first returned
    /// segment starts at `from + 1`, and a retained segment the cut lands
    /// inside is trimmed to its suffix. Fails with
    /// [`Error::ArchiveTruncated`] when truncation has already dropped
    /// records above `from` — the caller's checkpoint is too old for this
    /// archive and must be replaced by one at or above the truncation point;
    /// silently starting cold would replay a log with a hole in it.
    ///
    /// # Panics
    /// Panics if `from` splits a transaction: checkpoint cuts are transaction
    /// boundaries by construction, and replaying from a torn cut would apply
    /// half a transaction twice.
    pub fn replay_from(&self, from: SeqNo) -> Result<Vec<Segment>> {
        let inner = self.inner.lock();
        if from < inner.truncated_through {
            return Err(Error::ArchiveTruncated {
                from,
                truncated_through: inner.truncated_through,
            });
        }
        let mut out = Vec::new();
        for segment in &inner.segments {
            match segment.last_seq() {
                Some(last) if last > from => {}
                _ => continue,
            }
            let first = segment.first_seq().expect("non-empty segment");
            if first > from {
                out.push(segment.clone());
            } else {
                // The cut lands inside this segment: replay its suffix. The
                // suffix starts right after a transaction's last write
                // because cuts are transaction boundaries.
                let records: Vec<_> = segment
                    .records
                    .iter()
                    .filter(|r| r.seq > from)
                    .cloned()
                    .collect();
                if let Some(first) = records.first() {
                    assert!(
                        first.is_txn_first(),
                        "replay cut {from} splits a transaction"
                    );
                }
                out.push(Segment::sub_segment(
                    segment.header.id,
                    records,
                    segment.covered_through(),
                ));
            }
        }
        Ok(out)
    }

    /// Forces every pending segment file to disk regardless of the policy's
    /// batching (a no-op for in-memory archives). Call before handing the
    /// directory to another process.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        match inner.disk.as_mut() {
            Some(disk) => disk.sync_pending(),
            None => Ok(()),
        }
    }

    /// Number of segments currently retained.
    pub fn retained_segments(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Number of records currently retained.
    pub fn retained_records(&self) -> usize {
        self.inner.lock().segments.iter().map(Segment::len).sum()
    }

    /// Largest position appended so far — exactly what has gone over the
    /// wire when the archive is attached to a shipper, which makes it the
    /// survivable log end after a primary crash (the crashed primary's
    /// buffered-but-unshipped tail is not in here).
    pub fn last_seq(&self) -> SeqNo {
        self.inner.lock().last_seq
    }

    /// Largest position dropped by truncation (replays must start at or
    /// above it).
    pub fn truncated_through(&self) -> SeqNo {
        self.inner.lock().truncated_through
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::segments_from_entries;
    use crate::record::TxnEntry;
    use c5_common::{RowRef, RowWrite, Timestamp, TxnId, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Six transactions of two writes each, packed 4 records (= 2 txns) per
    /// segment: boundaries at 2, 4, 6, 8, 10, 12; segment ends at 4, 8, 12.
    fn test_log() -> Vec<Segment> {
        let entries: Vec<TxnEntry> = (1..=6u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![
                        RowWrite::update(RowRef::new(0, t), Value::from_u64(t)),
                        RowWrite::update(RowRef::new(0, 100 + t), Value::from_u64(t)),
                    ],
                )
            })
            .collect();
        segments_from_entries(&entries, 4)
    }

    fn archive_with_log() -> (LogArchive, Vec<Segment>) {
        let segments = test_log();
        let archive = LogArchive::new();
        for segment in &segments {
            archive.append(segment);
        }
        (archive, segments)
    }

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory (no tempfile crate in this workspace).
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "c5-archive-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_retains_and_tracks_the_log_end() {
        let (archive, segments) = archive_with_log();
        assert_eq!(archive.retained_segments(), segments.len());
        assert_eq!(archive.retained_records(), 12);
        assert_eq!(archive.last_seq(), SeqNo(12));
        assert_eq!(archive.truncated_through(), SeqNo::ZERO);
    }

    #[test]
    #[should_panic(expected = "log order")]
    fn append_rejects_gaps() {
        let (archive, segments) = archive_with_log();
        // Re-appending the first segment is out of order.
        archive.append(&segments[0]);
    }

    #[test]
    fn a_failed_persist_is_a_typed_error_and_leaves_the_archive_as_it_was() {
        let dir = scratch_dir("persist-failure");
        let segments = test_log();
        let archive = LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create");
        archive
            .try_append(&segments[0])
            .expect("the directory exists");
        fs::remove_dir_all(&dir).expect("pull the directory out from under it");

        match archive.try_append(&segments[1]) {
            Err(Error::ArchiveIo { first, .. }) => assert_eq!(first, SeqNo(5)),
            other => panic!("expected ArchiveIo, got {other:?}"),
        }
        // Nothing moved: the failed segment is neither counted nor retained,
        // and it is still the next one the archive expects.
        assert_eq!(archive.last_seq(), SeqNo(4));
        assert_eq!(archive.retained_segments(), 1);
        assert!(archive.try_append(&segments[1]).is_err());
    }

    #[test]
    fn replay_from_zero_returns_the_whole_log() {
        let (archive, segments) = archive_with_log();
        let replay = archive.replay_from(SeqNo::ZERO).unwrap();
        assert_eq!(replay.len(), segments.len());
        let seqs: Vec<u64> = crate::logger::flatten(&replay)
            .iter()
            .map(|r| r.seq.as_u64())
            .collect();
        assert_eq!(seqs, (1..=12).collect::<Vec<_>>());
    }

    #[test]
    fn replay_from_a_mid_segment_boundary_trims_the_straddling_segment() {
        let (archive, _) = archive_with_log();
        // Cut 6 is a transaction boundary inside the second segment (5..=8).
        let replay = archive.replay_from(SeqNo(6)).unwrap();
        let records = crate::logger::flatten(&replay);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq.as_u64()).collect();
        assert_eq!(seqs, (7..=12).collect::<Vec<_>>());
        assert!(records[0].is_txn_first());
        // The trimmed segment still covers its parent's span.
        assert_eq!(replay[0].covered_through(), SeqNo(8));
    }

    #[test]
    #[should_panic(expected = "splits a transaction")]
    fn replay_from_a_torn_cut_fails_loudly() {
        let (archive, _) = archive_with_log();
        // Seq 5 is mid-transaction (txn 3 writes 5 and 6).
        let _ = archive.replay_from(SeqNo(5));
    }

    #[test]
    fn truncation_drops_covered_segments_and_bounds_replay() {
        let (archive, _) = archive_with_log();
        // A checkpoint at 6 covers segment 0 entirely; segment 1 straddles
        // and is kept whole.
        assert_eq!(archive.truncate_through(SeqNo(6)), 1);
        assert_eq!(archive.retained_segments(), 2);
        assert_eq!(archive.truncated_through(), SeqNo(4));

        // Replays at or above the truncation point still work...
        let replay = archive.replay_from(SeqNo(6)).unwrap();
        let seqs: Vec<u64> = crate::logger::flatten(&replay)
            .iter()
            .map(|r| r.seq.as_u64())
            .collect();
        assert_eq!(seqs, (7..=12).collect::<Vec<_>>());
        assert_eq!(archive.replay_from(SeqNo(4)).unwrap().len(), 2);
        // ...but a replay below it reports the gap as a typed error a
        // recovery driver can act on, instead of a corrupt log.
        match archive.replay_from(SeqNo(2)) {
            Err(Error::ArchiveTruncated {
                from,
                truncated_through,
            }) => {
                assert_eq!(from, SeqNo(2));
                assert_eq!(truncated_through, SeqNo(4));
            }
            other => panic!("expected ArchiveTruncated, got {other:?}"),
        }

        // Truncating everything leaves appends still contiguous.
        archive.truncate_through(SeqNo(12));
        assert_eq!(archive.retained_segments(), 0);
        assert_eq!(archive.replay_from(SeqNo(12)).unwrap().len(), 0);
    }

    #[test]
    fn starting_at_accepts_a_continuation_log() {
        // A promoted primary's log resumes at cut + 1; its archive must
        // accept that as the first segment and replay from the cut.
        let entry = TxnEntry::new(
            TxnId(1),
            Timestamp(11),
            vec![RowWrite::update(RowRef::new(0, 1), Value::from_u64(1))],
        );
        let (records, _) = crate::record::explode_txn(&entry, SeqNo(10));
        let archive = LogArchive::starting_at(SeqNo(10));
        archive.append(&Segment::new(0, records));
        let replay = archive.replay_from(SeqNo(10)).unwrap();
        assert_eq!(crate::logger::flatten(&replay)[0].seq, SeqNo(11));
        assert!(matches!(
            archive.replay_from(SeqNo(9)),
            Err(Error::ArchiveTruncated { .. })
        ));
    }

    #[test]
    fn empty_segments_are_not_retained() {
        let archive = LogArchive::new();
        archive.append(&Segment::new(0, vec![]));
        assert_eq!(archive.retained_segments(), 0);
        assert_eq!(archive.last_seq(), SeqNo::ZERO);
    }

    /// Regression test: a quiet shard's stream is a coverage-only empty
    /// sub-segment followed by a non-empty one starting after the covered
    /// gap. The empty segment must advance the watermark (without being
    /// retained) or the follow-up append trips the contiguity assert.
    #[test]
    fn empty_segments_advance_coverage_for_the_next_append() {
        let segments = test_log();
        let archive = LogArchive::new();
        archive.append(&segments[0]); // seqs 1..=4

        // The shard saw nothing of the parent covering 5..=8.
        archive.append(&Segment::sub_segment(1, vec![], SeqNo(8)));
        assert_eq!(archive.retained_segments(), 1);
        assert_eq!(archive.last_seq(), SeqNo(8));

        // Its next records start at 9 — contiguous with the coverage, not
        // with the last retained record.
        archive.append(&segments[2]);
        assert_eq!(archive.retained_segments(), 2);
        assert_eq!(archive.last_seq(), SeqNo(12));

        // A stale or duplicate coverage claim never regresses the watermark.
        archive.append(&Segment::sub_segment(3, vec![], SeqNo(6)));
        assert_eq!(archive.last_seq(), SeqNo(12));

        let replay = archive.replay_from(SeqNo(4)).unwrap();
        let seqs: Vec<u64> = crate::logger::flatten(&replay)
            .iter()
            .map(|r| r.seq.as_u64())
            .collect();
        assert_eq!(seqs, (9..=12).collect::<Vec<_>>());
    }

    #[test]
    fn durable_archive_round_trips_across_a_reopen() {
        let dir = scratch_dir("roundtrip");
        let segments = test_log();
        {
            let archive =
                LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create");
            for segment in &segments {
                archive.append(segment);
            }
            assert_eq!(archive.retained_records(), 12);
        } // drop = crash (no clean shutdown step exists)

        let recovery = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("open");
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.recovered_segments, 3);
        assert_eq!(recovery.recovered_records, 12);
        let archive = recovery.archive;
        assert_eq!(archive.last_seq(), SeqNo(12));
        let seqs: Vec<u64> = crate::logger::flatten(&archive.replay_from(SeqNo::ZERO).unwrap())
            .iter()
            .map(|r| r.seq.as_u64())
            .collect();
        assert_eq!(seqs, (1..=12).collect::<Vec<_>>());

        // Appends continue where the recovered log ends.
        let entry = TxnEntry::new(
            TxnId(7),
            Timestamp(7),
            vec![RowWrite::update(RowRef::new(0, 7), Value::from_u64(7))],
        );
        let (records, _) = crate::record::explode_txn(&entry, SeqNo(12));
        archive.append(&Segment::new(3, records));
        assert_eq!(archive.last_seq(), SeqNo(13));

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn durable_truncation_survives_a_reopen() {
        let dir = scratch_dir("truncate");
        let segments = test_log();
        {
            let archive =
                LogArchive::durable(&dir, DurabilityPolicy::EveryNSegments(2)).expect("create");
            for segment in &segments {
                archive.append(segment);
            }
            archive.sync().expect("flush the unsynced batch");
            assert_eq!(archive.truncate_through(SeqNo(6)), 1);
        }

        let recovery = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("open");
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.recovered_segments, 2);
        let archive = recovery.archive;
        assert_eq!(archive.truncated_through(), SeqNo(4));
        assert!(matches!(
            archive.replay_from(SeqNo(2)),
            Err(Error::ArchiveTruncated { .. })
        ));
        let seqs: Vec<u64> = crate::logger::flatten(&archive.replay_from(SeqNo(6)).unwrap())
            .iter()
            .map(|r| r.seq.as_u64())
            .collect();
        assert_eq!(seqs, (7..=12).collect::<Vec<_>>());

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_truncated_to_a_transaction_boundary_and_never_panics() {
        let dir = scratch_dir("torn");
        let segments = test_log();
        {
            let archive =
                LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create");
            for segment in &segments {
                archive.append(segment);
            }
        }
        // Tear the last file mid-record, as a kill -9 mid-write would.
        let last = sorted_segment_files(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&last).unwrap();
        fs::write(&last, &bytes[..bytes.len() - 30]).unwrap();

        let recovery = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("open");
        assert!(recovery.torn_tail);
        let archive = recovery.archive;
        let records = crate::logger::flatten(&archive.replay_from(SeqNo::ZERO).unwrap());
        assert!(records.len() < 12);
        assert!(records.last().unwrap().is_txn_last(), "txn-aligned tail");
        let recovered_through = records.last().unwrap().seq;

        // The damaged file was rewritten clean: a second open finds no
        // damage and the same records.
        drop(archive);
        let again = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("reopen");
        assert!(!again.torn_tail);
        assert_eq!(again.archive.last_seq(), recovered_through);

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_middle_file_truncates_the_recovered_log_there() {
        let dir = scratch_dir("corrupt");
        let segments = test_log();
        {
            let archive =
                LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create");
            for segment in &segments {
                archive.append(segment);
            }
        }
        // Flip one payload byte in the middle file (index 1 of 3).
        let files = sorted_segment_files(&dir).unwrap();
        let mut bytes = fs::read(&files[1]).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x20;
        fs::write(&files[1], &bytes).unwrap();

        let recovery = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("open");
        assert!(recovery.torn_tail);
        let archive = recovery.archive;
        let records = crate::logger::flatten(&archive.replay_from(SeqNo::ZERO).unwrap());
        // Everything after the damage — including the intact third file —
        // is discarded: a log with a hole cannot be replayed.
        assert!(records.last().map(|r| r.seq.as_u64()).unwrap_or(0) <= 8);
        assert!(records.last().map(|r| r.is_txn_last()).unwrap_or(true));
        assert!(sorted_segment_files(&dir).unwrap().len() <= 2);

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn opening_an_empty_directory_yields_a_fresh_archive() {
        let dir = scratch_dir("fresh");
        let recovery = LogArchive::open(&dir, DurabilityPolicy::Never).expect("open");
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.recovered_segments, 0);
        let archive = recovery.archive;
        assert_eq!(archive.last_seq(), SeqNo::ZERO);
        for segment in &test_log() {
            archive.append(segment);
        }
        assert_eq!(archive.retained_records(), 12);

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn durable_refuses_a_directory_that_already_holds_segments() {
        let dir = scratch_dir("refuse");
        {
            let archive =
                LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create");
            archive.append(&test_log()[0]);
        }
        let err = LogArchive::durable(&dir, DurabilityPolicy::EverySegment)
            .expect_err("must refuse to shadow an existing archive");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);

        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
