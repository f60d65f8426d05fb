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
//!   retained segment is additionally appended to **one append-only log**,
//!   described next.
//!
//! # The on-disk log
//!
//! The directory holds a one-frame manifest (`archive.meta`, the truncation
//! point, replaced by [`c5_common::fs::publish`]) and a few **chunk** files
//! `log-<first_seq>.c5r`, zero-padded so name order is log order; any other
//! name (a checkpoint sharing the directory) is not the archive's. A chunk is
//! a run of frames ([`c5_common::frame`]), one per segment, and then zeros:
//!
//! ```text
//! [len: u32][crc: u32][wal::encode_segment(segment)]   one per append
//! ...
//! 00 00 00 00 00 00 00 00 ...                          written ahead
//! ```
//!
//! The frame's one CRC is the only checksum a segment's bytes carry: the
//! payload is its records back to back ([`crate::wal`]).
//!
//! An append is **one positioned write at the tail and one `sync_data`**
//! on a file that is already open: no create, no reopen, no directory
//! operation. Only creating a chunk (the
//! first append, and each rotation at [`CHUNK_BYTES`]) and unlinking one
//! touch the directory, and there the directory sync is checked.
//!
//! **Zero-ahead.** `fdatasync` is cheap only when the write landed in blocks
//! that were already allocated *and written*: appending past the end of the
//! file — or into `set_len`-preallocated, never-written blocks — changes the
//! file's size or extent map, and the sync must commit the file system's
//! journal as well. So when an append would cross the zeroed frontier, the
//! same write carries [`ZERO_AHEAD_BYTES`] of zeros behind the frame; that
//! one append pays for the allocation, and the next hundred or so overwrite
//! blocks that exist. Zero-filling whole chunks up front would cost as much
//! per chunk as a thousand appends, at creation.
//!
//! **Reading it back.** An all-zero header is a *valid* empty frame
//! (`crc32(&[]) == 0`), so the scanner ([`scan_chunk`]) treats an empty
//! payload as end of log. It also stops at a bad checksum, a frame the file
//! ends inside, or a segment that does not decode or whose first position
//! does not continue the log. [`LogArchive::open`] ends the log before that
//! frame — a segment is lost whole or kept whole, and it never splits a
//! transaction — and zeroes everything from there to the end of the file,
//! so a second open finds nothing to repair and leaves the file
//! byte-identical, and the remnant of a torn write can never be taken for a
//! frame once later appends have grown the log past it. Dropping a torn
//! frame loses nothing a subscriber saw: the wire delivers a segment only
//! after its append and sync have returned. Damage in the middle of the log
//! drops everything after it, later chunks included: recovery yields a
//! contiguous prefix, never a log with a hole. There is no reader for the
//! older layouts — one file per segment (`seg-*.c5w`), or chunks of
//! twice-checksummed segments (`log-*.c5a`) — and a directory that holds
//! either is refused.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use c5_common::frame::{read_frame, write_frame, PayloadReader, PayloadWriter, HEADER_BYTES};
use c5_common::fs::{publish, Fs, FsFile, StdFs};
use c5_common::{DurabilityPolicy, Error, Result, SeqNo};

use crate::segment::Segment;
use crate::wal::{decode_segment, encode_segment};

/// The manifest file recording the archive's truncation point.
const META_FILE: &str = "archive.meta";

/// A chunk is closed, and the next one created, by the first append that
/// would end beyond this size.
pub const CHUNK_BYTES: u64 = 16 << 20;
/// Zeros written behind a frame that crosses the zeroed frontier (see the
/// module docs): at the benchmark's 1–2 KiB frames, one append in a hundred
/// or two allocates blocks.
pub const ZERO_AHEAD_BYTES: u64 = 256 << 10;

fn chunk_file_name(first: SeqNo) -> String {
    // Zero-padded so lexicographic directory order is log order.
    format!("log-{:020}.c5r", first.as_u64())
}

/// The first position a chunk file's name promises, if it is a chunk file.
fn chunk_first_seq(name: &str) -> Option<SeqNo> {
    let digits = name.strip_prefix("log-")?.strip_suffix(".c5r")?;
    digits.parse().ok().map(SeqNo)
}

/// The chunk files among `names`, in log order. Fails if the directory holds
/// a layout this archive no longer reads: one file per segment
/// (`seg-*.c5w`), chunks of twice-checksummed segments (`log-*.c5a`), or
/// chunks of records that still carried their transaction's id, commit
/// timestamp and index pair (`log-*.c5l`).
fn chunk_files(dir: &Path, names: &[String]) -> io::Result<Vec<(SeqNo, PathBuf)>> {
    let old_layout = |n: &String| {
        (n.starts_with("seg-") && n.ends_with(".c5w"))
            || (n.starts_with("log-") && (n.ends_with(".c5a") || n.ends_with(".c5l")))
    };
    if let Some(old) = names.iter().find(|n| old_layout(n)) {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "{} holds {old}: an older archive layout, which is not readable",
                dir.display()
            ),
        ));
    }
    let mut chunks: Vec<(SeqNo, PathBuf)> = (names.iter())
        .filter_map(|name| Some((chunk_first_seq(name)?, dir.join(name))))
        .collect();
    chunks.sort();
    Ok(chunks)
}

/// The archive's chunk files under `dir`, in log order.
pub fn chunk_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let chunks = chunk_files(dir, &StdFs.list(dir)?)?;
    Ok(chunks.into_iter().map(|(_, path)| path).collect())
}

/// What a chunk holds, as [`scan_chunk`] read it.
#[derive(Debug)]
pub struct ChunkScan {
    /// The segments of the valid frames, in log order.
    pub segments: Vec<Segment>,
    /// Bytes those frames occupy from the start of the file: the written
    /// extent. Everything at or beyond it is zeros, or damage.
    pub valid_len: u64,
    /// Whether anything but zeros lies at or beyond `valid_len`: a torn or
    /// corrupt frame, a segment that does not continue the log, or stale
    /// bytes in the zeroed tail.
    pub damaged: bool,
}

/// Scans `bytes` as a chunk whose first segment must start at `expected`
/// (when given) and each later one right after its predecessor.
fn scan_frames(bytes: &[u8], mut expected: Option<SeqNo>) -> ChunkScan {
    let mut segments = Vec::new();
    let mut at = 0usize;
    // An empty payload is the end of the log: the zeros written ahead read
    // as empty frames, and no append writes one.
    while let Some(payload) = read_frame(&bytes[at..]).filter(|p| !p.is_empty()) {
        // It decodes, and it is the log's next segment.
        let next = |s: &Segment| {
            (s.first_seq()).is_some_and(|first| expected.map_or(true, |e| first == e))
        };
        let Some(segment) = decode_segment(payload).filter(next) else {
            break;
        };
        expected = Some(SeqNo(segment.covered_through().as_u64() + 1));
        segments.push(segment);
        at += HEADER_BYTES + payload.len();
    }
    ChunkScan {
        segments,
        valid_len: at as u64,
        damaged: bytes[at..].iter().any(|&b| b != 0),
    }
}

/// Reads one chunk file: the segments of its valid frames, how far they
/// reach, and whether anything lies beyond them. This is the reader
/// [`LogArchive::open`] recovers with; tests and the `durability` experiment
/// use it to find the written extent they tear and corrupt.
pub fn scan_chunk(path: &Path) -> io::Result<ChunkScan> {
    let expected = (path.file_name().and_then(|n| n.to_str())).and_then(chunk_first_seq);
    Ok(scan_frames(&StdFs.read(path)?, expected))
}

fn write_meta(fs: &dyn Fs, dir: &Path, truncated_through: SeqNo) -> io::Result<()> {
    let mut payload = PayloadWriter::new();
    payload.u64(truncated_through.as_u64());
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &payload.finish());
    publish(fs, dir, META_FILE, &bytes)
}

/// Decodes the truncation manifest; a damaged one degrades to "nothing
/// recorded" (the opener re-infers the floor from the first chunk's name).
fn parse_meta(bytes: &[u8]) -> SeqNo {
    read_frame(bytes)
        .and_then(|payload| PayloadReader::new(payload).u64())
        .map_or(SeqNo::ZERO, SeqNo)
}

/// One chunk file of a durable archive.
#[derive(Debug)]
struct Chunk {
    path: PathBuf,
    /// Coverage of the last segment appended to it.
    last_seq: SeqNo,
}

/// The chunk appends go to: the last of `DiskBacking::chunks`, held open.
#[derive(Debug)]
struct ActiveChunk {
    file: Box<dyn FsFile>,
    /// Where the next frame goes: the end of the last valid frame.
    tail: u64,
    /// The file is written zeros from `tail` up to here, and ends here.
    zeroed_through: u64,
}

impl ActiveChunk {
    /// Writes `frame` at the tail — with zeros behind it if it crosses the
    /// zeroed frontier — and syncs. The chunk moves only if both succeed, so
    /// a retry overwrites whatever a failed attempt left. Returns the time
    /// spent in the sync.
    fn append(&mut self, frame: &mut Vec<u8>, chunk_bytes: u64) -> io::Result<Duration> {
        let end = self.tail + frame.len() as u64;
        let mut zeroed_through = self.zeroed_through;
        if end > zeroed_through {
            zeroed_through = end + ZERO_AHEAD_BYTES.min(chunk_bytes.saturating_sub(end));
            frame.resize((zeroed_through - self.tail) as usize, 0);
        }
        self.file.write_all_at(frame, self.tail)?;
        let started = Instant::now();
        self.file.sync_data()?;
        let synced = started.elapsed();
        self.tail = end;
        self.zeroed_through = zeroed_through;
        Ok(synced)
    }
}

/// The disk half of a durable archive.
#[derive(Debug)]
struct DiskBacking {
    fs: Arc<dyn Fs>,
    dir: PathBuf,
    /// [`CHUNK_BYTES`], except in this crate's rotation tests.
    chunk_bytes: u64,
    /// The chunk files, in log order; appends go to the last.
    chunks: VecDeque<Chunk>,
    /// `None` until the first append after creation (or after an open that
    /// found no chunk worth keeping).
    active: Option<ActiveChunk>,
}

impl DiskBacking {
    fn persist_segment(&mut self, segment: &Segment, first: SeqNo) -> io::Result<AppendReport> {
        let payload = encode_segment(segment);
        let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
        write_frame(&mut frame, &payload);
        let bytes = frame.len() as u64;
        let last_seq = segment.covered_through();

        let fits = |chunk: &ActiveChunk| chunk.tail == 0 || chunk.tail + bytes <= self.chunk_bytes;
        let (synced, rotated) = match self.active.as_mut().filter(|chunk| fits(chunk)) {
            Some(chunk) => {
                let synced = chunk.append(&mut frame, self.chunk_bytes)?;
                self.chunks.back_mut().expect("the active chunk").last_seq = last_seq;
                (synced, false)
            }
            None => {
                // A new chunk: the one place an append touches the
                // directory. The archive switches to it only once its name
                // is durable; a file a failed attempt leaves is truncated by
                // the retry.
                let path = self.dir.join(chunk_file_name(first));
                let mut chunk = ActiveChunk {
                    file: self.fs.create(&path)?,
                    tail: 0,
                    zeroed_through: 0,
                };
                let synced = chunk.append(&mut frame, self.chunk_bytes)?;
                self.fs.sync_dir(&self.dir)?;
                self.chunks.push_back(Chunk { path, last_seq });
                self.active = Some(chunk);
                (synced, true)
            }
        };
        Ok(AppendReport {
            bytes,
            sync: synced,
            rotated,
        })
    }

    /// Unlinks every chunk wholly at or below `through`, except the one
    /// appends go to.
    fn unlink_through(&mut self, through: SeqNo) -> io::Result<()> {
        let mut unlinked = false;
        while self.chunks.len() > 1 && self.chunks[0].last_seq <= through {
            self.fs.remove(&self.chunks[0].path)?;
            self.chunks.pop_front();
            unlinked = true;
        }
        if unlinked {
            self.fs.sync_dir(&self.dir)?;
        }
        Ok(())
    }

    fn error(&self, first: SeqNo, e: io::Error) -> Error {
        Error::ArchiveIo {
            first,
            message: format!("{}: {e}", self.dir.display()),
        }
    }
}

/// What one [`LogArchive::try_append`] did on disk (all zero for an
/// in-memory archive or an empty segment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendReport {
    /// Bytes the segment's frame added to the log (zero-ahead not counted).
    pub bytes: u64,
    /// Time spent in `sync_data` alone.
    pub sync: Duration,
    /// Whether the append created a chunk file.
    pub rotated: bool,
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
    /// Largest position appended so far.
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

    /// Creates a fresh disk-backed archive in `dir` (created if absent):
    /// one manifest file, one sync, one directory sync — the first chunk is
    /// created by the first append. Every appended segment becomes one frame
    /// of the append-only log and is synced before the append returns
    /// ([`DurabilityPolicy::EverySegment`], the one policy); truncation is
    /// recorded in the manifest. Fails if `dir` already holds chunk files —
    /// recover those with [`LogArchive::open`] instead of silently shadowing
    /// them — or an older, unreadable layout ([`io::ErrorKind::Unsupported`]).
    pub fn durable(dir: impl AsRef<Path>, policy: DurabilityPolicy) -> io::Result<Self> {
        Self::durable_on(Arc::new(StdFs), dir, policy)
    }

    /// [`LogArchive::durable`] over a given file system — the seam through
    /// which a test makes any of the archive's syscalls fail.
    pub fn durable_on(
        fs: Arc<dyn Fs>,
        dir: impl AsRef<Path>,
        _policy: DurabilityPolicy,
    ) -> io::Result<Self> {
        Self::create_in(fs, dir.as_ref(), CHUNK_BYTES)
    }

    pub(crate) fn create_in(fs: Arc<dyn Fs>, dir: &Path, chunk_bytes: u64) -> io::Result<Self> {
        fs.create_dir_all(dir)?;
        if !chunk_files(dir, &fs.list(dir)?)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds an archived log; open() it instead",
                    dir.display()
                ),
            ));
        }
        write_meta(fs.as_ref(), dir, SeqNo::ZERO)?;
        let archive = Self::default();
        archive.inner.lock().disk = Some(DiskBacking {
            fs,
            dir: dir.to_path_buf(),
            chunk_bytes,
            chunks: VecDeque::new(),
            active: None,
        });
        Ok(archive)
    }

    /// Recovers a disk-backed archive from `dir` after a crash or restart.
    ///
    /// Recovery scans the chunks in log order and keeps the longest valid
    /// run of whole frames: a torn tail (a `kill -9` mid-write), a corrupt
    /// frame, or a sequence gap ends the recovered log before that frame —
    /// on a segment, hence transaction, boundary — zeroes the rest of that
    /// chunk and unlinks the chunks after it, so a second open finds a clean
    /// archive and changes nothing. A missing or damaged manifest degrades
    /// to re-inferring the truncation floor from the first surviving chunk.
    /// This path never panics on damaged input; it fails on an I/O error,
    /// and with [`io::ErrorKind::Unsupported`] on an older layout
    /// (`seg-*.c5w`, `log-*.c5a`).
    pub fn open(dir: impl AsRef<Path>, policy: DurabilityPolicy) -> io::Result<DurableRecovery> {
        Self::open_on(Arc::new(StdFs), dir, policy)
    }

    /// [`LogArchive::open`] over a given file system.
    pub fn open_on(
        fs: Arc<dyn Fs>,
        dir: impl AsRef<Path>,
        _policy: DurabilityPolicy,
    ) -> io::Result<DurableRecovery> {
        Self::open_in(fs, dir.as_ref(), CHUNK_BYTES)
    }

    pub(crate) fn open_in(
        fs: Arc<dyn Fs>,
        dir: &Path,
        chunk_bytes: u64,
    ) -> io::Result<DurableRecovery> {
        fs.create_dir_all(dir)?;
        let names = fs.list(dir)?;
        let on_disk = chunk_files(dir, &names)?;
        let mut truncated_through = match names.iter().any(|n| n == META_FILE) {
            true => parse_meta(&fs.read(&dir.join(META_FILE))?),
            false => SeqNo::ZERO,
        };

        let mut segments: VecDeque<Segment> = VecDeque::new();
        let mut chunks: VecDeque<Chunk> = VecDeque::new();
        let mut torn_tail = false;
        let mut unlinked = false;
        // The position the log is contiguous through so far.
        let mut covered: Option<SeqNo> = None;
        // Tail and length of the last chunk kept.
        let mut tail_and_len = (0, 0);

        for (named_first, path) in on_disk {
            let gap = covered.is_some_and(|c| named_first.as_u64() != c.as_u64() + 1);
            if torn_tail || gap {
                // Past damage or a gap mid-log: nothing from here on can be
                // replayed safely.
                torn_tail = true;
                fs.remove(&path)?;
                unlinked = true;
                continue;
            }
            let bytes = fs.read(&path)?;
            let scan = scan_frames(&bytes, Some(named_first));
            torn_tail |= scan.damaged;
            let Some(last) = scan.segments.last() else {
                // Nothing replayable in it: a rotation that never finished,
                // or a chunk damaged from its first frame.
                fs.remove(&path)?;
                unlinked = true;
                continue;
            };
            let last_seq = last.covered_through();
            let (tail, len) = (scan.valid_len, bytes.len() as u64);
            if scan.damaged {
                // Zero from the damaged frame on, so the damage is not there
                // to be found again.
                let mut file = fs.open(&path)?;
                file.write_all_at(&vec![0; (len - tail) as usize], tail)?;
                file.sync_data()?;
            }
            if covered.is_none() {
                // Records below the first surviving chunk are gone no matter
                // what the manifest says.
                truncated_through =
                    truncated_through.max(SeqNo(named_first.as_u64().saturating_sub(1)));
            }
            covered = Some(last_seq);
            chunks.push_back(Chunk { path, last_seq });
            segments.extend(scan.segments);
            tail_and_len = (tail, len);
        }
        if unlinked {
            fs.sync_dir(dir)?;
        }
        let active = match chunks.back() {
            Some(chunk) => Some(ActiveChunk {
                file: fs.open(&chunk.path)?,
                tail: tail_and_len.0,
                zeroed_through: tail_and_len.1,
            }),
            None => None,
        };
        // Segments the manifest says a checkpoint has covered stay in their
        // chunk until the chunk goes, but are not retained.
        while (segments.front()).is_some_and(|s| s.last_seq() <= Some(truncated_through)) {
            segments.pop_front();
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
                fs,
                dir: dir.to_path_buf(),
                chunk_bytes,
                chunks,
                active,
            });
        }
        Ok(DurableRecovery {
            archive,
            recovered_segments,
            recovered_records,
            torn_tail,
        })
    }

    /// Retains a copy of one shipped segment, and in a disk-backed archive
    /// writes it as one frame at the log's tail and syncs it before
    /// returning. An **empty** segment carries nothing to replay: it is
    /// neither retained nor written, and moves nothing.
    ///
    /// Fails with [`Error::ArchiveIo`] when the disk backing cannot persist
    /// the segment. The archive is then exactly what it was before the call —
    /// the watermark has not moved, the segment is not retained and the log's
    /// tail is where it was — so the in-memory and on-disk logs stay the same
    /// log; bytes the failed write left behind the tail are overwritten by a
    /// retry or re-zeroed by the next [`LogArchive::open`]. (A failed append
    /// is never acknowledged, but like any failed commit it may still be
    /// found on disk after a restart, if the write landed and only the sync
    /// failed.)
    ///
    /// # Panics
    /// Panics if a non-empty segment does not directly follow the archive's
    /// watermark — an archive with a gap would silently replay a corrupt
    /// log, so a misordered producer fails loudly here (mirroring the
    /// replica-side `BoundaryLedger` contiguity assert). That is a bug in
    /// this program, not something the environment can cause.
    pub fn try_append(&self, segment: &Segment) -> Result<AppendReport> {
        let mut inner = self.inner.lock();
        let Some(first) = segment.first_seq() else {
            return Ok(AppendReport::default());
        };
        let expected = inner.last_seq.max(inner.truncated_through);
        assert_eq!(
            first.as_u64(),
            expected.as_u64() + 1,
            "archived segments must arrive in log order: got a segment \
             starting at {first} when the archive holds through {expected}"
        );
        let report = match inner.disk.as_mut() {
            Some(disk) => {
                (disk.persist_segment(segment, first)).map_err(|e| disk.error(first, e))?
            }
            None => AppendReport::default(),
        };
        inner.last_seq = segment.covered_through();
        inner.segments.push_back(segment.clone());
        Ok(report)
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
    /// A disk-backed archive first records the new truncation point in the
    /// manifest ([`c5_common::fs::publish`]), then unlinks the chunks that lie
    /// wholly at or below it; segments in a chunk that stays are skipped by
    /// the next open. Returns the number of segments dropped.
    ///
    /// Fails with [`Error::ArchiveIo`] (`first` is the first position still
    /// retained) when the disk backing cannot do either. If the manifest
    /// could not be rewritten nothing has changed; if only an unlink or the
    /// directory sync failed the truncation is recorded and in effect, and
    /// any later call retries the unlink.
    pub fn truncate_through(&self, cut: SeqNo) -> Result<usize> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let dropped = (inner.segments.iter())
            .take_while(|s| s.last_seq().is_some_and(|last| last <= cut))
            .count();
        let first_retained = |through: SeqNo| SeqNo(through.as_u64() + 1);
        if let Some(last) = dropped
            .checked_sub(1)
            .and_then(|i| inner.segments[i].last_seq())
        {
            let through = last.max(inner.truncated_through);
            if let Some(disk) = inner.disk.as_ref() {
                write_meta(disk.fs.as_ref(), &disk.dir, through)
                    .map_err(|e| disk.error(first_retained(through), e))?;
            }
            inner.segments.drain(..dropped);
            inner.truncated_through = through;
        }
        if let Some(disk) = inner.disk.as_mut() {
            let through = inner.truncated_through;
            (disk.unlink_through(through)).map_err(|e| disk.error(first_retained(through), e))?;
        }
        Ok(dropped)
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
                out.push(Segment::new(records));
            }
        }
        Ok(out)
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
    use c5_common::fs::FaultyFs;
    use c5_common::{RowRef, RowWrite, Timestamp, Value};
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Six transactions of two writes each, packed 4 records (= 2 txns) per
    /// segment: boundaries at 2, 4, 6, 8, 10, 12; segment ends at 4, 8, 12.
    fn test_log() -> Vec<Segment> {
        test_log_of(6)
    }

    /// `txns` transactions of two writes each, two transactions a segment.
    fn test_log_of(txns: u64) -> Vec<Segment> {
        let entries: Vec<TxnEntry> = (1..=txns)
            .map(|t| {
                TxnEntry::new(
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

    /// A one-write transaction's segment, its record at `last + 1`.
    fn segment_after(last: SeqNo, write: RowWrite) -> Segment {
        let mut builder = crate::segment::SegmentBuilder::resume_at(1, last);
        let segment = builder.push_txn(crate::now_nanos(), &[write]);
        segment.expect("one write fills a segment")
    }

    fn archive_with_log() -> (LogArchive, Vec<Segment>) {
        let segments = test_log();
        let archive = LogArchive::new();
        for segment in &segments {
            archive.append(segment);
        }
        (archive, segments)
    }

    fn seqs(segments: &[Segment]) -> Vec<u64> {
        let records = crate::logger::flatten(segments);
        records.iter().map(|r| r.seq.as_u64()).collect()
    }

    /// A chunk size that holds two of `test_log_of`'s 172-byte frames and
    /// not a third.
    const TWO_FRAME_CHUNK: u64 = 450;

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

    /// An append into the open chunk is one write and one sync; fail each in
    /// turn (a short write or `ENOSPC`, then `EIO` from the sync).
    #[test]
    fn a_failed_persist_is_a_typed_error_and_leaves_the_archive_as_it_was() {
        let segments = test_log();
        let policy = DurabilityPolicy::EverySegment;
        let probe_dir = scratch_dir("persist-probe");
        let probe = Arc::new(FaultyFs::new(0, None));
        let archive = LogArchive::durable_on(probe.clone(), &probe_dir, policy).expect("create");
        archive.try_append(&segments[0]).expect("creates the chunk");
        let before = probe.calls();
        let report = archive.try_append(&segments[1]).expect("appends to it");
        assert!(!report.rotated && report.bytes > 0);
        assert_eq!(
            probe.calls() - before,
            2,
            "no create, no reopen, no directory operation"
        );
        fs::remove_dir_all(&probe_dir).expect("cleanup");

        for fail in before..before + 2 {
            let dir = scratch_dir("persist-failure");
            let faulty = Arc::new(FaultyFs::new(fail, Some(fail)));
            let archive = LogArchive::durable_on(faulty, &dir, policy).expect("create");
            archive
                .try_append(&segments[0])
                .expect("not the failing call");
            match archive.try_append(&segments[1]) {
                Err(Error::ArchiveIo { first, .. }) => assert_eq!(first, SeqNo(5)),
                other => panic!("expected ArchiveIo, got {other:?}"),
            }
            // Nothing moved: the failed segment is neither counted nor
            // retained...
            assert_eq!(archive.last_seq(), SeqNo(4));
            assert_eq!(archive.retained_segments(), 1);
            // ...and it is still the next one the archive expects: the retry
            // overwrites whatever the failed attempt left behind the tail.
            archive
                .try_append(&segments[1])
                .expect("the fault was that one call");
            archive
                .try_append(&segments[2])
                .expect("and the log goes on");
            drop(archive);
            let recovery = LogArchive::open(&dir, policy).expect("open");
            assert!(!recovery.torn_tail);
            let replay = recovery.archive.replay_from(SeqNo::ZERO).unwrap();
            assert_eq!(seqs(&replay), (1..=12).collect::<Vec<_>>());
            fs::remove_dir_all(&dir).expect("cleanup");
        }
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
        assert_eq!(archive.truncate_through(SeqNo(6)), Ok(1));
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
        assert_eq!(archive.truncate_through(SeqNo(12)), Ok(2));
        assert_eq!(archive.retained_segments(), 0);
        assert_eq!(archive.replay_from(SeqNo(12)).unwrap().len(), 0);
    }

    #[test]
    fn starting_at_accepts_a_continuation_log() {
        // A promoted primary's log resumes at cut + 1; its archive must
        // accept that as the first segment and replay from the cut.
        let write = RowWrite::update(RowRef::new(0, 1), Value::from_u64(1));
        let archive = LogArchive::starting_at(SeqNo(10));
        archive.append(&segment_after(SeqNo(10), write));
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
        archive.append(&Segment::new(vec![]));
        assert_eq!(archive.retained_segments(), 0);
        assert_eq!(archive.last_seq(), SeqNo::ZERO);
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
        let write = RowWrite::update(RowRef::new(0, 7), Value::from_u64(7));
        archive.append(&segment_after(SeqNo(12), write));
        assert_eq!(archive.last_seq(), SeqNo(13));

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn durable_truncation_survives_a_reopen() {
        let dir = scratch_dir("truncate");
        let segments = test_log();
        {
            let archive =
                LogArchive::durable(&dir, DurabilityPolicy::EverySegment).expect("create");
            for segment in &segments {
                archive.append(segment);
            }
            assert_eq!(archive.truncate_through(SeqNo(6)), Ok(1));
        }

        // The one chunk stays — it also holds what is retained — and the
        // manifest is what keeps the truncated segment from coming back.
        assert_eq!(chunk_paths(&dir).unwrap().len(), 1);
        let recovery = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("open");
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.recovered_segments, 2);
        let archive = recovery.archive;
        assert_eq!(archive.truncated_through(), SeqNo(4));
        assert!(matches!(
            archive.replay_from(SeqNo(2)),
            Err(Error::ArchiveTruncated { .. })
        ));
        assert_eq!(
            seqs(&archive.replay_from(SeqNo(6)).unwrap()),
            (7..=12).collect::<Vec<_>>()
        );

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Writes `segments` durably under `dir` and returns the one chunk they
    /// fit in.
    fn persisted(dir: &Path, segments: &[Segment]) -> PathBuf {
        let archive = LogArchive::durable(dir, DurabilityPolicy::EverySegment).expect("create");
        for segment in segments {
            archive.append(segment);
        }
        let mut chunks = chunk_paths(dir).unwrap();
        assert_eq!(chunks.len(), 1);
        chunks.pop().unwrap()
    }

    /// Format pin (a): `crc32(&[]) == 0`, so the zeros written ahead of the
    /// log are, to the frame codec, an endless run of valid empty frames.
    /// The chunk scanner must read `len == 0` as end of log.
    #[test]
    fn a_zero_tail_is_the_end_of_the_log_not_a_run_of_empty_frames() {
        let dir = scratch_dir("zero-tail");
        let segments = test_log();
        let chunk = persisted(&dir, &segments);

        let bytes = fs::read(&chunk).unwrap();
        let scan = scan_chunk(&chunk).unwrap();
        assert_eq!(seqs(&scan.segments), seqs(&segments));
        assert_eq!(scan.segments.len(), segments.len());
        assert!(!scan.damaged);
        // The first append carried the zero stride; the other two landed in
        // it without growing the file.
        let first_frame = scan.valid_len / 3;
        assert_eq!(bytes.len() as u64, first_frame + ZERO_AHEAD_BYTES);
        let tail = &bytes[scan.valid_len as usize..];
        assert!(tail.iter().all(|&b| b == 0));
        // The premise: the generic frame reader takes that tail for a frame.
        assert_eq!(read_frame(tail), Some(&[][..]));

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Format pin (b): a log spanning three chunks round-trips through
    /// `open`, truncation unlinks exactly the chunks wholly at or below the
    /// cut, and `replay_from` answers as the in-memory archive does.
    #[test]
    fn rotation_round_trips_and_truncation_unlinks_whole_chunks() {
        let dir = scratch_dir("rotate");
        let fs_: Arc<dyn Fs> = Arc::new(StdFs);
        let segments = test_log_of(12); // six segments, ending at 4, 8, .. 24
        let reference = LogArchive::new();
        {
            let archive =
                LogArchive::create_in(fs_.clone(), &dir, TWO_FRAME_CHUNK).expect("create");
            let rotated: Vec<bool> = (segments.iter())
                .map(|s| archive.try_append(s).expect("append").rotated)
                .collect();
            assert_eq!(rotated, [true, false, true, false, true, false]);
            for segment in &segments {
                reference.append(segment);
            }
        }
        let names = |dir: &Path| -> Vec<String> {
            let paths = chunk_paths(dir).unwrap();
            (paths.iter())
                .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
                .collect()
        };
        assert_eq!(
            names(&dir),
            [SeqNo(1), SeqNo(9), SeqNo(17)].map(chunk_file_name)
        );

        let opened = LogArchive::open_in(fs_.clone(), &dir, TWO_FRAME_CHUNK).expect("open");
        assert!(!opened.torn_tail);
        assert_eq!(opened.recovered_segments, 6);
        let archive = opened.archive;
        assert_eq!(archive.last_seq(), SeqNo(24));

        // A cut at 14 covers segments 1..=3: the first chunk (1..=8) goes,
        // the second (9..=16) straddles the cut and stays whole.
        assert_eq!(archive.truncate_through(SeqNo(14)), Ok(3));
        assert_eq!(reference.truncate_through(SeqNo(14)), Ok(3));
        assert_eq!(names(&dir), [SeqNo(9), SeqNo(17)].map(chunk_file_name));
        for from in [12u64, 14, 16, 20, 24] {
            assert_eq!(
                seqs(&archive.replay_from(SeqNo(from)).unwrap()),
                seqs(&reference.replay_from(SeqNo(from)).unwrap()),
                "replay from {from}"
            );
        }
        assert!(matches!(
            archive.replay_from(SeqNo(10)),
            Err(Error::ArchiveTruncated { .. })
        ));
        drop(archive);

        // The segment at 9..=12 is still in its chunk; the manifest keeps it
        // out of the reopened archive, and appends go on into the last chunk.
        let opened = LogArchive::open_in(fs_, &dir, TWO_FRAME_CHUNK).expect("reopen");
        assert_eq!(opened.recovered_segments, 3);
        assert_eq!(opened.archive.truncated_through(), SeqNo(12));
        assert_eq!(
            seqs(&opened.archive.replay_from(SeqNo(12)).unwrap()),
            (13..=24).collect::<Vec<_>>()
        );
        // Everything covered: the chunk appends go to is the one that stays.
        assert_eq!(opened.archive.truncate_through(SeqNo(24)), Ok(3));
        assert_eq!(names(&dir), [chunk_file_name(SeqNo(17))]);

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_truncated_to_a_transaction_boundary_and_never_panics() {
        let dir = scratch_dir("torn");
        let chunk = persisted(&dir, &test_log());
        // Tear the last frame mid-record, as a kill -9 mid-write would: once
        // as a write that stopped (zeros from there on), once as a file that
        // ends there.
        let written = scan_chunk(&chunk).unwrap().valid_len as usize;
        let intact = fs::read(&chunk).unwrap();
        for short_file in [false, true] {
            let mut bytes = intact.clone();
            bytes[written - 30..].fill(0);
            bytes.truncate(if short_file {
                written - 30
            } else {
                bytes.len()
            });
            fs::write(&chunk, &bytes).unwrap();

            let recovery = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("open");
            assert!(recovery.torn_tail);
            let archive = recovery.archive;
            let records = crate::logger::flatten(&archive.replay_from(SeqNo::ZERO).unwrap());
            // The torn frame goes whole: the log ends with the segment
            // before it, on a transaction boundary.
            assert_eq!(records.len(), 8);
            assert!(records.last().unwrap().is_txn_last(), "txn-aligned tail");

            // The damage was repaired in place: a second open finds none,
            // recovers the same records and changes nothing.
            drop(archive);
            let repaired = fs::read(&chunk).unwrap();
            let again = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("reopen");
            assert!(!again.torn_tail);
            assert_eq!(again.archive.last_seq(), SeqNo(8));
            assert_eq!(fs::read(&chunk).unwrap(), repaired);
        }

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Format pin (c): tear, reopen, append, tear again. The remnant of the
    /// first tear lies where later frames were written; it must never be
    /// read as one.
    #[test]
    fn the_remnant_of_an_old_tear_is_never_resurrected() {
        let dir = scratch_dir("tear-twice");
        let policy = DurabilityPolicy::EverySegment;
        let segments = test_log_of(12);
        let chunk = persisted(&dir, &segments[..3]);

        // First tear: the third frame (9..=12) loses its last bytes, which
        // leaves its header and most of its records on disk.
        let written = scan_chunk(&chunk).unwrap().valid_len as usize;
        let mut bytes = fs::read(&chunk).unwrap();
        bytes[written - 30..written].fill(0);
        fs::write(&chunk, &bytes).unwrap();
        let archive = LogArchive::open(&dir, policy).expect("open").archive;
        assert_eq!(archive.last_seq(), SeqNo(8));

        // The log goes on from 9 with different, shorter transactions, so
        // its first frames end inside what the torn frame used to occupy.
        for t in 0..4u64 {
            let write = RowWrite::update(RowRef::new(0, 500 + t), Value::from_u64(t));
            archive.append(&segment_after(SeqNo(8 + t), write));
        }
        assert_eq!(archive.last_seq(), SeqNo(12));
        drop(archive);

        // Second tear, inside the last of those frames.
        let written = scan_chunk(&chunk).unwrap().valid_len as usize;
        let mut bytes = fs::read(&chunk).unwrap();
        bytes[written - 20..written].fill(0);
        fs::write(&chunk, &bytes).unwrap();

        let second = LogArchive::open(&dir, policy).expect("second open");
        assert!(second.torn_tail);
        let replay = second.archive.replay_from(SeqNo::ZERO).unwrap();
        assert_eq!(seqs(&replay), (1..=11).collect::<Vec<_>>());
        let rows: Vec<u64> = crate::logger::flatten(&replay)[8..]
            .iter()
            .map(|r| r.write.row.key.as_u64())
            .collect();
        assert_eq!(rows, [500, 501, 502], "the new log, not the old remnant");
        drop(second);

        let after_second = fs::read(&chunk).unwrap();
        let third = LogArchive::open(&dir, policy).expect("third open");
        assert!(!third.torn_tail);
        assert_eq!(third.archive.last_seq(), SeqNo(11));
        assert_eq!(fs::read(&chunk).unwrap(), after_second, "byte-identical");

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corruption_mid_log_truncates_the_recovered_log_there() {
        let dir = scratch_dir("corrupt");
        let policy = DurabilityPolicy::EverySegment;
        let fs_: Arc<dyn Fs> = Arc::new(StdFs);
        {
            let archive =
                LogArchive::create_in(fs_.clone(), &dir, TWO_FRAME_CHUNK).expect("create");
            for segment in &test_log_of(12) {
                archive.append(segment);
            }
        }
        // Flip one payload byte in the second frame of the first chunk.
        let chunks = chunk_paths(&dir).unwrap();
        assert_eq!(chunks.len(), 3);
        let mut bytes = fs::read(&chunks[0]).unwrap();
        let at = scan_chunk(&chunks[0]).unwrap().valid_len as usize * 3 / 4;
        bytes[at] ^= 0x20;
        fs::write(&chunks[0], &bytes).unwrap();

        let recovery = LogArchive::open_in(fs_, &dir, TWO_FRAME_CHUNK).expect("open");
        assert!(recovery.torn_tail);
        let archive = recovery.archive;
        let records = crate::logger::flatten(&archive.replay_from(SeqNo::ZERO).unwrap());
        // The damaged frame goes whole, and everything after it — the two
        // intact chunks included — is discarded: a log with a hole cannot
        // be replayed.
        let last = records.last().expect("the first frame survives");
        assert_eq!(last.seq, SeqNo(4));
        assert_eq!(chunk_paths(&dir).unwrap(), chunks[..1]);
        // Appends go on from the recovered end, over the re-zeroed remainder.
        let write = RowWrite::update(RowRef::new(0, 9), Value::from_u64(9));
        archive.append(&segment_after(last.seq, write));
        drop(archive);
        let again = LogArchive::open(&dir, policy).expect("reopen");
        assert!(!again.torn_tail);
        assert_eq!(again.archive.last_seq(), SeqNo(last.seq.as_u64() + 1));

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Rotation, truncation and their directory operations under the fault
    /// double: fail each call of the scenario in turn, retry the operation
    /// that failed (the fault is one call), and the log on disk is whole.
    #[test]
    fn any_one_failed_call_leaves_a_log_a_retry_completes() {
        let segments = test_log_of(12);
        // Failed truncations out of one attempt and, if it failed, its retry:
        // either the manifest failed (nothing changed) or only the unlink
        // did (the truncation is in effect and any later call retries it).
        let truncate = |archive: &LogArchive, cut: SeqNo| -> usize {
            let failed = match archive.truncate_through(cut) {
                Ok(_) => 0,
                Err(e) => {
                    assert!(matches!(e, Error::ArchiveIo { .. }));
                    archive.truncate_through(cut).expect("the retry");
                    1
                }
            };
            assert_eq!(archive.truncated_through(), cut);
            failed
        };
        let run = |faulty: Arc<FaultyFs>, dir: &Path| -> usize {
            let mut failures = 0;
            let archive = loop {
                match LogArchive::create_in(faulty.clone(), dir, TWO_FRAME_CHUNK) {
                    Ok(archive) => break archive,
                    Err(_) => failures += 1,
                }
            };
            for (i, segment) in segments.iter().enumerate() {
                let before = (archive.last_seq(), archive.retained_segments());
                if let Err(e) = archive.try_append(segment) {
                    assert!(
                        matches!(e, Error::ArchiveIo { first, .. } if Some(first) == segment.first_seq())
                    );
                    assert_eq!((archive.last_seq(), archive.retained_segments()), before);
                    failures += 1;
                    archive.try_append(segment).expect("the retry");
                }
                if i == 3 {
                    // Covers the first chunk (1..=8) and half the second.
                    failures += truncate(&archive, SeqNo(12));
                }
            }
            failures + truncate(&archive, SeqNo(16))
        };

        let probe_dir = scratch_dir("each-call-probe");
        let probe = Arc::new(FaultyFs::new(0, None));
        assert_eq!(run(probe.clone(), &probe_dir), 0);
        let calls = probe.calls();
        fs::remove_dir_all(&probe_dir).expect("cleanup");

        for fail in 0..calls {
            let dir = scratch_dir("each-call");
            let failures = run(Arc::new(FaultyFs::new(fail, Some(fail))), &dir);
            assert_eq!(failures, 1, "call {fail} failed exactly one operation");
            let fs_: Arc<dyn Fs> = Arc::new(StdFs);
            let opened = LogArchive::open_in(fs_, &dir, TWO_FRAME_CHUNK).expect("open");
            assert!(!opened.torn_tail, "call {fail}");
            assert_eq!(opened.archive.truncated_through(), SeqNo(16));
            assert_eq!(
                seqs(&opened.archive.replay_from(SeqNo(16)).unwrap()),
                (17..=24).collect::<Vec<_>>(),
                "call {fail}"
            );
            // The straddled chunk went with the second truncation, and no
            // failed rotation or unlink left a stray behind.
            assert_eq!(chunk_paths(&dir).unwrap().len(), 1, "call {fail}");
            fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn opening_an_empty_directory_yields_a_fresh_archive() {
        let dir = scratch_dir("fresh");
        let recovery = LogArchive::open(&dir, DurabilityPolicy::EverySegment).expect("open");
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

    /// A directory holding `name` (with `bytes` in it) is refused by both
    /// constructors, with the name in the error, and left as it was.
    fn assert_refused(name: &str, bytes: &[u8]) {
        let dir = scratch_dir("old-layout");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(name), bytes).unwrap();
        let policy = DurabilityPolicy::EverySegment;
        let refused = [
            LogArchive::durable(&dir, policy).map(drop),
            LogArchive::open(&dir, policy).map(drop),
        ];
        for result in refused {
            let err = result.expect_err("must not shadow or skip an old archive");
            assert_eq!(err.kind(), io::ErrorKind::Unsupported);
            assert!(err.to_string().contains(name));
        }
        assert_eq!(fs::read(dir.join(name)).unwrap(), bytes);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Format pin (e): there is no reader for the one-file-per-segment
    /// layout, and neither constructor pretends the directory is empty.
    #[test]
    fn the_old_one_file_per_segment_layout_is_refused_not_read() {
        assert_refused("seg-00000000000000000001.c5w", b"C5WSEG1\n");
    }

    /// Nor for chunks whose segments carried their own magic, header frame
    /// and per-record frames inside the chunk's frame.
    #[test]
    fn an_old_twice_checksummed_chunk_is_refused_not_read() {
        let mut chunk = Vec::new();
        write_frame(&mut chunk, b"C5WSEG1\n");
        assert_refused("log-00000000000000000001.c5a", &chunk);
    }

    /// Nor for chunks of records in the 62-byte-field format, which would
    /// misparse as the current one.
    #[test]
    fn an_old_wide_record_chunk_is_refused_not_read() {
        let mut chunk = Vec::new();
        write_frame(&mut chunk, &[0u8; 130]);
        assert_refused("log-00000000000000000001.c5l", &chunk);
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
