//! Property-based tests over the durable layer: random logs persisted to
//! disk, random kill points torn into the log's written extent, recovery
//! from disk.
//!
//! These mirror `model_properties.rs`'s in-memory
//! `checkpoint_install_plus_replay_equals_full_replay` property, but every
//! byte makes a round trip through real files in one state directory: the
//! checkpoint through `CheckpointWriter::save` / `CheckpointInstaller::load`,
//! the log through a durable `LogArchive` and `LogArchive::open`. The
//! recovered store must answer every read identically to the full in-memory
//! replay at every timestamp at or above the cut — up to the transaction
//! boundary the torn tail was truncated back to — and its chain heads must
//! agree so ordered apply could resume on it, whatever torn scratch file a
//! later checkpoint's publication left beside the published one. Each
//! archived segment is one checksummed frame, so a tear keeps exactly the
//! frames that end before it. A separate property flips one arbitrary byte
//! anywhere in the written extent (recovery keeps exactly the segments
//! before the frame that holds it, instead of panicking) and one in the
//! zeros written ahead of it (recovery loses nothing). The last test goes
//! through the file-system seam instead of damaging files afterwards: it
//! fails every call the archive makes, one per run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use c5_repro::common::frame::HEADER_BYTES;
use c5_repro::common::fs::{FaultyFs, StdFs};
use c5_repro::log::archive::{chunk_paths, scan_chunk};
use c5_repro::log::{wal, LogRecord};
use c5_repro::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "c5-durable-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Builds transaction entries from the proptest-generated specs: per
/// transaction, a list of `(key, value, kind)` with duplicate keys dropped
/// and `kind == 0` meaning delete.
fn entries_from_specs(txn_specs: &[Vec<(u64, u64, usize)>]) -> Vec<TxnEntry> {
    let mut entries = Vec::new();
    for (i, writes) in txn_specs.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        let writes: Vec<RowWrite> = writes
            .iter()
            .filter(|(k, _, _)| seen.insert(*k))
            .map(|&(k, v, kind)| {
                let row = RowRef::new(0, k);
                if kind == 0 {
                    RowWrite::delete(row)
                } else {
                    RowWrite::update(row, Value::from_u64(v))
                }
            })
            .collect();
        entries.push(TxnEntry::new(Timestamp(i as u64 + 1), writes));
    }
    entries
}

/// Replays every record of `segments` into a fresh store at its log position.
fn full_replay(segments: &[Segment]) -> MvStore {
    let store = MvStore::default();
    for segment in segments {
        for r in &segment.records {
            store.install(
                r.write.row,
                Timestamp(r.seq.as_u64()),
                r.write.kind,
                r.write.value.clone(),
            );
        }
    }
    store
}

/// The transaction boundaries of `segments`, always including zero.
fn boundaries(segments: &[Segment]) -> Vec<SeqNo> {
    let mut out = vec![SeqNo::ZERO];
    for segment in segments {
        out.extend(
            segment
                .records
                .iter()
                .filter(|r| r.is_txn_last())
                .map(|r| r.seq),
        );
    }
    out
}

/// The last chunk of the archive under `dir`, its bytes, and how many of
/// them the log's frames occupy.
fn tail_chunk(dir: &Path) -> (PathBuf, Vec<u8>, usize) {
    let chunk = chunk_paths(dir)
        .expect("list the archive directory")
        .pop()
        .expect("at least one chunk");
    let written = scan_chunk(&chunk).expect("scan the chunk").valid_len as usize;
    let bytes = fs::read(&chunk).expect("read the chunk");
    (chunk, bytes, written)
}

/// Where each segment's frame ends in a chunk that holds them all from its
/// first byte.
fn frame_ends(segments: &[Segment]) -> Vec<usize> {
    let sizes = segments
        .iter()
        .map(|s| HEADER_BYTES + wal::encode_segment(s).len());
    sizes
        .scan(0, |end, size| {
            *end += size;
            Some(*end)
        })
        .collect()
}

/// `(position, write)` of every record, the projection prefixes are compared
/// under.
fn project(segments: &[Segment]) -> Vec<(SeqNo, RowWrite)> {
    let records = segments.iter().flat_map(|s| &s.records);
    records
        .map(|r: &LogRecord| (r.seq, r.write.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random log persisted to disk, random kill point torn into the log's
    /// written extent, and a later checkpoint's publication cut short at a
    /// random length: recovering from the published checkpoint plus the
    /// surviving archive equals the full in-memory replay at every timestamp
    /// from the cut up to the recovered boundary, and the chain heads agree.
    #[test]
    fn recovery_from_disk_equals_full_replay_up_to_the_torn_boundary(
        txn_specs in prop::collection::vec(prop::collection::vec((0u64..10, 0u64..1000, 0usize..8), 1..5), 1..40),
        cut_pick in any::<u64>(),
        tear_pick in any::<u64>(),
        scratch_pick in any::<u64>(),
    ) {
        let dir = scratch_dir("kill");
        let entries = entries_from_specs(&txn_specs);
        let segments = segments_from_entries(&entries, 8);
        let full = full_replay(&segments);
        let bounds = boundaries(&segments);
        let cut = bounds[(cut_pick as usize) % bounds.len()];

        // Persist: checkpoint at the cut, every segment archived durably.
        let checkpoint = CheckpointWriter::capture(&full, cut);
        CheckpointWriter::save(&StdFs, &dir, &checkpoint).expect("save checkpoint");
        let archive = LogArchive::durable(&dir, DurabilityPolicy::EverySegment)
            .expect("create archive");
        for segment in &segments {
            archive.append(segment);
        }
        drop(archive);

        // A checkpoint at the log's end was being published when the crash
        // came: its scratch file holds a prefix of its bytes.
        let next_dir = scratch_dir("next");
        let end = *bounds.last().expect("zero at least");
        let next = CheckpointWriter::save(&StdFs, &next_dir, &CheckpointWriter::capture(&full, end))
            .expect("save the later checkpoint elsewhere");
        let next_bytes = fs::read(&next).expect("read it back");
        let scratch = dir.join(format!("{}.tmp", next.file_name().unwrap().to_str().unwrap()));
        fs::write(&scratch, &next_bytes[..(scratch_pick as usize) % next_bytes.len()])
            .expect("leave a torn scratch file");
        fs::remove_dir_all(&next_dir).expect("cleanup");

        // The kill point: tear the log at a random byte offset of its
        // written extent, as a crashed process would mid-write — the bytes
        // from there on never reached the zeros written ahead, or (the
        // pick's next bit) the file itself ends there.
        let (tail, mut bytes, written) = tail_chunk(&dir);
        let keep = (tear_pick as usize) % (written + 1);
        bytes[keep..written].fill(0);
        if (tear_pick as usize / (written + 1)) % 2 == 1 {
            bytes.truncate(keep);
        }
        fs::write(&tail, &bytes).expect("tear tail");

        // Recover from disk only: checkpoint + surviving archive.
        let loaded = CheckpointInstaller::load(&StdFs, &dir)
            .expect("read the state directory")
            .expect("checkpoint was published");
        prop_assert_eq!(loaded.cut(), cut);
        prop_assert!(!scratch.exists(), "the torn scratch file is removed");
        let opened = LogArchive::open(&dir, DurabilityPolicy::EverySegment)
            .expect("open survives a torn tail");
        let restored = CheckpointInstaller::install(&loaded);
        let mut recovered_through = cut;
        if opened.archive.last_seq() > cut {
            for segment in opened.archive.replay_from(cut).expect("nothing truncated") {
                for r in &segment.records {
                    prop_assert_eq!(r.seq, SeqNo(recovered_through.as_u64() + 1), "gapless tail");
                    recovered_through = r.seq;
                    restored.install(
                        r.write.row,
                        Timestamp(r.seq.as_u64()),
                        r.write.kind,
                        r.write.value.clone(),
                    );
                }
            }
        }

        // The surviving prefix ends at a transaction boundary, and the
        // checkpoint means recovery never lands below the cut. Exactly: the
        // frames that end before the tear survive whole, and none after.
        prop_assert!(bounds.contains(&recovered_through), "torn tail must end at a txn boundary");
        prop_assert!(recovered_through >= cut);
        let whole = frame_ends(&segments).iter().filter(|&&end| end <= keep).count();
        let last_whole = whole.checked_sub(1).map_or(SeqNo::ZERO, |i| segments[i].covered_through());
        prop_assert_eq!(recovered_through, last_whole.max(cut));

        // Equivalence with the full replay at every timestamp from the cut
        // to the recovered boundary (beyond it, the torn records are gone by
        // design).
        for ts in cut.as_u64()..=recovered_through.as_u64() {
            let mut expect = full.scan_all_at(Timestamp(ts));
            let mut got = restored.scan_all_at(Timestamp(ts));
            expect.sort_by_key(|(row, _)| *row);
            got.sort_by_key(|(row, _)| *row);
            prop_assert_eq!(got, expect, "divergence at timestamp {}", ts);
        }
        // Chain heads agree with the full replay pinned at the recovered
        // boundary: ordered apply could resume on the recovered store.
        for export in CheckpointWriter::capture(&full, recovered_through).rows() {
            prop_assert_eq!(restored.latest_write_ts(export.row), export.write_ts);
        }

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Flip one arbitrary byte in the zeros written ahead of the log:
    /// recovery loses nothing. Then flip one anywhere in the written extent:
    /// recovery never panics, and returns exactly the segments before the
    /// frame that holds the flipped byte.
    #[test]
    fn one_corrupt_byte_truncates_instead_of_panicking(
        txn_specs in prop::collection::vec(prop::collection::vec((0u64..10, 0u64..1000, 0usize..8), 1..5), 1..20),
        tail_pick in any::<u64>(),
        byte_pick in any::<u64>(),
        mask_pick in any::<u64>(),
    ) {
        let dir = scratch_dir("flip");
        let entries = entries_from_specs(&txn_specs);
        let segments = segments_from_entries(&entries, 8);
        let archive = LogArchive::durable(&dir, DurabilityPolicy::EverySegment)
            .expect("create archive");
        for segment in &segments {
            archive.append(segment);
        }
        drop(archive);
        let originals = project(&segments);
        let mask = (mask_pick % 255 + 1) as u8; // a non-zero flip
        let recover = || {
            let opened = LogArchive::open(&dir, DurabilityPolicy::EverySegment)
                .expect("open survives corruption");
            project(&opened.archive.replay_from(SeqNo::ZERO).expect("nothing truncated"))
        };

        let (target, mut bytes, written) = tail_chunk(&dir);
        prop_assert!(written < bytes.len(), "zeros are written ahead of the log");
        let at = written + (tail_pick as usize) % (bytes.len() - written);
        bytes[at] ^= mask;
        fs::write(&target, &bytes).expect("write corruption");
        prop_assert_eq!(&recover(), &originals);

        let (target, mut bytes, written) = tail_chunk(&dir);
        let ends = frame_ends(&segments);
        prop_assert_eq!(ends.last(), Some(&written), "one chunk holds every frame");
        let at = (byte_pick as usize) % written;
        bytes[at] ^= mask;
        fs::write(&target, &bytes).expect("write corruption");
        let damaged = ends.iter().filter(|&&end| end <= at).count();
        prop_assert_eq!(recover(), project(&segments[..damaged]));

        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Every call the archive makes to the file system, failed in turn (a short
/// write or `ENOSPC`, `EIO` from a sync, a rename that does not happen, ...).
/// Whichever call fails: appending and truncating report a typed
/// [`Error::ArchiveIo`] and leave the archive's watermark and retention
/// where they were (creating the archive reports the `io::Error` itself);
/// the scenario stops there, as the wire does; and a
/// reopen on the real file system recovers a transaction-aligned prefix of
/// the log that holds at least everything that was acknowledged.
#[test]
fn every_failing_call_is_a_typed_error_and_leaves_a_recoverable_prefix() {
    let specs: Vec<Vec<(u64, u64, usize)>> = (0..12u64)
        .map(|t| vec![(t % 5, t, 1), (5 + t % 3, t, (t % 4) as usize)])
        .collect();
    let segments = segments_from_entries(&entries_from_specs(&specs), 4);
    assert_eq!(segments.len(), 6);
    let originals = project(&segments);
    let policy = DurabilityPolicy::EverySegment;

    // Runs until the first failure; returns whether there was one and what
    // had been acknowledged and truncated by then.
    let scenario = |fs: Arc<FaultyFs>, dir: &Path| -> (bool, SeqNo, SeqNo) {
        let Ok(archive) = LogArchive::durable_on(fs, dir, policy) else {
            return (true, SeqNo::ZERO, SeqNo::ZERO);
        };
        let state = |a: &LogArchive| (a.last_seq(), a.retained_segments(), a.truncated_through());
        let unchanged = |before, e: Error| {
            assert!(matches!(e, Error::ArchiveIo { .. }), "typed: {e:?}");
            assert_eq!(state(&archive), before, "a failed call moves nothing");
            (true, archive.last_seq(), archive.truncated_through())
        };
        for (i, segment) in segments.iter().enumerate() {
            let before = state(&archive);
            if let Err(e) = archive.try_append(segment) {
                return unchanged(before, e);
            }
            if i == 3 {
                let before = state(&archive);
                match archive.truncate_through(segments[1].covered_through()) {
                    Ok(dropped) => assert_eq!(dropped, 2),
                    Err(e) => return unchanged(before, e),
                }
            }
        }
        (false, archive.last_seq(), archive.truncated_through())
    };

    let probe_dir = scratch_dir("each-call-probe");
    let probe = Arc::new(FaultyFs::new(0, None));
    let clean = scenario(Arc::clone(&probe), &probe_dir);
    assert_eq!(clean, (false, SeqNo(24), SeqNo(8)));
    let calls = probe.calls();
    assert!(calls > 20, "the scenario makes {calls} calls");
    fs::remove_dir_all(&probe_dir).expect("cleanup");

    for fail in 0..calls {
        let dir = scratch_dir("each-call");
        let (failed, acked, truncated) = scenario(Arc::new(FaultyFs::new(fail, Some(fail))), &dir);
        assert!(failed, "call {fail} of {calls} failed something");

        let opened = LogArchive::open(&dir, policy).expect("the real file system reopens it");
        let archive = opened.archive;
        assert!(
            archive.last_seq() >= acked,
            "call {fail}: acknowledged segments survive"
        );
        // The manifest may be ahead of a truncation that failed after
        // writing it, never behind one that succeeded.
        let floor = archive.truncated_through();
        assert!(floor >= truncated, "call {fail}");
        let recovered = project(&archive.replay_from(floor).expect("from the floor"));
        let skipped = originals
            .iter()
            .take_while(|(seq, _)| *seq <= floor)
            .count();
        assert_eq!(
            recovered[..],
            originals[skipped..skipped + recovered.len()],
            "call {fail}: a contiguous run of the original log"
        );
        let through = recovered.last().map_or(floor, |(seq, _)| *seq);
        assert!(boundaries(&segments).contains(&through), "call {fail}");

        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
