//! Durable checkpoints: the on-disk format and its publication.
//!
//! A checkpoint is the state half of recovery (the log half is `c5-log`'s
//! disk-backed archive, which shares the directory); together they let a
//! replica be reconstructed across a real process restart. The format
//! mirrors what [`crate::checkpoint::Checkpoint`] holds and nothing more:
//!
//! ```text
//! ckpt-<cut>.c5c
//! +-----------------------------------+
//! | magic "C5CKPT2\n"                 |
//! | [len: u32][crc: u32]              |  one frame ([`c5_common::frame`])
//! | cut: u64                          |
//! | table u32 | key u64 | write_ts u64 |
//! |   | deleted u8 | has_value u8     |
//! |   | [value: u32 length, bytes]    |  one per row
//! | ...                               |
//! +-----------------------------------+
//! ```
//!
//! The frame's one CRC covers the cut and every row (so a checkpoint's
//! encoding is under 4 GiB), and every byte goes through the [`Fs`] seam. The file is published with
//! [`c5_common::fs::publish`] — written to a scratch name, synced, renamed
//! over `ckpt-<cut>.c5c` — so a crash at any point leaves every
//! `ckpt-*.c5c` complete, a re-save at the same cut included. Loading picks
//! the highest cut: one directory checkpoints one log, whose cuts only grow.
//! It still validates the frame and fails with a clean error (never a
//! panic) if bit rot got to the file, so crash recovery reports it instead
//! of resuming on a corrupt state. There is no reader for the older
//! `C5CKPT1` files, whose header and rows were each a frame of their own:
//! loading one is an [`io::ErrorKind::InvalidData`] error.

use std::io;
use std::path::{Path, PathBuf};

use c5_common::frame::{read_frame, write_frame, PayloadReader, PayloadWriter, HEADER_BYTES};
use c5_common::fs::{publish, Fs};
use c5_common::{RowRef, SeqNo, Timestamp, Value};

use crate::checkpoint::{Checkpoint, CheckpointInstaller, CheckpointWriter};
use crate::mvstore::VersionExport;

/// Magic bytes at the head of a checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 8] = b"C5CKPT2\n";

fn checkpoint_file_name(cut: SeqNo) -> String {
    format!("ckpt-{:020}.c5c", cut.as_u64())
}

/// The cut a checkpoint file's name promises, if it is a checkpoint file.
fn checkpoint_cut(name: &str) -> Option<SeqNo> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".c5c")?;
    digits.parse().ok().map(SeqNo)
}

fn invalid<T>(what: impl Into<String>) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, what.into()))
}

fn encode_row(w: &mut PayloadWriter, row: &VersionExport) {
    w.u32(row.row.table.as_u32())
        .u64(row.row.key.as_u64())
        .u64(row.write_ts.as_u64())
        .u8(u8::from(row.value.is_none()));
    match &row.value {
        Some(value) => {
            w.u8(1).bytes(value.as_bytes());
        }
        None => {
            w.u8(0);
        }
    }
}

/// Decodes the row at `r`. Its delete byte is redundant with its value flag
/// (a delete is a version without a value), and a row where they disagree is
/// an error like any other malformed row.
fn decode_row(r: &mut PayloadReader<'_>) -> io::Result<VersionExport> {
    let malformed = || invalid("checkpoint row is malformed");
    let (Some(table), Some(key), Some(write_ts), Some(deleted), Some(has_value)) =
        (r.u32(), r.u64(), r.u64(), r.u8(), r.u8())
    else {
        return malformed();
    };
    let value = match has_value {
        0 => None,
        1 => match r.bytes() {
            Some(bytes) => Some(Value::from(bytes)),
            None => return malformed(),
        },
        _ => return malformed(),
    };
    let row = RowRef::new(table, key);
    if deleted != u8::from(value.is_none()) {
        return invalid(format!(
            "checkpoint row {row} has delete flag {deleted} and value flag {has_value}"
        ));
    }
    Ok(VersionExport {
        row,
        write_ts: Timestamp(write_ts),
        value,
    })
}

/// Encodes a checkpoint into its file's bytes.
fn encode_checkpoint(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut payload = PayloadWriter::with_capacity(8 + checkpoint.len() * 40);
    payload.u64(checkpoint.cut().as_u64());
    for row in checkpoint.rows() {
        encode_row(&mut payload, row);
    }
    let payload = payload.finish();
    let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + HEADER_BYTES + payload.len());
    out.extend_from_slice(CHECKPOINT_MAGIC);
    write_frame(&mut out, &payload);
    out
}

/// Decodes a checkpoint file. Unlike log recovery there is no "valid
/// prefix" to keep — a checkpoint is all-or-nothing (installing half the
/// rows would fabricate a state no cut ever had) — so any damage is an
/// error, but never a panic. A row versioned above the cut is damage too:
/// no capture at that cut can hold it, and replaying the log from the cut
/// would re-deliver writes its chain head is already past.
fn decode_checkpoint(bytes: &[u8]) -> io::Result<Checkpoint> {
    let Some(body) = bytes.strip_prefix(CHECKPOINT_MAGIC) else {
        return invalid("checkpoint file lacks the C5CKPT2 magic (C5CKPT1 is not readable)");
    };
    let Some(payload) = read_frame(body).filter(|p| HEADER_BYTES + p.len() == body.len()) else {
        return invalid("checkpoint file is torn or damaged: its frame does not check out");
    };
    let mut r = PayloadReader::new(payload);
    let Some(cut) = r.u64() else {
        return invalid("checkpoint frame is too short to hold its cut");
    };
    let mut rows = Vec::new();
    while !r.is_exhausted() {
        let row = decode_row(&mut r)?;
        if row.write_ts.as_u64() > cut {
            return invalid(format!(
                "checkpoint row {} is versioned at {} above the cut {cut}",
                row.row,
                row.write_ts.as_u64()
            ));
        }
        rows.push(row);
    }
    Ok(Checkpoint::from_parts(SeqNo(cut), rows))
}

impl CheckpointWriter {
    /// Persists `checkpoint` under `dir` (created if absent) as
    /// `ckpt-<cut>.c5c`, published in one step ([`c5_common::fs::publish`]),
    /// so a crash anywhere leaves either the previous checkpoint or this
    /// one, never a torn file. The checkpoint files it supersedes are then
    /// deleted. Returns the file's path, or the first I/O error; after an
    /// error the save can simply be retried.
    pub fn save(
        fs: &dyn Fs,
        dir: impl AsRef<Path>,
        checkpoint: &Checkpoint,
    ) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs.create_dir_all(dir)?;
        let name = checkpoint_file_name(checkpoint.cut());
        publish(fs, dir, &name, &encode_checkpoint(checkpoint))?;
        for old in fs.list(dir)? {
            if old != name && checkpoint_cut(&old).is_some() {
                fs.remove(&dir.join(old))?;
            }
        }
        Ok(dir.join(name))
    }
}

impl CheckpointInstaller {
    /// Loads the highest-cut checkpoint under `dir`, first removing the
    /// scratch files of publications a crash cut short. Returns `Ok(None)`
    /// when there is none (or no `dir`), and an error (never a panic) when
    /// the file is damaged or its header's cut is not the one its name
    /// promises.
    pub fn load(fs: &dyn Fs, dir: impl AsRef<Path>) -> io::Result<Option<Checkpoint>> {
        let dir = dir.as_ref();
        let names = match fs.list(dir) {
            Ok(names) => names,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut newest = None;
        for name in names {
            if name.starts_with("ckpt-") && name.ends_with(".tmp") {
                fs.remove(&dir.join(name))?;
            } else {
                newest = newest.max(checkpoint_cut(&name));
            }
        }
        let Some(cut) = newest else {
            return Ok(None);
        };
        let name = checkpoint_file_name(cut);
        let checkpoint = decode_checkpoint(&fs.read(&dir.join(&name))?)?;
        if checkpoint.cut() != cut {
            return invalid(format!("{name} holds cut {}", checkpoint.cut()));
        }
        Ok(Some(checkpoint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvstore::MvStore;
    use c5_common::fs::{FaultyFs, StdFs};
    use c5_common::WriteKind;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "c5-ckpt-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The names under `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names = StdFs.list(dir).unwrap();
        names.sort();
        names
    }

    fn sample_checkpoint() -> Checkpoint {
        let store = Arc::new(MvStore::default());
        store.install(
            RowRef::new(0, 1),
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(Value::from_u64(10)),
        );
        store.install(
            RowRef::new(0, 1),
            Timestamp(1),
            WriteKind::Update,
            Some(Value::from_u64(11)),
        );
        store.install(RowRef::new(1, 2), Timestamp(2), WriteKind::Delete, None);
        store.install(
            RowRef::new(2, 3),
            Timestamp(3),
            WriteKind::Insert,
            Some(Value::from(vec![1u8, 2, 3])),
        );
        CheckpointWriter::capture(&store, SeqNo(3))
    }

    /// A one-row checkpoint at cut 5.
    fn later_checkpoint() -> Checkpoint {
        let store = Arc::new(MvStore::default());
        store.install(
            RowRef::new(0, 9),
            Timestamp(5),
            WriteKind::Insert,
            Some(Value::from_u64(5)),
        );
        CheckpointWriter::capture(&store, SeqNo(5))
    }

    fn same(a: &Checkpoint, b: &Checkpoint) -> bool {
        a.cut() == b.cut() && a.rows() == b.rows()
    }

    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let checkpoint = sample_checkpoint();
        let decoded = decode_checkpoint(&encode_checkpoint(&checkpoint)).expect("clean decode");
        assert_eq!(decoded.cut(), checkpoint.cut());
        assert_eq!(decoded.rows(), checkpoint.rows());
    }

    #[test]
    fn save_then_load_reproduces_the_checkpoint_exactly() {
        let dir = scratch_dir("roundtrip");
        let checkpoint = sample_checkpoint();
        CheckpointWriter::save(&StdFs, &dir, &checkpoint).expect("save");
        let loaded = CheckpointInstaller::load(&StdFs, &dir)
            .expect("load")
            .expect("published");
        assert_eq!(loaded.cut(), checkpoint.cut());
        assert_eq!(loaded.rows(), checkpoint.rows());

        // Installing the loaded checkpoint resumes ordered apply, exactly
        // like the in-memory one: the delete's timestamp is at the head
        // of row t1/k2's chain.
        let store = CheckpointInstaller::install(&loaded);
        assert!(store.install_if_prev(
            RowRef::new(1, 2),
            Timestamp(2),
            Timestamp(9),
            WriteKind::Insert,
            Some(Value::from_u64(9)),
        ));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_new_save_supersedes_the_old_one_atomically() {
        let dir = scratch_dir("supersede");
        CheckpointWriter::save(&StdFs, &dir, &sample_checkpoint()).expect("save old");
        CheckpointWriter::save(&StdFs, &dir, &later_checkpoint()).expect("save new");

        let loaded = CheckpointInstaller::load(&StdFs, &dir)
            .expect("load")
            .expect("published");
        assert_eq!(loaded.cut(), SeqNo(5));
        // The superseded file was reclaimed, and no scratch file is left.
        assert_eq!(names(&dir), [checkpoint_file_name(SeqNo(5))]);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Publication under the fault double: save at cut 3, at cut 5, and at
    /// cut 5 again, failing each call of that scenario in turn. Exactly one
    /// save fails, and its retry completes. Until the retry, `load` returns
    /// a whole published checkpoint — the previous one, or this one if the
    /// failing call came after its rename — and never an error; a re-save
    /// at an unchanged cut is no exception.
    #[test]
    fn any_one_failed_call_fails_one_save_and_its_retry_completes() {
        let (first, second) = (sample_checkpoint(), later_checkpoint());
        let saves = [&first, &second, &second];
        let run = |faulty: &FaultyFs, dir: &Path| -> usize {
            let mut failures = 0;
            let mut published: Option<&Checkpoint> = None;
            for &checkpoint in &saves {
                if CheckpointWriter::save(faulty, dir, checkpoint).is_err() {
                    failures += 1;
                    match CheckpointInstaller::load(&StdFs, dir).expect("never an error") {
                        None => assert!(published.is_none()),
                        Some(loaded) => assert!(
                            same(&loaded, checkpoint)
                                || published.is_some_and(|p| same(&loaded, p))
                        ),
                    }
                    CheckpointWriter::save(faulty, dir, checkpoint).expect("the retry");
                }
                assert_eq!(names(dir), [checkpoint_file_name(checkpoint.cut())]);
                published = Some(checkpoint);
            }
            failures
        };

        let probe_dir = scratch_dir("each-call-probe");
        let probe = FaultyFs::new(0, None);
        assert_eq!(run(&probe, &probe_dir), 0);
        let calls = probe.calls();
        fs::remove_dir_all(&probe_dir).expect("cleanup");

        for fail in 0..calls {
            let dir = scratch_dir("each-call");
            let failures = run(&FaultyFs::new(fail, Some(fail)), &dir);
            assert_eq!(failures, 1, "call {fail} failed exactly one save");
            let loaded = CheckpointInstaller::load(&StdFs, &dir)
                .expect("load")
                .expect("published");
            assert!(same(&loaded, &second), "call {fail}");
            fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn no_checkpoint_file_means_no_checkpoint() {
        let dir = scratch_dir("missing");
        assert!(CheckpointInstaller::load(&StdFs, &dir)
            .expect("a missing directory")
            .is_none());
        fs::create_dir_all(&dir).unwrap();
        assert!(CheckpointInstaller::load(&StdFs, &dir)
            .expect("an empty directory")
            .is_none());
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_leftover_checkpoint_scratch_file_is_ignored() {
        // A crash before a publication's rename leaves its scratch file
        // behind; the previous checkpoint must still load.
        let dir = scratch_dir("scratch");
        let checkpoint = sample_checkpoint();
        CheckpointWriter::save(&StdFs, &dir, &checkpoint).expect("save");
        let scratch = dir.join(format!("{}.tmp", checkpoint_file_name(SeqNo(5))));
        fs::write(&scratch, b"torn garbage").unwrap();
        let loaded = CheckpointInstaller::load(&StdFs, &dir)
            .expect("load")
            .expect("published");
        assert_eq!(loaded.cut(), checkpoint.cut());
        assert!(!scratch.exists(), "scratch file cleaned up");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_row_above_the_cut_fails_the_load() {
        // Every frame checksums, but the row's version lies above the cut.
        let dir = scratch_dir("above-cut");
        let row = VersionExport {
            row: RowRef::new(0, 1),
            write_ts: Timestamp(5),
            value: Some(Value::from_u64(5)),
        };
        let checkpoint = Checkpoint::from_parts(SeqNo(2), vec![row]);
        CheckpointWriter::save(&StdFs, &dir, &checkpoint).expect("save");
        let err = CheckpointInstaller::load(&StdFs, &dir).expect_err("a row above the cut");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_delete_flag_that_disagrees_with_the_value_is_an_error() {
        // A delete carrying a value, and a write without one: every frame
        // checksums, but the row contradicts itself.
        for (deleted, value) in [(1u8, Some(Value::from_u64(5))), (0, None)] {
            let mut bytes = CHECKPOINT_MAGIC.to_vec();
            let mut payload = PayloadWriter::new();
            payload.u64(2).u32(0).u64(1).u64(1).u8(deleted);
            match &value {
                Some(value) => payload.u8(1).bytes(value.as_bytes()),
                None => payload.u8(0),
            };
            write_frame(&mut bytes, &payload.finish());
            let err = decode_checkpoint(&bytes).expect_err("flag and value disagree");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("delete flag"), "{err}");
        }
    }

    /// A checkpoint in the older format — magic `C5CKPT1`, then a header
    /// frame and one frame per row — is refused, never read.
    #[test]
    fn an_old_checkpoint_is_refused_not_read() {
        let dir = scratch_dir("old-format");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = b"C5CKPT1\n".to_vec();
        let mut header = PayloadWriter::new();
        header.u64(3).u64(0);
        write_frame(&mut bytes, &header.finish());
        fs::write(dir.join(checkpoint_file_name(SeqNo(3))), &bytes).unwrap();
        let err = CheckpointInstaller::load(&StdFs, &dir).expect_err("an old checkpoint");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("C5CKPT1"), "{err}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn damage_is_an_error_never_a_panic() {
        let dir = scratch_dir("damage");
        let checkpoint = sample_checkpoint();
        let data_path = CheckpointWriter::save(&StdFs, &dir, &checkpoint).expect("save");

        // Truncated file.
        let clean = fs::read(&data_path).unwrap();
        fs::write(&data_path, &clean[..clean.len() - 5]).unwrap();
        let err = CheckpointInstaller::load(&StdFs, &dir).expect_err("torn file");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Every single-byte corruption is an error, never a panic: the
        // magic and the frame's length are checked, and the one CRC covers
        // everything else.
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            let err = decode_checkpoint(&bytes).expect_err("a flipped byte");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {i}");
        }

        // An intact file under a name that promises another cut.
        fs::remove_file(&data_path).unwrap();
        fs::write(dir.join(checkpoint_file_name(SeqNo(7))), &clean).unwrap();
        let err = CheckpointInstaller::load(&StdFs, &dir).expect_err("name and header disagree");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
