//! Durable checkpoints: the on-disk format and the torn-write-safe manifest.
//!
//! A checkpoint is the state half of recovery (the log half is `c5-log`'s
//! disk-backed archive); together they let a replica be reconstructed across
//! a real process restart. The format mirrors what
//! [`crate::checkpoint::Checkpoint`] holds and nothing more:
//!
//! ```text
//! ckpt-<cut>.c5c            CHECKPOINT (manifest)
//! +--------------------+    +---------------------+
//! | magic "C5CKPT1\n"  |    | one frame: the cut  |
//! | header frame: cut, |    | whose data file is  |
//! |   row count        |    | complete on disk    |
//! | row frame          |    +---------------------+
//! | ...                |
//! +--------------------+
//! ```
//!
//! Every frame is checksummed ([`c5_common::frame`]). Publication order makes
//! a torn write harmless: the data file is written and fsynced **first**,
//! then the manifest is written to a scratch name, fsynced, and renamed over
//! `CHECKPOINT`. A crash at any point leaves the manifest either absent or
//! naming a checkpoint whose data file was already complete — never a
//! half-written one. Loading therefore trusts the manifest to pick the file,
//! but still validates every frame of the data file and fails with a clean
//! error (never a panic) if bit rot got to it; the recovery driver can then
//! fall back to an older checkpoint or a cold start.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use c5_common::frame::{read_frames, write_frame, PayloadReader, PayloadWriter};
use c5_common::{RowRef, SeqNo, Timestamp, Value};

use crate::checkpoint::{Checkpoint, CheckpointInstaller, CheckpointWriter};
use crate::mvstore::VersionExport;

/// Magic bytes at the head of a checkpoint data file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"C5CKPT1\n";

/// The manifest naming the current complete checkpoint.
pub const MANIFEST_FILE: &str = "CHECKPOINT";
const MANIFEST_TMP: &str = "CHECKPOINT.tmp";

fn data_file_name(cut: SeqNo) -> String {
    format!("ckpt-{:020}.c5c", cut.as_u64())
}

fn invalid<T>(what: impl Into<String>) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, what.into()))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

fn encode_row(row: &VersionExport) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u32(row.row.table.as_u32())
        .u64(row.row.key.as_u64())
        .u64(row.write_ts.as_u64())
        .u8(row.tombstone as u8);
    match &row.value {
        Some(value) => {
            w.u8(1).bytes(value.as_bytes());
        }
        None => {
            w.u8(0);
        }
    }
    w.finish()
}

fn decode_row(payload: &[u8]) -> Option<VersionExport> {
    let mut r = PayloadReader::new(payload);
    let row = RowRef::new(r.u32()?, r.u64()?);
    let write_ts = Timestamp(r.u64()?);
    let tombstone = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let value = match r.u8()? {
        0 => None,
        1 => Some(Value::from(r.bytes()?)),
        _ => return None,
    };
    if !r.is_exhausted() {
        return None;
    }
    Some(VersionExport {
        row,
        write_ts,
        tombstone,
        value,
    })
}

/// Encodes a checkpoint into its data-file bytes.
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + checkpoint.len() * 48);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    let mut header = PayloadWriter::new();
    header
        .u64(checkpoint.cut().as_u64())
        .u64(checkpoint.len() as u64);
    write_frame(&mut out, &header.finish());
    for row in checkpoint.rows() {
        write_frame(&mut out, &encode_row(row));
    }
    out
}

/// Decodes a checkpoint data file. Unlike log recovery there is no "valid
/// prefix" to salvage — a checkpoint is all-or-nothing (installing half the
/// rows would fabricate a state no cut ever had) — so any damage is an
/// error, but never a panic. A row versioned above the header's cut is
/// damage too: no capture at that cut can hold it, and replaying the log
/// from the cut would re-deliver writes its chain head is already past.
pub fn decode_checkpoint(bytes: &[u8]) -> io::Result<Checkpoint> {
    if bytes.len() < CHECKPOINT_MAGIC.len() || &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC
    {
        return invalid("checkpoint file lacks the C5CKPT1 magic");
    }
    let scan = read_frames(&bytes[CHECKPOINT_MAGIC.len()..]);
    if !scan.is_clean() {
        return invalid(format!(
            "checkpoint file is damaged after {} valid frames: {:?}",
            scan.frames.len(),
            scan.damage
        ));
    }
    let mut frames = scan.frames.into_iter();
    let Some(header) = frames.next() else {
        return invalid("checkpoint file has no header frame");
    };
    let mut h = PayloadReader::new(&header);
    let (Some(cut), Some(count)) = (h.u64(), h.u64()) else {
        return invalid("checkpoint header frame is short");
    };
    let mut rows = Vec::with_capacity(count.min(1 << 20) as usize);
    for payload in frames {
        match decode_row(&payload) {
            Some(row) if row.write_ts.as_u64() > cut => {
                return invalid(format!(
                    "checkpoint row {} is versioned at {} above the cut {cut}",
                    row.row,
                    row.write_ts.as_u64()
                ))
            }
            Some(row) => rows.push(row),
            None => return invalid("checkpoint row frame is malformed"),
        }
    }
    if rows.len() as u64 != count {
        return invalid(format!(
            "checkpoint header promises {count} rows but the file holds {}",
            rows.len()
        ));
    }
    Ok(Checkpoint::from_parts(SeqNo(cut), rows))
}

impl CheckpointWriter {
    /// Persists `checkpoint` under `dir` (created if absent) and publishes it
    /// through the manifest: data file first (written and fsynced), manifest
    /// second (write-temp-then-rename, fsynced) — so a crash anywhere leaves
    /// either the previous checkpoint or this one, never a torn hybrid.
    /// Superseded data files are then deleted best-effort. Returns the data
    /// file's path, or the first I/O error — including a failed sync of the
    /// directory after the rename, without which the publication may not
    /// survive a crash.
    pub fn save(dir: impl AsRef<Path>, checkpoint: &Checkpoint) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;

        let data_name = data_file_name(checkpoint.cut());
        let data_path = dir.join(&data_name);
        let mut data = fs::File::create(&data_path)?;
        data.write_all(&encode_checkpoint(checkpoint))?;
        data.sync_all()?;

        let mut manifest_bytes = Vec::new();
        let mut payload = PayloadWriter::new();
        payload.u64(checkpoint.cut().as_u64());
        write_frame(&mut manifest_bytes, &payload.finish());
        let tmp = dir.join(MANIFEST_TMP);
        let mut manifest = fs::File::create(&tmp)?;
        manifest.write_all(&manifest_bytes)?;
        manifest.sync_all()?;
        fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        sync_dir(dir)?;

        // The manifest no longer references older checkpoints; reclaim them.
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with("ckpt-") && name.ends_with(".c5c") && name != data_name {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(data_path)
    }
}

impl CheckpointInstaller {
    /// Loads the checkpoint the manifest under `dir` names. Returns
    /// `Ok(None)` when no checkpoint has ever been published there, and an
    /// error (never a panic) when the manifest or data file is damaged.
    pub fn load(dir: impl AsRef<Path>) -> io::Result<Option<Checkpoint>> {
        let dir = dir.as_ref();
        let _ = fs::remove_file(dir.join(MANIFEST_TMP));
        let manifest_bytes = match fs::read(dir.join(MANIFEST_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let scan = read_frames(&manifest_bytes);
        let Some(payload) = scan.frames.first() else {
            return invalid("checkpoint manifest is damaged");
        };
        let Some(cut) = PayloadReader::new(payload).u64() else {
            return invalid("checkpoint manifest frame is short");
        };
        let bytes = fs::read(dir.join(data_file_name(SeqNo(cut))))?;
        let checkpoint = decode_checkpoint(&bytes)?;
        if checkpoint.cut().as_u64() != cut {
            return invalid(format!(
                "manifest names cut {cut} but the data file holds cut {}",
                checkpoint.cut()
            ));
        }
        Ok(Some(checkpoint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvstore::MvStore;
    use c5_common::WriteKind;
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
        CheckpointWriter::save(&dir, &checkpoint).expect("save");
        let loaded = CheckpointInstaller::load(&dir)
            .expect("load")
            .expect("published");
        assert_eq!(loaded.cut(), checkpoint.cut());
        assert_eq!(loaded.rows(), checkpoint.rows());

        // Installing the loaded checkpoint resumes ordered apply, exactly
        // like the in-memory one: the tombstone's timestamp is at the head
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
        let old = sample_checkpoint();
        CheckpointWriter::save(&dir, &old).expect("save old");

        let store = Arc::new(MvStore::default());
        store.install(
            RowRef::new(0, 9),
            Timestamp(5),
            WriteKind::Insert,
            Some(Value::from_u64(5)),
        );
        let new = CheckpointWriter::capture(&store, SeqNo(5));
        CheckpointWriter::save(&dir, &new).expect("save new");

        let loaded = CheckpointInstaller::load(&dir)
            .expect("load")
            .expect("published");
        assert_eq!(loaded.cut(), SeqNo(5));
        // The superseded data file was reclaimed.
        let data_files = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("ckpt-"))
            })
            .count();
        assert_eq!(data_files, 1);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn syncing_a_directory_that_is_gone_is_an_error() {
        let dir = scratch_dir("gone");
        fs::create_dir_all(&dir).unwrap();
        sync_dir(&dir).expect("an existing directory syncs");
        fs::remove_dir_all(&dir).unwrap();
        assert!(sync_dir(&dir).is_err());
    }

    #[test]
    fn missing_manifest_means_no_checkpoint() {
        let dir = scratch_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(CheckpointInstaller::load(&dir).expect("load").is_none());
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_leftover_manifest_scratch_file_is_ignored() {
        // A crash between writing CHECKPOINT.tmp and the rename leaves the
        // scratch file behind; the previous checkpoint must still load.
        let dir = scratch_dir("scratch");
        let checkpoint = sample_checkpoint();
        CheckpointWriter::save(&dir, &checkpoint).expect("save");
        fs::write(dir.join(MANIFEST_TMP), b"torn garbage").unwrap();
        let loaded = CheckpointInstaller::load(&dir)
            .expect("load")
            .expect("published");
        assert_eq!(loaded.cut(), checkpoint.cut());
        assert!(!dir.join(MANIFEST_TMP).exists(), "scratch file cleaned up");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_row_above_the_cut_fails_the_load() {
        // Every frame checksums, but the row's version lies above the cut.
        let dir = scratch_dir("above-cut");
        let row = VersionExport {
            row: RowRef::new(0, 1),
            write_ts: Timestamp(5),
            tombstone: false,
            value: Some(Value::from_u64(5)),
        };
        CheckpointWriter::save(&dir, &Checkpoint::from_parts(SeqNo(2), vec![row])).expect("save");
        let err = CheckpointInstaller::load(&dir).expect_err("a row above the cut");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn damage_is_an_error_never_a_panic() {
        let dir = scratch_dir("damage");
        let checkpoint = sample_checkpoint();
        let data_path = CheckpointWriter::save(&dir, &checkpoint).expect("save");

        // Truncated data file.
        let clean = fs::read(&data_path).unwrap();
        fs::write(&data_path, &clean[..clean.len() - 5]).unwrap();
        let err = CheckpointInstaller::load(&dir).expect_err("torn data file");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Every single-byte corruption either errors cleanly or (for bytes
        // the checksums do not cover, like the length prefix's padding) still
        // decodes to a consistent checkpoint; it must never panic.
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            let _ = decode_checkpoint(&bytes);
        }

        // A damaged manifest errors too.
        fs::write(&data_path, &clean).unwrap();
        fs::write(dir.join(MANIFEST_FILE), b"xx").unwrap();
        let err = CheckpointInstaller::load(&dir).expect_err("torn manifest");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
