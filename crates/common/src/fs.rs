//! The file-system seam under every durable layer.
//!
//! Every syscall the log archive, the checkpoint files and crash recovery
//! make goes through [`Fs`] (directory and whole-file operations) and
//! [`FsFile`] (an open file: positioned write and `sync_data`), so that each
//! of them can be made to fail; [`publish`] is the one way a file is
//! replaced atomically. [`StdFs`] is the real thing, a thin pass-through to
//! `std::fs`. [`FaultyFs`] wraps it and fails exactly one call, chosen by
//! index, the way that kind of call fails on a real machine — a short write
//! or `ENOSPC`, `EIO` from a sync, a rename that does not happen — which is
//! what lets a test walk a scenario failing *each call in turn* instead of
//! damaging files afterwards. An open append-only file survives the deletion
//! of its directory, so pulling the directory away injects nothing; this
//! seam is the only way in.

use std::fmt;
use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Directory and whole-file operations of a durable layer.
pub trait Fs: fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// The names of the entries directly inside `dir`, in no particular order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// The whole contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates `path` empty (truncating an existing file), open for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>>;
    /// Opens the existing file `path` for writing, contents kept.
    fn open(&self, path: &Path) -> io::Result<Box<dyn FsFile>>;
    /// Atomically renames `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Makes `dir`'s entries — creations, renames, unlinks — durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// Publishes `bytes` as `dir/name` in one step: they are written to
/// `<name>.tmp`, synced, renamed over `name`, and the directory is synced.
/// A crash at any point leaves `name` either as it was or holding all of
/// `bytes`, never torn; the scratch file it may leave is truncated by the
/// next publication under the same name. Fails with the first error,
/// including that of the directory sync, without which the rename may not
/// survive a crash.
pub fn publish(fs: &dyn Fs, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = fs.create(&tmp)?;
    file.write_all_at(bytes, 0)?;
    file.sync_data()?;
    drop(file);
    fs.rename(&tmp, &dir.join(name))?;
    fs.sync_dir(dir)
}

/// An open file of an [`Fs`].
pub trait FsFile: fmt::Debug + Send {
    /// Writes all of `bytes` at `offset`, extending the file if it ends
    /// before `offset + bytes.len()`.
    fn write_all_at(&mut self, bytes: &[u8], offset: u64) -> io::Result<()>;
    /// Forces the file's data (and the metadata needed to read it back) to
    /// the device.
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The real file system.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl Fs for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            // A name that is not UTF-8 is not one of ours.
            if let Ok(name) = entry?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(Box::new(fs::File::create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(Box::new(fs::OpenOptions::new().write(true).open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }
}

impl FsFile for fs::File {
    fn write_all_at(&mut self, bytes: &[u8], offset: u64) -> io::Result<()> {
        FileExt::write_all_at(self, bytes, offset)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        fs::File::sync_data(self)
    }
}

const EIO: i32 = 5;
const ENOSPC: i32 = 28;

/// The call counter a [`FaultyFs`] shares with the files it opened.
#[derive(Debug)]
struct Faults {
    seed: u64,
    fail_call: Option<u64>,
    calls: AtomicU64,
}

impl Faults {
    /// Counts one call; `Some(index)` when it is the one that must fail.
    fn enter(&self) -> Option<u64> {
        let index = self.calls.fetch_add(1, Ordering::Relaxed);
        (self.fail_call == Some(index)).then_some(index)
    }

    /// Counts one call and fails it with `errno` if it is the chosen one.
    fn enter_or(&self, errno: i32) -> io::Result<()> {
        match self.enter() {
            Some(_) => Err(io::Error::from_raw_os_error(errno)),
            None => Ok(()),
        }
    }

    /// A value derived from the seed and the failing call's index
    /// (splitmix64), so a given `(seed, call)` always fails the same way.
    fn draw(&self, index: u64) -> u64 {
        let mut z = (self.seed ^ index).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// [`StdFs`] with one injected failure: the call with index `fail_call`
/// (counting every [`Fs`] and [`FsFile`] call from zero) fails, every other
/// call goes through. A write fails either with `ENOSPC` and nothing
/// written or, the seed deciding, as a short write that leaves a prefix of
/// the bytes in the file; a sync fails with `EIO`; a create with `ENOSPC`;
/// a rename does not happen; anything else fails with `EIO`.
#[derive(Debug)]
pub struct FaultyFs {
    faults: Arc<Faults>,
}

impl FaultyFs {
    /// A file system whose `fail_call`-th call fails; `None` fails nothing
    /// and only counts, which is how a test learns how many calls a
    /// scenario makes.
    pub fn new(seed: u64, fail_call: Option<u64>) -> Self {
        Self {
            faults: Arc::new(Faults {
                seed,
                fail_call,
                calls: AtomicU64::new(0),
            }),
        }
    }

    /// Calls made so far, through this handle and the files it opened.
    pub fn calls(&self) -> u64 {
        self.faults.calls.load(Ordering::Relaxed)
    }

    fn file(&self, file: Box<dyn FsFile>) -> Box<dyn FsFile> {
        Box::new(FaultyFile {
            file,
            faults: Arc::clone(&self.faults),
        })
    }
}

impl Fs for FaultyFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.faults.enter_or(EIO)?;
        StdFs.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.faults.enter_or(EIO)?;
        StdFs.list(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.faults.enter_or(EIO)?;
        StdFs.read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        self.faults.enter_or(ENOSPC)?;
        Ok(self.file(StdFs.create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        self.faults.enter_or(EIO)?;
        Ok(self.file(StdFs.open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.faults.enter().is_some() {
            return Err(io::Error::other(
                "injected fault: the rename did not happen",
            ));
        }
        StdFs.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.faults.enter_or(EIO)?;
        StdFs.remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.faults.enter_or(EIO)?;
        StdFs.sync_dir(dir)
    }
}

#[derive(Debug)]
struct FaultyFile {
    file: Box<dyn FsFile>,
    faults: Arc<Faults>,
}

impl FsFile for FaultyFile {
    fn write_all_at(&mut self, bytes: &[u8], offset: u64) -> io::Result<()> {
        let Some(index) = self.faults.enter() else {
            return self.file.write_all_at(bytes, offset);
        };
        let draw = self.faults.draw(index);
        if draw & 1 == 0 || bytes.is_empty() {
            return Err(io::Error::from_raw_os_error(ENOSPC));
        }
        let kept = (draw >> 1) as usize % bytes.len();
        self.file.write_all_at(&bytes[..kept], offset)?;
        Err(io::Error::new(
            io::ErrorKind::WriteZero,
            format!(
                "injected fault: short write, {kept} of {} bytes",
                bytes.len()
            ),
        ))
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.faults.enter_or(EIO)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("c5-fs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn positioned_writes_extend_and_overwrite() {
        let dir = scratch("std");
        let path = dir.join("f");
        let mut file = StdFs.create(&path).unwrap();
        file.write_all_at(b"abcdef", 0).unwrap();
        file.write_all_at(b"XY", 2).unwrap();
        file.write_all_at(b"!", 8).unwrap();
        file.sync_data().unwrap();
        assert_eq!(StdFs.read(&path).unwrap(), b"abXYef\0\0!");
        // Reopening keeps the contents; creating again does not.
        StdFs.open(&path).unwrap().write_all_at(b"z", 0).unwrap();
        assert_eq!(StdFs.read(&path).unwrap()[..2], *b"zb");
        drop(StdFs.create(&path).unwrap());
        assert!(StdFs.read(&path).unwrap().is_empty());
        assert_eq!(StdFs.list(&dir).unwrap(), vec!["f".to_string()]);
        StdFs.sync_dir(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn syncing_a_directory_that_is_gone_is_an_error() {
        let dir = scratch("gone");
        StdFs.sync_dir(&dir).expect("an existing directory syncs");
        fs::remove_dir_all(&dir).unwrap();
        assert!(StdFs.sync_dir(&dir).is_err());
    }

    /// Create, write, sync, rename under every failing index: the run stops
    /// at exactly the chosen call, which fails the way its kind fails.
    #[test]
    fn exactly_the_chosen_call_fails_in_its_own_way() {
        let dir = scratch("faulty");
        let run = |fs: &FaultyFs, path: &Path, moved: &Path| -> io::Result<()> {
            let mut file = fs.create(path)?;
            file.write_all_at(&[9u8; 64], 0)?;
            file.sync_data()?;
            fs.rename(path, moved)
        };
        let (path, moved) = (dir.join("f"), dir.join("g"));
        let clean = FaultyFs::new(7, None);
        run(&clean, &path, &moved).expect("nothing is told to fail");
        assert_eq!(clean.calls(), 4);

        for fail in 0..4u64 {
            let _ = fs::remove_file(&moved);
            let fs = FaultyFs::new(7 + fail, Some(fail));
            let e = run(&fs, &path, &moved).expect_err("one call fails");
            assert_eq!(fs.calls(), fail + 1, "the run stopped at the failing call");
            match fail {
                0 => assert_eq!(e.raw_os_error(), Some(ENOSPC)),
                1 => {
                    // ENOSPC with nothing written, or a short write that
                    // left a strict prefix behind.
                    let on_disk = StdFs.read(&path).unwrap();
                    assert!(on_disk.len() < 64);
                    assert!(
                        e.raw_os_error() == Some(ENOSPC) && on_disk.is_empty()
                            || e.kind() == io::ErrorKind::WriteZero
                    );
                }
                2 => assert_eq!(e.raw_os_error(), Some(EIO)),
                _ => assert!(
                    path.exists() && !moved.exists(),
                    "the rename did not happen"
                ),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
