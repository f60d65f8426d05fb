//! Durability: kill -9 a real process mid-workload, recover from disk.
//!
//! The failover experiment promotes a backup that never died; this one
//! exercises the path the paper assumes away — the process holding the
//! replica state is gone and a new one must rebuild it from what reached
//! disk. The experiment spawns a **child process** (this same binary with
//! the hidden `durability-child` sub-command) that runs a 2PL primary on the
//! adversarial workload with its shipped log teed into a durable
//! [`LogArchive`] (fsync per segment) and a population checkpoint published
//! in the same state directory. Once the archive's log holds enough
//! frames the parent SIGKILLs the child — no flush, no shutdown hook — and
//! then:
//!
//! 1. recovers a replica from the persisted checkpoint plus the archived
//!    tail ([`c5_core::recover_replica`]), tolerating a torn tail frame;
//! 2. MPC-verifies the recovered state against a serial replay of the
//!    retained log (the child never truncates, so the archive itself is the
//!    ground truth);
//! 3. corrupts one byte inside the log's last frame and recovers **again**,
//!    asserting the damaged frame is dropped whole, so the log ends at the
//!    segment boundary before it (a transaction boundary) — never a panic,
//!    and never a state that diverges from a prefix of the log.
//!
//! Built-in assertions (also exercised by the CI smoke step): the child
//! committed real transactions before dying, recovery replays them, the
//! recovered view passes the MPC check, and the post-corruption recovery
//! exposes a shorter-or-equal prefix that still passes the MPC check.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_common::fs::StdFs;
use c5_common::{DurabilityPolicy, PrimaryConfig, ReplicaConfig, RowRef, SeqNo, Value};
use c5_core::replica::{C5Mode, ClonedConcurrencyControl};
use c5_core::{recover_replica, MpcChecker, RecoveredReplica};
use c5_log::archive::{chunk_paths, scan_chunk};
use c5_log::{LogArchive, LogShipper, StreamingLogger};
use c5_primary::{ClosedLoopDriver, RunLength, TplEngine, TxnFactory};
use c5_storage::{CheckpointInstaller, CheckpointWriter, MvStore};
use c5_workloads::synthetic::{adversarial_population, AdversarialWorkload};

use crate::harness::{preload, print_table};
use crate::scale::Scale;

/// Records per shipped segment in the child. Deliberately small so the child
/// appends (and syncs) frames quickly and the parent finds several on disk
/// within a fraction of a second.
const SEGMENT_RECORDS: usize = 64;

/// Runs the crash-recovery experiment and prints one row per recovery pass.
pub fn run(scale: &Scale) {
    let state_dir = std::env::temp_dir().join(format!("c5-durability-{}", std::process::id()));
    let _ = fs::remove_dir_all(&state_dir);
    fs::create_dir_all(&state_dir).expect("create the scratch state directory");

    // How many archived frames to wait for before pulling the plug. Scaled
    // by duration so --full kills deeper into the workload.
    let want_segments = if scale.duration >= Duration::from_secs(5) {
        16
    } else {
        4
    };

    // 1. Spawn the child and SIGKILL it mid-workload.
    let exe = std::env::current_exe().expect("locate the experiments binary");
    let mut child = Command::new(exe)
        .arg("durability-child")
        .arg(&state_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn the durability child");
    wait_for_segments(&state_dir, want_segments, &mut child);
    child.kill().expect("SIGKILL the child");
    child.wait().expect("reap the child");

    // 2. Recover from what reached disk.
    let started = Instant::now();
    let recovered = recover_first_pass(&state_dir);
    let recovery_wall = started.elapsed();
    assert!(
        recovered.replayed_records > 0,
        "the child must have shipped committed work before it was killed"
    );

    // 3. MPC-verify: the recovered view must equal the serial replay of the
    // retained log at the cut it exposes. The child checkpoints the initial
    // population at cut zero and never truncates, so checkpoint + archive
    // reconstruct the full ground truth.
    let initial = load_population(&state_dir);
    let retained = recovered
        .archive
        .replay_from(SeqNo::ZERO)
        .expect("the child never truncates its archive");
    let mut checker = MpcChecker::new(&initial, &retained);
    checker
        .verify_view(recovered.replica.read_view().as_ref())
        .expect("the recovered state must equal the serial replay of the retained log");

    // 4. Corrupt one byte inside the last frame and recover again: the
    // damaged frame must be dropped whole, ending the log at the segment
    // boundary before it, not panic.
    flip_one_byte_in_the_last_frame(&state_dir);
    let restarted = Instant::now();
    let rerecovered = recover_first_pass(&state_dir);
    let rerecovery_wall = restarted.elapsed();
    assert!(
        rerecovered.recovered_through <= recovered.recovered_through,
        "a corrupted tail can only shorten the recovered prefix"
    );
    // The shortened state is still a valid prefix of the ORIGINAL log.
    let mut prefix_checker = MpcChecker::new(&initial, &retained);
    prefix_checker
        .verify_view(rerecovered.replica.read_view().as_ref())
        .expect("the post-corruption state must still be a prefix of the log");

    // The archive's own share of a recovery, on the log as it now is.
    let archive_files = chunk_paths(&state_dir).map_or(0, |chunks| chunks.len());
    let reopening = Instant::now();
    let reopened =
        LogArchive::open(&state_dir, DurabilityPolicy::EverySegment).expect("reopen the archive");
    println!(
        "durability: LogArchive::open read {} segments ({} records) back from {} chunk files in {:.2} ms",
        reopened.recovered_segments,
        reopened.recovered_records,
        archive_files,
        reopening.elapsed().as_secs_f64() * 1e3,
    );
    assert!(
        archive_files <= 3,
        "an append-only archive is a chunk or two, not {archive_files} chunk files"
    );

    println!(
        "durability: child killed with at least {} frames on disk; recovery replayed {} records \
         through {} in {:.1} ms (torn tail: {}); after corrupting one tail byte, re-recovery \
         exposed {} in {:.1} ms — both passed the MPC check",
        want_segments,
        recovered.replayed_records,
        recovered.recovered_through,
        recovery_wall.as_secs_f64() * 1e3,
        recovered.torn_tail,
        rerecovered.recovered_through,
        rerecovery_wall.as_secs_f64() * 1e3,
    );

    print_table(
        "Durability (measured on this host): child process SIGKILLed mid-workload, \
         replica recovered from persisted checkpoint + archived log tail",
        &[
            "pass",
            "checkpoint cut",
            "replayed records",
            "recovered through",
            "torn tail",
            "recovery ms",
            "mpc",
        ],
        &[
            vec![
                "after kill -9".into(),
                recovered.checkpoint_cut.to_string(),
                recovered.replayed_records.to_string(),
                recovered.recovered_through.to_string(),
                recovered.torn_tail.to_string(),
                format!("{:.1}", recovery_wall.as_secs_f64() * 1e3),
                "ok".into(),
            ],
            vec![
                "after 1-byte corruption".into(),
                rerecovered.checkpoint_cut.to_string(),
                rerecovered.replayed_records.to_string(),
                rerecovered.recovered_through.to_string(),
                rerecovered.torn_tail.to_string(),
                format!("{:.1}", rerecovery_wall.as_secs_f64() * 1e3),
                "ok".into(),
            ],
        ],
    );

    fs::remove_dir_all(&state_dir).expect("remove the scratch state directory");
}

/// The child half: a 2PL primary committing the adversarial workload forever,
/// its shipped segments teed into a durable archive under `state_dir`, until
/// the parent kills it. Never returns normally.
pub fn run_child(state_dir: &Path) -> ! {
    let population = adversarial_population();
    let store = Arc::new(MvStore::default());
    preload(&store, &population);

    // Publish the population as a cut-zero checkpoint, then tee every shipped
    // segment into the durable archive (sync per segment). The parent polls
    // for the frames this produces.
    let checkpoint = CheckpointWriter::capture(&store, SeqNo::ZERO);
    CheckpointWriter::save(&StdFs, state_dir, &checkpoint)
        .expect("publish the population checkpoint");
    let archive = Arc::new(
        LogArchive::durable(state_dir, DurabilityPolicy::EverySegment)
            .expect("create the durable archive"),
    );
    let (shipper, receiver) = LogShipper::unbounded();
    let shipper = shipper.with_archive(Arc::clone(&archive));
    // No replica in this process — drain the channel so it never grows.
    std::thread::spawn(move || while receiver.recv().is_some() {});

    let logger = StreamingLogger::new(SEGMENT_RECORDS, shipper);
    let engine = Arc::new(TplEngine::new(
        store,
        PrimaryConfig::default().with_threads(2),
        logger,
    ));
    let factory: Arc<dyn TxnFactory> = Arc::new(AdversarialWorkload::new(4));
    loop {
        ClosedLoopDriver::with_seed(42).run_tpl(
            &engine,
            &factory,
            2,
            RunLength::Timed(Duration::from_millis(50)),
        );
    }
}

fn recover_first_pass(state_dir: &Path) -> RecoveredReplica {
    recover_replica(
        Arc::new(StdFs),
        state_dir,
        C5Mode::Faithful,
        ReplicaConfig::default().with_workers(2),
        DurabilityPolicy::EverySegment,
    )
    .expect("recovery from the persisted state")
}

/// Reconstructs the initial population from the child's cut-zero checkpoint.
fn load_population(state_dir: &Path) -> Vec<(RowRef, Value)> {
    let checkpoint = CheckpointInstaller::load(&StdFs, state_dir)
        .expect("read the state directory")
        .expect("the child published a checkpoint before the workload started");
    assert_eq!(
        checkpoint.cut(),
        SeqNo::ZERO,
        "the child checkpoints the pre-log population"
    );
    checkpoint
        .rows()
        .iter()
        .filter_map(|row| Some((row.row, row.value.clone()?)))
        .collect()
}

/// Polls until the archive under `dir` holds at least `want` valid frames,
/// nudging the wait with a liveness check on the child.
fn wait_for_segments(dir: &Path, want: usize, child: &mut std::process::Child) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if archived_frames(dir) >= want {
            return;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("the durability child exited early with {status}");
        }
        assert!(
            Instant::now() < deadline,
            "the child archived fewer than {want} frames within the deadline"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Valid frames across the archive's chunks (zero while the directory or
/// its first chunk does not exist yet).
fn archived_frames(dir: &Path) -> usize {
    let chunks = chunk_paths(dir).unwrap_or_default();
    let scans = chunks.iter().filter_map(|chunk| scan_chunk(chunk).ok());
    scans.map(|scan| scan.segments.len()).sum()
}

/// Flips one byte nine bytes before the end of the log's written extent —
/// inside the last frame's payload, so its checksum no longer matches.
fn flip_one_byte_in_the_last_frame(dir: &Path) {
    let tail = (chunk_paths(dir).ok())
        .and_then(|mut chunks| chunks.pop())
        .expect("the archive has a chunk");
    let written = scan_chunk(&tail).expect("scan the tail chunk").valid_len;
    let mut bytes = fs::read(&tail).expect("read the tail chunk");
    let at = usize::try_from(written).expect("a chunk fits in memory") - 9;
    bytes[at] ^= 0xFF;
    fs::write(&tail, &bytes).expect("write the corrupted tail back");
}
