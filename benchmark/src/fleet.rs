//! Building the system under test from the layer crates' public functions:
//! stores, the primary, the wire (shipper, optional durable archive,
//! subscriptions), the replica fleet, and the materialised replay log.
//!
//! Everything runs on library defaults except the apply-worker count, the
//! segment size and `OpCost::free()`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use c5_common::{
    DurabilityPolicy, OpCost, PrimaryConfig, ReplicaConfig, RowRef, SeqNo, Timestamp, Value,
    WriteKind,
};
use c5_core::lag::LagTracker;
use c5_core::replica::{
    C5Mode, C5Replica, ClonedConcurrencyControl, Promotion, ReadView, ReplicaMetrics,
};
use c5_log::{wal, LogArchive, LogReceiver, LogShipper, Segment, StreamingLogger};
use c5_primary::TplEngine;
use c5_storage::MvStore;

use crate::workload::{TxnStream, WorkloadSpec, SEGMENT_RECORDS};

/// Segments a subscription buffers before the shipper blocks: the capacity
/// the repository's own fan-out harnesses use.
const SUBSCRIPTION_SEGMENTS: usize = 1024;

/// A replica of the fleet, as the read router and the benchmark see it.
pub type Replica = Arc<dyn ClonedConcurrencyControl>;

/// A fresh store holding `population` at the pre-log timestamp.
pub fn preloaded_store(population: &[(RowRef, Value)]) -> Arc<MvStore> {
    let store = Arc::new(MvStore::default());
    for (row, value) in population {
        store.install(
            *row,
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(value.clone()),
        );
    }
    store
}

/// A 2PL primary over `store` logging through `shipper`.
pub fn primary(store: Arc<MvStore>, shipper: LogShipper) -> TplEngine {
    let logger = StreamingLogger::new(SEGMENT_RECORDS, shipper);
    let config = PrimaryConfig::default().with_op_cost(OpCost::free());
    TplEngine::new(store, config, logger)
}

/// A deliberately broken replica for proving that the correctness gate is
/// live: it behaves like the replica it wraps, except for the one lie named
/// by the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `exposed_seq()` reports one position past `applied_seq()`: a cut that
    /// claims writes the store does not hold yet.
    ExposedAhead,
}

impl Fault {
    /// Parses the `--fault` argument.
    pub fn parse(name: &str) -> Option<Self> {
        (name == "exposed-ahead").then_some(Fault::ExposedAhead)
    }
}

struct ExposedAhead(Replica);

impl ClonedConcurrencyControl for ExposedAhead {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn apply_segment(&self, segment: Segment) {
        self.0.apply_segment(segment);
    }
    fn finish(&self) {
        self.0.finish();
    }
    fn promote(&self) -> Promotion {
        self.0.promote()
    }
    fn applied_seq(&self) -> SeqNo {
        self.0.applied_seq()
    }
    fn exposed_seq(&self) -> SeqNo {
        self.0.applied_seq().next()
    }
    fn read_view(&self) -> Box<dyn ReadView> {
        self.0.read_view()
    }
    fn lag(&self) -> Arc<LagTracker> {
        self.0.lag()
    }
    fn metrics(&self) -> ReplicaMetrics {
        self.0.metrics()
    }
}

/// The archive directory of a durable wire, removed when dropped — which
/// covers failure too, because a failing run unwinds through its owner.
#[derive(Debug)]
pub struct ArchiveDir(PathBuf);

impl ArchiveDir {
    /// A new, empty directory beside the running executable: inside the
    /// build directory, so inside the checkout and already ignored by git.
    pub fn create() -> std::io::Result<Self> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let parent = exe.parent().unwrap_or(std::path::Path::new("."));
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = parent.join(format!("c5-benchmark-archive-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// Where it is.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }

    /// Files in the directory other than the archive's manifest: one per
    /// segment the archive has made durable.
    pub fn segment_files(&self) -> usize {
        std::fs::read_dir(&self.0).map_or(0, |entries| {
            entries
                .filter_map(Result::ok)
                .filter(|entry| !entry.file_name().to_string_lossy().contains(".meta"))
                .count()
        })
    }
}

impl Drop for ArchiveDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here, and Drop must
        // not panic.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One fleet and the wire feeding it: what both the paced phase and every
/// replay repetition run against.
pub struct Fleet {
    /// The sending side; the primary's logger (or the replay driver) ships
    /// into it.
    pub shipper: LogShipper,
    /// One subscription per replica, in replica order.
    pub receivers: Vec<LogReceiver>,
    /// The replicas.
    pub replicas: Vec<Replica>,
    /// The archive of a durable wire.
    pub archive: Option<(Arc<LogArchive>, ArchiveDir)>,
}

impl Fleet {
    /// Builds the fleet `spec` describes, each replica over its own copy of
    /// `population`, and starts its threads.
    pub fn start(
        spec: &WorkloadSpec,
        population: &[(RowRef, Value)],
        fault: Option<Fault>,
    ) -> std::io::Result<Self> {
        let (mut shipper, receivers) = LogShipper::fan_out(spec.replicas, SUBSCRIPTION_SEGMENTS);
        let archive = if spec.durable {
            let dir = ArchiveDir::create()?;
            let archive = Arc::new(LogArchive::durable(
                dir.path(),
                DurabilityPolicy::EverySegment,
            )?);
            shipper = shipper.with_archive(Arc::clone(&archive));
            Some((archive, dir))
        } else {
            None
        };
        let config = ReplicaConfig::default()
            .with_workers(spec.workers)
            .with_op_cost(OpCost::free());
        let replicas = (0..spec.replicas)
            .map(|_| {
                let replica: Replica = C5Replica::new(
                    C5Mode::Faithful,
                    preloaded_store(population),
                    config.clone(),
                );
                match fault {
                    Some(Fault::ExposedAhead) => Arc::new(ExposedAhead(replica)),
                    None => replica,
                }
            })
            .collect();
        Ok(Self {
            shipper,
            receivers,
            replicas,
            archive,
        })
    }
}

/// Runs the first `spec.replay_txns` transactions of the seeded stream
/// through a scratch primary and returns the log it ships.
///
/// The scratch primary starts empty: the traffic's updates are blind writes
/// and its inserts are of new rows, so the log does not depend on the
/// population.
///
/// The commit wall-clock stamp of every record is zeroed: it is the one
/// field of the log that is not a function of the seed. Only the replica's
/// own lag samples read it on the replay path, and with them the router's
/// staleness estimate, which a replay's router (no primary frontier, so the
/// fleet's freshest cut is the reference) never consults.
pub fn materialise(spec: &WorkloadSpec, seed: u64) -> Vec<Segment> {
    let (shipper, receiver) = LogShipper::unbounded();
    let engine = primary(Arc::new(MvStore::default()), shipper);
    let mut stream = TxnStream::new(spec.traffic, seed);
    for _ in 0..spec.replay_txns {
        let txn = stream.next_txn();
        engine
            .execute(txn.body.as_ref())
            .expect("a single uncontended client never aborts");
    }
    engine.close_log();
    let mut segments = receiver.drain();
    for record in segments.iter_mut().flat_map(|s| &mut s.records) {
        record.commit_wall_nanos = 0;
    }
    segments
}

/// The materialised replay log plus what the benchmark needs to know about
/// it: its size, its hash, and the state it must leave behind.
pub struct ReplayLog {
    /// The segments, exactly as the primary's logger cut them.
    pub segments: Vec<Segment>,
    /// Records across all segments.
    pub records: u64,
    /// Hash of the segments' on-disk encoding (`wal::encode_segment`): two
    /// runs that print the same hash consumed byte-identical input.
    pub hash: u64,
    /// The population with the log applied serially, key-sorted: what a
    /// replica that has replayed the whole log must expose.
    pub final_state: Vec<(RowRef, Value)>,
}

/// FNV-1a over 8-byte words (the tail zero-padded, the length folded in):
/// several times faster than the byte-wise form on a 100 MB log, and only
/// ever compared with itself.
fn hash_words(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    hash = (hash ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    (hash ^ bytes.len() as u64).wrapping_mul(PRIME)
}

impl ReplayLog {
    /// Hashes `segments` and lays their last write per row over
    /// `population`. The benchmark's own bookkeeping, not part of set-up.
    pub fn index(segments: Vec<Segment>, population: &[(RowRef, Value)]) -> Self {
        let mut hash = 0xCBF2_9CE4_8422_2325;
        let mut records = 0;
        let mut last_writes: HashMap<RowRef, Option<Value>> = HashMap::new();
        for segment in &segments {
            for record in &segment.records {
                last_writes.insert(record.write.row, record.write.value.clone());
            }
            records += segment.len() as u64;
            hash = hash_words(hash, &wal::encode_segment(segment));
        }
        let mut final_state: Vec<(RowRef, Value)> = population
            .iter()
            .filter_map(|(row, value)| match last_writes.remove(row) {
                Some(overwritten) => overwritten.map(|value| (*row, value)),
                None => Some((*row, value.clone())),
            })
            .collect();
        final_state.extend(
            last_writes
                .into_iter()
                .filter_map(|(row, value)| Some((row, value?))),
        );
        final_state.sort_unstable_by_key(|(row, _)| *row);
        Self {
            segments,
            records,
            hash,
            final_state,
        }
    }
}
