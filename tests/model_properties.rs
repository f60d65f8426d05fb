//! Property-based tests over the Section 3 model and the replica
//! implementations.
//!
//! The model properties are the paper's theorems in executable form; the
//! replica properties check that C5's concurrent execution always produces
//! the serial-replay state for arbitrary logs, and that the event-driven
//! deferral structure (`RowWaitList`) installs every parked write exactly
//! once, in per-row `prev_seq` order, under arbitrary delivery orders.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use c5_repro::common::fs::{Fs, FsFile, StdFs};
use c5_repro::core::pipeline::RowWaitList;
use c5_repro::lagmodel::{
    simulate_backup, simulate_primary_2pl, BackupProtocol, LagSeries, ModelParams, ModelWorkload,
};
use c5_repro::log::LogRecord;
use c5_repro::prelude::*;

/// A random small workload for the model: each transaction writes 1..=5 keys
/// drawn from a small key space (so conflicts are common).
fn arb_model_workload() -> impl Strategy<Value = ModelWorkload> {
    prop::collection::vec(prop::collection::vec(0u64..12, 1..6), 1..60).prop_map(|txns| {
        let txns = txns
            .into_iter()
            .enumerate()
            .map(|(id, mut keys)| {
                keys.dedup();
                c5_repro::lagmodel::ModelTxn {
                    id: id as u64,
                    arrival: id as u64,
                    keys,
                }
            })
            .collect();
        ModelWorkload { txns }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 2's consequence, on arbitrary workloads: the row-granularity
    /// backup never finishes later than the transaction-granularity backup
    /// (it is never more constrained), and never later than single-threaded
    /// replay.
    #[test]
    fn row_granularity_is_never_more_constrained(workload in arb_model_workload()) {
        let params = ModelParams::paper_like(8);
        let primary = simulate_primary_2pl(&params, &workload);
        let row = simulate_backup(&params, &primary, BackupProtocol::RowGranularity);
        let txn = simulate_backup(&params, &primary, BackupProtocol::TxnGranularity);
        let single = simulate_backup(&params, &primary, BackupProtocol::SingleThreaded);
        prop_assert!(row.makespan() <= txn.makespan());
        prop_assert!(txn.makespan() <= single.makespan());
    }

    /// Lag is non-negative and exposure is monotonic for every protocol on
    /// every workload.
    #[test]
    fn model_exposure_is_monotonic_and_lag_nonnegative(workload in arb_model_workload()) {
        let params = ModelParams::paper_like(4);
        let primary = simulate_primary_2pl(&params, &workload);
        for protocol in [
            BackupProtocol::SingleThreaded,
            BackupProtocol::TxnGranularity,
            BackupProtocol::PageGranularity { rows_per_page: 4 },
            BackupProtocol::RowGranularity,
        ] {
            let backup = simulate_backup(&params, &primary, protocol);
            prop_assert!(backup.exposed.windows(2).all(|w| w[0] <= w[1]));
            let lag = LagSeries::new(&primary, &backup);
            // f_b is measured after f_p by construction.
            prop_assert!(lag.lags.iter().all(|&l| l < u64::MAX / 2));
        }
    }

    /// The C5 replica (faithful mode) converges to the serial replay of any
    /// random log, including deletes and heavy row reuse, and exposes exactly
    /// the final prefix.
    #[test]
    fn c5_converges_to_serial_replay_on_random_logs(
        txn_specs in prop::collection::vec(prop::collection::vec((0u64..10, 0u64..1000, 0usize..8), 1..5), 1..40)
    ) {
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
        let segments = segments_from_entries(&entries, 8);

        // Serial replay oracle.
        let mut oracle = ReferenceStore::new();
        for entry in &entries {
            oracle.apply_all(&entry.writes);
        }

        // C5, two workers.
        let store = Arc::new(MvStore::default());
        let replica = C5Replica::new(
            C5Mode::Faithful,
            store,
            ReplicaConfig::default()
                .with_workers(2)
                .with_snapshot_interval(Duration::from_micros(100)),
        );
        drive_segments(replica.as_ref(), segments);

        let view = replica.read_view();
        let observed: std::collections::BTreeMap<RowRef, Value> = view.scan_all().into_iter().collect();
        prop_assert_eq!(observed, oracle.snapshot());
    }

    /// The event-driven wait list: for any per-row write chains delivered in
    /// any order, every deferred write is eventually installed exactly once,
    /// in per-row `prev_seq` order — including cascades, where one install
    /// wakes a parked successor whose install wakes the next, and so on.
    #[test]
    fn row_wait_list_installs_every_deferred_write_exactly_once_in_order(
        row_of_write in prop::collection::vec(0u64..6, 1..80),
        seed in any::<u64>(),
    ) {
        use std::collections::{HashMap, HashSet};
        use std::sync::Mutex;

        // The log: write i+1 goes to row row_of_write[i]; prev_seq chains
        // each row's writes in log order (what the scheduler stamps).
        let mut last_write: HashMap<u64, u64> = HashMap::new();
        let mut records = Vec::new();
        for (i, &row) in row_of_write.iter().enumerate() {
            let seq = i as u64 + 1;
            let prev = last_write.insert(row, seq).unwrap_or(0);
            records.push(LogRecord {
                seq: SeqNo(seq),
                commit_wall_nanos: 0,
                prev_seq: SeqNo(prev),
                write: RowWrite::update(RowRef::new(0, row), Value::from_u64(seq)),
                txn_first: true,
                txn_last: true,
            });
        }
        let total = records.len();

        // Deliver in an arbitrary order: a deterministic Fisher–Yates
        // shuffle driven by the proptest seed (the shim has no prop_shuffle).
        let mut state = seed | 1;
        for i in (1..records.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((state >> 33) as usize) % (i + 1);
            records.swap(i, j);
        }

        // A model store: a write installs iff its per-row predecessor did.
        let installed: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
        let order: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new()); // (row, seq)
        let try_install = |r: &LogRecord| -> bool {
            let mut installed = installed.lock().unwrap();
            if r.prev_seq != SeqNo::ZERO && !installed.contains(&r.prev_seq.as_u64()) {
                return false;
            }
            assert!(
                installed.insert(r.seq.as_u64()),
                "write {} installed twice",
                r.seq
            );
            order
                .lock()
                .unwrap()
                .push((r.write.row.key.as_u64(), r.seq.as_u64()));
            true
        };

        let waits = RowWaitList::new(4);
        let mut deferred = 0usize;
        for record in records {
            if waits.install_or_park(record, &try_install) {
                deferred += 1;
            }
        }

        // Everything installed, nothing left parked, deferrals bounded.
        prop_assert_eq!(waits.parked(), 0);
        prop_assert!(deferred <= total);
        let order = order.into_inner().unwrap();
        prop_assert_eq!(order.len(), total);
        // Per-row install order is exactly ascending seq order — the per-row
        // FIFO of Section 4.1, reconstructed from arbitrary delivery.
        let mut last_seen: HashMap<u64, u64> = HashMap::new();
        for (row, seq) in order {
            if let Some(&prev) = last_seen.get(&row) {
                prop_assert!(
                    prev < seq,
                    "row {} installed {} after {}", row, seq, prev
                );
            }
            last_seen.insert(row, seq);
        }
    }

    /// Failover's catch-up identity: for any random log (deletes, row reuse,
    /// re-inserts) and any transaction-boundary cut point, installing a
    /// checkpoint taken at the cut and replaying the archived tail above it
    /// is equivalent to replaying the whole log — the two stores answer every
    /// read identically at every timestamp at or above the cut, and their
    /// chain heads agree so ordered apply could continue on either.
    #[test]
    fn checkpoint_install_plus_replay_equals_full_replay(
        txn_specs in prop::collection::vec(prop::collection::vec((0u64..10, 0u64..1000, 0usize..8), 1..5), 1..40),
        cut_pick in any::<u64>(),
    ) {
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
        let segments = segments_from_entries(&entries, 8);
        let archive = LogArchive::new();
        for segment in &segments {
            archive.append(segment);
        }

        // Full replay: every record installed at its log position.
        let full = MvStore::default();
        for segment in &segments {
            for r in &segment.records {
                full.install(
                    r.write.row,
                    Timestamp(r.seq.as_u64()),
                    r.write.kind,
                    r.write.value.clone(),
                );
            }
        }
        let final_seq = archive.last_seq();

        // A random transaction boundary (possibly zero or the log end).
        let mut boundaries = vec![SeqNo::ZERO];
        for segment in &segments {
            boundaries.extend(segment.records.iter().filter(|r| r.is_txn_last()).map(|r| r.seq));
        }
        let cut = boundaries[(cut_pick as usize) % boundaries.len()];

        // Checkpoint at the cut + replay of the archived tail above it.
        let checkpoint = CheckpointWriter::capture(&full, cut);
        let restored = CheckpointInstaller::install(&checkpoint);
        let mut replayed_through = cut;
        for segment in archive.replay_from(cut).expect("nothing truncated") {
            for r in &segment.records {
                prop_assert_eq!(r.seq, SeqNo(replayed_through.as_u64() + 1), "gapless tail");
                replayed_through = r.seq;
                restored.install(
                    r.write.row,
                    Timestamp(r.seq.as_u64()),
                    r.write.kind,
                    r.write.value.clone(),
                );
            }
        }
        prop_assert_eq!(replayed_through, final_seq);

        // Equivalence at every timestamp from the cut to the log end.
        for ts in cut.as_u64()..=final_seq.as_u64() {
            let mut expect = full.scan_all_at(Timestamp(ts));
            let mut got = restored.scan_all_at(Timestamp(ts));
            expect.sort_by_key(|(row, _)| *row);
            got.sort_by_key(|(row, _)| *row);
            prop_assert_eq!(got, expect, "divergence at timestamp {}", ts);
        }
        // Chain heads agree (ordered apply could resume on either store).
        for export in CheckpointWriter::capture(&full, final_seq).rows() {
            prop_assert_eq!(restored.latest_write_ts(export.row), export.write_ts);
        }
    }

    /// The store's per-table index (append-only, in chain-creation order)
    /// against the whole-store scan, which never consults it: over random
    /// installs, deletes and re-inserts in three tables, with the GC horizon
    /// raised between installs (so later installs trim their chains), a
    /// table scan is exactly the whole-store scan filtered to that table —
    /// key-sorted, no row missing or repeated — at every timestamp.
    #[test]
    fn table_scans_are_the_whole_store_scan_filtered_to_the_table(
        ops in prop::collection::vec((0u32..3, 0u64..64, 0u8..3, 0u8..8), 1..120),
    ) {
        let store = MvStore::default();
        for (i, &(table, key, kind, gc)) in ops.iter().enumerate() {
            let ts = i as u64 + 1;
            let (kind, value) = match kind {
                0 => (WriteKind::Delete, None),
                1 => (WriteKind::Update, Some(Value::from_u64(ts))),
                _ => (WriteKind::Insert, Some(Value::from_u64(ts))),
            };
            store.install(RowRef::new(table, key), Timestamp(ts), kind, value);
            if gc == 0 {
                store.raise_gc_horizon(Timestamp(ts / 2));
            }
        }
        for ts in (0..=ops.len() as u64).map(Timestamp) {
            let all = store.scan_all_at(ts);
            for table in (0..3).map(TableId) {
                let expect: Vec<(RowRef, Value)> =
                    all.iter().filter(|(row, _)| row.table == table).cloned().collect();
                prop_assert_eq!(&store.scan_table_at(table, ts), &expect, "{} at {}", table, ts);
            }
        }
    }
}

proptest! {
    // Each case spins up a 3-replica fleet with live pipelines, so run
    // fewer, larger cases than the model-level properties above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Session tokens are monotone: across arbitrary interleavings of
    /// writes (segments drip-fed to randomly chosen replicas, so the fleet's
    /// exposed cuts diverge) and reads (causal with random already-fed
    /// tokens, or bounded-staleness), a session's successive reads never
    /// observe a cut below its token and never move backwards — whatever
    /// replica switches the router makes.
    #[test]
    fn session_reads_are_monotone_across_replica_switches(
        txn_keys in prop::collection::vec((0u64..12, 0u64..12), 20..50),
        schedule in prop::collection::vec((0u8..4, 0u8..3, 0u8..255), 30..80),
    ) {
        use c5_repro::read::ConsistencyClass;

        // The log: each transaction updates one or two of 12 hot rows.
        let entries: Vec<TxnEntry> = txn_keys
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let mut writes = vec![RowWrite::update(
                    RowRef::new(0, a),
                    Value::from_u64(i as u64 + 1),
                )];
                if b != a {
                    writes.push(RowWrite::update(
                        RowRef::new(0, b),
                        Value::from_u64(i as u64 + 1_000),
                    ));
                }
                TxnEntry::new(Timestamp(i as u64 + 1), writes)
            })
            .collect();
        let segments = segments_from_entries(&entries, 4);
        // Segments keep transactions whole, so each segment's last record is
        // a transaction boundary — a valid causal token.
        let boundary_of_prefix: Vec<SeqNo> = segments
            .iter()
            .map(|s| s.last_seq().unwrap())
            .collect();

        let replicas: Vec<Arc<C5Replica>> = (0..3)
            .map(|_| {
                let store = Arc::new(MvStore::default());
                for k in 0..12u64 {
                    store.install(
                        RowRef::new(0, k),
                        Timestamp::ZERO,
                        WriteKind::Insert,
                        Some(Value::from_u64(0)),
                    );
                }
                C5Replica::new(
                    C5Mode::Faithful,
                    store,
                    ReplicaConfig::default()
                        .with_workers(2)
                        .with_snapshot_interval(Duration::from_micros(200)),
                )
            })
            .collect();
        let fleet: Vec<Arc<dyn ClonedConcurrencyControl>> = replicas
            .iter()
            .map(|r| Arc::clone(r) as Arc<dyn ClonedConcurrencyControl>)
            .collect();
        let router = Arc::new(ReadRouter::new(
            fleet,
            ReadConfig::default().with_max_wait(Duration::from_secs(30)),
        ));
        let mut session = router.session();
        let mut cursors = [0usize; 3];
        let mut last_as_of = SeqNo::ZERO;

        for &(action, replica_pick, token_pick) in &schedule {
            match action {
                // Interleaved writes: feed the chosen replica its next
                // segment (each replica consumes the log in order, at its
                // own pace — the fleet's cuts diverge).
                0 | 1 => {
                    let r = replica_pick as usize;
                    if cursors[r] < segments.len() {
                        replicas[r].apply_segment(segments[cursors[r]].clone());
                        cursors[r] += 1;
                    }
                }
                // A causal read with a token some replica has been fed (its
                // exposure may still be in flight — the router must wait or
                // re-route until a cut covers it).
                2 => {
                    let max_fed = *cursors.iter().max().unwrap();
                    if max_fed == 0 {
                        continue;
                    }
                    let token =
                        boundary_of_prefix[token_pick as usize % max_fed];
                    session.observe_commit(token);
                    let read = session
                        .read(&session.causal(), RowRef::new(0, token_pick as u64 % 12))
                        .unwrap();
                    prop_assert!(
                        read.as_of >= token,
                        "read at {} below token {}", read.as_of, token
                    );
                    prop_assert!(read.as_of >= last_as_of);
                    last_as_of = read.as_of;
                }
                // A bounded-staleness read: no freshness floor of its own,
                // but still bound by the session's monotonic floor.
                _ => {
                    let read = session
                        .read(
                            &ConsistencyClass::BoundedStaleness(Duration::from_secs(3600)),
                            RowRef::new(0, token_pick as u64 % 12),
                        )
                        .unwrap();
                    prop_assert!(read.as_of >= last_as_of);
                    last_as_of = read.as_of;
                }
            }
        }

        // Drain: every replica gets the rest of the log and finishes.
        for (r, replica) in replicas.iter().enumerate() {
            while cursors[r] < segments.len() {
                replica.apply_segment(segments[cursors[r]].clone());
                cursors[r] += 1;
            }
            replica.finish();
        }
        // A final causal read at the last boundary sees the whole log and
        // still respects the floor accumulated across every switch.
        let final_boundary = *boundary_of_prefix.last().unwrap();
        session.observe_commit(final_boundary);
        let read = session.read(&session.causal(), RowRef::new(0, 0)).unwrap();
        prop_assert!(read.as_of >= final_boundary);
        prop_assert!(read.as_of >= last_as_of);
    }
}

/// The real file system behind a disk that feels the way one file per
/// segment did: every `sync_data` also creates, fills and syncs a sidecar
/// file, so it pays a file creation and a journal commit on top of the
/// log's own overwrite-in-place sync.
#[derive(Debug)]
struct SlowDisk(std::path::PathBuf);

#[derive(Debug)]
struct SlowFile(Box<dyn FsFile>, std::path::PathBuf);

impl SlowDisk {
    fn slow(&self, file: Box<dyn FsFile>) -> Box<dyn FsFile> {
        Box::new(SlowFile(file, self.0.clone()))
    }
}

impl Fs for SlowDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        StdFs.list(dir)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdFs.read(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(self.slow(StdFs.create(path)?))
    }
    fn open(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(self.slow(StdFs.open(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdFs.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        StdFs.remove(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        StdFs.sync_dir(dir)
    }
}

impl FsFile for SlowFile {
    fn write_all_at(&mut self, bytes: &[u8], offset: u64) -> io::Result<()> {
        self.0.write_all_at(bytes, offset)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()?;
        let mut sidecar = StdFs.create(&self.1)?;
        sidecar.write_all_at(&[0xC5; 4096], 0)?;
        sidecar.sync_data()
    }
}

proptest! {
    // Each case runs a live primary, a fleet controller, and two session
    // threads against random membership churn — few cases, real threads.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Membership churn never costs a session guarantee: under a random
    /// schedule of online joins, online retires, and abrupt kills — with two
    /// concurrent tokened sessions reading throughout — no session ever
    /// violates read-your-writes (value-checked) or its monotonic floor, a
    /// joiner is exposed at or beyond its install cut the moment it is
    /// `Serving`, and every member still serving at the end has converged to
    /// the primary's exact final state.
    #[test]
    fn session_guarantees_survive_membership_churn(
        churn in prop::collection::vec((0u8..4, 0u8..255), 12..30),
    ) {
        use c5_repro::read::ConsistencyClass;
        use std::sync::atomic::{AtomicBool, Ordering};

        const HOT_ROWS: u64 = 12;
        let preloaded = || {
            let store = Arc::new(MvStore::default());
            for k in 0..HOT_ROWS {
                store.install(
                    RowRef::new(0, k),
                    Timestamp::ZERO,
                    WriteKind::Insert,
                    Some(Value::from_u64(0)),
                );
            }
            store
        };

        // A primary whose shipper starts with zero subscribers; every
        // member enters through the controller's join protocol.
        // The archive is durable, on a disk as slow as one file per segment
        // used to make it: every append holds the wire thread for a
        // millisecond or so of real I/O, which is what makes joins land
        // while a segment is archived but not yet announced, and while
        // commits are batching up behind it.
        static NEXT_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "c5-churn-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let primary_store = preloaded();
        let archive = Arc::new(
            LogArchive::durable_on(
                Arc::new(SlowDisk(dir.join("slow-disk.sidecar"))),
                &dir,
                DurabilityPolicy::EverySegment,
            )
            .expect("create the durable archive"),
        );
        let (shipper, receivers) = LogShipper::fan_out(0, 64);
        prop_assert!(receivers.is_empty());
        let shipper = shipper.with_archive(Arc::clone(&archive));
        let wire = shipper.clone();
        // Tiny segments so churn lands mid-stream, not between segments.
        let logger = StreamingLogger::new(4, shipper.clone());
        let engine = Arc::new(TplEngine::new(
            Arc::clone(&primary_store),
            PrimaryConfig::default().with_threads(1),
            logger,
        ));
        let flush_engine = Arc::clone(&engine);
        let router = Arc::new(
            ReadRouter::new(
                Vec::new(),
                ReadConfig::default().with_max_wait(Duration::from_secs(30)),
            )
            .with_tail_flush(move || flush_engine.flush_log()),
        );
        let controller = FleetController::new(
            shipper,
            Arc::clone(&archive),
            Arc::clone(&router) as Arc<dyn FleetRoutingSink>,
            C5Mode::Faithful,
            ReplicaConfig::default()
                .with_workers(2)
                .with_snapshot_interval(Duration::from_micros(200)),
        );
        for _ in 0..2 {
            controller.join_seeded(preloaded()).expect("seeding an idle fleet");
        }

        // Two tokened sessions read continuously while the main thread
        // churns the fleet. Violations are assertions inside the threads;
        // a panic there fails the case via the join below.
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2u64)
                .map(|s| {
                    let engine = Arc::clone(&engine);
                    let router = Arc::clone(&router);
                    let stop = &stop;
                    scope.spawn(move || {
                        let mut session = router.session();
                        let mut last_as_of = SeqNo::ZERO;
                        let mut iteration = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let own_row = RowRef::new(7, s * 100 + iteration % 5);
                            let own_value = Value::from_u64(iteration + 1);
                            let write_value = own_value.clone();
                            let token = engine
                                .execute_with_token(&move |ctx: &mut dyn TxnCtx| {
                                    ctx.update(own_row, write_value.clone())
                                })
                                .expect("single-row session write")
                                .1;
                            session.observe_commit(token);
                            let read = session
                                .read(&session.causal(), own_row)
                                .expect("causal read under churn");
                            assert!(
                                read.as_of >= token,
                                "RYW violated under churn: cut {} below token {token}",
                                read.as_of
                            );
                            assert_eq!(
                                read.value.as_ref(),
                                Some(&own_value),
                                "RYW violated under churn: stale value"
                            );
                            assert!(read.as_of >= last_as_of, "monotonic floor broken");
                            last_as_of = read.as_of;
                            let read = session
                                .read(
                                    &ConsistencyClass::BoundedStaleness(Duration::from_secs(3600)),
                                    RowRef::new(0, iteration % HOT_ROWS),
                                )
                                .expect("bounded read under churn");
                            assert!(read.as_of >= last_as_of, "monotonic floor broken");
                            last_as_of = read.as_of;
                            iteration += 1;
                        }
                    })
                })
                .collect();

            // The churn schedule. Retires and kills keep at least two
            // members serving; joins cap the fleet at five.
            for &(action, pick) in &churn {
                match action {
                    0 if controller.serving_count() < 5 => {
                        let report = controller.join().expect("online join under churn");
                        let joiner =
                            controller.replica(report.replica).expect("joiner is managed");
                        // The joiner's first served read can never predate
                        // its install cut: it is exposed at or beyond it
                        // from the moment it is Serving.
                        assert!(
                            joiner.exposed_seq()
                                >= report.checkpoint_cut.max(report.stream_start),
                            "joiner exposed below its install cut"
                        );
                    }
                    1 | 2 if controller.serving_count() > 2 => {
                        let serving: Vec<usize> = controller
                            .members()
                            .into_iter()
                            .filter(|&(_, state)| state == ReplicaLifecycle::Serving)
                            .map(|(id, _)| id)
                            .collect();
                        let id = serving[pick as usize % serving.len()];
                        if action == 1 {
                            controller.retire(id).expect("online retire under churn");
                        } else {
                            controller.kill(id).expect("kill under churn");
                        }
                    }
                    _ => std::thread::sleep(Duration::from_micros(500)),
                }
            }

            stop.store(true, Ordering::Relaxed);
            for reader in readers {
                reader.join().expect("session thread");
            }
            engine.close_log();
            controller.finish();
        });
        // Every member still serving has the complete final state.
        let mut expect: Vec<(RowRef, Value)> = primary_store.scan_all_at(Timestamp::MAX);
        expect.sort_by_key(|(row, _)| *row);
        let survivors: Vec<usize> = controller
            .members()
            .into_iter()
            .filter(|&(_, state)| state == ReplicaLifecycle::Serving)
            .map(|(id, _)| id)
            .collect();
        prop_assert!(survivors.len() >= 2, "the floor of two serving members held");
        for id in survivors {
            let replica = controller.replica(id).expect("serving member is managed");
            let mut got: Vec<(RowRef, Value)> = replica.read_view().scan_all();
            got.sort_by_key(|(row, _)| *row);
            prop_assert_eq!(&got, &expect, "member {} diverged from the primary", id);
        }
        // The wire never failed, and what it archived is the whole log.
        prop_assert_eq!(wire.failure(), None);
        prop_assert_eq!(archive.last_seq(), engine.log_last_seq());
        std::fs::remove_dir_all(&dir).expect("remove the archive directory");
    }
}
