//! Sharded replication: key-range lane groups under one pipeline.
//!
//! The paper's backup applies one log with one pipeline: one scheduler,
//! workers fed segments round-robin, and one snapshotter that publishes one
//! counter (C5-Cicada, Section 7.2). At production scale the keyspace itself
//! shards: a [`c5_common::ShardRouter`] assigns every row a shard by key
//! range. [`ShardedC5Replica`] is still that one pipeline — the shared
//! [`crate::pipeline`] runtime over the one [`PrefixExposure`] — but its
//! `shards × workers` worker lanes are grouped by shard: the key range picks
//! the lane group, round-robin picks the lane inside it.
//!
//! ## Why it is the same protocol
//!
//! The schedule stage is `C5Replica`'s faithful one: it stamps the whole
//! segment with per-row predecessors (which also notes the segment, in log
//! order, with the exposure) and only then splits the stamped records by
//! shard. A row never changes shards, so its whole chain is applied inside
//! one lane group; with one worker per shard no chain crosses lanes and no
//! write ever waits for its predecessor.
//!
//! The exposure is `C5Replica`'s too. One pipeline applies every record of
//! the global log, so its applied prefix is the contiguous prefix a
//! [`WatermarkTracker`](crate::progress::WatermarkTracker) tracks, and the
//! cut — the paper's `c`, one atomic store — is the largest transaction
//! boundary inside it: the largest global boundary at or below every
//! shard's applied watermark. A transaction's writes occupy a contiguous run
//! of positions, so a cross-shard transaction falls wholly on one side of
//! every cut. Every read view, scan and checkpoint, and the version-GC
//! horizon, sit at that one cut; per-shard cuts would add nothing (see
//! DESIGN.md, "Why not one cut per shard").
//!
//! At one shard the replica *is* the faithful unsharded one — one lane
//! group, round-robin over all its workers — and
//! `tests/protocol_conformance.rs` holds it to that.
//!
//! ## Splitting a segment
//!
//! The split (`route_segment_with`, the one per-record cost this path adds)
//! runs once per segment on the feeder, so it amortizes its allocations: the
//! per-record shard assignments and per-shard counts live in scratch buffers
//! inside the policy's persistent `TxnShardTracker` (they grow to one
//! segment's size once and are reused after), and each shard's run of
//! records is allocated once, at its final size — a shard that owns nothing
//! in a segment allocates nothing and is sent nothing. One tracker serves
//! the whole stream because it sees every segment in order: it also carries
//! the open-transaction masks that classify a transaction straddling a
//! segment boundary as cross-shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use c5_common::{ReplicaConfig, SeqNo, ShardRouter, TxnId};
use c5_log::{LogRecord, Segment};
use c5_storage::{Checkpoint, MvStore};

use crate::exposure::PrefixExposure;
use crate::lag::LagTracker;
use crate::pipeline::{
    PipelineOptions, PipelinePolicy, PipelineRuntime, PipelineSignals, QueuePlan, WorkSink,
};
use crate::replica::{
    ClonedConcurrencyControl, PerRowOrdering, Promotion, ReadView, ReplicaMetrics,
};
use crate::scheduler::SchedulerState;

// ---------------------------------------------------------------------------
// Splitting the log by key range.
// ---------------------------------------------------------------------------

/// The result of splitting one segment's records by key range.
#[derive(Debug)]
struct RoutedRecords {
    /// One run of records per shard, indexed by shard, in log order. Records
    /// *move* here from the segment; nothing is cloned.
    parts: Vec<Vec<LogRecord>>,
    /// Transactions whose last write is in the segment and whose writes
    /// spanned more than one shard.
    cross_shard_txns: u64,
}

/// Shard membership of transactions whose last write has not been seen yet,
/// keyed by transaction id. Carrying this state across
/// [`route_segment_with`] calls makes the cross-shard count *per
/// transaction*: a transaction whose records straddle a segment boundary
/// accumulates one mask and is judged once, at its last write — instead of
/// being judged per segment, which either double-counts a transaction whose
/// every fragment spans shards or misses one that only spans shards across
/// the boundary.
#[derive(Debug, Default)]
struct TxnShardTracker {
    open: HashMap<TxnId, u64>,
    /// Routing scratch, reused across calls: the shard assignment of each
    /// record in the segment currently being routed.
    shard_of: Vec<u8>,
    /// Routing scratch, reused across calls: per-shard record counts of the
    /// segment currently being routed, so each shard's buffer can be
    /// allocated exactly once at its final size (and empty shards allocate
    /// nothing).
    counts: Vec<u32>,
}

/// Splits one segment's records by key range under `router`. Each record
/// moves to the shard owning its row; within a shard, records keep their log
/// order. Shard masks of transactions still open at the segment boundary are
/// carried in `tracker`, so each transaction is judged exactly once, by id,
/// at its last write.
fn route_segment_with(
    records: Vec<LogRecord>,
    router: &ShardRouter,
    tracker: &mut TxnShardTracker,
) -> RoutedRecords {
    let mut cross_shard_txns = 0u64;
    // First pass, by reference: route every record (shards fit in a u8 —
    // `ShardRouter` caps at 64), count per shard, and settle the cross-shard
    // masks. The scratch buffers persist in the tracker, so after the first
    // segment this pass allocates nothing.
    let TxnShardTracker {
        open,
        shard_of,
        counts,
    } = tracker;
    shard_of.clear();
    shard_of.reserve(records.len());
    counts.clear();
    counts.resize(router.shards(), 0);
    for record in &records {
        let shard = router.route(record.write.row);
        shard_of.push(shard as u8);
        counts[shard] += 1;
        if record.is_txn_last() {
            // The complete mask: fragments from earlier segments, if any,
            // plus this final write's shard.
            let mask = open.remove(&record.txn).unwrap_or(0) | (1u64 << shard);
            if !mask.is_power_of_two() {
                cross_shard_txns += 1;
            }
        } else {
            *open.entry(record.txn).or_insert(0) |= 1u64 << shard;
        }
    }
    // Second pass, by value: move each record into its shard's buffer, every
    // buffer allocated exactly once at its final size. Shards owning nothing
    // in this segment allocate nothing.
    let mut parts: Vec<Vec<LogRecord>> = counts
        .iter()
        .map(|&count| {
            if count == 0 {
                Vec::new()
            } else {
                Vec::with_capacity(count as usize)
            }
        })
        .collect();
    for (record, &shard) in records.into_iter().zip(shard_of.iter()) {
        parts[shard as usize].push(record);
    }
    RoutedRecords {
        parts,
        cross_shard_txns,
    }
}

// ---------------------------------------------------------------------------
// The sharded policy and replica.
// ---------------------------------------------------------------------------

/// C5's faithful ordering with a key-range schedule: the segment is stamped
/// and noted whole, then each shard's run of records goes to one of that
/// shard's lanes, round-robin within the shard.
struct ShardedPolicy {
    rows: PerRowOrdering,
    router: ShardRouter,
    /// Lanes per shard: the configured workers. Shard `s` owns lanes
    /// `s * workers .. (s + 1) * workers`.
    workers: usize,
    /// The split's carried masks and scratch buffers, and each shard's
    /// round-robin cursor over its lanes. Only `schedule` locks it, and the
    /// runtime runs one `schedule` at a time.
    route: Mutex<(TxnShardTracker, Vec<usize>)>,
    /// Transactions the split found spanning shards.
    cross_shard_txns: AtomicU64,
}

impl PipelinePolicy for ShardedPolicy {
    /// One shard's run of one segment's records, in log order.
    type Item = Vec<LogRecord>;

    fn name(&self) -> &'static str {
        "c5-sharded"
    }

    fn schedule(&self, mut segment: Segment, sink: &mut WorkSink<Vec<LogRecord>>) {
        // Stamped and noted whole, in log order, before any record is
        // dispatched: a segment out of order fails here, as it does on the
        // unsharded replica.
        self.rows.stamp(&mut segment);
        let mut route = self.route.lock();
        let (tracker, next_lane) = &mut *route;
        let routed = route_segment_with(segment.records, &self.router, tracker);
        self.cross_shard_txns
            .fetch_add(routed.cross_shard_txns, Ordering::Relaxed);
        for (shard, records) in routed.parts.into_iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            let lane = shard * self.workers + next_lane[shard] % self.workers;
            next_lane[shard] = next_lane[shard].wrapping_add(1);
            sink.send_to(lane, records);
            if sink.workers_gone() {
                return;
            }
        }
    }

    fn apply(&self, _worker: usize, records: Vec<LogRecord>, _signals: &PipelineSignals) {
        self.rows.apply_segment(records);
    }

    fn interrupt(&self) {
        self.rows.waits.wake_all();
    }

    fn exposure(&self) -> &PrefixExposure {
        &self.rows.exposure
    }
}

/// A horizontally sharded C5 replica: one faithful pipeline over one
/// multi-version store, whose `config.shards × config.workers` worker lanes
/// are grouped by key range.
///
/// The replica accepts the whole log through
/// [`apply_segment`](ClonedConcurrencyControl::apply_segment), like every
/// other replica, and routes records to its shards' lanes itself.
pub struct ShardedC5Replica {
    config: ReplicaConfig,
    runtime: PipelineRuntime<ShardedPolicy>,
}

impl ShardedC5Replica {
    /// Creates and starts a sharded replica over `store` (which should
    /// already hold the initial population, installed at `Timestamp::ZERO`).
    /// Each of the `config.shards` shards gets `config.workers` workers.
    pub fn new(store: Arc<MvStore>, config: ReplicaConfig) -> Arc<Self> {
        // Validates the configuration before the router is built from it.
        let exposure = PrefixExposure::timestamped(store, &config, SeqNo::ZERO);
        let router = config.shard_router();
        let policy = Arc::new(ShardedPolicy {
            rows: PerRowOrdering::new(exposure, SchedulerState::new()),
            router,
            workers: config.workers,
            route: Mutex::new((TxnShardTracker::default(), vec![0; router.shards()])),
            cross_shard_txns: AtomicU64::new(0),
        });
        let options = PipelineOptions {
            workers: router.shards() * config.workers,
            queue: QueuePlan::PerWorker { capacity: 256 },
        };
        Arc::new(Self {
            config,
            runtime: PipelineRuntime::start(policy, options),
        })
    }

    /// The replica's configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.router().shards()
    }

    /// The routing rule.
    pub fn router(&self) -> &ShardRouter {
        &self.runtime.policy().router
    }

    /// Transactions this replica routed whose writes spanned shards.
    pub fn cross_shard_txns(&self) -> u64 {
        self.runtime
            .policy()
            .cross_shard_txns
            .load(Ordering::Relaxed)
    }

    /// Exports a checkpoint at the cut, with version GC held back for the
    /// export (see [`PrefixExposure::checkpoint`]).
    pub fn checkpoint(&self) -> Checkpoint {
        self.runtime.policy().rows.exposure.checkpoint()
    }
}

/// The runtime's surface, with the router's cross-shard count in
/// `metrics`.
impl ClonedConcurrencyControl for ShardedC5Replica {
    fn name(&self) -> &'static str {
        self.runtime.name()
    }

    fn apply_segment(&self, segment: Segment) {
        self.runtime.apply_segment(segment)
    }

    fn finish(&self) {
        self.runtime.finish()
    }

    fn promote(&self) -> Promotion {
        self.runtime.promote()
    }

    fn applied_seq(&self) -> SeqNo {
        self.runtime.applied_seq()
    }

    fn exposed_seq(&self) -> SeqNo {
        self.runtime.exposed_seq()
    }

    fn read_view(&self) -> Box<dyn ReadView> {
        self.runtime.read_view()
    }

    fn lag(&self) -> Arc<LagTracker> {
        self.runtime.lag()
    }

    fn metrics(&self) -> ReplicaMetrics {
        ReplicaMetrics {
            cross_shard_txns: self.cross_shard_txns(),
            ..self.runtime.metrics()
        }
    }

    fn wait_until_exposed(&self, seq: SeqNo, timeout: std::time::Duration) -> bool {
        self.runtime.wait_until_exposed(seq, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::MpcChecker;
    use crate::replica::drive_segments;
    use c5_common::{RowRef, RowWrite, Timestamp, TxnId, Value, WriteKind};
    use c5_log::{explode_txn, segments_from_entries, TxnEntry};
    use std::time::Duration;

    const KEY_SPACE: u64 = 64;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    fn config(shards: usize, workers: usize) -> ReplicaConfig {
        ReplicaConfig::default()
            .with_workers(workers)
            .with_shards(shards)
            .with_shard_key_space(KEY_SPACE)
            .with_snapshot_interval(Duration::from_micros(500))
    }

    /// A log whose transactions deliberately span shards: txn `t` updates
    /// key `t % 64` and key `(t + 32) % 64` (opposite halves of the key
    /// space) plus a unique insert, so under 2+ shards a large fraction of
    /// transactions is cross-shard.
    fn spanning_log(txns: u64) -> (Vec<(RowRef, Value)>, Vec<Segment>) {
        let population: Vec<(RowRef, Value)> = (0..KEY_SPACE)
            .map(|k| (row(k), Value::from_u64(0)))
            .collect();
        let mut entries = Vec::new();
        for t in 1..=txns {
            let writes = vec![
                RowWrite::update(row(t % KEY_SPACE), Value::from_u64(t)),
                RowWrite::update(
                    row((t + KEY_SPACE / 2) % KEY_SPACE),
                    Value::from_u64(t * 10),
                ),
                RowWrite::insert(RowRef::new(1, KEY_SPACE + t), Value::from_u64(t)),
            ];
            entries.push(TxnEntry::new(TxnId(t), Timestamp(t), writes));
        }
        (population, segments_from_entries(&entries, 16))
    }

    fn preloaded(population: &[(RowRef, Value)]) -> Arc<MvStore> {
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

    #[test]
    fn sharded_replica_converges_and_is_mpc_clean() {
        for shards in [1, 2, 4] {
            let (population, segments) = spanning_log(120);
            let replica = ShardedC5Replica::new(preloaded(&population), config(shards, 2));
            let mut checker = MpcChecker::new(&population, &segments);
            let last = segments.last().unwrap().last_seq().unwrap();

            drive_segments(replica.as_ref(), segments);

            let metrics = replica.metrics();
            assert_eq!(metrics.applied_txns, 120, "{shards} shards");
            assert_eq!(metrics.applied_seq, last);
            assert_eq!(metrics.exposed_seq, last);
            if shards > 1 {
                assert!(
                    metrics.cross_shard_txns * 10 >= metrics.applied_txns,
                    "the spanning log must be >=10% cross-shard (got {}/{})",
                    metrics.cross_shard_txns,
                    metrics.applied_txns
                );
            }
            let view = replica.read_view();
            checker.verify_state(view.as_of(), view.scan_all()).unwrap();
            assert_eq!(replica.lag().len(), 120);
        }
    }

    /// Shards are lane groups of one pipeline: S shards of W workers run
    /// S·W workers and one expose thread.
    #[test]
    fn s_shards_of_w_workers_run_s_times_w_plus_one_threads() {
        for (shards, workers) in [(1, 1), (1, 3), (2, 2), (4, 1), (4, 2)] {
            let replica = ShardedC5Replica::new(preloaded(&[]), config(shards, workers));
            assert_eq!(
                replica.runtime.thread_count(),
                shards * workers + 1,
                "{shards} shards of {workers} workers"
            );
        }
    }

    /// The reason to shard by key range: a row's chain stays inside its
    /// shard's lanes, so with one worker per shard no write ever waits for
    /// its per-row predecessor.
    #[test]
    fn one_worker_per_shard_defers_no_write() {
        for shards in [2, 4] {
            let (population, segments) = spanning_log(120);
            let replica = ShardedC5Replica::new(preloaded(&population), config(shards, 1));
            drive_segments(replica.as_ref(), segments);
            let metrics = replica.metrics();
            assert_eq!(metrics.applied_txns, 120, "{shards} shards");
            assert_eq!(metrics.deferred_writes, 0, "{shards} shards");
        }
    }

    /// The log must arrive in order. A segment that skips positions, or
    /// repeats some, stops the replica loudly at the schedule stage — the
    /// unsharded replica's check — and the cut never passes the hole.
    #[test]
    fn a_gapped_or_repeated_segment_panics_and_the_cut_stays_below_it() {
        let (population, segments) = spanning_log(30);
        let fed = segments[1].last_seq().unwrap();
        // Segment 3 skips segment 2's positions; segment 1 repeats itself.
        for bad in [segments[3].clone(), segments[1].clone()] {
            let replica = ShardedC5Replica::new(preloaded(&population), config(2, 1));
            for segment in &segments[..2] {
                replica.apply_segment(segment.clone());
            }
            assert!(replica.wait_until_exposed(fed, Duration::from_secs(30)));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                replica.apply_segment(bad)
            }));
            replica.finish();
            assert_eq!(replica.exposed_seq(), fed, "the cut passed the hole");
            let message = outcome
                .expect_err("an out-of-order segment must panic")
                .downcast::<String>()
                .map_or_else(|_| String::new(), |message| *message);
            assert!(
                message.contains("segments must arrive in log order"),
                "{message}"
            );
        }
    }

    #[test]
    fn gc_horizon_trails_the_vector_minimum() {
        // Hot rows in two different shards; with a zero trail the one cut
        // drives collection of both chains.
        let population = vec![(row(0), Value::from_u64(0)), (row(40), Value::from_u64(0))];
        let store = preloaded(&population);
        let replica = ShardedC5Replica::new(
            Arc::clone(&store),
            config(2, 2)
                .with_gc_trail(0)
                .with_snapshot_interval(Duration::from_micros(200)),
        );
        let entries: Vec<TxnEntry> = (1..=400u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![
                        RowWrite::update(row(0), Value::from_u64(t)),
                        RowWrite::update(row(40), Value::from_u64(t)),
                    ],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 16));
        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 400);
        assert!(metrics.reclaimed_versions > 0);
        assert!(
            store.stats().versions < 800,
            "hot chains must not grow without bound (got {})",
            store.stats().versions
        );
        let view = replica.read_view();
        assert_eq!(view.get(row(0)).unwrap().as_u64(), Some(400));
        assert_eq!(view.get(row(40)).unwrap().as_u64(), Some(400));
    }

    #[test]
    fn finish_is_idempotent_and_drop_is_safe() {
        let (population, segments) = spanning_log(10);
        let replica = ShardedC5Replica::new(preloaded(&population), config(4, 1));
        drive_segments(replica.as_ref(), segments);
        replica.finish();
        replica.finish();
        drop(replica);
    }

    /// Feeding a finished replica loses the segment, visibly: counted once,
    /// routed nowhere, applied nowhere.
    #[test]
    fn a_segment_fed_after_finish_is_dropped_once_and_not_routed() {
        let obs = c5_obs::Obs::new();
        let (population, mut segments) = spanning_log(20);
        let late = segments.pop().unwrap();
        let replica = ShardedC5Replica::new(
            preloaded(&population),
            config(4, 1).with_obs(Arc::clone(&obs)),
        );
        drive_segments(replica.as_ref(), segments);
        let before = replica.metrics();
        assert!(before.cross_shard_txns > 0);

        replica.apply_segment(late);
        assert_eq!(obs.metrics.counter("dropped_segments_total").get(), 1);
        assert_eq!(replica.metrics(), before, "nothing routed, nothing applied");
    }

    /// Mid-stream, with no `finish()` to force a cut and an hour-long
    /// interval: the cut follows the applied prefix on the progress signal
    /// alone — while three of four shards own nothing — and the caller
    /// blocks on that signal.
    #[test]
    fn spanning_cut_is_event_driven_across_busy_and_quiet_shards() {
        let hour = Duration::from_secs(3600);
        let population = vec![(row(0), Value::from_u64(0))];
        let replica = ShardedC5Replica::new(
            preloaded(&population),
            config(4, 1).with_snapshot_interval(hour),
        );
        // Every write lands in shard 0's range.
        let entries: Vec<TxnEntry> = (1..=40u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::update(row(t % 16), Value::from_u64(t))],
                )
            })
            .collect();
        let segments = segments_from_entries(&entries, 8);
        let last = segments.last().unwrap().last_seq().unwrap();

        let waiter = {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || replica.wait_until_exposed(last, hour))
        };
        // The one idle expose stage plus the waiter.
        let signal = Arc::clone(replica.runtime.signals().progress());
        while signal.parked() < 2 {
            std::thread::yield_now();
        }
        for segment in segments {
            replica.apply_segment(segment);
        }
        assert!(waiter.join().unwrap());
        assert_eq!(replica.exposed_seq(), last);
        replica.finish();
        assert_eq!(replica.lag().len(), 40);
    }

    #[test]
    fn quiet_shards_do_not_stall_the_cut() {
        // Every write lands in shard 0's range; shards 1..3 are sent
        // nothing, yet the cut must still reach the end of the log.
        let population = vec![(row(0), Value::from_u64(0))];
        let replica = ShardedC5Replica::new(preloaded(&population), config(4, 1));
        let entries: Vec<TxnEntry> = (1..=50u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::update(row(t % 16), Value::from_u64(t))],
                )
            })
            .collect();
        let segments = segments_from_entries(&entries, 8);
        let last = segments.last().unwrap().last_seq().unwrap();
        drive_segments(replica.as_ref(), segments);
        assert_eq!(replica.exposed_seq(), last);
    }

    /// The records of three transactions: txn A writes keys {1, 5}
    /// (cross-shard under a 2-shard router over [0, 8)), txn B writes {2}
    /// (shard 0), txn C writes {6, 7} (shard 1).
    fn multi_shard_records() -> Vec<LogRecord> {
        let entries = vec![
            TxnEntry::new(
                TxnId(1),
                Timestamp(1),
                vec![
                    RowWrite::insert(row(1), Value::from_u64(1)),
                    RowWrite::insert(row(5), Value::from_u64(5)),
                ],
            ),
            TxnEntry::new(
                TxnId(2),
                Timestamp(2),
                vec![RowWrite::insert(row(2), Value::from_u64(2))],
            ),
            TxnEntry::new(
                TxnId(3),
                Timestamp(3),
                vec![
                    RowWrite::insert(row(6), Value::from_u64(6)),
                    RowWrite::insert(row(7), Value::from_u64(7)),
                ],
            ),
        ];
        let mut records = Vec::new();
        let mut next = SeqNo::ZERO;
        for entry in entries {
            let (recs, n) = explode_txn(entry, next);
            next = n;
            records.extend(recs);
        }
        records
    }

    #[test]
    fn route_segment_moves_each_record_to_its_shard() {
        let router = ShardRouter::new(2, 8);
        let mut tracker = TxnShardTracker::default();
        let routed = route_segment_with(multi_shard_records(), &router, &mut tracker);
        assert_eq!(routed.cross_shard_txns, 1);
        assert_eq!(routed.parts.len(), 2);

        let keys =
            |part: &[LogRecord]| -> Vec<u64> { part.iter().map(|r| r.write.row.key.0).collect() };
        assert_eq!(keys(&routed.parts[0]), vec![1, 2]);
        assert_eq!(keys(&routed.parts[1]), vec![5, 6, 7]);
        // Records keep their global order within a shard.
        for part in &routed.parts {
            assert!(part.windows(2).all(|w| w[0].seq < w[1].seq));
        }

        // A segment owned wholly by shard 1 leaves shard 0 an empty run.
        let entry = TxnEntry::new(
            TxnId(4),
            Timestamp(4),
            vec![RowWrite::insert(row(7), Value::from_u64(8))],
        );
        let (records, _) = explode_txn(entry, SeqNo(5));
        let routed = route_segment_with(records, &router, &mut tracker);
        assert_eq!(routed.cross_shard_txns, 0);
        assert!(routed.parts[0].is_empty(), "shard 0 owns nothing here");
        assert_eq!(routed.parts[1].len(), 1);
    }

    #[test]
    fn txn_straddling_segments_is_counted_once_by_id() {
        // One cross-shard transaction (keys 1 and 5 under a 2-shard router
        // over [0, 8)) whose two records are deliberately split across two
        // segments — the shape a segment-splitting producer would emit.
        let entry = TxnEntry::new(
            TxnId(1),
            Timestamp(1),
            vec![
                RowWrite::insert(row(1), Value::from_u64(1)),
                RowWrite::insert(row(5), Value::from_u64(5)),
            ],
        );
        let (mut records, _) = explode_txn(entry, SeqNo::ZERO);
        let second = records.split_off(1);
        let router = ShardRouter::new(2, 8);
        let mut tracker = TxnShardTracker::default();

        let first = route_segment_with(records, &router, &mut tracker);
        // No last write seen yet: nothing is counted, the mask stays open.
        assert_eq!(first.cross_shard_txns, 0);
        assert_eq!(tracker.open.len(), 1);

        let second = route_segment_with(second, &router, &mut tracker);
        // The final write completes the mask {shard 0, shard 1}: counted as
        // cross-shard exactly once. Without the carried mask the second
        // segment only sees shard 1 and the transaction would be
        // misclassified as single-shard.
        assert_eq!(second.cross_shard_txns, 1);
        assert!(tracker.open.is_empty());
        // Both records still arrive, each on its own shard.
        let parts: Vec<usize> = first
            .parts
            .iter()
            .chain(&second.parts)
            .map(Vec::len)
            .collect();
        assert_eq!(parts, vec![1, 0, 0, 1]);
    }
}
