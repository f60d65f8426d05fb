//! Splitting a segment by key range: the lane choice of a sharded replica.
//!
//! A faithful [`C5Replica`](crate::replica::C5Replica) with `config.shards >
//! 1` runs `shards × workers` worker lanes, grouped by the key range of a
//! [`c5_common::ShardRouter`]: after the schedule stage stamps a segment
//! whole, [`route_segment_with`] moves each record to the shard owning its
//! row, and each shard's run goes to one of that shard's lanes. A row never
//! changes shards, so its chain stays inside one lane group. Ordering,
//! exposure and the one cut are the unsharded replica's (see DESIGN.md,
//! "Keyspace sharding").
//!
//! The split runs once per segment on the feeder, so it amortizes its
//! allocations: the per-record shard assignments and per-shard counts live
//! in scratch buffers inside a persistent [`RouteScratch`] (they grow to
//! one segment's size once and are reused after), and each shard's run of
//! records is allocated once, at its final size — a shard that owns nothing
//! in a segment allocates nothing and is sent nothing. A segment holds whole
//! transactions (the exposure's `note_segment` refuses one that does not),
//! so the split judges each transaction cross-shard or not within the one
//! segment that holds it.

use c5_common::ShardRouter;
use c5_log::LogRecord;

/// The result of splitting one segment's records by key range.
#[derive(Debug)]
pub(crate) struct RoutedRecords {
    /// One run of records per shard, indexed by shard, in log order. Records
    /// *move* here from the segment; nothing is cloned.
    pub(crate) parts: Vec<Vec<LogRecord>>,
    /// Transactions whose last write is in the segment and whose writes
    /// spanned more than one shard.
    pub(crate) cross_shard_txns: u64,
}

/// [`route_segment_with`]'s scratch buffers, kept across calls.
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    /// The shard assignment of each record in the segment being routed.
    shard_of: Vec<u8>,
    /// Per-shard record counts of the segment being routed, so each shard's
    /// buffer can be allocated exactly once at its final size (and empty
    /// shards allocate nothing).
    counts: Vec<u32>,
}

/// Splits one segment's records by key range under `router`. Each record
/// moves to the shard owning its row; within a shard, records keep their log
/// order. A transaction's records are consecutive in the log and whole in
/// the segment, so one running shard mask judges each transaction exactly
/// once, at its last write.
pub(crate) fn route_segment_with(
    records: Vec<LogRecord>,
    router: &ShardRouter,
    scratch: &mut RouteScratch,
) -> RoutedRecords {
    let mut cross_shard_txns = 0u64;
    // First pass, by reference: route every record (shards fit in a u8 —
    // `ShardRouter` caps at 64), count per shard, and judge each
    // transaction's shard mask. The scratch buffers persist across calls,
    // so after the first segment this pass allocates nothing.
    let RouteScratch { shard_of, counts } = scratch;
    shard_of.clear();
    shard_of.reserve(records.len());
    counts.clear();
    counts.resize(router.shards(), 0);
    let mut mask = 0u64;
    for record in &records {
        let shard = router.route(record.write.row);
        shard_of.push(shard as u8);
        counts[shard] += 1;
        mask |= 1u64 << shard;
        if record.is_txn_last() {
            if !mask.is_power_of_two() {
                cross_shard_txns += 1;
            }
            mask = 0;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::MpcChecker;
    use crate::replica::{
        drive_within_deadline, C5Mode, C5Replica, ClonedConcurrencyControl, FLEET_PROGRESS,
    };
    use c5_common::{ReplicaConfig, RowRef, RowWrite, SeqNo, Timestamp, Value, WriteKind};
    use c5_log::{segments_from_entries, Segment, SegmentBuilder, TxnEntry};
    use c5_storage::MvStore;
    use std::sync::Arc;
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
            entries.push(TxnEntry::new(Timestamp(t), writes));
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
            let replica =
                C5Replica::new(C5Mode::Faithful, preloaded(&population), config(shards, 2));
            let mut checker = MpcChecker::new(&population, &segments);
            let last = segments.last().unwrap().last_seq().unwrap();

            drive_within_deadline(&replica, segments);

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

    /// Shards are lane groups of one pipeline whose workers take the one
    /// timestamped cut themselves: S shards of W workers run S·W threads.
    #[test]
    fn s_shards_of_w_workers_run_s_times_w_threads() {
        for (shards, workers) in [(1, 1), (1, 3), (2, 2), (4, 1), (4, 2)] {
            let replica = C5Replica::new(C5Mode::Faithful, preloaded(&[]), config(shards, workers));
            assert_eq!(
                replica.runtime.thread_count(),
                shards * workers,
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
            let replica =
                C5Replica::new(C5Mode::Faithful, preloaded(&population), config(shards, 1));
            drive_within_deadline(&replica, segments);
            let metrics = replica.metrics();
            assert_eq!(metrics.applied_txns, 120, "{shards} shards");
            assert_eq!(metrics.deferred_writes, 0, "{shards} shards");
        }
    }

    /// The log must arrive in order. A segment that skips positions, or
    /// repeats some, stops the replica loudly at the schedule stage's stamp,
    /// which every C5 form shares, and the cut never passes the hole.
    #[test]
    fn a_gapped_or_repeated_segment_panics_and_the_cut_stays_below_it() {
        let (population, segments) = spanning_log(30);
        let fed = segments[1].last_seq().unwrap();
        let forms = [
            (C5Mode::Faithful, 1),
            (C5Mode::Faithful, 2),
            (C5Mode::OneWorkerPerTxn, 1),
        ];
        // Segment 3 skips segment 2's positions; segment 1 repeats itself.
        for ((mode, shards), bad) in forms
            .into_iter()
            .flat_map(|form| [(form, segments[3].clone()), (form, segments[1].clone())])
        {
            let replica = C5Replica::new(mode, preloaded(&population), config(shards, 1));
            for segment in &segments[..2] {
                replica.apply_segment(segment.clone());
            }
            assert!(replica.wait_until_exposed(fed, Duration::from_secs(30)));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                replica.apply_segment(bad)
            }));
            replica.finish();
            assert_eq!(
                replica.exposed_seq(),
                fed,
                "{mode:?} at {shards} shards: the cut passed the hole"
            );
            let message = outcome
                .expect_err("an out-of-order segment must panic")
                .downcast::<String>()
                .map_or_else(|_| String::new(), |message| *message);
            assert!(
                message.contains("segments must arrive in log order"),
                "{mode:?} at {shards} shards: {message}"
            );
        }
    }

    /// One-worker-per-transaction mode hands whole transactions to one
    /// shared queue, so it has no lanes to group by key range.
    #[test]
    #[should_panic(expected = "C5Mode::OneWorkerPerTxn cannot shard")]
    fn one_worker_per_txn_refuses_to_shard() {
        C5Replica::new(C5Mode::OneWorkerPerTxn, preloaded(&[]), config(4, 1));
    }

    #[test]
    fn one_cut_trims_hot_chains_in_every_shard() {
        // Hot rows in two different shards; with a zero trail the one cut's
        // horizon trims both chains as they are written.
        let population = vec![(row(0), Value::from_u64(0)), (row(40), Value::from_u64(0))];
        let store = preloaded(&population);
        let replica = C5Replica::new(
            C5Mode::Faithful,
            Arc::clone(&store),
            config(2, 2)
                .with_gc_trail(0)
                .with_snapshot_interval(Duration::from_micros(200)),
        );
        let entries: Vec<TxnEntry> = (1..=400u64)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(t),
                    vec![
                        RowWrite::update(row(0), Value::from_u64(t)),
                        RowWrite::update(row(40), Value::from_u64(t)),
                    ],
                )
            })
            .collect();
        drive_within_deadline(&replica, segments_from_entries(&entries, 16));
        assert_eq!(replica.metrics().applied_txns, 400);
        let view = replica.read_view();
        assert_eq!(view.get(row(0)).unwrap().as_u64(), Some(400));
        assert_eq!(view.get(row(40)).unwrap().as_u64(), Some(400));
        // The one horizon reached the final cut, and each row's next write,
        // whichever shard holds it, trims its chain to the version there.
        assert_eq!(store.gc_horizon(), Timestamp(800));
        for r in [row(0), row(40)] {
            store.install(
                r,
                Timestamp(801),
                WriteKind::Update,
                Some(Value::from_u64(801)),
            );
        }
        assert_eq!(store.stats().versions, 4);
    }

    #[test]
    fn finish_is_idempotent_and_drop_is_safe() {
        let (population, segments) = spanning_log(10);
        let replica = C5Replica::new(C5Mode::Faithful, preloaded(&population), config(4, 1));
        drive_within_deadline(&replica, segments);
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
        let replica = C5Replica::new(
            C5Mode::Faithful,
            preloaded(&population),
            config(4, 1).with_obs(Arc::clone(&obs)),
        );
        drive_within_deadline(&replica, segments);
        let before = replica.metrics();
        assert!(before.cross_shard_txns > 0);

        replica.apply_segment(late);
        assert_eq!(obs.metrics.counter("dropped_segments_total").get(), 1);
        assert_eq!(replica.metrics(), before, "nothing routed, nothing applied");
    }

    /// Mid-stream, with no `finish()` to force a cut and an hour-long
    /// interval: the cut follows the applied prefix alone — while three of
    /// four shards own nothing — and the caller blocks on
    /// [`FLEET_PROGRESS`] until the cut is announced.
    #[test]
    fn spanning_cut_is_event_driven_across_busy_and_quiet_shards() {
        let hour = Duration::from_secs(3600);
        let population = vec![(row(0), Value::from_u64(0))];
        let replica = C5Replica::new(
            C5Mode::Faithful,
            preloaded(&population),
            config(4, 1).with_snapshot_interval(hour),
        );
        // Every write lands in shard 0's range.
        let entries: Vec<TxnEntry> = (1..=40u64)
            .map(|t| {
                TxnEntry::new(
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
        // The waiter asleep (or another test's: the cut holds either way);
        // the workers take the cut themselves.
        while FLEET_PROGRESS.parked() < 1 {
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
        let replica = C5Replica::new(C5Mode::Faithful, preloaded(&population), config(4, 1));
        let entries: Vec<TxnEntry> = (1..=50u64)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(t),
                    vec![RowWrite::update(row(t % 16), Value::from_u64(t))],
                )
            })
            .collect();
        let segments = segments_from_entries(&entries, 8);
        let last = segments.last().unwrap().last_seq().unwrap();
        drive_within_deadline(&replica, segments);
        assert_eq!(replica.exposed_seq(), last);
    }

    /// The records of three transactions: txn A writes keys {1, 5}
    /// (cross-shard under a 2-shard router over [0, 8)), txn B writes {2}
    /// (shard 0), txn C writes {6, 7} (shard 1).
    fn multi_shard_records() -> Vec<LogRecord> {
        let entries = vec![
            TxnEntry::new(
                Timestamp(1),
                vec![
                    RowWrite::insert(row(1), Value::from_u64(1)),
                    RowWrite::insert(row(5), Value::from_u64(5)),
                ],
            ),
            TxnEntry::new(
                Timestamp(2),
                vec![RowWrite::insert(row(2), Value::from_u64(2))],
            ),
            TxnEntry::new(
                Timestamp(3),
                vec![
                    RowWrite::insert(row(6), Value::from_u64(6)),
                    RowWrite::insert(row(7), Value::from_u64(7)),
                ],
            ),
        ];
        segments_from_entries(&entries, 1024).remove(0).records
    }

    #[test]
    fn route_segment_moves_each_record_to_its_shard() {
        let router = ShardRouter::new(2, 8);
        let mut scratch = RouteScratch::default();
        let routed = route_segment_with(multi_shard_records(), &router, &mut scratch);
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
        let write = RowWrite::insert(row(7), Value::from_u64(8));
        let segment = SegmentBuilder::resume_at(1, SeqNo(5)).push_txn(0, &[write]);
        let routed = route_segment_with(segment.unwrap().records, &router, &mut scratch);
        assert_eq!(routed.cross_shard_txns, 0);
        assert!(routed.parts[0].is_empty(), "shard 0 owns nothing here");
        assert_eq!(routed.parts[1].len(), 1);
    }

    /// No producer splits a transaction across segments (Section 7.1), so
    /// the key-range split judges each transaction inside one segment. A
    /// segment that splits one — here a cross-shard transaction's first
    /// write alone — stops the schedule stage at `note_segment`, before
    /// anything is noted or routed.
    #[test]
    fn a_txn_split_across_segments_panics_at_note_segment() {
        let writes = [
            RowWrite::insert(row(1), Value::from_u64(1)),
            RowWrite::insert(row(40), Value::from_u64(40)),
        ];
        let segment = SegmentBuilder::new(2).push_txn(0, &writes);
        let mut records = segment.unwrap().records;
        records.truncate(1);
        let replica = C5Replica::new(C5Mode::Faithful, preloaded(&[]), config(2, 1));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replica.apply_segment(Segment::new(records))
        }));
        replica.finish();
        let message = outcome
            .expect_err("a split transaction must panic")
            .downcast::<String>()
            .map_or_else(|_| String::new(), |message| *message);
        assert!(
            message.contains("segments must hold whole transactions"),
            "{message}"
        );
        assert_eq!(replica.metrics(), Default::default(), "nothing noted");
    }
}
