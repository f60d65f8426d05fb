//! The isolation pass: each layer's public functions called single-threaded
//! over the workload's materialised log, timed from outside.
//!
//! These are costs without contention or waiting, in the units a perf change
//! to that layer would quote. Which end-to-end metric each should move, and
//! on which workload, is tabulated in the README.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_common::{DurabilityPolicy, ReadConfig, RowRef, Timestamp, Value};
use c5_core::pipeline::RowWaitList;
use c5_core::progress::WatermarkTracker;
use c5_core::scheduler::SchedulerState;
use c5_log::{wal, LogArchive, LogRecord, LogShipper, Segment};
use c5_read::{ConsistencyClass, ReadRouter};
use c5_storage::MvStore;

use crate::fleet::{preloaded_store, ArchiveDir, Fleet};
use crate::workload::{snapshot_keys, Prng, WorkloadSpec, SNAPSHOT_STALENESS_MS};

/// Segments the wire, codec and archive measurements run over: enough for a
/// stable per-segment figure without encoding the whole log twice.
const WIRE_SEGMENTS: usize = 1024;
/// Segments appended to the durable archive (one fsync each).
const ARCHIVE_SEGMENTS: usize = 100;
/// Point reads and channel round trips timed.
const SMALL_OPS: u64 = 200_000;

/// The isolation pass's results.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// `SchedulerState::process_segment`, ns per record.
    pub schedule_ns: f64,
    /// `WatermarkTracker::mark_applied_batch` (one batch per segment), ns
    /// per record.
    pub watermark_ns: f64,
    /// `MvStore::install_if_prev` in log order, ns per record.
    pub install_ns: f64,
    /// `RowWaitList::install_or_park` with each segment's records presented
    /// newest first, so every write whose row was written earlier in the
    /// same segment parks and is woken — ns per record, install included.
    pub waitlist_ns: f64,
    /// `LogShipper::ship` with one subscriber, µs per segment.
    pub ship_us_1sub: f64,
    /// `LogShipper::ship` with two subscribers, µs per segment.
    pub ship_us_2sub: f64,
    /// `wal::encode_segment`, ns per record.
    pub encode_ns: f64,
    /// `wal::decode_segment`, ns per record.
    pub decode_ns: f64,
    /// Encoded bytes per record.
    pub bytes_per_rec: f64,
    /// `LogArchive::append` on a durable archive (`EverySegment`), µs per
    /// segment; the sandbox's fsync, not a device's.
    pub archive_append_us: f64,
    /// Files the archive wrote per segment appended.
    pub fsyncs_per_seg: f64,
    /// `MvStore::read_at` of a random preloaded row, ns.
    pub read_ns: f64,
    /// One `MvStore::gc` pass over the store after the whole log, ms (the
    /// expose stage runs one whenever the cut has advanced a quarter of the
    /// GC trail).
    pub gc_ms: f64,
    /// One bounded-staleness `ReadSession::read` on a caught-up replica, ns.
    pub route_ns: f64,
    /// Bounded send + recv on the crossbeam stand-in, ns per message.
    pub channel_ns: f64,
}

fn per(elapsed: Duration, count: u64, unit_ns: f64) -> f64 {
    elapsed.as_nanos() as f64 / unit_ns / count.max(1) as f64
}

/// Runs the isolation pass for `spec` over `segments` (the materialised log).
pub fn measure(
    spec: &WorkloadSpec,
    population: &[(RowRef, Value)],
    segments: &[Segment],
    seed: u64,
) -> std::io::Result<LayerCosts> {
    let records: u64 = segments.iter().map(|s| s.len() as u64).sum();

    // Schedule: stamp every record with its row's previous write. The
    // stamped log feeds the store and wait-list measurements below.
    let mut stamped = segments.to_vec();
    let mut scheduler = SchedulerState::new();
    let begun = Instant::now();
    for segment in &mut stamped {
        scheduler.process_segment(segment);
    }
    let schedule_ns = per(begun.elapsed(), records, 1.0);

    // Watermark: one batch of marks per segment, in log order.
    let marks: Vec<Vec<_>> = stamped
        .iter()
        .map(|s| s.records.iter().map(|r| (r.seq, r.is_txn_last())).collect())
        .collect();
    let tracker = WatermarkTracker::new();
    let begun = Instant::now();
    for batch in &marks {
        tracker.mark_applied_batch(batch);
    }
    let watermark_ns = per(begun.elapsed(), records, 1.0);
    assert_eq!(tracker.applied_watermark().as_u64(), records);
    drop(marks);

    // Store: the apply path's check-and-install, every one succeeding.
    let install = |store: &MvStore, r: &LogRecord| {
        store.install_if_prev(
            r.write.row,
            Timestamp(r.prev_seq.as_u64()),
            Timestamp(r.seq.as_u64()),
            r.write.kind,
            r.write.value.clone(),
        )
    };
    let store = preloaded_store(population);
    let begun = Instant::now();
    for record in stamped.iter().flat_map(|s| &s.records) {
        assert!(install(&store, record), "in-order install refused");
    }
    let install_ns = per(begun.elapsed(), records, 1.0);

    // Reads and GC on the store the log has been applied to.
    let mut rng = Prng::new(seed);
    let begun = Instant::now();
    for _ in 0..SMALL_OPS {
        let [row, ..] = snapshot_keys(&mut rng, &spec.traffic);
        black_box(store.read_at(row, Timestamp::MAX));
    }
    let read_ns = per(begun.elapsed(), SMALL_OPS, 1.0);
    let begun = Instant::now();
    black_box(store.gc(Timestamp(records)));
    let gc_ms = begun.elapsed().as_secs_f64() * 1e3;
    drop(store);

    // Wait list: newest first within each segment, so in-segment per-row
    // chains park link by link and drain when their head arrives.
    let store = preloaded_store(population);
    let waits = RowWaitList::default();
    let installed = Cell::new(0u64);
    let try_install = |r: &LogRecord| {
        let ok = install(&store, r);
        installed.set(installed.get() + u64::from(ok));
        ok
    };
    let begun = Instant::now();
    for segment in stamped {
        for record in segment.records.into_iter().rev() {
            waits.install_or_park(record, &try_install);
        }
    }
    let waitlist_ns = per(begun.elapsed(), records, 1.0);
    assert_eq!((installed.get(), waits.parked()), (records, 0));
    drop(store);

    // The wire: ship into subscriptions nobody drains (capacity covers the
    // batch), so only the shipper's own work is timed.
    let wire = &segments[..segments.len().min(WIRE_SEGMENTS)];
    let wire_records: u64 = wire.iter().map(|s| s.len() as u64).sum();
    let ship_us = |subscribers: usize| {
        let (shipper, receivers) = LogShipper::fan_out(subscribers, wire.len());
        let batch = wire.to_vec();
        let begun = Instant::now();
        for segment in batch {
            shipper.ship(segment);
        }
        let elapsed = begun.elapsed();
        drop(receivers);
        per(elapsed, wire.len() as u64, 1e3)
    };
    let ship_us_1sub = ship_us(1);
    let ship_us_2sub = ship_us(2);

    // The frame codec.
    let begun = Instant::now();
    let encoded: Vec<Vec<u8>> = wire.iter().map(wal::encode_segment).collect();
    let encode_ns = per(begun.elapsed(), wire_records, 1.0);
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let begun = Instant::now();
    for bytes in &encoded {
        black_box(wal::decode_segment(bytes));
    }
    let decode_ns = per(begun.elapsed(), wire_records, 1.0);
    drop(encoded);

    // The durable archive.
    let dir = ArchiveDir::create()?;
    let archive = LogArchive::durable(dir.path(), DurabilityPolicy::EverySegment)?;
    let appended = &segments[..segments.len().min(ARCHIVE_SEGMENTS)];
    let begun = Instant::now();
    for segment in appended {
        archive.append(segment);
    }
    let archive_append_us = per(begun.elapsed(), appended.len() as u64, 1e3);
    let fsyncs_per_seg = dir.segment_files() as f64 / appended.len().max(1) as f64;
    drop((archive, dir));

    // One route decision plus the point read behind it, on an idle replica
    // (nothing to wait for: an empty log is fully exposed).
    let quiet = WorkloadSpec {
        replicas: 1,
        durable: false,
        ..*spec
    };
    let fleet = Fleet::start(&quiet, population, None)?;
    let router = Arc::new(ReadRouter::new(
        fleet.replicas.clone(),
        ReadConfig::default(),
    ));
    let mut session = router.session();
    let class = ConsistencyClass::BoundedStaleness(Duration::from_millis(SNAPSHOT_STALENESS_MS));
    let begun = Instant::now();
    for _ in 0..SMALL_OPS {
        let [row, ..] = snapshot_keys(&mut rng, &spec.traffic);
        black_box(session.read(&class, row)).expect("an idle replica serves at once");
    }
    let route_ns = per(begun.elapsed(), SMALL_OPS, 1.0);
    for replica in &fleet.replicas {
        replica.finish();
    }
    drop(fleet);

    // The channel every hand-off crosses.
    let (tx, rx) = crossbeam::channel::bounded::<u64>(1024);
    let begun = Instant::now();
    for i in 0..SMALL_OPS {
        tx.send(i).expect("receiver alive");
        black_box(rx.recv()).expect("sender alive");
    }
    let channel_ns = per(begun.elapsed(), SMALL_OPS, 1.0);

    Ok(LayerCosts {
        schedule_ns,
        watermark_ns,
        install_ns,
        waitlist_ns,
        ship_us_1sub,
        ship_us_2sub,
        encode_ns,
        decode_ns,
        bytes_per_rec: bytes as f64 / wire_records.max(1) as f64,
        archive_append_us,
        fsyncs_per_seg,
        read_ns,
        gc_ms,
        route_ns,
        channel_ns,
    })
}
