//! Heap allocations per replayed record, counted by this binary's global
//! allocator.
//!
//! One seeded shard-span log (two uniform updates per transaction over
//! preloaded rows, so it carries per-row dependency chains) is replayed
//! through faithful C5, C5-MyRocks, a 2-shard C5 and KuaFu, and its
//! per-segment marks go into a bare `WatermarkTracker`. A replica's count is
//! that of the whole replay less that of replaying an empty log through the
//! same replica, so set-up (preload, threads, sink) is not charged to the
//! records. The counts depend a little on how the workers interleave (a
//! write that finds its predecessor missing parks), so each bound has some
//! head room above the counts seen.
//!
//! The primary's side is counted too: a seeded stream of the same
//! two-update transactions committed through the 2PL engine into a logger
//! whose one subscriber never drains, per committed transaction, after a
//! warm-up.
//!
//! Everything is one test function, so no other test in this binary
//! allocates while a count runs. Run it alone with `cargo test --test
//! allocations`; `-- --nocapture` prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use c5_bench::harness::{materialize_log, replay_log};
use c5_bench::{ReplicaSpec, Scale};
use c5_obs::Obs;
use c5_repro::common::{PrimaryConfig, Result, RowRef, SeqNo, Value};
use c5_repro::core::progress::WatermarkTracker;
use c5_repro::log::{LogShipper, Segment, StreamingLogger};
use c5_repro::primary::{StoredProcedure, TplEngine, TxnCtx, TxnFactory};
use c5_repro::storage::MvStore;
use c5_repro::workloads::synthetic::{shard_span_population, ShardSpanWorkload, SYNTHETIC_TABLE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts every allocation and reallocation, on any thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made, on any thread, while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Keys of the shard-span workload (the `sharded` experiment's).
const KEY_SPACE: u64 = 4096;

/// Each replica, with its bound on allocations per record: the most seen
/// over repeated debug and release runs, some of them three at once, rounded
/// up. The comment beside each gives the count, over the same runs, with
/// the tracker that kept single positions in two sets and KuaFu's own
/// done-set; that tracker alone allocated 0.062 (in order) and 0.131
/// (swapped) times per record.
const REPLICAS: [(&str, ReplicaSpec, f64); 4] = [
    // Seen: 0.21–0.23. Before: 0.34.
    ("c5", ReplicaSpec::C5Faithful, 0.28),
    // Seen: 0.22–0.25. Before: 0.28–0.34.
    ("c5-myrocks", ReplicaSpec::C5MyRocks, 0.28),
    // Seen: 0.27–0.29. Before: 0.39.
    (
        "c5 at 2 shards",
        ReplicaSpec::C5Sharded {
            shards: 2,
            key_space: KEY_SPACE,
        },
        0.33,
    ),
    // Seen: 1.06–1.07. Before: 1.07–1.09.
    (
        "kuafu",
        ReplicaSpec::KuaFu {
            ignore_constraints: false,
        },
        1.10,
    ),
];

/// Transactions the 2PL loop commits before it counts, and while it counts.
const COMMIT_WARM_UP: usize = 2_000;
const COMMITS: usize = 20_000;

/// The 2PL commit loop's bound on allocations per committed transaction:
/// the count seen (2.076, the same in debug and release), rounded up. Two
/// of them are `TplEngine::try_execute`'s own, made per attempt: the `held`
/// row-lock list and the write set's vector. The rest is shared out over
/// many commits: the segment the logger cuts every 128 transactions, and
/// the growth of the primary store's version slabs, which nothing trims.
const COMMIT_BOUND: f64 = 2.08;

/// Two read-for-update-then-update writes to distinct uniform keys, in key
/// order (the shard-span transaction), whose values are made when the
/// transaction is drawn: making a value, like making the procedure, is the
/// client's allocation, not the commit's.
struct TwoUpdates([(RowRef, Value); 2]);

impl TwoUpdates {
    fn draw(rng: &mut StdRng, value: u64) -> Self {
        let first = rng.gen_range(0..KEY_SPACE);
        let second = (first + rng.gen_range(1..KEY_SPACE)) % KEY_SPACE;
        let write = |key| (RowRef::new(SYNTHETIC_TABLE, key), Value::from_u64(value));
        TwoUpdates([write(first.min(second)), write(first.max(second))])
    }
}

impl StoredProcedure for TwoUpdates {
    fn execute(&self, ctx: &mut dyn TxnCtx) -> Result<()> {
        for (row, value) in &self.0 {
            ctx.read_for_update(*row)?;
            ctx.update(*row, value.clone())?;
        }
        Ok(())
    }
}

#[test]
fn the_tracker_allocates_nothing_and_replay_stays_under_its_bounds() {
    let scale = Scale::smoke();
    let population = shard_span_population(KEY_SPACE);
    let factory: Arc<dyn TxnFactory> = Arc::new(ShardSpanWorkload::new(KEY_SPACE));
    let (_, segments) = materialize_log(
        &scale,
        &population,
        scale.offline_txns_per_thread(),
        &factory,
    );
    let records = segments.iter().map(Segment::len).sum::<usize>();

    // The tracker alone: one batch of marks per segment, in log order and
    // with neighbouring segments swapped. Its first batch may allocate (a
    // map's first node); nothing after it may.
    let batches: Vec<Vec<(SeqNo, bool)>> = segments
        .iter()
        .map(|s| s.records.iter().map(|r| (r.seq, r.is_txn_last())).collect())
        .collect();
    let mut swapped: Vec<&Vec<(SeqNo, bool)>> = batches.iter().collect();
    swapped.chunks_mut(2).for_each(|pair| pair.reverse());
    for (order, batches) in [("in order", batches.iter().collect()), ("swapped", swapped)] {
        let tracker = WatermarkTracker::new();
        tracker.mark_applied_batch(batches[0]);
        let counted = allocations(|| {
            batches[1..]
                .iter()
                .for_each(|batch| tracker.mark_applied_batch(batch))
        });
        assert_eq!(tracker.applied_watermark(), SeqNo(records as u64));
        assert_eq!(counted, 0, "the tracker allocated with batches {order}");
    }

    let replay = |spec: ReplicaSpec, log: Vec<Segment>| {
        let (obs, len) = (Obs::new(), log.iter().map(Segment::len).sum::<usize>());
        allocations(|| {
            let (_, _, metrics) = replay_log(&scale, &population, log, spec, obs);
            assert_eq!(metrics.applied_writes, len as u64);
        })
    };
    let mut counts = Vec::new();
    for (name, spec, bound) in REPLICAS {
        // Warm up: lazily built process-wide state is built here.
        replay(spec, segments.clone());
        let (empty, log) = (Vec::new(), segments.clone());
        let set_up = replay(spec, empty);
        let per_record = replay(spec, log).saturating_sub(set_up) as f64 / records as f64;
        counts.push(format!("{name}: {per_record:.3}"));
        assert!(
            per_record <= bound,
            "{name} allocated {per_record:.3} times per record, above its bound \
             {bound} ({})",
            counts.join(", ")
        );
    }
    println!("allocations per record: {}", counts.join(", "));

    // The 2PL commit loop, on this thread alone.
    let (shipper, _undrained) = LogShipper::unbounded();
    let logger = StreamingLogger::new(scale.segment_records, shipper);
    let engine = TplEngine::new(
        Arc::new(MvStore::default()),
        PrimaryConfig::default(),
        logger,
    );
    for (row, value) in &population {
        engine.load_row(*row, value.clone());
    }
    let mut rng = StdRng::seed_from_u64(42);
    let procedures: Vec<TwoUpdates> = (0..COMMIT_WARM_UP + COMMITS)
        .map(|t| TwoUpdates::draw(&mut rng, t as u64))
        .collect();
    let (warm_up, counted) = procedures.split_at(COMMIT_WARM_UP);
    let commit = |procedure: &TwoUpdates| {
        engine.execute(procedure).expect("one client never aborts");
    };
    warm_up.iter().for_each(commit);
    let per_txn = allocations(|| counted.iter().for_each(commit)) as f64 / COMMITS as f64;
    println!("allocations per committed 2PL transaction: {per_txn:.3}");
    assert_eq!(engine.committed(), (COMMIT_WARM_UP + COMMITS) as u64);
    assert!(
        per_txn <= COMMIT_BOUND,
        "a 2PL commit allocated {per_txn:.3} times, above its bound {COMMIT_BOUND}"
    );
    engine.close_log();
}
