//! The scenario runner.
//!
//! Every live experiment in this crate is one shape — a 2PL primary under
//! closed-loop load, its log shipped to some replicas, optionally readers on
//! the replicas and something happening to the fleet mid-run — varied along a
//! few axes. [`Scenario`] names the axes, [`run_scenario`] is the only
//! function that builds the primary, the shipper and the replicas for a live
//! run, and [`Outcome`] is everything any table reports about it: each
//! experiment builds its rows from the typed fields and prints them with
//! [`print_table`]. The offline (Cicada-style) replay, which has no live
//! log, is [`run_offline_mvtso`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_baselines::{
    CoarseGrainReplica, Granularity, KuaFuConfig, KuaFuReplica, SingleThreadedReplica,
};
use c5_common::{
    Error, OpCost, PrimaryConfig, ReadConfig, ReplicaConfig, RowRef, SeqNo, Timestamp, Value,
    WriteKind,
};
use c5_core::fleet::{FleetController, FleetRoutingSink, JoinReport, RetireReport};
use c5_core::lag::LagStats;
use c5_core::replica::{
    drive_segments, C5Mode, C5Replica, ClonedConcurrencyControl, ReadView, ReplicaMetrics,
};
use c5_log::{LogArchive, LogShipper, Segment, StreamingLogger};
use c5_obs::{HistogramSnapshot, Obs};
use c5_primary::{
    ClosedLoopDriver, MvtsoEngine, PrimaryRunStats, RunLength, TplEngine, TxnCtx, TxnFactory,
};
use c5_read::{ClassStats, ConsistencyClass, ReadRouter, SessionRead};
use c5_storage::{CheckpointWriter, MvStore};
use c5_workloads::readonly::{run_point_read_clients, ReadRunStats};
use c5_workloads::SYNTHETIC_TABLE;

use crate::scale::Scale;

/// RNG seed of every run (clients, sessions and point-read keys derive
/// theirs from it).
pub const SEED: u64 = 42;

/// Per-operation cost model of every live run: the paper's `e`/`d` ratio at
/// 2 µs per primary operation.
pub const OP_COST: OpCost = OpCost::paper_like(2_000);

/// Table reader sessions write their own tokened rows to (disjoint from every
/// workload's tables, so sessions only ever race with themselves).
pub const SESSION_TABLE: u32 = 200;

/// Staleness a `bounded` session read accepts.
pub const STALENESS_BOUND: Duration = Duration::from_millis(100);

/// Key space point-read clients draw from: roughly twice the rows an
/// insert-only run creates, so some lookups miss (as the paper allows).
pub const POINT_READ_KEY_SPACE: u64 = 200_000;

/// Which backup protocol to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaSpec {
    /// C5 in its faithful (Cicada-style) form.
    C5Faithful,
    /// C5 with the MyRocks backward-compatibility constraints.
    C5MyRocks,
    /// Faithful C5 over a key-range-sharded keyspace: one pipeline whose
    /// worker lanes are grouped by shard. The configured workers are divided
    /// among the shards, at least one each.
    C5Sharded {
        /// Number of key-range shards.
        shards: usize,
        /// Keys `[0, key_space)` are split evenly among the shards.
        key_space: u64,
    },
    /// KuaFu transaction granularity.
    KuaFu {
        /// Disable the transaction-granularity constraints (Section 7.3's
        /// ablation).
        ignore_constraints: bool,
    },
    /// Single-threaded replay.
    SingleThreaded,
    /// Table-granularity.
    TableGranularity,
    /// Page-granularity.
    PageGranularity {
        /// Rows per page.
        rows_per_page: u64,
    },
}

impl ReplicaSpec {
    /// Builds the replica over `store` with `config` (its `name()` is the
    /// protocol's report name).
    pub fn build(
        &self,
        store: Arc<MvStore>,
        config: ReplicaConfig,
    ) -> Arc<dyn ClonedConcurrencyControl> {
        match *self {
            ReplicaSpec::C5Faithful => C5Replica::new(C5Mode::Faithful, store, config) as _,
            ReplicaSpec::C5MyRocks => C5Replica::new(C5Mode::OneWorkerPerTxn, store, config) as _,
            ReplicaSpec::C5Sharded { shards, key_space } => {
                let config = config
                    .clone()
                    .with_workers(self.workers_total(config.workers) / shards)
                    .with_shards(shards)
                    .with_shard_key_space(key_space);
                C5Replica::new(C5Mode::Faithful, store, config) as _
            }
            ReplicaSpec::KuaFu { ignore_constraints } => {
                KuaFuReplica::new(store, config, KuaFuConfig { ignore_constraints }) as _
            }
            ReplicaSpec::SingleThreaded => SingleThreadedReplica::new(store, config) as _,
            ReplicaSpec::TableGranularity => {
                CoarseGrainReplica::new(Granularity::Table, store, config) as _
            }
            ReplicaSpec::PageGranularity { rows_per_page } => {
                CoarseGrainReplica::new(Granularity::Page { rows_per_page }, store, config) as _
            }
        }
    }

    /// Apply workers the built replica runs in total, given `workers`
    /// configured (differs only where a sharded replica rounds up to one
    /// worker per shard).
    pub fn workers_total(&self, workers: usize) -> usize {
        match *self {
            ReplicaSpec::C5Sharded { shards, .. } => (workers / shards).max(1) * shards,
            _ => workers,
        }
    }
}

/// Installs an initial population into a store at the pre-log timestamp.
pub fn preload(store: &MvStore, population: &[(RowRef, Value)]) {
    for (row, value) in population {
        store.install(
            *row,
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(value.clone()),
        );
    }
}

fn preloaded(population: &[(RowRef, Value)]) -> Arc<MvStore> {
    let store = Arc::new(MvStore::default());
    preload(&store, population);
    store
}

/// Who reads from the replicas while the log streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readers {
    /// Nobody.
    None,
    /// This many closed-loop point-query clients on the first replica's
    /// exposed snapshot (Figures 8 and 9), drawing keys of the synthetic
    /// table from [`POINT_READ_KEY_SPACE`].
    PointClients(usize),
    /// This many consistency-class sessions through a read router over the
    /// whole fleet, each writing tokened rows on the primary and **asserting**
    /// read-your-writes and monotonic reads on every read it makes.
    Sessions(usize),
}

/// Something that happens to the fleet while the load runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A brand-new replica joins online: checkpoint export from a serving
    /// member, install, archived-gap replay, live stream — subscribed before
    /// the replay, so no sequence number falls between archive and stream.
    Join,
    /// The first seed retires online: drained of pinned reads, then detached
    /// while its peers keep serving.
    Retire,
    /// The primary dies: its log crashes without flushing (the unshipped
    /// tail is lost, as under asynchronous replication), the first replica is
    /// promoted, and a new primary resumes on the promoted store. Ends the
    /// scenario, so it comes last and fires once the load window has closed.
    KillPrimary {
        /// How long the resumed primary serves the same workload.
        resume: Duration,
        /// Close the cycle with a cold standby: bootstrapped from a
        /// checkpoint of the promoted state, caught up from the resumed
        /// primary's retained log, verified row for row.
        standby: bool,
    },
}

/// One live experiment: a 2PL primary runs `factory`'s workload closed-loop
/// for `scale.duration` while its log streams to `replicas`.
#[derive(Clone)]
pub struct Scenario {
    /// Duration, primary threads, apply workers, segment size.
    pub scale: Scale,
    /// Initial database population (installed on every store).
    pub population: Vec<(RowRef, Value)>,
    /// The primary's workload.
    pub factory: Arc<dyn TxnFactory>,
    /// One backup per entry, each with its own store and channel. A lone
    /// backup gets an unbounded channel (the keep-up experiments measure how
    /// far it falls behind; backpressure would mask that), fleet members a
    /// bounded one each (independent backpressure).
    pub replicas: Vec<ReplicaSpec>,
    /// Readers on the replicas.
    pub readers: Readers,
    /// Timed events, as offsets from the start of the load, ascending. Any
    /// event makes the shipper retain the log in an archive; a `Join` or
    /// `Retire` makes the fleet controller-managed — every member, seeds
    /// included, then enters through [`FleetController`]'s join protocol, and
    /// every spec must be [`ReplicaSpec::C5Faithful`].
    pub events: Vec<(Duration, Event)>,
}

impl Scenario {
    /// A scenario with no readers and no events.
    pub fn new(
        scale: &Scale,
        population: Vec<(RowRef, Value)>,
        factory: Arc<dyn TxnFactory>,
        replicas: Vec<ReplicaSpec>,
    ) -> Self {
        Self {
            scale: *scale,
            population,
            factory,
            replicas,
            readers: Readers::None,
            events: Vec::new(),
        }
    }
}

/// One surviving replica's part of an [`Outcome`].
#[derive(Debug, Clone)]
pub struct ReplicaOutcome {
    /// Index in [`Scenario::replicas`] (the routing id, for a managed fleet).
    pub replica: usize,
    /// Protocol name.
    pub protocol: &'static str,
    /// Apply workers it ran in total.
    pub workers: usize,
    /// Time from the start of the run until it had applied and exposed the
    /// entire log.
    pub wall: Duration,
    /// Progress counters.
    pub metrics: ReplicaMetrics,
    /// Replication-lag summary (if any transactions committed). A mid-run
    /// joiner's samples only cover its post-join life.
    pub lag: Option<LagStats>,
    /// Reads the router served from it.
    pub served: u64,
    /// Whether it joined online rather than being there from the start.
    pub joined_mid_run: bool,
    /// Whether its exposed state at the end equals the final primary's, row
    /// for row. (After a `KillPrimary` the final primary is the one resumed
    /// on this replica's own store; what is compared is the cold standby.)
    pub converged: bool,
}

impl ReplicaOutcome {
    /// Apply throughput: committed transactions over the time the replica
    /// needed to fully apply them.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.metrics.applied_txns as f64 / self.wall.as_secs_f64()
        }
    }
}

/// What reader sessions did; every read also carried the built-in
/// read-your-writes and monotonicity assertions.
#[derive(Debug, Clone, Default)]
pub struct SessionsOutcome {
    /// Number of sessions.
    pub sessions: usize,
    /// Per-consistency-class read statistics, in `ClassKind::ALL` order.
    pub per_class: Vec<ClassStats>,
    /// Tokened writes the sessions committed on the primary.
    pub writes: u64,
    /// Read-your-writes reads performed and asserted fresh.
    pub ryw_reads: u64,
    /// Times a session's consecutive reads were served by different
    /// replicas (the monotonic floor is asserted across every switch).
    pub replica_switches: u64,
    /// Reads that gave up waiting for a fresh-enough replica.
    pub timeouts: u64,
    /// Router generation at the end: one bump per admit, retire and detach.
    pub generations: u64,
}

/// What a `KillPrimary` event did.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// The durable log end at the kill: the last position that reached the
    /// wire (the crashed primary's buffered tail is lost and excluded).
    pub shipped_seq: SeqNo,
    /// The backup's applied watermark at the moment of the kill.
    pub applied_at_kill: SeqNo,
    /// The backup's exposed cut at the moment of the kill.
    pub exposed_at_kill: SeqNo,
    /// Replication lag at the kill (the quantity that bounds the takeover).
    pub lag_at_kill: Option<LagStats>,
    /// The cut the backup was promoted at.
    pub promoted_cut: SeqNo,
    /// Drain of in-flight applies + pipeline seal, as measured inside
    /// `promote()` itself.
    pub promotion_drain: Duration,
    /// From the kill to the sealed cut, including delivering and applying
    /// the wire-buffered backlog the dead primary left behind: the
    /// fail-to-serving number the paper's thesis bounds by replication lag.
    pub takeover: Duration,
    /// The resumed primary serving traffic on the promoted store.
    pub resumed: PrimaryRunStats,
    /// The cold standby, when requested: rows its checkpoint captured and
    /// records it replayed from the resumed primary's archive.
    pub standby: Option<(usize, usize)>,
}

impl FailoverOutcome {
    /// Log records shipped but not yet applied when the primary died.
    pub fn backlog_records(&self) -> u64 {
        (self.shipped_seq.as_u64()).saturating_sub(self.applied_at_kill.as_u64())
    }

    /// The paper's thesis, as a checkable bound: the kill-to-sealed takeover
    /// stays within a small multiple of the replication lag observed at the
    /// kill (plus a scheduling-noise floor). A protocol that cannot keep up
    /// fails this — its takeover is proportional to the whole backlog.
    pub fn drain_bounded_by_lag(&self) -> bool {
        let lag_max = (self.lag_at_kill.as_ref()).map_or(0.0, |l| l.max_ms.max(0.0) / 1e3);
        self.takeover <= Duration::from_millis(500) + 4 * Duration::from_secs_f64(lag_max)
    }
}

/// Everything one scenario run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Replicas the scenario started with.
    pub seeds: usize,
    /// Primary-side statistics (session writes included in `committed`).
    pub primary: PrimaryRunStats,
    /// From the start of the load until it — and any sessions — had stopped.
    pub wall: Duration,
    /// Every replica serving at the end.
    pub replicas: Vec<ReplicaOutcome>,
    /// The first replica's lag histogram (nanoseconds) at one and at two
    /// thirds of the load, then at the end of the run: Figure 8's window
    /// edges, taken on the clock the load runs by.
    pub lag_marks: Vec<HistogramSnapshot>,
    /// Point-read client statistics ([`Readers::PointClients`]).
    pub point_reads: Option<ReadRunStats>,
    /// Session statistics ([`Readers::Sessions`]).
    pub sessions: Option<SessionsOutcome>,
    /// What each `Join` did, in order.
    pub joins: Vec<JoinReport>,
    /// What each `Retire` did, in order.
    pub retires: Vec<RetireReport>,
    /// What the `KillPrimary` did.
    pub failover: Option<FailoverOutcome>,
    /// The run's own observability sink: every replica, the shipper, the
    /// router and the fleet controller recorded into it and nothing else did.
    pub obs: Arc<Obs>,
}

impl Outcome {
    /// Whether every surviving replica converged to the final primary state.
    pub fn all_converged(&self) -> bool {
        self.replicas.iter().all(|r| r.converged)
    }

    /// The first replica's apply throughput relative to the primary's (the
    /// paper's Figures 7 and 11 report this ratio).
    pub fn relative_throughput(&self) -> f64 {
        match self.primary.throughput() {
            0.0 => 0.0,
            primary => self.replicas[0].throughput() / primary,
        }
    }

    /// Whether `replica` kept up: it finished applying the log within a
    /// small grace window after the primary stopped.
    pub fn keeps_up(&self, replica: &ReplicaOutcome) -> bool {
        let grace = self.primary.wall.mul_f64(0.15) + Duration::from_millis(250);
        replica.wall <= self.primary.wall + grace
    }

    /// The largest median lag across replicas, in milliseconds (the number a
    /// load balancer would care about when routing reads).
    pub fn worst_p50_ms(&self) -> f64 {
        (self.replicas.iter())
            .filter_map(|r| r.lag.as_ref().map(|l| l.p50_ms))
            .fold(0.0, f64::max)
    }
}

/// A store's or a view's rows in key order, for row-for-row comparison.
fn sorted(mut rows: Vec<(RowRef, Value)>) -> Vec<(RowRef, Value)> {
    rows.sort_by_key(|(row, _)| *row);
    rows
}

/// Raised when [`run_scenario`]'s orchestration ends, normally or by a panic
/// (a failed join, a violated assertion): `thread::scope` joins every thread
/// it spawned before it lets a panic out, and the sessions loop until the
/// flag is up and the replica drivers until the log ends — so a failure that
/// did not do this would hang the process instead of failing it.
struct StopOnDrop<'a> {
    stop: &'a AtomicBool,
    engine: &'a TplEngine,
}

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.engine.close_log();
    }
}

/// Runs one scenario end to end and reports it.
///
/// # Panics
/// Panics if an event fails, if a session observes a read-your-writes or
/// monotonicity violation, if a mid-run joiner is `Serving` below its install
/// cut, or if the closing strong read of a session run misses the log end —
/// the experiments' built-in correctness assertions. Every thread the run
/// started has stopped by the time the panic leaves this function.
pub fn run_scenario(scenario: &Scenario) -> Outcome {
    let Scenario {
        scale,
        population,
        factory,
        replicas: specs,
        readers,
        events,
    } = scenario;
    assert!(!specs.is_empty(), "a scenario needs at least one replica");
    let obs = Obs::new();
    let managed = (events.iter()).any(|(_, e)| matches!(e, Event::Join | Event::Retire));
    let kill = events.iter().find_map(|(_, e)| match *e {
        Event::KillPrimary { resume, standby } => Some((resume, standby)),
        _ => None,
    });

    // The primary. Its shipper starts with no subscribers; every replica
    // subscribes below (or through the fleet controller's join protocol).
    let primary_store = preloaded(population);
    let archive = (!events.is_empty()).then(|| Arc::new(LogArchive::new()));
    let mut shipper = LogShipper::fan_out(0, 0).0.with_obs(Arc::clone(&obs));
    if let Some(archive) = &archive {
        shipper = shipper.with_archive(Arc::clone(archive));
    }
    let primary_config = PrimaryConfig::default()
        .with_threads(scale.primary_threads)
        .with_op_cost(OP_COST);
    let start_primary = |store: &Arc<MvStore>, logger: StreamingLogger| {
        Arc::new(TplEngine::new(
            Arc::clone(store),
            primary_config.clone(),
            logger,
        ))
    };
    let engine = start_primary(
        &primary_store,
        StreamingLogger::new(scale.segment_records, shipper.clone()),
    );

    // The router every member is admitted to. Its frontier is the primary's
    // assigned log end, so strong reads verify against what the primary has
    // committed, not just shipped; the tail-flush hook lets a blocked read
    // ship a committed-but-buffered token instead of waiting for its segment
    // to fill.
    let (frontier_engine, flush_engine) = (Arc::clone(&engine), Arc::clone(&engine));
    let read_config = ReadConfig::default()
        .with_max_wait(Duration::from_secs(5))
        .with_obs(Arc::clone(&obs));
    let router = Arc::new(
        ReadRouter::new(Vec::new(), read_config)
            .with_frontier(move || frontier_engine.log_last_seq())
            .with_tail_flush(move || flush_engine.flush_log()),
    );

    // The fleet: controller-managed (every seed enters through the same join
    // protocol a live joiner uses; with an empty archive there is nothing to
    // replay, so seeds are Serving immediately) or static.
    let replica_config = ReplicaConfig::default()
        .with_workers(scale.replica_workers)
        .with_op_cost(OP_COST)
        .with_obs(Arc::clone(&obs));
    let mut controller = None;
    let mut members = Vec::new();
    let mut receivers = Vec::new();
    if managed {
        assert!(
            specs.iter().all(|s| *s == ReplicaSpec::C5Faithful),
            "the fleet controller manages faithful C5 replicas only"
        );
        let fleet = FleetController::new(
            shipper,
            Arc::clone(archive.as_ref().expect("events retain the log")),
            Arc::clone(&router) as Arc<dyn FleetRoutingSink>,
            C5Mode::Faithful,
            replica_config.clone(),
        );
        for _ in specs {
            let seed = fleet.join_seeded(preloaded(population));
            let id = seed.expect("seeding an idle fleet cannot fail").replica;
            let replica: Arc<dyn ClonedConcurrencyControl> =
                fleet.replica(id).expect("a seed is managed");
            members.push((id, replica));
        }
        controller = Some(fleet);
    } else {
        for spec in specs {
            let replica = spec.build(preloaded(population), replica_config.clone());
            let id = router.admit(Arc::clone(&replica));
            let subscription = match specs.len() {
                1 => shipper.subscribe_unbounded(),
                _ => shipper.subscribe(c5_log::SUBSCRIPTION_SEGMENTS),
            };
            receivers.push(subscription.expect("an open shipper").receiver);
            members.push((id, replica));
        }
    }
    // Routing ids follow admission order, so a member's id is its index.
    assert!(members.iter().enumerate().all(|(i, (id, _))| i == *id));

    // Whom point-read clients read from and a `KillPrimary` promotes.
    let first = members[0].1.as_ref();

    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let session_count = match *readers {
        Readers::Sessions(n) => n,
        _ => 0,
    };
    let mut session_totals = SessionsOutcome::default();
    let mut primary = PrimaryRunStats::default();
    let mut wall = Duration::ZERO;
    let mut walls = Vec::new();
    let mut point_reads = None;
    let mut lag_marks = Vec::new();
    let (mut joins, mut retires) = (Vec::new(), Vec::new());
    // (applied, exposed, when) at the moment of the kill.
    let mut at_kill = None;

    std::thread::scope(|scope| {
        let _stop_on_unwind = StopOnDrop {
            stop: &stop,
            engine: &engine,
        };
        // One driver per static replica; each measures its own apply wall. A
        // replica about to be promoted is fed but not finished: promotion
        // does the sealing, and its drain is what the scenario measures.
        let drivers: Vec<_> = (members.iter().zip(receivers))
            .map(|((_, replica), receiver)| {
                scope.spawn(move || {
                    while let Some(segment) = receiver.recv() {
                        replica.apply_segment(segment);
                    }
                    if kill.is_none() {
                        replica.finish();
                    }
                    start.elapsed()
                })
            })
            .collect();
        let point_clients = match *readers {
            Readers::PointClients(clients) => Some(scope.spawn(move || {
                run_point_read_clients(
                    first,
                    clients,
                    scale.duration,
                    SYNTHETIC_TABLE,
                    POINT_READ_KEY_SPACE,
                    SEED,
                )
            })),
            _ => None,
        };
        let sessions: Vec<_> = (0..session_count)
            .map(|s| {
                let (engine, router, stop) = (&engine, &router, &stop);
                scope.spawn(move || run_session_loop(engine, router, s, stop))
            })
            .collect();
        // The load runs on its own thread so this one can fire the events.
        let mut load = Some(scope.spawn(|| {
            ClosedLoopDriver::with_seed(SEED).run_tpl(
                &engine,
                factory,
                scale.primary_threads,
                RunLength::Timed(scale.duration),
            )
        }));

        // The events, and between them a snapshot of the first replica's
        // lag at each third of the load.
        let thirds = [scale.duration / 3, scale.duration * 2 / 3].map(|at| (at, None));
        let mut timeline: Vec<_> = (events.iter().map(|&(at, event)| (at, Some(event))))
            .chain(thirds)
            .collect();
        timeline.sort_by_key(|&(at, _)| at);
        for (at, event) in timeline {
            std::thread::sleep(at.saturating_sub(start.elapsed()));
            let Some(event) = event else {
                lag_marks.push(first.lag().snapshot());
                continue;
            };
            let fleet = controller.as_ref();
            match event {
                Event::Join => {
                    let fleet = fleet.expect("a Join makes the fleet managed");
                    let join = fleet.join().expect("online join under load");
                    assert!(
                        join.checkpoint_cut <= join.stream_start,
                        "the live stream (from {}) must cover everything past the \
                         checkpoint cut {}",
                        join.stream_start,
                        join.checkpoint_cut
                    );
                    let joiner = fleet.replica(join.replica).expect("joiner is managed");
                    assert!(
                        joiner.exposed_seq() >= join.checkpoint_cut.max(join.stream_start),
                        "a joiner flips to Serving only at or beyond its install cut"
                    );
                    joins.push(join);
                }
                Event::Retire => {
                    let fleet = fleet.expect("a Retire makes the fleet managed");
                    retires.push(fleet.retire(0).expect("online retire under load"));
                }
                Event::KillPrimary { .. } => {
                    primary = load
                        .take()
                        .expect("the kill comes last")
                        .join()
                        .expect("load");
                    // Takeover time is measured from here — it includes
                    // delivering whatever the wire still buffers, not just
                    // the final promote() drain.
                    at_kill = Some((first.applied_seq(), first.exposed_seq(), Instant::now()));
                    engine.crash_log();
                }
            }
        }
        if let Some(load) = load {
            primary = load.join().expect("background load");
        }
        // Stop the sessions. A session mid-iteration can still commit a
        // token into a partial segment after the load ends; its own blocked
        // read ships it via the router's tail-flush hook.
        stop.store(true, Ordering::Relaxed);
        for session in sessions {
            let local = session.join().expect("reader session");
            session_totals.writes += local.writes;
            session_totals.ryw_reads += local.ryw_reads;
            session_totals.replica_switches += local.replica_switches;
            session_totals.timeouts += local.timeouts;
        }
        wall = start.elapsed();
        engine.close_log();
        for driver in drivers {
            walls.push(driver.join().expect("replica driver"));
        }
        if let Some(fleet) = &controller {
            fleet.finish();
        }
        point_reads = point_clients.map(|clients| clients.join().expect("read clients"));
    });
    let drained = start.elapsed();
    lag_marks.push(first.lag().snapshot());

    // Session writes ride the same engine; fold them into the committed
    // count reported for the primary.
    primary.committed = engine.committed();
    let final_seq = engine.log_last_seq();
    let mut sessions = None;
    if session_count > 0 {
        // The surviving fleet has the whole log; a closing strong read must
        // see it, whoever left mid-run.
        let closing = (router.session())
            .read(&ConsistencyClass::Strong, RowRef::new(SESSION_TABLE, 0))
            .expect("a drained fleet serves strong reads immediately");
        assert!(
            closing.as_of >= final_seq,
            "closing strong read at {} misses the log end {final_seq}",
            closing.as_of
        );
        sessions = Some(SessionsOutcome {
            sessions: session_count,
            per_class: router.all_class_stats(),
            generations: router.generation(),
            ..session_totals
        });
    }

    // The failover leg: promote the first replica, resume a primary on its
    // store, optionally catch a cold standby up from the resumed log.
    let mut final_store = Arc::clone(&primary_store);
    let mut standby_view = None;
    let failover = kill.map(|(resume, with_standby)| {
        let (applied_at_kill, exposed_at_kill, killed_at) = at_kill.expect("the kill fired");
        let lag_at_kill = first.lag().stats();
        let promotion = first.promote();
        let takeover = killed_at.elapsed();
        // Checkpoint the promoted state before the new primary writes on top
        // of it (capture at the cut stays correct either way — the resumed
        // primary's versions all land above the cut — but capturing now
        // mirrors the real sequence: checkpoint at takeover, then serve).
        let checkpoint =
            with_standby.then(|| CheckpointWriter::capture(&promotion.store, promotion.cut));
        // The resumed log is a seamless continuation of the old one (same
        // sequence numbers and commit timestamps onward from the cut). Nobody
        // subscribes to it; a standby replays it from its archive.
        let resumed_archive = Arc::new(LogArchive::starting_at(promotion.cut));
        let resumed_shipper =
            (LogShipper::fan_out(0, 0).0).with_archive(Arc::clone(&resumed_archive));
        let resumed_engine = start_primary(
            &promotion.store,
            StreamingLogger::resume_at(scale.segment_records, resumed_shipper, promotion.cut),
        );
        let resumed = ClosedLoopDriver::with_seed(SEED + 1).run_tpl(
            &resumed_engine,
            factory,
            scale.primary_threads,
            RunLength::Timed(resume),
        );
        resumed_engine.close_log();
        final_store = Arc::clone(&promotion.store);
        let standby = checkpoint.map(|checkpoint| {
            let tail = resumed_archive
                .replay_from(checkpoint.cut())
                .expect("nothing truncated above the checkpoint cut");
            let replayed = tail.iter().map(Segment::len).sum();
            let standby = C5Replica::resume_from_checkpoint(
                C5Mode::Faithful,
                &checkpoint,
                replica_config.clone(),
            );
            drive_segments(standby.as_ref(), tail);
            standby_view = Some(standby.read_view());
            (checkpoint.len(), replayed)
        });
        FailoverOutcome {
            shipped_seq: archive.as_ref().expect("events retain the log").last_seq(),
            applied_at_kill,
            exposed_at_kill,
            lag_at_kill,
            promoted_cut: promotion.cut,
            promotion_drain: promotion.drain,
            takeover,
            resumed,
            standby,
        }
    });

    // Convergence by full state: every surviving replica's exposed state must
    // equal the final primary's, row for row. (Counters cannot say this of a
    // joiner, whose checkpoint baked in history it never applied.)
    let expect = sorted(final_store.scan_all_at(Timestamp::MAX));
    let converged = |view: &dyn ReadView| sorted(view.scan_all()) == expect;
    let served = router.fleet_status();
    // Who serves at the end: everyone who started, less the retired, plus
    // the joiners (built like the seeds).
    let joiners = joins.iter().map(|join| {
        let fleet = controller.as_ref().expect("a Join makes the fleet managed");
        let joiner: Arc<dyn ClonedConcurrencyControl> =
            fleet.replica(join.replica).expect("joiner is managed");
        (join.replica, joiner)
    });
    let survivors = (members.into_iter())
        .filter(|(id, _)| retires.iter().all(|retire| retire.replica != *id))
        .chain(joiners);
    let replicas = survivors
        .map(|(id, replica)| ReplicaOutcome {
            replica: id,
            protocol: replica.name(),
            workers: specs
                .get(id)
                .unwrap_or(&specs[0])
                .workers_total(scale.replica_workers),
            wall: walls.get(id).copied().unwrap_or(drained),
            metrics: replica.metrics(),
            lag: replica.lag().stats(),
            served: served
                .iter()
                .find(|s| s.replica == id)
                .map_or(0, |s| s.served),
            joined_mid_run: id >= specs.len(),
            converged: match (&failover, &standby_view) {
                (None, _) => converged(replica.read_view().as_ref()),
                (Some(_), Some(standby)) => converged(standby.as_ref()),
                (Some(_), None) => true,
            },
        })
        .collect();

    Outcome {
        seeds: specs.len(),
        primary,
        wall,
        replicas,
        lag_marks,
        point_reads,
        sessions,
        joins,
        retires,
        failover,
        obs,
    }
}

/// One reader session's loop (see [`Readers::Sessions`]); returns its
/// counters in an otherwise empty [`SessionsOutcome`].
///
/// # Panics
/// Panics if read-your-writes or monotonicity is violated.
fn run_session_loop(
    engine: &TplEngine,
    router: &Arc<ReadRouter>,
    s: usize,
    stop: &AtomicBool,
) -> SessionsOutcome {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut session = router.session();
    let mut local = SessionsOutcome::default();
    let mut last_as_of = SeqNo::ZERO;
    let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(s as u64));
    let mut assert_monotonic = |read: &SessionRead| {
        assert!(
            read.as_of >= last_as_of,
            "session read went backwards: {} after {last_as_of}",
            read.as_of
        );
        last_as_of = read.as_of;
    };
    let mut iteration = 0u64;
    while !stop.load(Ordering::Relaxed) {
        // 1. Commit a tokened write to the session's own key.
        let own_row = RowRef::new(SESSION_TABLE, s as u64 * 1_000 + iteration % 50);
        let own_value = Value::from_u64(iteration + 1);
        let write_value = own_value.clone();
        let token = match engine.execute_with_token(&move |ctx: &mut dyn TxnCtx| {
            ctx.update(own_row, write_value.clone())
        }) {
            Ok((_, token)) => token,
            Err(_) => continue, // retries exhausted under contention
        };
        session.observe_commit(token);
        local.writes += 1;

        // 2. Read-your-writes: causally read the write back.
        match session.read(&session.causal(), own_row) {
            Ok(read) => {
                assert!(
                    read.as_of >= token,
                    "RYW violated: served at {} below token {token}",
                    read.as_of
                );
                // Only this session writes this key, and its next write
                // doesn't exist yet, so the value must be exactly the one
                // just written.
                assert_eq!(
                    read.value.as_ref(),
                    Some(&own_value),
                    "RYW violated: stale value at cut {}",
                    read.as_of
                );
                assert_monotonic(&read);
                local.ryw_reads += 1;
            }
            Err(Error::ReadTimeout { .. }) => local.timeouts += 1,
            Err(err) => panic!("session read failed: {err}"),
        }

        // 3. A strong or bounded-staleness read of a random key.
        let random_row = RowRef::new(SYNTHETIC_TABLE, rng.gen_range(0..100_000));
        let class = if iteration % 4 == 0 {
            ConsistencyClass::Strong
        } else {
            ConsistencyClass::BoundedStaleness(STALENESS_BOUND)
        };
        match session.read(&class, random_row) {
            Ok(read) => assert_monotonic(&read),
            Err(Error::ReadTimeout { .. }) => local.timeouts += 1,
            Err(err) => panic!("session read failed: {err}"),
        }
        iteration += 1;
    }
    local.replica_switches = session.replica_switches();
    local
}

/// Outcome of one offline experiment.
#[derive(Debug, Clone)]
pub struct OfflineOutcome {
    /// Protocol name.
    pub protocol: &'static str,
    /// Primary statistics (MVTSO run).
    pub primary: PrimaryRunStats,
    /// Time the backup needed to replay the whole log.
    pub replay_wall: Duration,
    /// Backup progress counters.
    pub replica_metrics: ReplicaMetrics,
}

impl OfflineOutcome {
    /// Backup replay throughput (transactions per second).
    pub fn replica_throughput(&self) -> f64 {
        if self.replay_wall.is_zero() {
            0.0
        } else {
            self.replica_metrics.applied_txns as f64 / self.replay_wall.as_secs_f64()
        }
    }

    /// Backup throughput relative to the primary's: at least ~1 means the
    /// backup replays as fast as the primary executed, i.e. keeps up.
    pub fn relative_throughput(&self) -> f64 {
        match self.primary.throughput() {
            0.0 => 0.0,
            primary => self.replica_throughput() / primary,
        }
    }
}

/// Runs the MVTSO primary over `population` on `factory`'s workload —
/// `txns_per_thread` transactions on each of `scale.primary_threads` clients,
/// zero simulated operation cost — and returns its statistics (measured
/// without any replication load, matching Section 7.3's "Cicada without
/// logging" upper-bound comparison) and its coalesced log.
pub fn materialize_log(
    scale: &Scale,
    population: &[(RowRef, Value)],
    txns_per_thread: u64,
    factory: &Arc<dyn TxnFactory>,
) -> (PrimaryRunStats, Vec<Segment>) {
    let config = PrimaryConfig::default()
        .with_threads(scale.primary_threads)
        .with_op_cost(OpCost::free());
    let engine = Arc::new(MvtsoEngine::new(preloaded(population), config));
    let stats = ClosedLoopDriver::with_seed(SEED).run_mvtso(
        &engine,
        factory,
        scale.primary_threads,
        RunLength::PerClientCount(txns_per_thread),
    );
    (stats, engine.take_segments(scale.segment_records))
}

/// Replays `segments` as fast as it goes through a fresh `spec` backup over
/// `population` (zero simulated operation cost, recording into `obs`);
/// returns the backup's protocol name, the replay time and its counters.
pub fn replay_log(
    scale: &Scale,
    population: &[(RowRef, Value)],
    segments: Vec<Segment>,
    spec: ReplicaSpec,
    obs: Arc<Obs>,
) -> (&'static str, Duration, ReplicaMetrics) {
    let config = ReplicaConfig::default()
        .with_workers(scale.replica_workers)
        .with_op_cost(OpCost::free())
        .with_snapshot_interval(Duration::from_millis(1))
        .with_obs(obs);
    let replica = spec.build(preloaded(population), config);
    let wall = drive_segments(replica.as_ref(), segments);
    (replica.name(), wall, replica.metrics())
}

/// The offline (Cicada-style) experiment: [`materialize_log`], then
/// [`replay_log`] through `spec`; comparing the two times answers "does the
/// backup keep up?".
pub fn run_offline_mvtso(
    scale: &Scale,
    population: &[(RowRef, Value)],
    txns_per_thread: u64,
    factory: Arc<dyn TxnFactory>,
    spec: ReplicaSpec,
) -> OfflineOutcome {
    let (primary, segments) = materialize_log(scale, population, txns_per_thread, &factory);
    let (protocol, replay_wall, replica_metrics) =
        replay_log(scale, population, segments, spec, Obs::new());
    OfflineOutcome {
        protocol,
        primary,
        replay_wall,
        replica_metrics,
    }
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let width = |column: usize| {
        let cells = rows.iter().filter_map(|row| row.get(column));
        cells
            .map(String::len)
            .chain([headers[column].len()])
            .max()
            .unwrap_or(0)
    };
    let widths: Vec<usize> = (0..headers.len()).map(width).collect();
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let cells: Vec<String> = cells
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        println!("{}", cells.join("  "));
    };
    line(&mut headers.iter().copied());
    for row in rows {
        line(&mut row.iter().map(String::as_str));
    }
}

/// Formats a measured number as a table cell: a whole number without a
/// fraction, any other to three decimals, an absent one as `-`.
pub fn fmt_cell(v: impl Into<Option<f64>>) -> String {
    match v.into() {
        Some(v) if v == v.trunc() => format!("{v:.0}"),
        Some(v) => format!("{v:.3}"),
        None => "-".into(),
    }
}

/// Formats a throughput value.
pub fn fmt_tps(v: f64) -> String {
    format!("{v:.0}")
}

/// Formats a ratio.
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{elastic, failover, fanout, obs, reads, sharded};
    use c5_workloads::synthetic::InsertOnlyWorkload;

    fn tiny() -> Scale {
        Scale {
            duration: Duration::from_millis(150),
            ..Scale::smoke()
        }
    }

    const EVERY_SPEC: [ReplicaSpec; 8] = [
        ReplicaSpec::C5Faithful,
        ReplicaSpec::C5MyRocks,
        ReplicaSpec::C5Sharded {
            shards: 2,
            key_space: 1 << 20,
        },
        ReplicaSpec::KuaFu {
            ignore_constraints: false,
        },
        ReplicaSpec::KuaFu {
            ignore_constraints: true,
        },
        ReplicaSpec::SingleThreaded,
        ReplicaSpec::TableGranularity,
        ReplicaSpec::PageGranularity { rows_per_page: 16 },
    ];

    /// Every scenario description the experiments run, and every replica a
    /// scenario can name, through the one runner: each commits, applies,
    /// records lag and converges, and each shows what its experiment reports.
    #[test]
    fn every_scenario_runs_end_to_end() {
        let scale = tiny();
        let lone = Scale {
            fanout_replicas: 1,
            ..scale
        };
        type Check = fn(&Outcome);
        let mut table: Vec<(&str, Scenario, Check)> = vec![
            (
                "point reads",
                Scenario {
                    readers: Readers::PointClients(1),
                    ..fanout::scenario(&lone, ReplicaSpec::C5Faithful)
                },
                |o| {
                    assert!(o.point_reads.as_ref().is_some_and(|r| r.throughput() > 0.0));
                    assert!(o.replicas[0].throughput() > 0.0 && o.relative_throughput() > 0.0);
                    // Figure 8's window edges: two in the load, one at the end,
                    // and the last has every transaction's lag.
                    let marks: Vec<u64> = o.lag_marks.iter().map(|m| m.count()).collect();
                    let ascending = marks.windows(2).all(|w| w[0] <= w[1]);
                    assert!(marks.len() == 3 && ascending, "{marks:?}");
                    assert_eq!(marks[2], o.primary.committed);
                },
            ),
            (
                "fanout",
                fanout::scenario(&scale, ReplicaSpec::C5Faithful),
                |o| {
                    assert_eq!(o.replicas.len(), 2);
                    assert!(o.worst_p50_ms() > 0.0);
                    assert_cells(&fanout::COLUMNS, &fanout::rows(o));
                },
            ),
            ("sharded", sharded::scenario(&scale, 4), |o| {
                let replica = &o.replicas[0];
                assert_eq!(replica.workers, 4);
                assert!(sharded::cuts_taken(o) > 0 && replica.metrics.cross_shard_txns > 0);
                assert_cells(&sharded::COLUMNS, &[sharded::row(4, o)]);
            }),
            (
                "failover",
                failover::scenario(&scale, ReplicaSpec::C5Faithful, true),
                |o| {
                    let failover = o.failover.as_ref().expect("the kill fired");
                    assert!(failover.promoted_cut >= failover.exposed_at_kill);
                    assert!(failover.shipped_seq >= failover.applied_at_kill);
                    assert!(
                        failover.resumed.committed > 0,
                        "promoted primary serves traffic"
                    );
                    assert!(failover.standby.is_some_and(|(rows, _)| rows > 0));
                    assert_cells(&failover::COLUMNS, &[failover::row(o)]);
                },
            ),
            ("reads", reads::scenario(&scale), |o| {
                let sessions = o.sessions.as_ref().expect("sessions ran");
                assert!(sessions.writes > 0 && sessions.ryw_reads > 0);
                assert_eq!(sessions.per_class.len(), 3);
                for class in &sessions.per_class {
                    assert!(class.reads > 0, "{} served no reads", class.kind.name());
                }
                assert_eq!(o.replicas.len(), 2);
                assert_eq!(
                    o.replicas.iter().map(|r| r.served).sum::<u64>(),
                    sessions.per_class.iter().map(|c| c.reads).sum::<u64>(),
                    "every read (including the closing strong read) was served by the fleet"
                );
                assert_session_cells(o);
            }),
            ("elastic", elastic::scenario(&scale), |o| {
                assert_eq!((o.joins.len(), o.retires.len(), o.seeds), (1, 1, 2));
                let joiners = o.replicas.iter().filter(|r| r.joined_mid_run);
                assert_eq!(
                    joiners.map(|r| r.replica).collect::<Vec<_>>(),
                    [o.joins[0].replica]
                );
                assert!(o.replicas.iter().all(|r| r.replica != o.retires[0].replica));
                assert!(o.sessions.as_ref().is_some_and(|s| s.generations >= 4));
                obs::assert_full_coverage(&o.obs);
                assert_session_cells(o);
            }),
        ];
        for spec in EVERY_SPEC {
            let scenario = Scenario::new(
                &scale,
                Vec::new(),
                Arc::new(InsertOnlyWorkload::new(2)),
                vec![spec],
            );
            table.push(("one backup", scenario, |o| {
                assert_eq!(o.replicas[0].metrics.applied_txns, o.primary.committed);
            }));
        }
        for (name, scenario, check) in table {
            let outcome = run_scenario(&scenario);
            assert!(outcome.primary.committed > 0, "{name}: nothing committed");
            assert!(outcome.all_converged(), "{name}: a replica diverged");
            for replica in &outcome.replicas {
                assert!(replica.metrics.applied_txns > 0, "{name}: nothing applied");
                assert!(replica.lag.is_some(), "{name}: no lag recorded");
            }
            check(&outcome);
        }
    }

    /// A table as its experiment prints it: at least one row, one cell per
    /// column in each, none blank.
    fn assert_cells(columns: &[&str], rows: &[Vec<String>]) {
        assert!(!rows.is_empty(), "no rows under {columns:?}");
        for row in rows {
            assert_eq!(row.len(), columns.len(), "{row:?} under {columns:?}");
            assert!(row.iter().all(|c| !c.is_empty()), "blank cell in {row:?}");
        }
    }

    fn assert_session_cells(o: &Outcome) {
        let (classes, members) = reads::rows(o);
        assert_cells(&reads::CLASS_COLUMNS, &classes);
        assert_cells(&reads::MEMBER_COLUMNS, &members);
    }

    /// A scenario that fails mid-run must fail the process, not wedge it: the
    /// second retire of the same seed is refused while sessions are reading,
    /// and the panic has to come back out of `run_scenario` — which it only
    /// can once the sessions have been told to stop.
    #[test]
    fn a_failing_event_ends_the_run_with_its_panic() {
        let churn = (Duration::ZERO, Event::Retire);
        let scenario = Scenario {
            events: vec![churn, churn],
            ..elastic::scenario(&tiny())
        };
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::AssertUnwindSafe(|| drop(run_scenario(&scenario)));
            let _ = done.send(std::panic::catch_unwind(run));
        });
        let panic = outcome
            .recv_timeout(Duration::from_secs(60))
            .expect("a failed scenario must return, not spin")
            .expect_err("retiring the same seed twice fails");
        let message = panic.downcast_ref::<String>().expect("an expect() message");
        assert!(message.contains("online retire under load"), "{message}");
    }

    #[test]
    fn offline_experiment_runs_end_to_end() {
        let factory: Arc<dyn TxnFactory> = Arc::new(InsertOnlyWorkload::new(4));
        let kuafu = ReplicaSpec::KuaFu {
            ignore_constraints: false,
        };
        let outcome = run_offline_mvtso(&tiny(), &[], 200, factory, kuafu);
        assert_eq!(outcome.primary.committed, 400);
        assert_eq!(outcome.replica_metrics.applied_txns, 400);
        assert!(outcome.replica_throughput() > 0.0);
        assert_eq!(outcome.protocol, "kuafu");
    }
}
