//! Shared experiment machinery.

use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_baselines::{
    CoarseGrainReplica, Granularity, KuaFuConfig, KuaFuReplica, SingleThreadedReplica,
};
use c5_common::{OpCost, PrimaryConfig, ReplicaConfig, RowRef, SeqNo, Timestamp, Value, WriteKind};
use c5_core::fleet::{
    FleetController, FleetRoutingSink, JoinReport, ReplicaLifecycle, RetireReport,
};
use c5_core::lag::LagStats;
use c5_core::replica::{
    drive_from_receiver, drive_segments, C5Mode, C5Replica, ClonedConcurrencyControl,
    ReplicaMetrics,
};
use c5_log::{LogArchive, LogShipper, StreamingLogger};
use c5_obs::Obs;
use c5_primary::{
    ClosedLoopDriver, MvtsoEngine, PrimaryRunStats, RunLength, TplEngine, TxnFactory,
};
use c5_storage::MvStore;
use c5_workloads::readonly::{run_point_read_clients, ReadRunStats};

/// Which backup protocol to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaSpec {
    /// C5 in its faithful (Cicada-style) form.
    C5Faithful,
    /// C5 with the MyRocks backward-compatibility constraints.
    C5MyRocks,
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
    /// Protocol name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReplicaSpec::C5Faithful => "c5",
            ReplicaSpec::C5MyRocks => "c5-myrocks",
            ReplicaSpec::KuaFu {
                ignore_constraints: false,
            } => "kuafu",
            ReplicaSpec::KuaFu {
                ignore_constraints: true,
            } => "kuafu-unconstrained",
            ReplicaSpec::SingleThreaded => "single-threaded",
            ReplicaSpec::TableGranularity => "table-granularity",
            ReplicaSpec::PageGranularity { .. } => "page-granularity",
        }
    }

    /// Builds the replica over `store` with `config`.
    pub fn build(
        &self,
        store: Arc<MvStore>,
        config: ReplicaConfig,
    ) -> Arc<dyn ClonedConcurrencyControl> {
        match self {
            ReplicaSpec::C5Faithful => C5Replica::new(C5Mode::Faithful, store, config),
            ReplicaSpec::C5MyRocks => C5Replica::new(C5Mode::OneWorkerPerTxn, store, config),
            ReplicaSpec::KuaFu { ignore_constraints } => KuaFuReplica::new(
                store,
                config,
                KuaFuConfig {
                    ignore_constraints: *ignore_constraints,
                },
            ),
            ReplicaSpec::SingleThreaded => SingleThreadedReplica::new(store, config),
            ReplicaSpec::TableGranularity => {
                CoarseGrainReplica::new(Granularity::Table, store, config)
            }
            ReplicaSpec::PageGranularity { rows_per_page } => CoarseGrainReplica::new(
                Granularity::Page {
                    rows_per_page: *rows_per_page,
                },
                store,
                config,
            ),
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

/// Parameters shared by the streaming (MyRocks-style) experiments.
#[derive(Debug, Clone)]
pub struct StreamingSetup {
    /// Initial database population (installed on both sides).
    pub population: Vec<(RowRef, Value)>,
    /// Closed-loop clients driving the primary.
    pub clients: usize,
    /// Primary executor threads.
    pub primary_threads: usize,
    /// Backup workers.
    pub replica_workers: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Per-operation cost model.
    pub op_cost: OpCost,
    /// Snapshot interval for the backup.
    pub snapshot_interval: Duration,
    /// Records per shipped segment.
    pub segment_records: usize,
    /// RNG seed.
    pub seed: u64,
    /// Observability sink the run's replicas, shippers, and routers record
    /// into. Defaults to the process-global registry; experiments that dump
    /// or diff a snapshot attach a fresh one so runs don't bleed together.
    pub obs: Arc<Obs>,
}

impl StreamingSetup {
    /// A setup with no population and paper-like defaults.
    pub fn new(duration: Duration, threads: usize, workers: usize) -> Self {
        Self {
            population: Vec::new(),
            clients: threads,
            primary_threads: threads,
            replica_workers: workers,
            duration,
            op_cost: OpCost::paper_like(2_000),
            snapshot_interval: Duration::from_millis(10),
            segment_records: 256,
            seed: 42,
            obs: Arc::clone(Obs::global()),
        }
    }
}

/// Outcome of one streaming experiment.
#[derive(Debug, Clone)]
pub struct StreamingOutcome {
    /// Protocol name.
    pub protocol: &'static str,
    /// Primary-side statistics.
    pub primary: PrimaryRunStats,
    /// Time from the start of the run until the backup had applied and
    /// exposed the entire log.
    pub replica_wall: Duration,
    /// Backup progress counters.
    pub replica_metrics: ReplicaMetrics,
    /// Replication-lag summary (if any transactions committed).
    pub lag: Option<LagStats>,
    /// Every raw replication-lag sample (one per committed transaction), for
    /// experiments that bucket lag by time window (Figure 8).
    pub lag_samples: Vec<c5_core::lag::LagSample>,
    /// Read-only client statistics, if read clients were attached.
    pub reads: Option<ReadRunStats>,
}

impl StreamingOutcome {
    /// Primary throughput in transactions per second.
    pub fn primary_throughput(&self) -> f64 {
        self.primary.throughput()
    }

    /// Backup apply throughput in transactions per second (committed
    /// transactions divided by the time the backup needed to fully apply
    /// them).
    pub fn replica_throughput(&self) -> f64 {
        if self.replica_wall.is_zero() {
            0.0
        } else {
            self.replica_metrics.applied_txns as f64 / self.replica_wall.as_secs_f64()
        }
    }

    /// Backup throughput relative to the primary's (the paper's Figures 7
    /// and 11 report this ratio).
    pub fn relative_throughput(&self) -> f64 {
        let p = self.primary_throughput();
        if p == 0.0 {
            0.0
        } else {
            self.replica_throughput() / p
        }
    }

    /// Whether the backup kept up: it finished applying the log within a
    /// small grace window after the primary stopped.
    pub fn keeps_up(&self) -> bool {
        let grace = self.primary.wall.mul_f64(0.15) + Duration::from_millis(250);
        self.replica_wall <= self.primary.wall + grace
    }
}

/// Runs one streaming experiment: a 2PL primary executes `factory`'s workload
/// for `setup.duration` while the backup described by `spec` applies the log
/// live. Optionally attaches `read_clients` closed-loop point-query clients
/// to the backup (Figures 8 and 9); they read random keys in
/// `[0, read_key_space)` of `read_table`.
pub fn run_streaming(
    setup: &StreamingSetup,
    factory: Arc<dyn TxnFactory>,
    spec: ReplicaSpec,
    read_clients: usize,
    read_table: u32,
    read_key_space: u64,
) -> StreamingOutcome {
    // Primary.
    let primary_store = Arc::new(MvStore::default());
    preload(&primary_store, &setup.population);
    let (shipper, receiver) = LogShipper::unbounded();
    let shipper = shipper.with_obs(Arc::clone(&setup.obs));
    let logger = StreamingLogger::new(setup.segment_records, shipper);
    let primary_config = PrimaryConfig::default()
        .with_threads(setup.primary_threads)
        .with_op_cost(setup.op_cost);
    let engine = Arc::new(TplEngine::new(primary_store, primary_config, logger));

    // Backup.
    let replica_store = Arc::new(MvStore::default());
    preload(&replica_store, &setup.population);
    let replica_config = ReplicaConfig::default()
        .with_workers(setup.replica_workers)
        .with_op_cost(setup.op_cost)
        .with_snapshot_interval(setup.snapshot_interval)
        .with_obs(Arc::clone(&setup.obs));
    let replica = spec.build(replica_store, replica_config);

    let start = Instant::now();
    let mut replica_wall = Duration::ZERO;
    let mut primary_stats = PrimaryRunStats::default();
    let mut reads = None;

    std::thread::scope(|scope| {
        // Backup ingestion.
        let replica_ref: &dyn ClonedConcurrencyControl = replica.as_ref();
        let drive = scope.spawn(move || drive_from_receiver(replica_ref, receiver));

        // Optional read-only clients against the backup.
        let read_handle = (read_clients > 0).then(|| {
            let replica_ref: &dyn ClonedConcurrencyControl = replica.as_ref();
            let duration = setup.duration;
            let seed = setup.seed;
            scope.spawn(move || {
                run_point_read_clients(
                    replica_ref,
                    read_clients,
                    duration,
                    read_table,
                    read_key_space,
                    seed,
                )
            })
        });

        // Primary load.
        primary_stats = ClosedLoopDriver::with_seed(setup.seed).run_tpl(
            &engine,
            &factory,
            setup.clients,
            RunLength::Timed(setup.duration),
        );
        engine.close_log();

        // Wait for the backup to finish applying everything.
        drive.join().expect("replica driver");
        replica_wall = start.elapsed();
        if let Some(h) = read_handle {
            reads = Some(h.join().expect("read clients"));
        }
    });

    StreamingOutcome {
        protocol: spec.name(),
        primary: primary_stats,
        replica_wall,
        replica_metrics: replica.metrics(),
        lag: replica.lag().stats(),
        lag_samples: replica.lag().samples(),
        reads,
    }
}

/// One replica's outcome in a fan-out run.
#[derive(Debug, Clone)]
pub struct FanOutReplicaOutcome {
    /// Replica index (0-based).
    pub replica: usize,
    /// Time from the start of the run until this replica had applied and
    /// exposed the entire log.
    pub wall: Duration,
    /// Progress counters.
    pub metrics: ReplicaMetrics,
    /// Replication-lag summary for this replica (if any transactions
    /// committed).
    pub lag: Option<LagStats>,
}

/// Outcome of a 1 primary → N replicas fan-out experiment.
#[derive(Debug, Clone)]
pub struct FanOutOutcome {
    /// Protocol name.
    pub protocol: &'static str,
    /// Primary-side statistics.
    pub primary: PrimaryRunStats,
    /// Per-replica results, indexed by replica.
    pub replicas: Vec<FanOutReplicaOutcome>,
}

impl FanOutOutcome {
    /// Whether every replica applied exactly the primary's committed
    /// transactions.
    pub fn all_converged(&self) -> bool {
        self.replicas
            .iter()
            .all(|r| r.metrics.applied_txns == self.primary.committed)
    }

    /// The largest median lag across replicas, in milliseconds (the number a
    /// load balancer would care about when routing reads).
    pub fn worst_p50_ms(&self) -> f64 {
        self.replicas
            .iter()
            .filter_map(|r| r.lag.as_ref().map(|l| l.p50_ms))
            .fold(0.0, f64::max)
    }
}

/// Runs one fan-out experiment: a 2PL primary executes `factory`'s workload
/// for `setup.duration` while its log fans out to `replicas` independent
/// backups of the protocol described by `spec`, each with its own store and
/// its own bounded channel (independent backpressure). Reports per-replica
/// apply walls, progress counters, and lag distributions.
pub fn run_fanout_streaming(
    setup: &StreamingSetup,
    factory: Arc<dyn TxnFactory>,
    spec: ReplicaSpec,
    replicas: usize,
) -> FanOutOutcome {
    assert!(replicas > 0, "fan-out requires at least one replica");
    // Primary.
    let primary_store = Arc::new(MvStore::default());
    preload(&primary_store, &setup.population);
    let (shipper, receivers) = LogShipper::fan_out(replicas, 1024);
    let shipper = shipper.with_obs(Arc::clone(&setup.obs));
    let logger = StreamingLogger::new(setup.segment_records, shipper);
    let primary_config = PrimaryConfig::default()
        .with_threads(setup.primary_threads)
        .with_op_cost(setup.op_cost);
    let engine = Arc::new(TplEngine::new(primary_store, primary_config, logger));

    // Backups: one store + one replica instance each.
    let replica_config = ReplicaConfig::default()
        .with_workers(setup.replica_workers)
        .with_op_cost(setup.op_cost)
        .with_snapshot_interval(setup.snapshot_interval)
        .with_obs(Arc::clone(&setup.obs));
    let backups: Vec<Arc<dyn ClonedConcurrencyControl>> = (0..replicas)
        .map(|_| {
            let store = Arc::new(MvStore::default());
            preload(&store, &setup.population);
            spec.build(store, replica_config.clone())
        })
        .collect();

    let start = Instant::now();
    let mut primary_stats = PrimaryRunStats::default();
    let mut walls = vec![Duration::ZERO; replicas];

    std::thread::scope(|scope| {
        // One driver thread per replica; each measures its own apply wall.
        let drivers: Vec<_> = backups
            .iter()
            .zip(receivers)
            .map(|(backup, receiver)| {
                let backup_ref: &dyn ClonedConcurrencyControl = backup.as_ref();
                scope.spawn(move || {
                    drive_from_receiver(backup_ref, receiver);
                    start.elapsed()
                })
            })
            .collect();

        // Primary load.
        primary_stats = ClosedLoopDriver::with_seed(setup.seed).run_tpl(
            &engine,
            &factory,
            setup.clients,
            RunLength::Timed(setup.duration),
        );
        engine.close_log();

        for (i, driver) in drivers.into_iter().enumerate() {
            walls[i] = driver.join().expect("replica driver");
        }
    });

    FanOutOutcome {
        protocol: spec.name(),
        primary: primary_stats,
        replicas: backups
            .iter()
            .enumerate()
            .map(|(i, backup)| FanOutReplicaOutcome {
                replica: i,
                wall: walls[i],
                metrics: backup.metrics(),
                lag: backup.lag().stats(),
            })
            .collect(),
    }
}

/// One shard's outcome in a sharded streaming run.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index (0-based).
    pub shard: usize,
    /// Lag summary for transactions owned by this shard (if any committed).
    pub lag: Option<LagStats>,
    /// Transactions owned by (committing on) this shard.
    pub owned_txns: usize,
}

/// Outcome of a sharded streaming experiment.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Number of keyspace shards.
    pub shards: usize,
    /// Primary-side statistics.
    pub primary: PrimaryRunStats,
    /// Time from the start of the run until the replica had applied and
    /// exposed the entire log.
    pub replica_wall: Duration,
    /// Global progress counters (summed across shards; `cross_shard_txns`
    /// counts transactions spanning shards).
    pub replica_metrics: ReplicaMetrics,
    /// Global replication-lag summary.
    pub lag: Option<LagStats>,
    /// Consistent cuts the cross-shard coordinator published over the run.
    /// A coordinator that stops advancing under load (the scaling knee the
    /// high-shard bench sweep looks for) shows up here as a collapse in cut
    /// frequency, not just as lag.
    pub cuts_taken: u64,
    /// Per-shard lag, indexed by shard.
    pub per_shard: Vec<ShardOutcome>,
}

impl ShardedOutcome {
    /// Fraction of committed transactions whose writes spanned shards.
    pub fn cross_shard_share(&self) -> f64 {
        if self.replica_metrics.applied_txns == 0 {
            0.0
        } else {
            self.replica_metrics.cross_shard_txns as f64 / self.replica_metrics.applied_txns as f64
        }
    }

    /// Whether the replica applied exactly the primary's committed
    /// transactions.
    pub fn converged(&self) -> bool {
        self.replica_metrics.applied_txns == self.primary.committed
    }

    /// The largest per-shard median lag, in milliseconds.
    pub fn worst_shard_p50_ms(&self) -> f64 {
        self.per_shard
            .iter()
            .filter_map(|s| s.lag.as_ref().map(|l| l.p50_ms))
            .fold(0.0, f64::max)
    }
}

/// Runs one sharded streaming experiment: a 2PL primary executes `factory`'s
/// workload for `setup.duration` while a [`c5_core::ShardedC5Replica`] with
/// `shards` per-partition pipelines (each `setup.replica_workers` workers)
/// applies the log live under the cross-shard cut coordinator. Reports global
/// and per-shard lag.
pub fn run_sharded_streaming(
    setup: &StreamingSetup,
    factory: Arc<dyn TxnFactory>,
    shards: usize,
    shard_key_space: u64,
) -> ShardedOutcome {
    use c5_core::ShardedC5Replica;

    // Primary.
    let primary_store = Arc::new(MvStore::default());
    preload(&primary_store, &setup.population);
    let (shipper, receiver) = LogShipper::unbounded();
    let shipper = shipper.with_obs(Arc::clone(&setup.obs));
    let logger = StreamingLogger::new(setup.segment_records, shipper);
    let primary_config = PrimaryConfig::default()
        .with_threads(setup.primary_threads)
        .with_op_cost(setup.op_cost);
    let engine = Arc::new(TplEngine::new(primary_store, primary_config, logger));

    // Sharded backup.
    let replica_store = Arc::new(MvStore::default());
    preload(&replica_store, &setup.population);
    let replica_config = ReplicaConfig::default()
        .with_workers(setup.replica_workers)
        .with_op_cost(setup.op_cost)
        .with_snapshot_interval(setup.snapshot_interval)
        .with_shards(shards)
        .with_shard_key_space(shard_key_space)
        .with_obs(Arc::clone(&setup.obs));
    let replica = ShardedC5Replica::new(replica_store, replica_config);

    let start = Instant::now();
    let mut replica_wall = Duration::ZERO;
    let mut primary_stats = PrimaryRunStats::default();

    std::thread::scope(|scope| {
        let replica_ref: &dyn ClonedConcurrencyControl = replica.as_ref();
        let drive = scope.spawn(move || drive_from_receiver(replica_ref, receiver));
        primary_stats = ClosedLoopDriver::with_seed(setup.seed).run_tpl(
            &engine,
            &factory,
            setup.clients,
            RunLength::Timed(setup.duration),
        );
        engine.close_log();
        drive.join().expect("replica driver");
        replica_wall = start.elapsed();
    });

    ShardedOutcome {
        shards,
        primary: primary_stats,
        replica_wall,
        replica_metrics: replica.metrics(),
        lag: replica.lag().stats(),
        cuts_taken: replica.coordinator().cuts_taken(),
        per_shard: (0..shards)
            .map(|shard| {
                let lag = replica.shard_lag(shard);
                ShardOutcome {
                    shard,
                    owned_txns: lag.len(),
                    lag: lag.stats(),
                }
            })
            .collect(),
    }
}

/// The cold-standby leg of a failover run: a fresh C5 replica bootstrapped
/// from a checkpoint of the promoted store, caught up from the new primary's
/// retained log tail.
#[derive(Debug, Clone)]
pub struct StandbyOutcome {
    /// The checkpoint's cut (= the promotion cut).
    pub checkpoint_cut: SeqNo,
    /// Rows the checkpoint captured.
    pub checkpoint_rows: usize,
    /// Records replayed from the archive tail above the cut.
    pub replayed_records: usize,
    /// Whether the standby's exposed state equals the promoted primary's
    /// final state (verified row for row).
    pub caught_up: bool,
}

/// Outcome of one failover experiment: the primary is killed mid-workload
/// (its unshipped log tail is lost), the backup is promoted, and a new
/// primary resumes on the promoted store.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// Protocol name of the promoted backup.
    pub protocol: &'static str,
    /// Primary-side statistics up to the kill.
    pub primary: PrimaryRunStats,
    /// The durable log end at the kill: the last position that reached the
    /// wire (the crashed primary's buffered tail is lost and excluded).
    pub shipped_seq: SeqNo,
    /// The backup's applied watermark at the moment of the kill.
    pub applied_at_kill: SeqNo,
    /// The backup's exposed cut at the moment of the kill.
    pub exposed_at_kill: SeqNo,
    /// Replication-lag summary at the kill (the quantity that bounds the
    /// promotion drain).
    pub lag_at_kill: Option<LagStats>,
    /// Lag samples recorded with reversed clock stamps (surfaced, not
    /// masked; see `LagTracker::clock_skew_samples`).
    pub clock_skew_samples: u64,
    /// The cut the backup was promoted at.
    pub promoted_cut: SeqNo,
    /// Promotion latency: drain of in-flight applies + pipeline seal, as
    /// measured inside `promote()` itself.
    pub promotion_drain: Duration,
    /// Full takeover latency: from the kill to the sealed cut, including
    /// delivering and applying the wire-buffered backlog the dead primary
    /// left behind. This is the fail-to-serving number the paper's thesis
    /// bounds by replication lag; `promotion_drain` alone understates it for
    /// protocols whose backlog is still queued when promotion starts.
    pub takeover: Duration,
    /// Statistics of the resumed primary serving traffic on the promoted
    /// store.
    pub resumed: PrimaryRunStats,
    /// The cold-standby leg, when requested.
    pub standby: Option<StandbyOutcome>,
}

impl FailoverOutcome {
    /// Log records shipped but not yet applied when the primary died — the
    /// backlog the promotion drain has to retire.
    pub fn backlog_records(&self) -> u64 {
        self.shipped_seq
            .as_u64()
            .saturating_sub(self.applied_at_kill.as_u64())
    }

    /// The paper's thesis, as a checkable bound: the full kill-to-sealed
    /// takeover stays within a small multiple of the replication lag
    /// observed at the kill (plus a scheduling-noise floor). A protocol that
    /// cannot keep up fails this — its takeover is proportional to the whole
    /// backlog, not the lag.
    pub fn drain_bounded_by_lag(&self) -> bool {
        let lag_max = self
            .lag_at_kill
            .as_ref()
            .map(|l| Duration::from_secs_f64(l.max_ms.max(0.0) / 1e3))
            .unwrap_or(Duration::ZERO);
        self.takeover <= Duration::from_millis(500) + 4 * lag_max
    }
}

/// Runs one failover experiment:
///
/// 1. a 2PL primary executes `factory`'s workload for `setup.duration` while
///    the backup described by `spec` applies the log live (the shipper
///    retains every shipped segment in a [`LogArchive`]);
/// 2. the primary is **killed**: the log crashes without flushing, losing
///    the buffered tail, exactly as asynchronous replication loses the
///    unshipped suffix on a real failure;
/// 3. the backup is **promoted** — in-flight applies drain to a clean
///    transaction-aligned cut and the pipeline seals — and the promotion
///    latency is measured;
/// 4. a new primary **resumes** on the promoted store
///    ([`StreamingLogger::resume_at`] continues sequence numbers and commit
///    timestamps from the cut) and serves `factory` for `resume_duration`;
/// 5. optionally (`with_standby`), a **cold standby** is bootstrapped from a
///    checkpoint of the promoted state and caught up from the new primary's
///    retained log tail, closing the failover cycle with a fresh backup.
pub fn run_failover_streaming(
    setup: &StreamingSetup,
    factory: Arc<dyn TxnFactory>,
    spec: ReplicaSpec,
    resume_duration: Duration,
    with_standby: bool,
) -> FailoverOutcome {
    // Primary, with log retention on the wire.
    let primary_store = Arc::new(MvStore::default());
    preload(&primary_store, &setup.population);
    let archive = Arc::new(LogArchive::new());
    let (shipper, receiver) = LogShipper::unbounded();
    let shipper = shipper
        .with_archive(Arc::clone(&archive))
        .with_obs(Arc::clone(&setup.obs));
    let logger = StreamingLogger::new(setup.segment_records, shipper);
    let primary_config = PrimaryConfig::default()
        .with_threads(setup.primary_threads)
        .with_op_cost(setup.op_cost);
    let engine = Arc::new(TplEngine::new(primary_store, primary_config, logger));

    // Backup.
    let replica_store = Arc::new(MvStore::default());
    preload(&replica_store, &setup.population);
    let replica_config = ReplicaConfig::default()
        .with_workers(setup.replica_workers)
        .with_op_cost(setup.op_cost)
        .with_snapshot_interval(setup.snapshot_interval)
        .with_obs(Arc::clone(&setup.obs));
    let replica = spec.build(replica_store, replica_config.clone());

    let mut primary_stats = PrimaryRunStats::default();
    let mut applied_at_kill = SeqNo::ZERO;
    let mut exposed_at_kill = SeqNo::ZERO;
    let mut kill_at = Instant::now();

    std::thread::scope(|scope| {
        // Feed the backup WITHOUT finishing it: promotion does the sealing.
        let replica_ref: &dyn ClonedConcurrencyControl = replica.as_ref();
        let feeder = scope.spawn(move || {
            while let Some(segment) = receiver.recv() {
                replica_ref.apply_segment(segment);
            }
        });

        primary_stats = ClosedLoopDriver::with_seed(setup.seed).run_tpl(
            &engine,
            &factory,
            setup.clients,
            RunLength::Timed(setup.duration),
        );
        // Kill the primary: snapshot the backup's progress at the moment of
        // death, then crash the log (the buffered tail is lost). Takeover
        // time is measured from here — it includes delivering whatever the
        // wire still buffers, not just the final promote() drain.
        applied_at_kill = replica.applied_seq();
        exposed_at_kill = replica.exposed_seq();
        kill_at = Instant::now();
        engine.crash_log();
        feeder.join().expect("feeder");
    });

    let shipped_seq = archive.last_seq();
    let lag_at_kill = replica.lag().stats();
    let clock_skew_samples = replica.lag().clock_skew_samples();

    // Promote: drain to a clean cut, seal, take over the store.
    let promotion = replica.promote();
    let takeover = kill_at.elapsed();

    // Checkpoint the promoted state before the new primary writes on top of
    // it (capture at the cut stays correct either way — the resumed
    // primary's versions all land above the cut — but capturing now mirrors
    // the real sequence: checkpoint at takeover, then serve).
    let checkpoint = with_standby
        .then(|| c5_storage::CheckpointWriter::capture(&promotion.store, promotion.cut));

    // Resume a new primary on the promoted store, its log a seamless
    // continuation of the old one — retained only when a standby will
    // actually replay it.
    let resume_archive = with_standby.then(|| Arc::new(LogArchive::starting_at(promotion.cut)));
    let (resume_shipper, resume_receiver) = LogShipper::unbounded();
    let resume_shipper = match &resume_archive {
        Some(archive) => resume_shipper.with_archive(Arc::clone(archive)),
        None => resume_shipper,
    };
    let resume_logger =
        StreamingLogger::resume_at(setup.segment_records, resume_shipper, promotion.cut);
    drop(resume_receiver); // the standby catches up from the archive instead
    let resumed_engine = Arc::new(TplEngine::new(
        Arc::clone(&promotion.store),
        PrimaryConfig::default()
            .with_threads(setup.primary_threads)
            .with_op_cost(setup.op_cost),
        resume_logger,
    ));
    let resumed = ClosedLoopDriver::with_seed(setup.seed.wrapping_add(1)).run_tpl(
        &resumed_engine,
        &factory,
        setup.clients,
        RunLength::Timed(resume_duration),
    );
    resumed_engine.close_log();

    // Cold standby: install the checkpoint, catch up from the retained tail.
    let standby = checkpoint.map(|checkpoint| {
        let tail = resume_archive
            .as_ref()
            .expect("standby runs only with a retained resume log")
            .replay_from(checkpoint.cut())
            .expect("nothing truncated above the checkpoint cut");
        let replayed_records = tail.iter().map(c5_log::Segment::len).sum();
        let standby = C5Replica::resume_from_checkpoint(
            C5Mode::Faithful,
            &checkpoint,
            replica_config.clone(),
        );
        drive_segments(standby.as_ref(), tail);

        // The standby must now expose exactly the promoted primary's state.
        let mut expect: Vec<(RowRef, Value)> = promotion.store.scan_all_at(Timestamp::MAX);
        let mut got: Vec<(RowRef, Value)> = standby.read_view().scan_all();
        expect.sort_by_key(|(row, _)| *row);
        got.sort_by_key(|(row, _)| *row);
        StandbyOutcome {
            checkpoint_cut: checkpoint.cut(),
            checkpoint_rows: checkpoint.len(),
            replayed_records,
            caught_up: expect == got,
        }
    });

    FailoverOutcome {
        protocol: spec.name(),
        primary: primary_stats,
        shipped_seq,
        applied_at_kill,
        exposed_at_kill,
        lag_at_kill,
        clock_skew_samples,
        promoted_cut: promotion.cut,
        promotion_drain: promotion.drain,
        takeover,
        resumed,
        standby,
    }
}

/// Aggregates maintained by the read-serving sessions of a reads run.
#[derive(Debug, Clone, Default)]
pub struct SessionAggregates {
    /// Tokened writes the sessions committed on the primary.
    pub writes: u64,
    /// Read-your-writes reads performed — every one *asserted* that the
    /// serving cut covered the session's token and that the session's own
    /// latest write was the value read.
    pub ryw_reads: u64,
    /// Times a session's consecutive reads were served by different
    /// replicas. The monotonic floor is asserted across every switch.
    pub replica_switches: u64,
    /// Reads that gave up waiting for a fresh-enough replica.
    pub timeouts: u64,
}

/// Outcome of one read-serving experiment: a primary fanning its log out to
/// a replica fleet while consistency-class sessions read from it.
#[derive(Debug, Clone)]
pub struct ReadsOutcome {
    /// Primary-side statistics (background write load + session writes).
    pub primary: PrimaryRunStats,
    /// Wall-clock duration of the read-serving window.
    pub wall: Duration,
    /// Number of reader sessions.
    pub sessions: usize,
    /// Per-consistency-class read statistics, in `ClassKind::ALL` order.
    pub per_class: Vec<c5_read::ClassStats>,
    /// Final per-replica routing snapshot.
    pub fleet: Vec<c5_read::ReplicaStatus>,
    /// Final per-replica progress counters.
    pub replica_metrics: Vec<ReplicaMetrics>,
    /// Per-replica replication-lag summaries.
    pub replica_lag: Vec<Option<LagStats>>,
    /// Session-side aggregates (assertions included).
    pub session_stats: SessionAggregates,
    /// The primary's final log position; the closing strong read was served
    /// at or above it.
    pub final_seq: SeqNo,
}

impl ReadsOutcome {
    /// Whether every replica applied exactly the primary's committed
    /// transactions.
    pub fn all_converged(&self) -> bool {
        self.replica_metrics
            .iter()
            .all(|m| m.applied_txns == self.primary.committed)
    }

    /// Total reads served across all classes.
    pub fn total_reads(&self) -> u64 {
        self.per_class.iter().map(|c| c.reads).sum()
    }
}

/// Table used by reader sessions for their own tokened writes (disjoint from
/// every workload's tables, so sessions only ever race with themselves on
/// their own keys).
pub const SESSION_TABLE: u32 = 200;

/// Runs one read-serving experiment:
///
/// * a 2PL primary executes `factory`'s workload with closed-loop clients
///   for `setup.duration`, its log fanning out to `replicas` independent
///   backups of `spec` (one bounded channel each);
/// * a [`c5_read::ReadRouter`] spans the fleet, its primary frontier wired to
///   the engine's log position (so `Strong` reads are primary-verified);
/// * `sessions` reader threads each run a session loop: commit a tokened
///   write on the primary, causally read it back (**asserting**
///   read-your-writes: the serving cut covers the token and the value is
///   the session's own latest write), and mix in `Strong` and
///   `BoundedStaleness(staleness_bound)` reads of random keys — asserting
///   after every read that the session never reads backwards, across
///   whatever replica switches the router makes;
/// * after the log closes and the fleet drains, a final `Strong` read
///   verifies the router serves the complete log end-to-end.
///
/// # Panics
/// Panics inside a session thread if read-your-writes or monotonicity is
/// violated — the experiment's built-in correctness assertions.
pub fn run_reads_streaming(
    setup: &StreamingSetup,
    factory: Arc<dyn TxnFactory>,
    spec: ReplicaSpec,
    replicas: usize,
    sessions: usize,
    staleness_bound: Duration,
) -> ReadsOutcome {
    use c5_read::ReadRouter;
    use std::sync::atomic::{AtomicBool, Ordering};

    assert!(replicas > 0 && sessions > 0);
    // Primary with 1→N fan-out.
    let primary_store = Arc::new(MvStore::default());
    preload(&primary_store, &setup.population);
    let (shipper, receivers) = LogShipper::fan_out(replicas, 1024);
    let shipper = shipper.with_obs(Arc::clone(&setup.obs));
    let logger = StreamingLogger::new(setup.segment_records, shipper);
    let primary_config = PrimaryConfig::default()
        .with_threads(setup.primary_threads)
        .with_op_cost(setup.op_cost);
    let engine = Arc::new(TplEngine::new(primary_store, primary_config, logger));

    // The fleet.
    let replica_config = ReplicaConfig::default()
        .with_workers(setup.replica_workers)
        .with_op_cost(setup.op_cost)
        .with_snapshot_interval(setup.snapshot_interval)
        .with_obs(Arc::clone(&setup.obs));
    let backups: Vec<Arc<dyn ClonedConcurrencyControl>> = (0..replicas)
        .map(|_| {
            let store = Arc::new(MvStore::default());
            preload(&store, &setup.population);
            spec.build(store, replica_config.clone())
        })
        .collect();

    // The router: frontier = the primary's assigned log end, so strong reads
    // verify against what the primary has committed, not just shipped; the
    // tail-flush hook lets a blocked read ship a committed-but-buffered
    // token instead of waiting for its segment to fill.
    let frontier_engine = Arc::clone(&engine);
    let flush_engine = Arc::clone(&engine);
    let router = Arc::new(
        ReadRouter::new(
            backups.clone(),
            c5_common::ReadConfig::default()
                .with_max_wait(Duration::from_secs(5))
                .with_obs(Arc::clone(&setup.obs)),
        )
        .with_frontier(move || frontier_engine.log_last_seq())
        .with_tail_flush(move || flush_engine.flush_log()),
    );

    let start = Instant::now();
    let stop_readers = AtomicBool::new(false);
    let mut primary_stats = PrimaryRunStats::default();
    let mut wall = Duration::ZERO;
    let session_stats = parking_lot::Mutex::new(SessionAggregates::default());

    std::thread::scope(|scope| {
        // Fleet ingestion.
        let drivers: Vec<_> = backups
            .iter()
            .zip(receivers)
            .map(|(backup, receiver)| {
                let backup_ref: &dyn ClonedConcurrencyControl = backup.as_ref();
                scope.spawn(move || drive_from_receiver(backup_ref, receiver))
            })
            .collect();

        // Reader sessions.
        let reader_handles: Vec<_> = (0..sessions)
            .map(|s| {
                let engine = Arc::clone(&engine);
                let router = Arc::clone(&router);
                let stop_readers = &stop_readers;
                let session_stats = &session_stats;
                let seed = setup.seed.wrapping_add(s as u64);
                scope.spawn(move || {
                    let local =
                        run_session_loop(&engine, &router, s, seed, stop_readers, staleness_bound);
                    let mut total = session_stats.lock();
                    total.writes += local.writes;
                    total.ryw_reads += local.ryw_reads;
                    total.replica_switches += local.replica_switches;
                    total.timeouts += local.timeouts;
                })
            })
            .collect();

        // Background write load on the primary.
        primary_stats = ClosedLoopDriver::with_seed(setup.seed).run_tpl(
            &engine,
            &factory,
            setup.clients,
            RunLength::Timed(setup.duration),
        );
        // Stop the sessions. A session mid-iteration can still commit a
        // token into a partial segment after the background load ends; its
        // own blocked read ships it via the router's tail-flush hook.
        stop_readers.store(true, Ordering::Relaxed);
        for handle in reader_handles {
            handle.join().expect("reader session");
        }
        wall = start.elapsed();
        engine.close_log();
        for driver in drivers {
            driver.join().expect("replica driver");
        }
    });

    // The fleet has the whole log; a closing strong read must see it.
    let final_seq = engine.log_last_seq();
    let closing = router
        .session()
        .read(
            &c5_read::ConsistencyClass::Strong,
            RowRef::new(SESSION_TABLE, 0),
        )
        .expect("a drained fleet serves strong reads immediately");
    assert!(
        closing.as_of >= final_seq,
        "closing strong read at {} misses the log end {final_seq}",
        closing.as_of
    );

    // Session writes ride the same engine; fold them into the committed
    // count the convergence check compares against.
    primary_stats.committed = engine.committed();

    ReadsOutcome {
        primary: primary_stats,
        wall,
        sessions,
        per_class: router.all_class_stats(),
        fleet: router.fleet_status(),
        replica_metrics: backups.iter().map(|b| b.metrics()).collect(),
        replica_lag: backups.iter().map(|b| b.lag().stats()).collect(),
        session_stats: session_stats.into_inner(),
        final_seq,
    }
}

/// One reader session's loop, shared by the read-serving and elastic
/// harnesses: commit a tokened write on the primary, causally read it back
/// (**asserting** read-your-writes by cut and by value), mix in `Strong` and
/// `BoundedStaleness(staleness_bound)` reads of random keys, and assert
/// after every read that the session never reads backwards — across whatever
/// replica switches (or, for the elastic harness, membership churn) the
/// router rides through.
///
/// # Panics
/// Panics if read-your-writes or monotonicity is violated.
fn run_session_loop(
    engine: &Arc<TplEngine>,
    router: &Arc<c5_read::ReadRouter>,
    s: usize,
    seed: u64,
    stop: &std::sync::atomic::AtomicBool,
    staleness_bound: Duration,
) -> SessionAggregates {
    use c5_primary::TxnCtx;
    use c5_read::ConsistencyClass;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::Ordering;

    let mut session = router.session();
    let mut local = SessionAggregates::default();
    let mut last_as_of = SeqNo::ZERO;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assert_monotonic = |read: &c5_read::SessionRead| {
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
            Err(c5_common::Error::ReadTimeout { .. }) => local.timeouts += 1,
            Err(err) => panic!("session read failed: {err}"),
        }

        // 3. A strong or bounded-staleness read of a random key.
        let random_row = RowRef::new(c5_workloads::SYNTHETIC_TABLE, rng.gen_range(0..100_000));
        let class = if iteration % 4 == 0 {
            ConsistencyClass::Strong
        } else {
            ConsistencyClass::BoundedStaleness(staleness_bound)
        };
        match session.read(&class, random_row) {
            Ok(read) => assert_monotonic(&read),
            Err(c5_common::Error::ReadTimeout { .. }) => local.timeouts += 1,
            Err(err) => panic!("session read failed: {err}"),
        }
        iteration += 1;
    }
    local.replica_switches = session.replica_switches();
    local
}

/// Outcome of the elastic-fleet experiment: one online join and one online
/// retire performed on a live fan-out under continuous tokened load.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// Primary-side statistics (background load plus session writes).
    pub primary: PrimaryRunStats,
    /// Wall-clock time of the whole churn window.
    pub wall: Duration,
    /// Number of reader sessions.
    pub sessions: usize,
    /// What the mid-run online join did.
    pub join: JoinReport,
    /// What the mid-run online retire did.
    pub retire: RetireReport,
    /// Per-consistency-class read statistics.
    pub per_class: Vec<c5_read::ClassStats>,
    /// Final routing snapshot of the surviving fleet.
    pub fleet: Vec<c5_read::ReplicaStatus>,
    /// Session-side aggregates (every read also carried the harness's
    /// built-in RYW/monotonicity assertions).
    pub session_stats: SessionAggregates,
    /// Per-surviving-member lag summaries, keyed by fleet id. The joiner's
    /// samples only cover its post-join life, so its row *is* the
    /// lag-during-churn measurement.
    pub survivor_lag: Vec<(usize, Option<LagStats>)>,
    /// Whether every surviving member's exposed state equals the primary's
    /// final state row for row (MPC convergence despite the churn).
    pub survivors_converged: bool,
    /// The primary's final log position.
    pub final_seq: SeqNo,
    /// Router generation at the end — one bump per admit, retire, and
    /// detach, so churn is visible in the routing metadata.
    pub generations: u64,
}

/// Runs the elastic-fleet experiment:
///
/// * a 2PL primary ships to a [`LogShipper`] that starts with **zero**
///   subscribers and an archive — every member of the fleet, seeds
///   included, enters through [`FleetController`]'s join protocol;
/// * `seed_replicas` members are seeded before load starts; `sessions`
///   reader threads then run the same tokened session loop as the `reads`
///   experiment while a closed-loop workload drives the primary;
/// * a third of the way through, a brand-new replica **joins online**
///   (checkpoint export → install → archived-gap replay → live stream, the
///   stream subscribed before the replay so no seq can fall in between);
///   two thirds through, the first seed **retires online** (drain, then
///   detach);
/// * the harness hard-asserts the joiner is exposed at or beyond its
///   install cut the moment it is `Serving`, that no session ever violates
///   RYW or monotonicity across the churn, that a closing strong read
///   covers the whole log, and that every survivor's final state equals
///   the primary's, row for row.
///
/// # Panics
/// Panics if any of the above invariants fails — these are the
/// experiment's built-in correctness assertions.
pub fn run_elastic_streaming(
    setup: &StreamingSetup,
    factory: Arc<dyn TxnFactory>,
    seed_replicas: usize,
    sessions: usize,
    staleness_bound: Duration,
) -> ElasticOutcome {
    use c5_read::ReadRouter;
    use std::sync::atomic::{AtomicBool, Ordering};

    assert!(seed_replicas > 0 && sessions > 0);
    // Primary whose shipper starts empty: membership is entirely dynamic.
    let primary_store = Arc::new(MvStore::default());
    preload(&primary_store, &setup.population);
    let archive = Arc::new(LogArchive::new());
    let (shipper, receivers) = LogShipper::fan_out(0, 1024);
    assert!(receivers.is_empty());
    let shipper = shipper
        .with_archive(Arc::clone(&archive))
        .with_obs(Arc::clone(&setup.obs));
    let logger = StreamingLogger::new(setup.segment_records, shipper.clone());
    let primary_config = PrimaryConfig::default()
        .with_threads(setup.primary_threads)
        .with_op_cost(setup.op_cost);
    let engine = Arc::new(TplEngine::new(
        Arc::clone(&primary_store),
        primary_config,
        logger,
    ));

    // The router starts with an empty fleet; the controller admits members.
    let frontier_engine = Arc::clone(&engine);
    let flush_engine = Arc::clone(&engine);
    let router = Arc::new(
        ReadRouter::new(
            Vec::new(),
            c5_common::ReadConfig::default()
                .with_max_wait(Duration::from_secs(5))
                .with_obs(Arc::clone(&setup.obs)),
        )
        .with_frontier(move || frontier_engine.log_last_seq())
        .with_tail_flush(move || flush_engine.flush_log()),
    );

    let replica_config = ReplicaConfig::default()
        .with_workers(setup.replica_workers)
        .with_op_cost(setup.op_cost)
        .with_snapshot_interval(setup.snapshot_interval)
        .with_obs(Arc::clone(&setup.obs));
    let controller = FleetController::new(
        shipper,
        Arc::clone(&archive),
        Arc::clone(&router) as Arc<dyn FleetRoutingSink>,
        C5Mode::Faithful,
        replica_config,
    );

    // Seed the initial fleet through the same join protocol a live joiner
    // uses; with an empty archive there is nothing to replay, so the seeds
    // are Serving immediately.
    let seeds: Vec<JoinReport> = (0..seed_replicas)
        .map(|_| {
            let store = Arc::new(MvStore::default());
            preload(&store, &setup.population);
            controller
                .join_seeded(store)
                .expect("seeding an idle fleet cannot fail")
        })
        .collect();

    let start = Instant::now();
    let stop_readers = AtomicBool::new(false);
    let mut primary_stats = PrimaryRunStats::default();
    let mut wall = Duration::ZERO;
    let session_stats = parking_lot::Mutex::new(SessionAggregates::default());
    let mut join_report = None;
    let mut retire_report = None;

    std::thread::scope(|scope| {
        // Reader sessions.
        let reader_handles: Vec<_> = (0..sessions)
            .map(|s| {
                let engine = Arc::clone(&engine);
                let router = Arc::clone(&router);
                let stop_readers = &stop_readers;
                let session_stats = &session_stats;
                let seed = setup.seed.wrapping_add(s as u64);
                scope.spawn(move || {
                    let local =
                        run_session_loop(&engine, &router, s, seed, stop_readers, staleness_bound);
                    let mut total = session_stats.lock();
                    total.writes += local.writes;
                    total.ryw_reads += local.ryw_reads;
                    total.replica_switches += local.replica_switches;
                    total.timeouts += local.timeouts;
                })
            })
            .collect();

        // Background write load runs on its own thread so this thread can
        // orchestrate the membership churn mid-run.
        let load = {
            let engine = Arc::clone(&engine);
            let factory = Arc::clone(&factory);
            scope.spawn(move || {
                ClosedLoopDriver::with_seed(setup.seed).run_tpl(
                    &engine,
                    &factory,
                    setup.clients,
                    RunLength::Timed(setup.duration),
                )
            })
        };

        // One third in: a brand-new replica joins the live fan-out.
        std::thread::sleep(setup.duration / 3);
        let join = controller.join().expect("online join under load");
        assert!(
            join.checkpoint_cut <= join.stream_start,
            "the live stream (from {}) must cover everything past the \
             checkpoint cut {}",
            join.stream_start,
            join.checkpoint_cut
        );
        let joiner = controller.replica(join.replica).expect("joiner is managed");
        assert!(
            joiner.exposed_seq() >= join.checkpoint_cut.max(join.stream_start),
            "a joiner flips to Serving only at or beyond its install cut"
        );
        join_report = Some(join);

        // Two thirds in: the first seed retires online — drained, then
        // detached, while its peers keep serving.
        std::thread::sleep(setup.duration / 3);
        let retire = controller
            .retire(seeds[0].replica)
            .expect("online retire under load");
        retire_report = Some(retire);

        primary_stats = load.join().expect("background load");
        // Stop the sessions. A session mid-iteration can still commit a
        // token into a partial segment after the background load ends; its
        // own blocked read ships it via the router's tail-flush hook.
        stop_readers.store(true, Ordering::Relaxed);
        for handle in reader_handles {
            handle.join().expect("reader session");
        }
        wall = start.elapsed();
        engine.close_log();
        controller.finish();
    });

    // The surviving fleet has the whole log; a closing strong read must
    // see it even though a member left mid-run.
    let final_seq = engine.log_last_seq();
    let closing = router
        .session()
        .read(
            &c5_read::ConsistencyClass::Strong,
            RowRef::new(SESSION_TABLE, 0),
        )
        .expect("the surviving fleet serves strong reads after the churn");
    assert!(
        closing.as_of >= final_seq,
        "closing strong read at {} misses the log end {final_seq}",
        closing.as_of
    );

    // Session writes ride the same engine; fold them into the committed
    // count reported for the primary.
    primary_stats.committed = engine.committed();

    let join = join_report.expect("join ran");
    let retire = retire_report.expect("retire ran");

    // MPC convergence by full state: every surviving member's exposed state
    // must equal the primary's final state row for row. (The joiner's
    // applied-txn counter can't be compared — its checkpoint baked in
    // history it never applied — so state equality is the check.)
    let mut expect: Vec<(RowRef, Value)> = primary_store.scan_all_at(Timestamp::MAX);
    expect.sort_by_key(|(row, _)| *row);
    let survivor_ids: Vec<usize> = controller
        .members()
        .into_iter()
        .filter(|&(_, state)| state == ReplicaLifecycle::Serving)
        .map(|(id, _)| id)
        .collect();
    let mut survivors_converged = true;
    let mut survivor_lag = Vec::new();
    for &id in &survivor_ids {
        let replica = controller.replica(id).expect("serving member is managed");
        let mut got: Vec<(RowRef, Value)> = replica.read_view().scan_all();
        got.sort_by_key(|(row, _)| *row);
        survivors_converged &= got == expect;
        survivor_lag.push((id, replica.lag().stats()));
    }

    ElasticOutcome {
        primary: primary_stats,
        wall,
        sessions,
        join,
        retire,
        per_class: router.all_class_stats(),
        fleet: router.fleet_status(),
        session_stats: session_stats.into_inner(),
        survivor_lag,
        survivors_converged,
        final_seq,
        generations: router.generation(),
    }
}

/// Parameters for the offline (Cicada-style) experiments.
#[derive(Debug, Clone)]
pub struct OfflineSetup {
    /// Initial population (installed on both sides).
    pub population: Vec<(RowRef, Value)>,
    /// Primary client threads.
    pub threads: usize,
    /// Transactions submitted per thread.
    pub txns_per_thread: u64,
    /// Backup workers.
    pub replica_workers: usize,
    /// Per-operation cost model.
    pub op_cost: OpCost,
    /// Records per segment.
    pub segment_records: usize,
    /// RNG seed.
    pub seed: u64,
}

impl OfflineSetup {
    /// A setup with paper-like defaults and no population.
    pub fn new(threads: usize, txns_per_thread: u64, workers: usize) -> Self {
        Self {
            population: Vec::new(),
            threads,
            txns_per_thread,
            replica_workers: workers,
            op_cost: OpCost::free(),
            segment_records: 256,
            seed: 42,
        }
    }
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
    /// Primary throughput (transactions per second).
    pub fn primary_throughput(&self) -> f64 {
        self.primary.throughput()
    }

    /// Backup replay throughput (transactions per second).
    pub fn replica_throughput(&self) -> f64 {
        if self.replay_wall.is_zero() {
            0.0
        } else {
            self.replica_metrics.applied_txns as f64 / self.replay_wall.as_secs_f64()
        }
    }

    /// Backup throughput relative to the primary's.
    pub fn relative_throughput(&self) -> f64 {
        let p = self.primary_throughput();
        if p == 0.0 {
            0.0
        } else {
            self.replica_throughput() / p
        }
    }

    /// Whether the backup can keep up (its replay rate is at least the
    /// primary's execution rate).
    pub fn keeps_up(&self) -> bool {
        self.relative_throughput() >= 0.95
    }
}

/// Runs the MVTSO primary on `factory`'s workload, coalesces its log, then
/// replays it through the backup described by `spec` and measures the replay
/// time. Returns the primary stats (measured without any replication load,
/// matching Section 7.3's "Cicada without logging" upper-bound comparison)
/// and the backup outcome.
pub fn run_offline_mvtso(
    setup: &OfflineSetup,
    factory: Arc<dyn TxnFactory>,
    spec: ReplicaSpec,
) -> OfflineOutcome {
    // Primary run.
    let primary_store = Arc::new(MvStore::default());
    preload(&primary_store, &setup.population);
    let primary_config = PrimaryConfig::default()
        .with_threads(setup.threads)
        .with_op_cost(setup.op_cost);
    let engine = Arc::new(MvtsoEngine::new(primary_store, primary_config));
    let primary_stats = ClosedLoopDriver::with_seed(setup.seed).run_mvtso(
        &engine,
        &factory,
        setup.threads,
        RunLength::PerClientCount(setup.txns_per_thread),
    );
    let segments = engine.take_segments(setup.segment_records);

    // Backup replay.
    let replica_store = Arc::new(MvStore::default());
    preload(&replica_store, &setup.population);
    let replica_config = ReplicaConfig::default()
        .with_workers(setup.replica_workers)
        .with_op_cost(setup.op_cost)
        .with_snapshot_interval(Duration::from_millis(1));
    let replica = spec.build(replica_store, replica_config);
    let replay_wall = drive_segments(replica.as_ref(), segments);

    OfflineOutcome {
        protocol: spec.name(),
        primary: primary_stats,
        replay_wall,
        replica_metrics: replica.metrics(),
    }
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{c:>width$}",
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect();
        println!("{}", line.join("  "));
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
    use c5_workloads::synthetic::{
        adversarial_population, AdversarialWorkload, InsertOnlyWorkload, SYNTHETIC_TABLE,
    };

    #[test]
    fn streaming_experiment_runs_end_to_end() {
        let mut setup = StreamingSetup::new(Duration::from_millis(200), 2, 2);
        setup.op_cost = OpCost::free();
        setup.population = adversarial_population();
        let factory: Arc<dyn TxnFactory> = Arc::new(AdversarialWorkload::new(2));
        let outcome = run_streaming(
            &setup,
            factory,
            ReplicaSpec::C5Faithful,
            1,
            SYNTHETIC_TABLE,
            1000,
        );
        assert!(outcome.primary.committed > 0);
        assert_eq!(
            outcome.replica_metrics.applied_txns,
            outcome.primary.committed
        );
        assert!(outcome.lag.is_some());
        assert!(outcome.reads.is_some());
        assert!(outcome.replica_throughput() > 0.0);
        assert!(outcome.relative_throughput() > 0.0);
    }

    #[test]
    fn offline_experiment_runs_end_to_end() {
        let setup = OfflineSetup::new(2, 200, 2);
        let factory: Arc<dyn TxnFactory> = Arc::new(InsertOnlyWorkload::new(4));
        let outcome = run_offline_mvtso(
            &setup,
            factory,
            ReplicaSpec::KuaFu {
                ignore_constraints: false,
            },
        );
        assert_eq!(outcome.primary.committed, 400);
        assert_eq!(outcome.replica_metrics.applied_txns, 400);
        assert!(outcome.replica_throughput() > 0.0);
        assert_eq!(outcome.protocol, "kuafu");
    }

    // run_fanout_streaming is covered end-to-end by the workspace
    // integration test `fan_out_harness_reports_per_replica_lag`
    // (tests/mpc_consistency.rs) and by the `fanout` CI smoke step.

    #[test]
    fn reads_experiment_runs_end_to_end() {
        let mut setup = StreamingSetup::new(Duration::from_millis(250), 2, 2);
        setup.op_cost = OpCost::free();
        setup.population = adversarial_population();
        setup.segment_records = 32;
        let factory: Arc<dyn TxnFactory> = Arc::new(AdversarialWorkload::new(2));
        let outcome = run_reads_streaming(
            &setup,
            factory,
            ReplicaSpec::C5Faithful,
            2,
            2,
            Duration::from_millis(250),
        );
        // The RYW and monotonicity assertions already ran inside the session
        // threads; check the reporting surface here.
        assert!(outcome.all_converged());
        assert!(outcome.session_stats.writes > 0);
        assert!(outcome.session_stats.ryw_reads > 0);
        assert_eq!(outcome.per_class.len(), 3);
        for class in &outcome.per_class {
            assert!(class.reads > 0, "{} served no reads", class.kind.name());
        }
        assert_eq!(outcome.fleet.len(), 2);
        assert_eq!(
            outcome.fleet.iter().map(|f| f.served).sum::<u64>(),
            outcome.total_reads(),
            "every read (including the closing strong read) was served by the fleet"
        );
        assert!(outcome.total_reads() > 0);
    }

    #[test]
    fn failover_experiment_runs_end_to_end() {
        let mut setup = StreamingSetup::new(Duration::from_millis(200), 2, 2);
        setup.op_cost = OpCost::free();
        setup.population = adversarial_population();
        let factory: Arc<dyn TxnFactory> = Arc::new(AdversarialWorkload::new(2));
        let outcome = run_failover_streaming(
            &setup,
            factory,
            ReplicaSpec::C5Faithful,
            Duration::from_millis(100),
            true,
        );
        assert!(outcome.primary.committed > 0);
        assert!(outcome.promoted_cut >= outcome.exposed_at_kill);
        assert!(
            outcome.resumed.committed > 0,
            "promoted primary serves traffic"
        );
        let standby = outcome.standby.expect("standby requested");
        assert!(standby.caught_up, "standby must match the promoted primary");
        assert_eq!(standby.checkpoint_cut, outcome.promoted_cut);
    }

    #[test]
    fn every_replica_spec_builds_and_applies() {
        for spec in [
            ReplicaSpec::C5Faithful,
            ReplicaSpec::C5MyRocks,
            ReplicaSpec::KuaFu {
                ignore_constraints: false,
            },
            ReplicaSpec::SingleThreaded,
            ReplicaSpec::TableGranularity,
            ReplicaSpec::PageGranularity { rows_per_page: 16 },
        ] {
            let setup = OfflineSetup::new(2, 50, 2);
            let factory: Arc<dyn TxnFactory> = Arc::new(InsertOnlyWorkload::new(2));
            let outcome = run_offline_mvtso(&setup, factory, spec);
            assert_eq!(
                outcome.replica_metrics.applied_txns,
                100,
                "{} failed",
                spec.name()
            );
        }
    }
}
