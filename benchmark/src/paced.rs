//! The paced phase: open-loop traffic on a live primary, replicated to the
//! fleet while a reader reads from it, with replication lag measured from
//! outside.
//!
//! Threads (the machine has two cores): one generator executing transactions
//! on an absolute-deadline schedule; one feeder per replica blocking in
//! `recv` → `apply_segment`; one observer sleeping 100 µs between polls of
//! every replica's `applied_seq()` / `exposed_seq()`; one reader. Everything
//! is stamped on one clock, nanoseconds after the phase's start, and joined
//! after the threads have stopped, so measuring shares no state with the
//! program under test while it runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use c5_common::{Error, ReadConfig, RowRef, SeqNo, Timestamp};
use c5_log::LogReceiver;
use c5_primary::TplEngine;
use c5_read::{ConsistencyClass, ReadRouter, ReadSession};
use c5_storage::MvStore;

use crate::fleet::{Fleet, Replica};
use crate::pacer::{wait_until, Schedule};
use crate::workload::{
    snapshot_keys, stamp_of, Prng, Reader, Traffic, TxnStream, WorkloadSpec, READER_SALT,
    SNAPSHOT_STALENESS_MS,
};

/// How often the observer polls, nominally (the sleep's own slack adds
/// about half as much again): the resolution of every lag sample.
pub const OBSERVER_PERIOD: Duration = Duration::from_micros(100);

/// The light reader adds a strong read to every this-many-th visit, so every
/// workload reports a strong-read latency.
const LIGHT_STRONG_EVERY: u64 = 5;
/// Snapshot transactions per visit of the light reader. The first runs on a
/// core that has just woken up; the rest measure the read path itself.
const LIGHT_SNAPSHOT_BURST: usize = 8;

/// Whether a view pinned at `as_of` can still be judged for completeness
/// now that its reads are done.
///
/// The store's version GC trails the exposed cut by `gc_trail` log positions
/// and does not wait for pinned views. A reader descheduled while the cut
/// advanced further than that may find the versions it pinned reclaimed,
/// through no fault of the read path; such a read's latency still counts but
/// its contents are not held against the run. Until the cut has moved that
/// far no collection can have passed the view, so this check is exact.
pub(crate) fn still_judgeable(router: &ReadRouter, as_of: SeqNo) -> bool {
    let trail = c5_common::ReplicaConfig::default().gc_trail;
    router.freshest_exposed().as_u64() <= as_of.as_u64() + trail
}

/// Failed operations and violated invariants, with the first few spelled out.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    /// How many.
    pub count: u64,
    /// The first few, for the operator.
    pub examples: Vec<String>,
}

impl Failures {
    /// How many failures are spelled out.
    const EXAMPLES: usize = 8;

    /// Records one failure.
    pub fn push(&mut self, what: impl FnOnce() -> String) {
        self.count += 1;
        if self.examples.len() < Self::EXAMPLES {
            self.examples.push(what());
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        let room = Self::EXAMPLES.saturating_sub(self.examples.len());
        self.examples.extend(other.examples.into_iter().take(room));
    }
}

/// One committed transaction of the paced phase.
#[derive(Debug, Clone, Copy)]
struct Commit {
    /// When it was due, ns after the phase start.
    due_ns: u64,
    /// When the generator got to it.
    start_ns: u64,
    /// When `execute_with_token` returned.
    done_ns: u64,
    /// Its boundary position in the log.
    token: u64,
}

/// One segment's passage through a feeder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fed {
    /// The last position the segment covers.
    through: u64,
    /// When `recv` returned it.
    recv_ns: u64,
    /// When `apply_segment` returned.
    fed_ns: u64,
}

/// What the observer saw of one replica: `(when, position)` every time a
/// watermark moved.
#[derive(Debug, Default)]
struct Timeline {
    applied: Vec<(u64, u64)>,
    exposed: Vec<(u64, u64)>,
}

/// First time at which a timeline covers `seq`, if it ever does.
fn covered_at(timeline: &[(u64, u64)], seq: u64) -> Option<u64> {
    let i = timeline.partition_point(|&(_, position)| position < seq);
    timeline.get(i).map(|&(when, _)| when)
}

/// The newest commit, published by the generator for the reader's
/// read-your-writes probes.
#[derive(Debug, Clone, Copy)]
struct Newest {
    token: u64,
    stamp: u64,
    probe: RowRef,
}

/// The five terms of one transaction's lag, in ms. They sum to the lag
/// sample exactly: consecutive differences of six stamps on one clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LagTerms {
    /// Due → `execute_with_token` returned.
    pub commit: f64,
    /// → the feeder's `recv` returned the covering segment.
    pub fill_ship: f64,
    /// → `apply_segment` returned.
    pub ingest: f64,
    /// → `applied_seq()` covered the transaction.
    pub apply: f64,
    /// → `exposed_seq()` covered it.
    pub expose: f64,
}

impl LagTerms {
    /// The terms' sum: the lag.
    pub fn sum(&self) -> f64 {
        self.commit + self.fill_ship + self.ingest + self.apply + self.expose
    }
}

/// Latency samples and counters of the reader thread.
#[derive(Debug, Default)]
pub struct ReadSamples {
    /// Read-your-writes reads, ms.
    pub ryw_ms: Vec<f64>,
    /// 8-key snapshot transactions, µs.
    pub snap_us: Vec<f64>,
    /// Strong reads, ms (`reads.mixed` only).
    pub strong_ms: Vec<f64>,
    /// Reads attempted.
    pub attempted: u64,
    /// Failed reads and violated session guarantees.
    pub failures: Failures,
}

/// Everything the paced phase measured.
#[derive(Debug)]
pub struct PacedOutcome {
    /// Due → visible on the slowest replica, one sample per transaction, ms.
    pub lag_ms: Vec<f64>,
    /// The lag budget, one entry per transaction (traced runs only).
    pub terms: Vec<LagTerms>,
    /// The reader's samples.
    pub reads: ReadSamples,
    /// How late the generator started each transaction, ms after it was due.
    pub late_ms: Vec<f64>,
    /// Share of reads and transaction opens the router had to block, from
    /// `ReadRouter::class_stats`.
    pub blocked_share: f64,
    /// Transactions attempted.
    pub attempted: u64,
    /// Aborted commits, unexposed records, diverged state, broken cuts.
    pub failures: Failures,
    /// Correctness checks performed after the drain.
    pub checks: u64,
    /// Segment files per shipped segment (durable wire only).
    pub fsyncs_per_seg: Option<f64>,
}

/// Runs the paced phase of `spec` for `window`: a primary over
/// `primary_store` (preloaded like every replica) feeding `fleet`.
pub fn run(
    spec: &WorkloadSpec,
    primary_store: Arc<MvStore>,
    fleet: Fleet,
    seed: u64,
    window: Duration,
    traced: bool,
) -> PacedOutcome {
    let Fleet {
        shipper,
        receivers,
        replicas,
        archive,
    } = fleet;
    let engine = Arc::new(crate::fleet::primary(primary_store, shipper));
    let frontier = Arc::clone(&engine);
    let router = Arc::new(
        ReadRouter::new(replicas.clone(), ReadConfig::default())
            .with_frontier(move || frontier.log_last_seq()),
    );

    let newest = Mutex::new(Newest {
        token: 0,
        stamp: 0,
        probe: RowRef::new(0, 0),
    });
    let feeding = AtomicBool::new(true);
    let generating = AtomicBool::new(true);
    let start = Instant::now();
    let schedule = Schedule::new(start, spec.rate_tps);

    let (commits, aborted, fed, timelines, reads, observed) = std::thread::scope(|scope| {
        let feeders: Vec<_> = replicas
            .iter()
            .zip(receivers)
            .map(|(replica, receiver)| scope.spawn(move || feed(replica, receiver, start, traced)))
            .collect();
        let observer = scope.spawn(|| observe(&replicas, start, traced, &feeding));
        let reader = scope.spawn(|| {
            read_loop(
                spec,
                Arc::clone(&router),
                &newest,
                &generating,
                start,
                seed,
                window,
            )
        });

        let (commits, aborted) = generate(spec, &engine, &schedule, &newest, seed, window);
        generating.store(false, Ordering::Release);
        // Ships the buffered tail, so a read still waiting on the last
        // transactions is released, then signals end-of-log to the feeders.
        engine.close_log();
        // A reader that panics (the library's own debug assertions fire on
        // a replica that lies about its cut) is a failed run, not a crash.
        let reads = reader.join().unwrap_or_else(|_| {
            let mut reads = ReadSamples::default();
            reads.failures.push(|| "the reader thread panicked".into());
            reads
        });
        let fed: Vec<Vec<Fed>> = feeders
            .into_iter()
            .map(|f| f.join().expect("feeder thread"))
            .collect();
        feeding.store(false, Ordering::Release);
        let (timelines, observed) = observer.join().expect("observer thread");
        (commits, aborted, fed, timelines, reads, observed)
    });

    let mut failures = observed;
    for _ in 0..aborted {
        failures.push(|| "a paced transaction aborted".into());
    }
    let mut checks = 0;

    // Drain checks: the whole log is exposed, on a transaction boundary, and
    // every replica holds exactly the primary's state.
    let last_shipped = engine.log_last_seq();
    let expected = engine.store().scan_all_at(Timestamp::MAX);
    for (r, replica) in replicas.iter().enumerate() {
        checks += 2;
        if replica.exposed_seq() != last_shipped {
            failures.push(|| {
                format!(
                    "replica {r} drained at cut {} but the log ends at {last_shipped}",
                    replica.exposed_seq()
                )
            });
        }
        if replica.read_view().scan_all() != expected {
            failures.push(|| format!("replica {r} diverged from the primary's state"));
        }
    }
    // Every cut the observer saw must be some transaction's boundary.
    let tokens: Vec<u64> = commits.iter().map(|c| c.token).collect();
    for (r, timeline) in timelines.iter().enumerate() {
        checks += 1;
        let torn = timeline
            .exposed
            .iter()
            .find(|&&(_, cut)| cut != 0 && tokens.binary_search(&cut).is_err());
        if let Some(&(_, cut)) = torn {
            failures.push(|| format!("replica {r} exposed cut {cut}, not a transaction boundary"));
        }
    }

    // Join the stamps into lag samples (and, traced, their budget).
    let mut lag_ms = Vec::with_capacity(commits.len());
    let mut terms = Vec::new();
    let mut unexposed = 0u64;
    for commit in &commits {
        // The slowest replica sets the sample.
        let slowest = timelines
            .iter()
            .enumerate()
            .map(|(r, t)| covered_at(&t.exposed, commit.token).map(|when| (when, r)))
            .collect::<Option<Vec<_>>>()
            .and_then(|all| all.into_iter().max());
        let Some((exposed_ns, r)) = slowest else {
            unexposed += 1;
            continue;
        };
        let ms = |from: u64, to: u64| (to as f64 - from as f64) / 1e6;
        lag_ms.push(ms(commit.due_ns, exposed_ns));
        if traced {
            let segment = fed[r].partition_point(|f| f.through < commit.token);
            let applied_ns = covered_at(&timelines[r].applied, commit.token);
            if let (Some(f), Some(applied_ns)) = (fed[r].get(segment), applied_ns) {
                terms.push(LagTerms {
                    commit: ms(commit.due_ns, commit.done_ns),
                    fill_ship: ms(commit.done_ns, f.recv_ns),
                    ingest: ms(f.recv_ns, f.fed_ns),
                    apply: ms(f.fed_ns, applied_ns),
                    expose: ms(applied_ns, exposed_ns),
                });
            }
        }
    }
    if unexposed > 0 {
        failures.count += unexposed - 1;
        failures.push(|| format!("{unexposed} committed transactions were never exposed"));
    }

    let fsyncs_per_seg = archive.as_ref().map(|(archive, dir)| {
        dir.segment_files() as f64 / archive.retained_segments().max(1) as f64
    });
    let blocked: u64 = router.all_class_stats().iter().map(|c| c.blocked).sum();
    PacedOutcome {
        lag_ms,
        terms,
        late_ms: commits
            .iter()
            .map(|c| (c.start_ns - c.due_ns) as f64 / 1e6)
            .collect(),
        blocked_share: blocked as f64 / reads.attempted.max(1) as f64,
        attempted: commits.len() as u64 + aborted,
        failures,
        checks,
        reads,
        fsyncs_per_seg,
    }
}

/// The generator: executes the seeded stream on the absolute schedule.
fn generate(
    spec: &WorkloadSpec,
    engine: &TplEngine,
    schedule: &Schedule,
    newest: &Mutex<Newest>,
    seed: u64,
    window: Duration,
) -> (Vec<Commit>, u64) {
    let total = schedule.ops_in(window);
    let mut stream = TxnStream::new(spec.traffic, seed);
    let mut commits = Vec::with_capacity(total as usize);
    let mut aborted = 0;
    for index in 0..total {
        let txn = stream.next_txn();
        let due_ns = schedule.wait_for(index);
        let start_ns = schedule.now_ns();
        match engine.execute_with_token(txn.body.as_ref()) {
            Ok((_, token)) => {
                commits.push(Commit {
                    due_ns,
                    start_ns,
                    done_ns: schedule.now_ns(),
                    token: token.as_u64(),
                });
                *newest.lock().expect("newest-commit lock") = Newest {
                    token: token.as_u64(),
                    stamp: txn.stamp,
                    probe: txn.probe,
                };
            }
            Err(_) => aborted += 1,
        }
    }
    (commits, aborted)
}

/// A feeder: the benchmark-owned loop between one subscription and its
/// replica. Finishes the replica when the log ends. Stamps each segment's
/// passage when `traced`.
pub(crate) fn feed(
    replica: &Replica,
    receiver: LogReceiver,
    start: Instant,
    traced: bool,
) -> Vec<Fed> {
    let now = || start.elapsed().as_nanos() as u64;
    let mut fed = Vec::new();
    while let Some(segment) = receiver.recv() {
        let recv_ns = traced.then(now);
        let through = segment.covered_through().as_u64();
        replica.apply_segment(segment);
        if let Some(recv_ns) = recv_ns {
            fed.push(Fed {
                through,
                recv_ns,
                fed_ns: now(),
            });
        }
    }
    replica.finish();
    fed
}

/// The observer: polls every replica's watermarks and keeps a timeline of
/// their moves. Also the first line of the correctness gate: a cut must
/// never move backwards nor claim more than has been applied.
fn observe(
    replicas: &[Replica],
    start: Instant,
    traced: bool,
    feeding: &AtomicBool,
) -> (Vec<Timeline>, Failures) {
    let mut timelines: Vec<Timeline> = replicas.iter().map(|_| Timeline::default()).collect();
    let mut failures = Failures::default();
    let mut last_round = false;
    loop {
        for (r, replica) in replicas.iter().enumerate() {
            // Exposed before applied: applied only grows, so a correct
            // replica can never look ahead of itself in this order.
            let exposed = replica.exposed_seq().as_u64();
            let applied = replica.applied_seq().as_u64();
            let now = start.elapsed().as_nanos() as u64;
            let timeline = &mut timelines[r];
            let last_exposed = timeline.exposed.last().map_or(0, |&(_, cut)| cut);
            if exposed != last_exposed {
                if exposed < last_exposed {
                    failures.push(|| {
                        format!("replica {r}: cut moved backwards, {last_exposed} then {exposed}")
                    });
                }
                if exposed > applied {
                    failures.push(|| {
                        format!("replica {r}: cut {exposed} exposed with only {applied} applied")
                    });
                }
                timeline.exposed.push((now, exposed));
            }
            if traced && timeline.applied.last().map_or(0, |&(_, seq)| seq) != applied {
                timeline.applied.push((now, applied));
            }
        }
        if last_round {
            return (timelines, failures);
        }
        // One more round after the feeders are done, to see the final cut.
        last_round = !feeding.load(Ordering::Acquire);
        if !last_round {
            std::thread::sleep(OBSERVER_PERIOD);
        }
    }
}

/// The reader thread: the workload's read mix over one session.
fn read_loop(
    spec: &WorkloadSpec,
    router: Arc<ReadRouter>,
    newest: &Mutex<Newest>,
    generating: &AtomicBool,
    start: Instant,
    seed: u64,
    window: Duration,
) -> ReadSamples {
    let mut client = ReadClient::new(router, spec.traffic, seed);
    let newest_commit = || *newest.lock().expect("newest-commit lock");
    match spec.reader {
        Reader::Light { visits_per_s } => {
            // Stop a little early: the last reads must not outlive the
            // traffic that ships the segments they wait for.
            let end_ns = window.saturating_sub(Duration::from_millis(100)).as_nanos() as u64;
            let mean_gap_ns = 1e9 / visits_per_s as f64;
            let mut due_ns = 0;
            for visit in 0u64.. {
                // Exponential gaps: Poisson arrivals.
                due_ns += (-client.rng.unit().ln() * mean_gap_ns) as u64;
                if due_ns >= end_ns {
                    break;
                }
                wait_until(start, due_ns);
                if !generating.load(Ordering::Acquire) {
                    break;
                }
                for _ in 0..LIGHT_SNAPSHOT_BURST {
                    client.snapshot_txn();
                }
                client.read_your_write(newest_commit());
                if visit % LIGHT_STRONG_EVERY == 0 {
                    client.strong_read();
                }
            }
        }
        Reader::Mixed { ordered_every_ms } => {
            let mean_think = Duration::from_millis(ordered_every_ms);
            let mut next_ordered = mean_think;
            while generating.load(Ordering::Acquire) {
                client.snapshot_txn();
                if start.elapsed() >= next_ordered {
                    client.read_your_write(newest_commit());
                    client.strong_read();
                    // Uniform on (0, 2 × mean]: enough to keep the client
                    // from locking onto the expose timer's phase.
                    next_ordered = start.elapsed() + mean_think.mul_f64(2.0 * client.rng.unit());
                }
            }
        }
    }
    client.samples
}

/// One reading client: a session plus the checks every read must pass.
pub(crate) struct ReadClient {
    router: Arc<ReadRouter>,
    session: ReadSession,
    traffic: Traffic,
    rng: Prng,
    last_as_of: SeqNo,
    pub(crate) samples: ReadSamples,
}

impl ReadClient {
    /// A client with a session of its own on `router`, drawing its keys
    /// from a stream of `seed` other than the generator's.
    pub(crate) fn new(router: Arc<ReadRouter>, traffic: Traffic, seed: u64) -> Self {
        Self {
            session: router.session(),
            router,
            traffic,
            rng: Prng::new(seed ^ READER_SALT),
            last_as_of: SeqNo::ZERO,
            samples: ReadSamples::default(),
        }
    }

    /// Monotonic reads: a session never reads backwards.
    fn check_monotonic(&mut self, as_of: SeqNo, what: &str) {
        if as_of < self.last_as_of {
            let last = self.last_as_of;
            self.samples
                .failures
                .push(|| format!("{what} served at {as_of} after a read at {last}"));
        }
        self.last_as_of = self.last_as_of.max(as_of);
    }

    fn read_failed(&mut self, what: &str, err: Error) {
        self.samples.failures.push(|| format!("{what}: {err}"));
    }

    /// An 8-key read-only transaction that tolerates 100 ms of staleness.
    pub(crate) fn snapshot_txn(&mut self) {
        let keys = snapshot_keys(&mut self.rng, &self.traffic);
        let class =
            ConsistencyClass::BoundedStaleness(Duration::from_millis(SNAPSHOT_STALENESS_MS));
        self.samples.attempted += 1;
        let begun = Instant::now();
        match self.session.begin_txn(&class) {
            Ok(txn) => {
                let values = txn.get_many(&keys);
                let as_of = txn.as_of();
                drop(txn);
                self.samples
                    .snap_us
                    .push(begun.elapsed().as_nanos() as f64 / 1e3);
                if values.iter().any(Option::is_none) && still_judgeable(&self.router, as_of) {
                    self.samples
                        .failures
                        .push(|| format!("snapshot at {as_of} misses a preloaded row"));
                }
                self.check_monotonic(as_of, "snapshot transaction");
            }
            Err(err) => self.read_failed("snapshot transaction", err),
        }
    }

    /// What a user who just wrote waits for: a causal read of the newest
    /// commit's token, checked by cut and by value.
    fn read_your_write(&mut self, newest: Newest) {
        if newest.token == 0 {
            return;
        }
        self.session.observe_commit(SeqNo(newest.token));
        self.samples.attempted += 1;
        let begun = Instant::now();
        match self.session.read(&self.session.causal(), newest.probe) {
            Ok(read) => {
                self.samples
                    .ryw_ms
                    .push(begun.elapsed().as_nanos() as f64 / 1e6);
                let seen = read.value.as_ref().and_then(stamp_of);
                if read.as_of.as_u64() < newest.token || seen < Some(newest.stamp) {
                    self.samples.failures.push(|| {
                        format!(
                            "read-your-writes: wrote stamp {} at {}, read {seen:?} at {}",
                            newest.stamp, newest.token, read.as_of
                        )
                    });
                }
                self.check_monotonic(read.as_of, "causal read");
            }
            Err(err) => self.read_failed("causal read", err),
        }
    }

    /// A primary-verified read of a random preloaded row.
    fn strong_read(&mut self) {
        let [row, ..] = snapshot_keys(&mut self.rng, &self.traffic);
        self.samples.attempted += 1;
        let begun = Instant::now();
        match self.session.read(&ConsistencyClass::Strong, row) {
            Ok(read) => {
                self.samples
                    .strong_ms
                    .push(begun.elapsed().as_nanos() as f64 / 1e6);
                if read.value.is_none() {
                    self.samples
                        .failures
                        .push(|| format!("strong read at {} misses a preloaded row", read.as_of));
                }
                self.check_monotonic(read.as_of, "strong read");
            }
            Err(err) => self.read_failed("strong read", err),
        }
    }
}
