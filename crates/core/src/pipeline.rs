//! The shared replication-pipeline runtime.
//!
//! Every backup protocol in this workspace — C5 in both modes, sharded C5,
//! and every baseline in `c5-baselines` — is the same machine, the paper's
//! Figure 4: the thread that receives a segment from the log shipper *is*
//! the scheduler — inside [`ClonedConcurrencyControl::apply_segment`] it turns
//! the segment into work items and routes them to the worker queues
//! (**schedule**); worker threads execute the items under the protocol's
//! ordering constraints (**apply**); and the transaction-aligned cut that
//! read-only transactions may observe advances (**expose**) on the worker
//! that finished an item. There is no stage, thread or buffer between the
//! shipper's subscription queue and the worker queues, and the worker queues
//! have no capacity of their own: the feeder dispatches a segment only while
//! fewer than [`IN_FLIGHT_WINDOW`] records are in flight, so a replica that
//! falls behind blocks the feeder at the window, the subscription queue
//! behind it fills, and that one queue is what the wire's idle rule and an
//! operator look at. This module owns the machine once — the threads, the
//! queues, the window, the shutdown/drain protocol — and splits what it runs
//! along the paper's own line:
//!
//! * an **ordering**, the [`PipelinePolicy`]: what a work item is, how
//!   segments become items, what "apply one item" means. That is all a
//!   protocol is.
//! * an **exposure**, the policy's [`PrefixExposure`]: store, applied
//!   watermark, cut and read views, lag samples, GC horizon, counters. The
//!   cut, the drain protocol and the [`ClonedConcurrencyControl`] surface
//!   talk to it directly. There is one ([`crate::exposure`]); no protocol
//!   writes its own.
//!
//! ## Event-driven exposure
//!
//! Nothing in the runtime runs on a timer, and no thread but the one that
//! applied an item exposes. When a worker finishes an item (its watermark
//! marks are flushed by then) it calls [`PrefixExposure::expose`], which
//! never waits. A feeder that applies an item itself (below) runs the same
//! body, so it exposes the same way. In the
//! faithful form that is the cut itself, one `fetch_max` (Section 7.2): the
//! worker whose marks extended the prefix publishes it in place, so an
//! applied transaction is visible as soon as its last item's marks are,
//! with no hand-off. A whole-database cut (Section 5.2) is two such steps: a
//! worker that finds a cut due (the spacing passed, or the prefix already
//! whole) closes the gate at the dispatched boundary, and the worker whose
//! marks carry the applied prefix to it snapshots, publishes and reopens.
//! Either way, the exposure announces a cut that moved on
//! [`FLEET_PROGRESS`], once, after its lag samples and GC horizon are in
//! place; a worker whose item moved no cut notifies nobody.
//!
//! There is one way to wait for a cut: sleep on [`FLEET_PROGRESS`]. `finish`'s
//! drain wait and [`ClonedConcurrencyControl::wait_until_exposed`] do, as do
//! the read router and a write held at the whole-database gate. Shutdown and
//! the death of a stage thread (or of a feeder inside `apply_segment`) set
//! their flag in [`PipelineSignals`] and notify it too; both also abandon a pending
//! whole-database cut, so no writer stays held at its gate. An idle replica
//! makes no wake-ups at all. The one wait below the pipeline that sleeps
//! elsewhere is a blocking install, on its wait-list shard's signal.
//!
//! ## Batched hand-off, and none when idle
//!
//! The feeder→worker and worker→watermark edges are the backup's hottest
//! path: every log record crosses both. When the backup keeps up, a segment
//! reaches a drained pipeline with nothing queued behind it on the wire
//! ([`Segment::nothing_queued_behind`]); a hand-off then buys no parallelism
//! and costs a thread wake-up on every commit's lag path. So if such a
//! segment schedules to exactly one item, the feeder runs that item itself,
//! through the workers' own body, before `apply_segment` returns; in every
//! other case — a backlog, a pipeline still applying, a segment split into
//! several items, a segment not taken from a wire — the items go to the
//! workers. Two disciplines keep the hand-off's per-record cost amortized,
//! and policies are expected to follow them:
//!
//! * **Dispatch in batches.** A work item should carry a *run* of records —
//!   a whole segment, one shard's part of one, or a run of consecutive whole
//!   transactions (64 records in C5's one-worker-per-transaction mode) — so
//!   the queue hand-off cost is paid once per batch, not once per record.
//!   Batches must respect the policy's ordering unit — a
//!   one-worker-per-transaction batch never splits a transaction — and
//!   `schedule` publishes any dispatch watermark *before* enqueueing the
//!   batch, so a cut chosen from that watermark can never land mid-item.
//! * **Publish watermarks per item, not per record.** Workers buffer the
//!   applied-marks of one work item and flush them in a single batched
//!   watermark update when the item completes. This is safe because a wait
//!   on a watermark only ever waits for items ahead of the waiter — a
//!   worker's cut reads one and moves on; a pending whole-database cut
//!   holds writers past it at the gate, but it covers only items dispatched
//!   before it closed, none of which can block on that gate, and each
//!   flushes when it finishes; a KuaFu worker waits for earlier
//!   transactions, each one item that other workers already hold. The
//!   publication *order* inside a flush still matters; see
//!   [`crate::progress::WatermarkTracker::mark_applied_batch`].
//!
//! Beside the prefix exposure's [`BoundaryLedger`], one piece of shared
//! infrastructure also lives here: [`RowWaitList`], the event-driven
//! realization of the per-row FIFO queues specified in
//! [`crate::design_queues`]. A write whose per-row predecessor has not been
//! installed parks on that predecessor's log position; the worker that
//! installs the predecessor wakes it (and installs it, cascading down the
//! row's chain). This replaces the busy-retry deferral loop the replica used
//! to run: a deferred write costs one hash-map insert instead of unbounded
//! re-checks, and it moves into the wait list instead of being cloned out of
//! its segment. Version GC is not here: installs trim their own chains (see
//! [`c5_storage::mvstore`]).

use std::io;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use c5_common::{IdMap, ProgressSignal, SeqNo};
use c5_log::{LogRecord, Segment};
use c5_obs::{Counter, Histogram, Obs, PipelineStage, TraceEvent};

use crate::exposure::PrefixExposure;
use crate::lag::LagTracker;
use crate::replica::{
    ClonedConcurrencyControl, Promotion, ReadView, ReplicaMetrics, FLEET_PROGRESS,
};

/// Cross-stage flags shared by every thread of one pipeline instance.
/// Shutdown and failure are each set once and announced on
/// [`FLEET_PROGRESS`], which every wait for this pipeline's progress sleeps
/// on.
#[derive(Debug, Default)]
pub struct PipelineSignals {
    shutdown: AtomicBool,
    failed: AtomicBool,
    /// Whether a feeder sleeps at the in-flight window.
    feeder_waiting: AtomicBool,
}

impl PipelineSignals {
    /// Whether the runtime has asked every stage to stop. Long waits inside
    /// [`PipelinePolicy::apply`] must bail out once this is set.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether a stage thread of this pipeline has died. Terminal: the
    /// applied prefix will not advance past the work the dead thread held,
    /// so no wait for it goes on waiting.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn fail(&self) {
        self.failed.store(true, Ordering::Release);
        FLEET_PROGRESS.notify();
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        FLEET_PROGRESS.notify();
    }

    /// Wakes a feeder asleep at the window once `in_flight` is below it:
    /// for a worker whose item moved no cut, so notified nobody. Call it
    /// after the item's marks are flushed; the fences pair with
    /// [`PipelineRuntime::wait_for_window`]'s, so either the feeder's check
    /// sees the marks or this sees the feeder waiting.
    fn wake_feeder_below(&self, window: u64, in_flight: impl FnOnce() -> u64) {
        fence(Ordering::SeqCst);
        if self.feeder_waiting.load(Ordering::Relaxed) && in_flight() < window {
            FLEET_PROGRESS.notify();
        }
    }
}

/// The in-flight window, in records, the same for every protocol: how far a
/// replica's feeder may dispatch past its applied prefix. In-flight is
/// `shipped_seq − applied_seq` ([`PrefixExposure::in_flight_records`]).
/// Before it schedules a segment the feeder sleeps on [`FLEET_PROGRESS`]
/// while in-flight is at least `W`; it then dispatches the whole segment, so
/// in-flight stays at most `W` plus one segment. Worker queues are unbounded.
///
/// Why the wait cannot deadlock:
/// - every dispatched write's predecessor sits at a lower position, which was
///   dispatched before it;
/// - a pending whole-database cut sits at or below the dispatched boundary;
/// - so the applied watermark always reaches what is dispatched, and the
///   worker whose marks take in-flight below `W` notifies [`FLEET_PROGRESS`]:
///   through the cut those marks moved, or itself when they moved none (in
///   the gated form, C5-MyRocks, only completed cuts notify, and a feeder
///   left for the next one would let the workers drain dry first).
///
/// Sized by measurement (DESIGN.md, "One in-flight window"): a smaller `W`
/// makes every whole-database cut a barrier for C5-MyRocks' workers.
///
/// Why a feeder that applies a segment's lone item itself never waits on
/// another thread ([`PipelineRuntime::apply_segment`]): it does so only if
/// the pipeline was drained before `schedule` — everything shipped applied
/// and the cut at the exposure target, what `finish` waits for. Then
/// - every per-row predecessor of the segment's writes, and every earlier
///   transaction a KuaFu item waits for, is applied or earlier in the item,
///   which the feeder runs in dispatch order;
/// - no whole-database cut is pending, and one that a worker still inside
///   `expose` closes now sits at the dispatched boundary, which the item
///   does not pass, so its installs are not held at the gate.
pub const IN_FLIGHT_WINDOW: u64 = 1 << 13;

/// Where the schedule stage's work items are queued. Queues are unbounded;
/// [`IN_FLIGHT_WINDOW`] bounds what is in them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePlan {
    /// One queue shared by every worker; workers pick up items in dispatch
    /// order (C5's one-worker-per-transaction mode, KuaFu, single-threaded).
    Shared,
    /// One queue per worker; the policy routes each item to a lane
    /// (C5-Cicada's round-robin segments, coarse-grain conflict groups).
    PerWorker,
}

/// Construction-time options for a [`PipelineRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Number of apply-stage worker threads.
    pub workers: usize,
    /// Queue topology between the schedule and apply stages.
    pub queue: QueuePlan,
}

/// The schedule stage's outlet: routes work items into the apply stage's
/// queues. One sink lives as long as the pipeline accepts segments, so
/// policies that route round-robin get a persistent cursor for free.
///
/// For a segment the feeder may apply itself (see
/// [`PipelineRuntime::apply_segment`]) the sink holds the first item back,
/// with its lane. A second item sends both, in order, to their lanes, so a
/// segment that schedules to more than one item stays parallel; a lone
/// item stays held, and the feeder runs it.
pub struct WorkSink<T> {
    lanes: Vec<Sender<T>>,
    next: usize,
    gone: bool,
    hold: Hold<T>,
}

/// Whether a [`WorkSink`] holds back the first item of the segment being
/// scheduled.
enum Hold<T> {
    Off,
    Armed,
    Held(usize, T),
}

impl<T> WorkSink<T> {
    fn new(lanes: Vec<Sender<T>>) -> Self {
        Self {
            lanes,
            next: 0,
            gone: false,
            hold: Hold::Off,
        }
    }

    /// Number of queues (1 under [`QueuePlan::Shared`], `workers` under
    /// [`QueuePlan::PerWorker`]).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Sends an item to the next lane round-robin (equivalently: to the
    /// shared queue). Never blocks.
    pub fn send(&mut self, item: T) {
        let lane = self.next % self.lanes.len();
        self.next = self.next.wrapping_add(1);
        self.send_to(lane, item);
    }

    /// Sends an item to a specific lane (taken modulo the lane count).
    /// Never blocks.
    pub fn send_to(&mut self, lane: usize, item: T) {
        match std::mem::replace(&mut self.hold, Hold::Off) {
            Hold::Armed => {
                self.hold = Hold::Held(lane, item);
                return;
            }
            Hold::Held(first_lane, first) => self.deliver(first_lane, first),
            Hold::Off => {}
        }
        self.deliver(lane, item);
    }

    fn deliver(&mut self, lane: usize, item: T) {
        if self.lanes[lane % self.lanes.len()].send(item).is_err() {
            self.gone = true;
        }
    }

    /// Holds back the first item sent from here on if `hold`.
    fn hold_first(&mut self, hold: bool) {
        self.hold = if hold { Hold::Armed } else { Hold::Off };
    }

    /// The item held back, if it was the only one sent since
    /// [`hold_first`](Self::hold_first).
    fn take_held(&mut self) -> Option<T> {
        match std::mem::replace(&mut self.hold, Hold::Off) {
            Hold::Held(_, item) => Some(item),
            Hold::Off | Hold::Armed => None,
        }
    }

    /// Whether a send failed because the lane's worker is gone (it died, or
    /// was never started). Such a send fails at once, so `schedule` need
    /// not stop on it; the runtime closes the sink after `schedule`.
    fn workers_gone(&self) -> bool {
        self.gone
    }
}

/// Cached observability handles for one pipeline stage: each completed unit
/// of work costs one histogram record, one counter bump, and one typed
/// trace event — a handful of relaxed atomics plus an uncontended
/// per-thread ring push, never a registry lock. Instrumentation is per
/// *item* (segment, batch, cut), never per record, so the apply path's
/// per-record cost is unchanged to within noise.
pub(crate) struct StageObs {
    obs: Arc<Obs>,
    stage: PipelineStage,
    dwell: Arc<Histogram>,
    items: Arc<Counter>,
}

impl StageObs {
    pub(crate) fn new(obs: &Arc<Obs>, stage: PipelineStage) -> Self {
        let dwell = obs
            .metrics
            .histogram(&format!("stage_dwell_ns{{stage=\"{}\"}}", stage.name()));
        let items = obs
            .metrics
            .counter(&format!("stage_items_total{{stage=\"{}\"}}", stage.name()));
        Self {
            obs: Arc::clone(obs),
            stage,
            dwell,
            items,
        }
    }

    pub(crate) fn record(&self, dwell: Duration, queue_depth: usize) {
        let dwell_ns = u64::try_from(dwell.as_nanos()).unwrap_or(u64::MAX);
        self.dwell.record(dwell_ns);
        self.items.inc();
        self.obs.trace.record(TraceEvent::Stage {
            stage: self.stage,
            dwell_ns,
            queue_depth,
        });
    }
}

/// The apply stage's one step, the body every worker thread runs for each
/// item it dequeues and a feeder runs for the lone item of a segment it
/// applies itself ([`PipelineRuntime::apply_segment`]): apply the item,
/// record its dwell, then move the cut its marks let move (which announces
/// it), or else wake a feeder those marks let past the window.
struct ApplyStage<P: PipelinePolicy> {
    policy: Arc<P>,
    signals: Arc<PipelineSignals>,
    obs: StageObs,
    window: u64,
}

impl<P: PipelinePolicy> ApplyStage<P> {
    fn run(&self, item: P::Item) {
        let exposure = self.policy.exposure();
        let started = Instant::now();
        self.policy.apply(item, &self.signals);
        self.obs
            .record(started.elapsed(), exposure.in_flight_records() as usize);
        // The item's marks are flushed by now.
        if !exposure.expose(&self.signals) {
            self.signals
                .wake_feeder_below(self.window, || exposure.in_flight_records());
        }
    }
}

/// What a thread running pipeline code — a stage thread for its lifetime, a
/// feeder while it schedules a segment and applies an item itself — arms: if the thread unwinds past
/// the [`armed`](Self::armed) guard, the pipeline is marked failed (which
/// wakes every wait for its cut), a pending whole-database cut is
/// abandoned (the dead thread may have held part of its prefix, and writers
/// held at its gate must be free to exit), and the death is counted. A clean
/// exit does nothing.
struct DeathWatch<P: PipelinePolicy> {
    policy: Arc<P>,
    signals: Arc<PipelineSignals>,
    deaths: Arc<Counter>,
}

impl<P: PipelinePolicy> DeathWatch<P> {
    fn armed(&self) -> ArmedDeathWatch<'_, P> {
        ArmedDeathWatch(self)
    }

    /// Fails the pipeline for a thread it lost, counted as a death and
    /// traced as a `span`.
    fn lost_thread(&self, span: &'static str) {
        let exposure = self.policy.exposure();
        self.deaths.inc();
        exposure.obs().trace.record(TraceEvent::Span {
            name: span,
            elapsed_ns: 0,
        });
        self.signals.fail();
        // Failed first: from here on no gate closes.
        exposure.expose(&self.signals);
    }
}

struct ArmedDeathWatch<'a, P: PipelinePolicy>(&'a DeathWatch<P>);

impl<P: PipelinePolicy> Drop for ArmedDeathWatch<'_, P> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lost_thread("pipeline_thread_death");
        }
    }
}

/// Starts one named pipeline thread; `PipelineRuntime::start`'s spawn.
fn spawn_thread(name: String, run: Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(run)
}

/// A backup protocol's ordering, run by a [`PipelineRuntime`].
///
/// The runtime calls [`schedule`](Self::schedule) on the thread that feeds it
/// — one call at a time, in log order — and [`apply`](Self::apply) on worker
/// threads, or on the feeder for a segment it applies itself.
/// Everything else the runtime needs — the cut, the probes, the store — it
/// asks of the policy's [`exposure`](Self::exposure).
pub trait PipelinePolicy: Send + Sync + 'static {
    /// The unit of work flowing from the schedule stage to the apply stage.
    type Item: Send + 'static;

    /// Short protocol name for reports (e.g. `"c5"`, `"kuafu"`).
    fn name(&self) -> &'static str;

    /// Turns one segment into work items, in log order. The policy owns the
    /// segment: records should *move* into items, never be cloned. Runs
    /// inside `apply_segment`, once the in-flight window has room, so a
    /// panic unwinds into the feeder (and fails the pipeline).
    fn schedule(&self, segment: Segment, sink: &mut WorkSink<Self::Item>);

    /// Executes one work item under the protocol's ordering constraints.
    /// Long waits must re-check [`PipelineSignals::shutdown_requested`] on
    /// every wake-up and abandon the item on shutdown. The thread running it
    /// is a worker, or the feeder inside `apply_segment`; an ordering must
    /// not depend on which.
    fn apply(&self, item: Self::Item, signals: &PipelineSignals);

    /// Wakes any worker blocked inside [`apply`](Self::apply); called once
    /// when shutdown is signalled.
    fn interrupt(&self) {}

    /// What this ordering applies into and the runtime exposes from.
    fn exposure(&self) -> &PrefixExposure;
}

/// The shared runtime: the feeder-run schedule stage, `workers` worker
/// threads and nothing else, queues, the in-flight window, and the
/// drain/shutdown protocol, generic over a [`PipelinePolicy`].
///
/// Implements [`ClonedConcurrencyControl`] directly, so a protocol wrapper
/// only has to construct its policy, pick [`PipelineOptions`], and delegate
/// the trait (see [`delegate_replica_to_pipeline!`](crate::delegate_replica_to_pipeline)).
pub struct PipelineRuntime<P: PipelinePolicy> {
    policy: Arc<P>,
    signals: Arc<PipelineSignals>,
    /// The schedule stage's outlet, `None` once the log has ended (`finish`,
    /// drop) or the workers are gone. Its lock is the schedule stage: the
    /// feeder holding it is the scheduler, and concurrent feeders take turns
    /// in lock order.
    sink: Mutex<Option<WorkSink<P::Item>>>,
    /// The workers' body, which the feeder also runs.
    apply: Arc<ApplyStage<P>>,
    /// Items the feeder applied itself.
    feeder_items: Arc<Counter>,
    schedule_obs: StageObs,
    /// In-flight records after each dispatched segment.
    in_flight: Arc<Histogram>,
    /// How long each segment's feeder waited at the window.
    window_wait: Arc<Histogram>,
    watch: Arc<DeathWatch<P>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    finished: AtomicBool,
    dropped_segments: Arc<Counter>,
}

impl<P: PipelinePolicy> PipelineRuntime<P> {
    /// Starts the pipeline: spawns `options.workers` workers. A worker that
    /// cannot be spawned fails the pipeline, as a dead one does: the death
    /// is counted (`pipeline_thread_deaths_total`), traced as a
    /// `pipeline_thread_spawn_failed` span (the `Error::ThreadSpawn` case),
    /// and every wait for the cut returns.
    pub fn start(policy: Arc<P>, options: PipelineOptions) -> Self {
        Self::start_with(policy, options, IN_FLIGHT_WINDOW, spawn_thread)
    }

    /// [`start`](Self::start) with a window of `window` records, starting
    /// each worker through `spawn`.
    fn start_with(
        policy: Arc<P>,
        options: PipelineOptions,
        window: u64,
        mut spawn: impl FnMut(String, Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>>,
    ) -> Self {
        assert!(options.workers > 0, "pipeline requires at least one worker");
        let label = policy.name(); // names the threads
        let signals = Arc::new(PipelineSignals::default());
        let mut threads = Vec::with_capacity(options.workers);

        let obs = Arc::clone(policy.exposure().obs());
        let watch = Arc::new(DeathWatch {
            policy: Arc::clone(&policy),
            signals: Arc::clone(&signals),
            deaths: obs.metrics.counter("pipeline_thread_deaths_total"),
        });
        let apply = Arc::new(ApplyStage {
            policy: Arc::clone(&policy),
            signals: Arc::clone(&signals),
            obs: StageObs::new(&obs, PipelineStage::Apply),
            window,
        });

        // Apply stage.
        let lanes = match options.queue {
            QueuePlan::Shared => 1,
            QueuePlan::PerWorker => options.workers,
        };
        let (lane_txs, lane_rxs): (Vec<_>, Vec<_>) =
            (0..lanes).map(|_| unbounded::<P::Item>()).unzip();
        for worker in 0..options.workers {
            let rx = lane_rxs[worker % lanes].clone();
            let apply = Arc::clone(&apply);
            let worker_watch = Arc::clone(&watch);
            let run = Box::new(move || {
                let _armed = worker_watch.armed();
                while let Ok(item) = rx.recv() {
                    apply.run(item);
                }
            });
            match spawn(format!("{label}-worker-{worker}"), run) {
                Ok(thread) => threads.push(thread),
                // The unstarted closure is dropped with its receiver, so a
                // lane of its own closes and a send to it fails.
                Err(_) => watch.lost_thread("pipeline_thread_spawn_failed"),
            }
        }

        Self {
            policy,
            signals,
            sink: Mutex::new(Some(WorkSink::new(lane_txs))),
            apply,
            feeder_items: obs.metrics.counter("feeder_applied_items_total"),
            schedule_obs: StageObs::new(&obs, PipelineStage::Schedule),
            in_flight: obs.metrics.histogram("in_flight_records"),
            window_wait: obs.metrics.histogram("feeder_window_wait_ns"),
            watch,
            threads: Mutex::new(threads),
            finished: AtomicBool::new(false),
            dropped_segments: obs.metrics.counter("dropped_segments_total"),
        }
    }

    /// The policy driving this pipeline.
    pub fn policy(&self) -> &Arc<P> {
        &self.policy
    }

    /// The flags shared by this pipeline's threads (shutdown, failed).
    pub fn signals(&self) -> &Arc<PipelineSignals> {
        &self.signals
    }

    /// Stage threads still running: the workers.
    #[cfg(test)]
    pub(crate) fn thread_count(&self) -> usize {
        self.threads.lock().len()
    }

    /// Counts a segment fed to a finished replica (or one whose workers are
    /// gone). `apply_segment` has no error to return, so the loss is made
    /// visible in the sink instead.
    pub(crate) fn note_dropped_segment(&self) {
        self.dropped_segments.inc();
        let obs = self.policy.exposure().obs();
        obs.trace.record(TraceEvent::Span {
            name: "dropped_segment",
            elapsed_ns: 0,
        });
    }

    /// Sleeps on [`FLEET_PROGRESS`] until fewer than `window` records are
    /// in flight, and records how long that took. Returns whether they are:
    /// `false` only if the pipeline stopped (shutdown, or a dead thread)
    /// first, with the window full.
    fn wait_for_window(&self) -> bool {
        let exposure = self.policy.exposure();
        let open = || exposure.in_flight_records() < self.apply.window;
        if open() {
            self.window_wait.record(0);
            return true;
        }
        let started = Instant::now();
        let signals = &self.signals;
        signals.feeder_waiting.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        FLEET_PROGRESS.wait_until(None, || {
            open() || signals.shutdown_requested() || signals.failed()
        });
        signals.feeder_waiting.store(false, Ordering::Relaxed);
        self.window_wait.record_duration(started.elapsed());
        open()
    }

    /// Whether everything shipped is applied and exposed: what `finish`
    /// waits for, and what lets a feeder apply a segment itself.
    fn drained(&self) -> bool {
        let exposure = self.policy.exposure();
        exposure.applied_seq() >= exposure.shipped_seq()
            && exposure.exposed_seq() >= exposure.exposure_target()
    }

    fn stop_threads(&self) {
        self.signals.request_shutdown();
        // Shutdown first: this abandons a pending whole-database cut, and no
        // gate closes again, so writers held at one can exit.
        self.policy.exposure().expose(&self.signals);
        self.policy.interrupt();
        for handle in self.threads.lock().drain(..) {
            // A stage thread that panicked already reported itself through
            // its `DeathWatch`; the payload adds nothing.
            let _ = handle.join();
        }
    }
}

impl<P: PipelinePolicy> ClonedConcurrencyControl for PipelineRuntime<P> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn apply_segment(&self, segment: Segment) {
        let mut slot = self.sink.lock();
        // The sink leaves its slot for the duration of the call and returns
        // only if `schedule` does: should the policy panic, unwinding drops
        // the sink (closing the worker queues) and leaves the slot empty
        // (later segments count as dropped), and the armed watch fails the
        // pipeline so nothing waits for the prefix this call held. A feeder
        // whose wait at the window ends because the pipeline stopped drops
        // the sink too: a window full of records a stopped pipeline will
        // not apply never empties.
        let Some(mut sink) = slot.take().filter(|_| self.wait_for_window()) else {
            drop(slot);
            self.note_dropped_segment();
            return;
        };
        let _armed = self.watch.armed();
        let started = Instant::now();
        // Caught up with the wire, on a drained pipeline: a lone item is
        // the feeder's to apply (see `IN_FLIGHT_WINDOW` for why that never
        // waits on another thread).
        sink.hold_first(segment.nothing_queued_behind() && self.drained());
        self.policy.schedule(segment, &mut sink);
        let in_flight = self.policy.exposure().in_flight_records();
        self.in_flight.record(in_flight);
        self.schedule_obs
            .record(started.elapsed(), in_flight as usize);
        if let Some(item) = sink.take_held() {
            self.feeder_items.inc();
            self.apply.run(item);
        }
        if !sink.workers_gone() {
            *slot = Some(sink);
        }
    }

    fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        // Take the sink — behind any feeder still inside `apply_segment` —
        // which closes the worker queues, so the workers drain what was
        // dispatched and exit; then wait for every shipped write to be
        // applied and exposed (the worker that completes the prefix cuts it
        // at once, spaced or not, and announces it). The wait gives up if a stage
        // thread died: the prefix that thread held will never complete, so
        // the pipeline seals at whatever cut it reached.
        self.sink.lock().take();
        let signals = &self.signals;
        FLEET_PROGRESS.wait_until(None, || {
            self.drained() || signals.shutdown_requested() || signals.failed()
        });
        self.stop_threads();
    }

    fn promote(&self) -> Promotion {
        // Promotion *is* the drain-and-seal protocol `finish` already runs:
        // the log ends at whatever prefix has arrived, in-flight applies
        // drain to it, the cut advances to the last boundary in the prefix,
        // and the threads stop. What promotion adds is the measurement (the
        // drain time is the failover cost the paper's thesis bounds by
        // replication lag) and the handover of the sealed store.
        let start = Instant::now();
        self.finish();
        Promotion {
            protocol: self.policy.name(),
            cut: self.policy.exposure().exposed_seq(),
            drain: start.elapsed(),
            store: Arc::clone(self.policy.exposure().store()),
        }
    }

    fn applied_seq(&self) -> SeqNo {
        self.policy.exposure().applied_seq()
    }

    fn exposed_seq(&self) -> SeqNo {
        self.policy.exposure().exposed_seq()
    }

    fn read_view(&self) -> Box<dyn ReadView> {
        self.policy.exposure().read_view()
    }

    fn lag(&self) -> Arc<LagTracker> {
        self.policy.exposure().lag()
    }

    fn metrics(&self) -> ReplicaMetrics {
        self.policy.exposure().metrics()
    }

    /// The trait's wait, which also returns at once when a stage thread has
    /// died: the cut may never get there.
    fn wait_until_exposed(&self, seq: SeqNo, timeout: Duration) -> bool {
        let exposed = || self.policy.exposure().exposed_seq() >= seq;
        FLEET_PROGRESS.wait_until(Some(Instant::now() + timeout), || {
            exposed() || self.signals.failed()
        });
        exposed()
    }
}

impl<P: PipelinePolicy> Drop for PipelineRuntime<P> {
    fn drop(&mut self) {
        // Make sure background threads stop even if the caller forgot to
        // call finish(); without the full drain semantics, just signal
        // shutdown.
        self.sink.get_mut().take();
        self.stop_threads();
    }
}

/// Implements [`ClonedConcurrencyControl`] for a wrapper struct by
/// delegating every method to a [`PipelineRuntime`] field.
///
/// ```ignore
/// pub struct MyReplica { runtime: PipelineRuntime<MyPolicy> }
/// c5_core::delegate_replica_to_pipeline!(MyReplica, runtime);
/// ```
#[macro_export]
macro_rules! delegate_replica_to_pipeline {
    ($ty:ty, $field:ident) => {
        impl $crate::replica::ClonedConcurrencyControl for $ty {
            fn name(&self) -> &'static str {
                $crate::replica::ClonedConcurrencyControl::name(&self.$field)
            }
            fn apply_segment(&self, segment: ::c5_log::Segment) {
                self.$field.apply_segment(segment)
            }
            fn finish(&self) {
                self.$field.finish()
            }
            fn applied_seq(&self) -> ::c5_common::SeqNo {
                self.$field.applied_seq()
            }
            fn exposed_seq(&self) -> ::c5_common::SeqNo {
                self.$field.exposed_seq()
            }
            fn read_view(&self) -> ::std::boxed::Box<dyn $crate::replica::ReadView> {
                self.$field.read_view()
            }
            fn lag(&self) -> ::std::sync::Arc<$crate::lag::LagTracker> {
                self.$field.lag()
            }
            fn metrics(&self) -> $crate::replica::ReplicaMetrics {
                self.$field.metrics()
            }
            fn promote(&self) -> $crate::replica::Promotion {
                self.$field.promote()
            }
            // The two defaulted methods are forwarded too: the runtime's
            // `wait_until_exposed` also returns at once when a stage thread
            // dies.
            fn wait_until_exposed(
                &self,
                seq: ::c5_common::SeqNo,
                timeout: ::std::time::Duration,
            ) -> bool {
                self.$field.wait_until_exposed(seq, timeout)
            }
            fn freshness_commit_nanos(&self) -> ::std::option::Option<u64> {
                self.$field.freshness_commit_nanos()
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Boundary / lag bookkeeping.
// ---------------------------------------------------------------------------

/// Transaction-boundary ledger of the prefix exposure: the schedule stage
/// records each transaction's last-write position and primary commit time in
/// log order, and whoever advances the exposed cut drains every boundary it has
/// covered into one replication-lag sample per transaction. Also remembers
/// the last position scheduled, which is the runtime's drain target.
#[derive(Debug, Default)]
pub struct BoundaryLedger {
    lag: Arc<LagTracker>,
    /// (last-write position, primary commit wall time) in log order.
    boundaries: Mutex<std::collections::VecDeque<(SeqNo, u64)>>,
    final_seq: AtomicU64,
}

impl BoundaryLedger {
    /// Creates a ledger resuming at `cut`: the log is considered shipped
    /// through the cut (a checkpoint covers it), so the contiguity assert
    /// expects the first live segment to start at `cut + 1`. Transactions at
    /// or below the cut were exposed before the checkpoint and produce no
    /// new lag samples.
    pub fn starting_at(cut: SeqNo) -> Self {
        let ledger = Self::default();
        ledger.final_seq.store(cut.as_u64(), Ordering::Release);
        ledger
    }

    /// The lag tracker samples drain into.
    pub fn lag(&self) -> &Arc<LagTracker> {
        &self.lag
    }

    /// Records a segment's transaction boundaries (call from the schedule
    /// stage, in log order) and remembers the last position seen.
    ///
    /// # Panics
    /// Panics if the segment does not directly follow the last one noted,
    /// or if it splits a transaction. Every policy depends on log order —
    /// the per-row `prev_seq` stamps, the boundary queue, the dispatch order
    /// — and a reordered segment corrupts them silently (the symptom is a
    /// replica that wedges much later, with rows whose version chains skip
    /// writes). Every policy also takes a segment's transactions to be whole
    /// in it (Section 7.1), as every producer writes them. Failing loudly at
    /// the first such segment names the real culprit: the producer.
    pub fn note_segment(&self, segment: &Segment) {
        if let Some(first) = segment.first_seq() {
            let shipped = self.shipped_seq();
            assert_eq!(
                first.as_u64(),
                shipped.as_u64() + 1,
                "segments must arrive in log order: got a segment starting at \
                 {first} when the log was shipped through {shipped}"
            );
        }
        assert!(
            segment.transactions_are_whole(),
            "segments must hold whole transactions: the segment starting at {} splits one",
            segment.first_seq().map_or(0, SeqNo::as_u64)
        );
        let mut boundaries = self.boundaries.lock();
        for record in &segment.records {
            if record.is_txn_last() {
                boundaries.push_back((record.seq, record.commit_wall_nanos));
            }
        }
        if let Some(last) = segment.last_seq() {
            self.final_seq.fetch_max(last.as_u64(), Ordering::Release);
        }
    }

    /// Records one lag sample for every transaction boundary now covered by
    /// the exposed cut. Safe to call concurrently (every worker that moves a
    /// cut drives it).
    pub fn drain_exposed(&self, exposed: SeqNo) {
        let now = c5_log::now_nanos();
        let mut boundaries = self.boundaries.lock();
        while let Some(&(seq, committed_at)) = boundaries.front() {
            if seq <= exposed {
                boundaries.pop_front();
                self.lag.record(committed_at, now);
            } else {
                break;
            }
        }
    }

    /// The last log position noted so far (the end of the log once the last
    /// segment has been fed).
    pub fn shipped_seq(&self) -> SeqNo {
        SeqNo(self.final_seq.load(Ordering::Acquire))
    }
}

// ---------------------------------------------------------------------------
// Per-row dependency wait lists.
// ---------------------------------------------------------------------------

/// Outcome of [`RowWaitList::install_blocking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingInstall {
    /// The write installed immediately (its predecessor was in place).
    Installed,
    /// The write installed after waiting for its per-row predecessor.
    InstalledAfterWait,
    /// Shutdown was signalled before the predecessor arrived.
    Aborted,
}

struct WaitShard {
    /// Parked writes keyed by the log position of the predecessor they wait
    /// for. A row's successor is unique, so each key holds at most one
    /// record. Hashed with `RowHasher`, whose `finish` mixes, so a shard's
    /// positions (all congruent modulo the shard count) still spread.
    parked: Mutex<IdMap<u64, LogRecord>>,
    /// Writes in `parked`, plus any parker between raising it and its
    /// re-check. Lets an installer skip the lock when it reads zero; see
    /// [`RowWaitList::install_or_park`] for why that is safe.
    count: AtomicUsize,
    /// Notified whenever a position hashing to this shard is installed.
    /// Only blocking installs sleep on it; with nobody asleep a notify is
    /// one atomic increment.
    installed: ProgressSignal,
}

/// Event-driven per-row dependency wait lists — the runtime realization of
/// the explicit queue structure specified in [`crate::design_queues`].
///
/// The embedded `prev_seq` representation (Section 7.2) already tells every
/// write exactly which log position must be installed before it may execute.
/// Instead of busy-retrying a deferred write until that position appears,
/// the write *parks* here, keyed by its predecessor's position, and the
/// worker that installs the predecessor wakes it — installing it directly
/// and cascading down the row's chain. Because per-row successors are
/// unique, each installed position wakes at most one write, and a chain of
/// `k` conflicting writes costs exactly `k` installs plus `k` parks, however
/// many workers race on it.
///
/// `try_install` callbacks must be atomic check-and-installs (the store's
/// `install_if_prev`): they succeed exactly when the write's per-row
/// predecessor is the row's latest version.
pub struct RowWaitList {
    shards: Vec<WaitShard>,
}

impl std::fmt::Debug for RowWaitList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowWaitList")
            .field("shards", &self.shards.len())
            .field("parked", &self.parked())
            .finish()
    }
}

impl RowWaitList {
    /// Creates a wait list with `shards` independently locked shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "RowWaitList requires at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| WaitShard {
                    parked: Mutex::new(IdMap::default()),
                    count: AtomicUsize::new(0),
                    installed: ProgressSignal::new(),
                })
                .collect(),
        }
    }

    fn shard(&self, seq: SeqNo) -> &WaitShard {
        &self.shards[(seq.as_u64() as usize) % self.shards.len()]
    }

    /// Installs `record` — and, transitively, every parked write its
    /// installation unblocks — or parks it on its missing predecessor.
    /// Returns whether the record was parked (it will be installed later by
    /// the worker that installs its predecessor).
    ///
    /// `try_install` must be **non-blocking** (the faithful, timestamped
    /// cursor never gates installs): it runs under the predecessor's shard
    /// lock, which is what makes parking race-free against a concurrent
    /// install of the predecessor.
    ///
    /// The installer of the predecessor looks for a parked successor only if
    /// the shard's count is non-zero after its install. The parker raises
    /// the count under the shard lock *before* its re-check, and the
    /// re-check and the predecessor's install are check-and-installs on the
    /// same row, so they serialise on the store's lock for that row. If the
    /// install comes first, the re-check sees it and nothing parks. If the
    /// re-check comes first, the raise happens before it and so before the
    /// install, and the installer's read after its install sees the count
    /// non-zero: the raise is undone only by whoever removes this record,
    /// and every other parker's decrement follows its own raise. Either
    /// way, an installer that reads zero has no successor to wake.
    pub fn install_or_park(
        &self,
        record: LogRecord,
        try_install: &impl Fn(&LogRecord) -> bool,
    ) -> bool {
        if try_install(&record) {
            self.drain_successors(record.seq, try_install);
            return false;
        }
        let shard = self.shard(record.prev_seq);
        let mut parked = shard.parked.lock();
        shard.count.fetch_add(1, Ordering::SeqCst);
        // Re-check under the shard lock, with the count raised: the
        // predecessor may have been installed between the failed attempt
        // and the lock. If this second attempt fails too, its installer
        // reads the raised count and takes this same lock to look for us,
        // so it is guaranteed to see the parked record.
        if try_install(&record) {
            shard.count.fetch_sub(1, Ordering::SeqCst);
            drop(parked);
            self.drain_successors(record.seq, try_install);
            return false;
        }
        let seq = record.seq;
        let prior = parked.insert(record.prev_seq.as_u64(), record);
        // A hard assert, like drain_successors': silently dropping the
        // displaced record would stall the applied watermark forever — an
        // undebuggable hang instead of a panic naming the bad stamp.
        assert!(
            prior.is_none(),
            "a row's successor is unique, but {seq} collided with a parked write"
        );
        true
    }

    /// Installs `record`, blocking until its per-row predecessor is in place
    /// (C5's one-worker-per-transaction mode executes a transaction's writes
    /// in order on one worker, so it waits instead of handing the record
    /// off). Returns [`BlockingInstall::Aborted`] if `should_abort` fires
    /// first; whoever makes it fire calls [`wake_all`](Self::wake_all)
    /// afterwards.
    ///
    /// Unlike [`install_or_park`](Self::install_or_park), the `try_install`
    /// callback here may itself block (the whole-database snapshot gate holds
    /// back writes past a cut in flight). The wait list therefore never holds
    /// a shard lock across an install attempt — a gate-blocked worker must
    /// not wedge the shard other workers need in order to finish the very
    /// prefix the gate is waiting on. Instead the waiter sleeps on the
    /// predecessor's shard signal, whose generation it reads *before* each
    /// attempt: it sleeps only if no install hashing to that shard has been
    /// announced since, so the predecessor's install cannot slip between a
    /// failed attempt and the sleep.
    pub fn install_blocking(
        &self,
        record: &LogRecord,
        try_install: &impl Fn(&LogRecord) -> bool,
        should_abort: &impl Fn() -> bool,
    ) -> BlockingInstall {
        let mut attempts = 0;
        let mut aborted = false;
        self.shard(record.prev_seq).installed.wait_until(None, || {
            attempts += 1;
            if try_install(record) {
                return true;
            }
            aborted = should_abort();
            aborted
        });
        if aborted {
            return BlockingInstall::Aborted;
        }
        self.drain_successors(record.seq, try_install);
        if attempts == 1 {
            BlockingInstall::Installed
        } else {
            BlockingInstall::InstalledAfterWait
        }
    }

    /// After `installed` has been installed: wakes the write parked on it
    /// (if any), installs it, and repeats down the chain. Also notifies
    /// blocking waiters. A shard with nothing parked costs one load, not its
    /// lock (see [`install_or_park`](Self::install_or_park)).
    fn drain_successors(&self, installed: SeqNo, try_install: &impl Fn(&LogRecord) -> bool) {
        let mut seq = installed;
        loop {
            let shard = self.shard(seq);
            let woken = if shard.count.load(Ordering::SeqCst) == 0 {
                None
            } else {
                let woken = shard.parked.lock().remove(&seq.as_u64());
                if woken.is_some() {
                    shard.count.fetch_sub(1, Ordering::SeqCst);
                }
                woken
            };
            shard.installed.notify();
            let Some(record) = woken else { return };
            let ok = try_install(&record);
            assert!(
                ok,
                "woken write {} must install: its per-row predecessor {seq} was just installed",
                record.seq
            );
            seq = record.seq;
        }
    }

    /// Number of writes currently parked, by the shards' counts
    /// (diagnostic).
    pub fn parked(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::SeqCst))
            .sum()
    }

    /// Wakes every blocking waiter, so each re-checks its abort condition.
    pub fn wake_all(&self) {
        for shard in &self.shards {
            shard.installed.notify();
        }
    }
}

impl Default for RowWaitList {
    /// 64 shards: enough to keep workers on disjoint rows from contending.
    fn default() -> Self {
        Self::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::within_deadline;
    use c5_common::{RowRef, RowWrite, Value};
    use c5_storage::MvStore;
    use parking_lot::{Condvar, Mutex as PlMutex};
    use std::collections::HashMap;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn record(seq: u64, prev: u64, key: u64) -> LogRecord {
        LogRecord {
            seq: SeqNo(seq),
            commit_wall_nanos: 0,
            prev_seq: SeqNo(prev),
            write: RowWrite::update(RowRef::new(0, key), Value::from_u64(seq)),
            txn_first: true,
            txn_last: true,
        }
    }

    /// A model store: a write installs iff its predecessor is installed (or
    /// it has none).
    #[derive(Default)]
    struct ModelStore {
        installed: PlMutex<HashSet<u64>>,
        order: PlMutex<Vec<u64>>,
    }

    impl ModelStore {
        fn try_install(&self, r: &LogRecord) -> bool {
            let mut installed = self.installed.lock();
            if r.prev_seq != SeqNo::ZERO && !installed.contains(&r.prev_seq.as_u64()) {
                return false;
            }
            installed.insert(r.seq.as_u64());
            self.order.lock().push(r.seq.as_u64());
            true
        }
    }

    #[test]
    fn out_of_order_chain_parks_and_cascades() {
        let store = ModelStore::default();
        let waits = RowWaitList::new(4);
        let install = |r: &LogRecord| store.try_install(r);

        // Chain on one row: 1 → 2 → 3, delivered in reverse.
        assert!(waits.install_or_park(record(3, 2, 7), &install));
        assert!(waits.install_or_park(record(2, 1, 7), &install));
        assert_eq!(waits.parked(), 2);

        // Installing the head wakes the whole chain, in order.
        assert!(!waits.install_or_park(record(1, 0, 7), &install));
        assert_eq!(waits.parked(), 0);
        assert_eq!(*store.order.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn independent_rows_never_park() {
        let store = ModelStore::default();
        let waits = RowWaitList::new(4);
        let install = |r: &LogRecord| store.try_install(r);
        for seq in 1..=16 {
            assert!(!waits.install_or_park(record(seq, 0, seq), &install));
        }
        assert_eq!(waits.parked(), 0);
        assert_eq!(store.order.lock().len(), 16);
    }

    #[test]
    fn blocking_install_waits_for_the_predecessor() {
        let store = Arc::new(ModelStore::default());
        let waits = Arc::new(RowWaitList::new(4));

        let waiter = {
            let store = Arc::clone(&store);
            let waits = Arc::clone(&waits);
            std::thread::spawn(move || {
                waits.install_blocking(&record(2, 1, 7), &|r| store.try_install(r), &|| false)
            })
        };
        let signal = &waits.shard(SeqNo(1)).installed;
        wait_for("the successor asleep", || signal.parked() >= 1);
        assert!(!waiter.is_finished(), "the successor must wait");

        assert!(!waits.install_or_park(record(1, 0, 7), &|r| store.try_install(r)));
        assert_eq!(waiter.join().unwrap(), BlockingInstall::InstalledAfterWait);
        assert_eq!(*store.order.lock(), vec![1, 2]);
    }

    /// A blocking waiter sleeps until its predecessor's install is
    /// announced: asleep on the predecessor's shard signal, it has made one
    /// failed attempt, and it makes no other until that install is.
    #[test]
    fn blocking_install_sleeps_until_the_predecessor_lands() {
        let store = Arc::new(ModelStore::default());
        let waits = Arc::new(RowWaitList::new(4));
        let attempts = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let (store, waits, attempts) = (
                Arc::clone(&store),
                Arc::clone(&waits),
                Arc::clone(&attempts),
            );
            std::thread::spawn(move || {
                let try_install = |r: &LogRecord| {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    store.try_install(r)
                };
                waits.install_blocking(&record(2, 1, 7), &try_install, &|| false)
            })
        };
        let signal = &waits.shard(SeqNo(1)).installed;
        wait_for("the waiter asleep", || signal.parked() >= 1);
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            1,
            "attempts while the predecessor was held back"
        );

        assert!(!waits.install_or_park(record(1, 0, 7), &|r| store.try_install(r)));
        assert_eq!(waiter.join().unwrap(), BlockingInstall::InstalledAfterWait);
        assert_eq!(*store.order.lock(), vec![1, 2]);
    }

    #[test]
    fn blocking_install_aborts_on_request() {
        let store = ModelStore::default();
        let waits = RowWaitList::new(4);
        let outcome = waits.install_blocking(
            &record(2, 1, 7),
            &|r| store.try_install(r),
            &|| true, // abort immediately
        );
        assert_eq!(outcome, BlockingInstall::Aborted);
        assert!(store.order.lock().is_empty());
    }

    #[test]
    fn concurrent_workers_drain_a_contended_chain() {
        // Writes 1..=200 all on one row, shuffled across 4 threads: the wait
        // list must produce exactly the in-order install sequence.
        let store = Arc::new(ModelStore::default());
        let waits = Arc::new(RowWaitList::default());
        let total = 200u64;
        let threads = 4;
        let mut handles = Vec::new();
        for t in 0..threads {
            let store = Arc::clone(&store);
            let waits = Arc::clone(&waits);
            handles.push(std::thread::spawn(move || {
                let mut seq = t + 1;
                while seq <= total {
                    waits.install_or_park(record(seq, seq - 1, 7), &|r| store.try_install(r));
                    seq += threads;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(waits.parked(), 0);
        let order = store.order.lock();
        assert_eq!(*order, (1..=total).collect::<Vec<_>>());
    }

    /// Seeded races on a few hot rows: 2–4 workers take segment-sized runs
    /// of one log round-robin, and every write chains to its row's previous
    /// one. Whatever the interleaving, each record installs exactly once, in
    /// its row's order, and every shard's parked count returns to zero. A
    /// failed attempt returns a little late, as a contended store does,
    /// which widens the window between a parker's re-check and its park.
    #[test]
    fn racing_workers_install_every_chained_write_exactly_once() {
        for seed in 1..=12u64 {
            let mut state = seed;
            let mut next = |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % bound
            };
            let workers = 2 + next(3) as usize;
            let rows = 1 + next(3);
            let total = 3_000u64;
            let mut last_write = HashMap::new();
            let log: Vec<LogRecord> = (1..=total)
                .map(|seq| {
                    let key = next(rows);
                    let prev = last_write.insert(key, seq).unwrap_or(0);
                    record(seq, prev, key)
                })
                .collect();
            let mut runs: Vec<Vec<LogRecord>> = vec![Vec::new(); workers];
            let (mut at, mut lane) = (0, 0);
            while at < log.len() {
                let len = (1 + next(8) as usize).min(log.len() - at);
                runs[lane % workers].extend_from_slice(&log[at..at + len]);
                (at, lane) = (at + len, lane + 1);
            }

            let store = Arc::new(ModelStore::default());
            let waits = Arc::new(RowWaitList::default());
            let start = Arc::new(std::sync::Barrier::new(workers));
            let handles: Vec<_> = runs
                .into_iter()
                .map(|run| {
                    let (store, waits, start) =
                        (Arc::clone(&store), Arc::clone(&waits), Arc::clone(&start));
                    std::thread::spawn(move || {
                        let try_install = |r: &LogRecord| {
                            let installed = store.try_install(r);
                            if !installed {
                                (0..r.seq.as_u64() % 256).for_each(|_| std::hint::spin_loop());
                            }
                            installed
                        };
                        start.wait();
                        for record in run {
                            waits.install_or_park(record, &try_install);
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            let mut order = store.order.lock().clone();
            assert_eq!(
                order.len() as u64,
                total,
                "seed {seed}: lost or doubled writes"
            );
            assert_eq!(waits.parked(), 0, "seed {seed}");
            order.sort_unstable();
            assert_eq!(order, (1..=total).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    /// Closed, it holds its worker before the worker's next item.
    #[derive(Default)]
    struct Gate {
        closed: PlMutex<bool>,
        moved: Condvar,
    }

    impl Gate {
        fn set_closed(&self, closed: bool) {
            *self.closed.lock() = closed;
            self.moved.notify_all();
        }

        fn pass(&self) {
            let mut closed = self.closed.lock();
            while *closed {
                self.moved.wait(&mut closed);
            }
        }
    }

    /// Where a [`PoisonedPolicy`] panics: inside `apply` at a record, or
    /// inside `schedule` at the segment holding a record.
    #[derive(Clone, Copy, PartialEq)]
    enum Poison {
        None,
        Apply(u64),
        Schedule(u64),
    }

    /// A minimal ordering that can be made to panic on either side of the
    /// hand-off and whose workers 0 and 1 can each be wedged behind a gate.
    /// `schedule` stamps and dispatches one transaction at a time,
    /// round-robin, publishing the dispatched boundary first; `apply`
    /// installs a transaction's records into the real prefix exposure,
    /// through its gate.
    struct PoisonedPolicy {
        exposure: PrefixExposure,
        poison: Poison,
        gates: [Gate; 2],
        /// The per-row stamping state, and every `(seq, prev_seq)` it
        /// stamped, in schedule order.
        stamped: PlMutex<(crate::scheduler::SchedulerState, Vec<(SeqNo, SeqNo)>)>,
        /// Which thread ran every `apply` call, in call order.
        appliers: PlMutex<Vec<Applier>>,
    }

    /// The thread that ran an item: worker `i`'s index, or `None` for the
    /// feeder inside `apply_segment`.
    type Applier = Option<usize>;
    const FEEDER: Applier = None;

    /// The calling thread as an [`Applier`], read off the name
    /// `PipelineRuntime::start` gives its workers.
    fn current_applier() -> Applier {
        let thread = std::thread::current();
        thread
            .name()?
            .strip_prefix("poisoned-worker-")?
            .parse()
            .ok()
    }

    /// How a [`PoisonedPolicy`]'s exposure is built: with a whole-database
    /// gate or without.
    type Cursor = fn(Arc<MvStore>, &c5_common::ReplicaConfig, SeqNo) -> PrefixExposure;

    impl PoisonedPolicy {
        fn new(poison: Poison) -> Arc<Self> {
            Self::with_cursor(poison, PrefixExposure::timestamped)
        }

        fn with_cursor(poison: Poison, cursor: Cursor) -> Arc<Self> {
            let config = c5_common::ReplicaConfig::default().with_obs(Obs::new());
            Arc::new(Self {
                exposure: cursor(Arc::new(MvStore::default()), &config, SeqNo::ZERO),
                poison,
                gates: Default::default(),
                stamped: PlMutex::default(),
                appliers: PlMutex::default(),
            })
        }

        fn metrics(&self) -> c5_obs::MetricsSnapshot {
            self.exposure.obs().metrics.snapshot()
        }

        fn stamps(&self) -> Vec<(SeqNo, SeqNo)> {
            self.stamped.lock().1.clone()
        }

        fn appliers(&self) -> Vec<Applier> {
            self.appliers.lock().clone()
        }
    }

    impl PipelinePolicy for PoisonedPolicy {
        type Item = Vec<LogRecord>;

        fn name(&self) -> &'static str {
            "poisoned"
        }

        fn schedule(&self, segment: Segment, sink: &mut WorkSink<Vec<LogRecord>>) {
            let poisoned = |seq| self.poison == Poison::Schedule(seq);
            assert!(
                !segment.records.iter().any(|r| poisoned(r.seq.as_u64())),
                "poisoned segment starting at {}",
                segment.first_seq().map_or(0, SeqNo::as_u64)
            );
            self.exposure.note_segment(&segment);
            let mut txn = Vec::new();
            for mut record in segment.records {
                {
                    let mut stamped = self.stamped.lock();
                    stamped.0.process_record(&mut record);
                    stamped.1.push((record.seq, record.prev_seq));
                }
                let boundary = record.is_txn_last().then_some(record.seq);
                txn.push(record);
                if let Some(boundary) = boundary {
                    self.exposure.note_dispatched(boundary);
                    sink.send(std::mem::take(&mut txn));
                }
            }
        }

        fn apply(&self, txn: Vec<LogRecord>, _signals: &PipelineSignals) {
            let applier = current_applier();
            self.appliers.lock().push(applier);
            if let Some(gate) = applier.and_then(|worker| self.gates.get(worker)) {
                gate.pass();
            }
            for r in &txn {
                assert!(
                    self.poison != Poison::Apply(r.seq.as_u64()),
                    "poisoned record {}",
                    r.seq
                );
                self.exposure
                    .install_gated(r.seq, || self.exposure.install_all(std::slice::from_ref(r)));
            }
        }

        fn interrupt(&self) {
            self.gates.iter().for_each(|gate| gate.set_closed(false));
        }

        fn exposure(&self) -> &PrefixExposure {
            &self.exposure
        }
    }

    /// Two workers over `queue`, with a window of `window` records.
    fn poisoned_runtime_with(
        policy: Arc<PoisonedPolicy>,
        queue: QueuePlan,
        window: u64,
    ) -> PipelineRuntime<PoisonedPolicy> {
        let options = PipelineOptions { workers: 2, queue };
        PipelineRuntime::start_with(policy, options, window, spawn_thread)
    }

    fn poisoned_runtime(poison: Poison) -> PipelineRuntime<PoisonedPolicy> {
        PipelineRuntime::start(
            PoisonedPolicy::new(poison),
            PipelineOptions {
                workers: 2,
                queue: QueuePlan::PerWorker,
            },
        )
    }

    /// Transactions of two writes each — the first to the hot row 0, the
    /// second to a row of the transaction's own — `per_segment` of them to a
    /// segment: boundaries are the even positions.
    fn two_write_txn_segments(segments: u64, per_segment: u64) -> Vec<Segment> {
        (0..segments)
            .map(|id| {
                let first_txn = id * per_segment;
                let records = (first_txn..first_txn + per_segment)
                    .flat_map(|txn| {
                        (0..2u32).map(move |idx| LogRecord {
                            txn_first: idx == 0,
                            txn_last: idx == 1,
                            ..record(txn * 2 + 1 + u64::from(idx), 0, u64::from(idx) * (txn + 1))
                        })
                    })
                    .collect();
                Segment::new(records)
            })
            .collect()
    }

    /// Waits for a state another thread is about to reach (and, being
    /// blocked there, will then stay in); panics if it never does.
    fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ready() {
            assert!(Instant::now() < deadline, "never reached: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_healthy_pipeline_drains_without_a_timer() {
        let runtime = poisoned_runtime(Poison::None);
        let segments = two_write_txn_segments(8, 4);
        for segment in segments {
            runtime.apply_segment(segment);
        }
        // Mid-stream, with no finish() to force a cut.
        assert!(runtime.wait_until_exposed(SeqNo(64), Duration::from_secs(30)));
        runtime.finish();
        assert_eq!(runtime.exposed_seq(), SeqNo(64));
        assert!(!runtime.signals().failed());
        let metrics = runtime.policy().metrics();
        assert_eq!(metrics.counter("pipeline_thread_deaths_total"), Some(0));
        assert_eq!(metrics.counter("dropped_segments_total"), Some(0));
        // One in-flight sample and one window wait per segment.
        for series in ["in_flight_records", "feeder_window_wait_ns"] {
            assert_eq!(metrics.histogram(series).map(|h| h.count()), Some(8));
        }
        // The workers took every cut, and each one that advanced was
        // counted, timed and traced as an expose stage item.
        let cuts = metrics
            .counter("stage_items_total{stage=\"expose\"}")
            .unwrap();
        assert!((1..=32).contains(&cuts), "{cuts} cuts for 32 items");
        let dwell = metrics
            .histogram("stage_dwell_ns{stage=\"expose\"}")
            .unwrap();
        assert_eq!(dwell.count(), cuts);
        let traced = runtime.policy().exposure.obs().trace.merged();
        let traced_cuts = traced
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::Stage {
                        stage: PipelineStage::Expose,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(traced_cuts as u64, cuts);
    }

    /// Worker 0 dies at position 21 while a cut is pending at 30 behind the
    /// whole-database gate, with worker 1 held at it by a write past 30;
    /// `finish` must abandon that cut to join worker 1. The faithful form
    /// runs the same steps with no gate.
    #[test]
    fn a_dead_worker_fails_the_pipeline_instead_of_hanging_finish() {
        let cursors: [Cursor; 2] = [PrefixExposure::timestamped, PrefixExposure::whole_database];
        for cursor in cursors {
            let policy = PoisonedPolicy::with_cursor(Poison::Apply(21), cursor);
            policy.gates.iter().for_each(|gate| gate.set_closed(true));
            let runtime = Arc::new(poisoned_runtime_with(
                policy,
                QueuePlan::PerWorker,
                IN_FLIGHT_WINDOW,
            ));
            let mut segments = two_write_txn_segments(8, 5);
            let late = segments.split_off(3);
            // Worker 0 takes the even transactions, worker 1 the odd ones.
            // Released alone, worker 1 applies its transactions through
            // position 30, and on its first item the (unspaced) first
            // whole-database cut closes at the dispatched boundary, 30.
            for segment in segments {
                runtime.apply_segment(segment);
            }
            runtime.policy().gates[1].set_closed(false);
            wait_for("worker 1 through position 30", || {
                runtime.metrics().shipped_seq == SeqNo(30)
                    && runtime.policy().exposure.metrics().applied_writes == 14
            });
            // Its next write, 31, is past the pending cut; worker 0's first
            // transaction, which the cut waits for, only runs once released,
            // and its worker dies at 21.
            for segment in late {
                runtime.apply_segment(segment);
            }
            runtime.policy().gates[0].set_closed(false);
            let finishing = Arc::clone(&runtime);
            within_deadline("finish() with a dead worker", move || finishing.finish());

            assert!(runtime.signals().failed());
            let cut = runtime.exposed_seq();
            assert!(
                cut < SeqNo(21) && cut.as_u64() % 2 == 0,
                "the cut must stay a transaction boundary below the poisoned record, got {cut}"
            );
            let metrics = runtime.policy().metrics();
            assert_eq!(metrics.counter("pipeline_thread_deaths_total"), Some(1));
            // Nothing waits for the lost prefix afterwards either.
            assert!(!runtime.wait_until_exposed(SeqNo(80), Duration::from_secs(3600)));
            let promoting = Arc::clone(&runtime);
            let promotion =
                within_deadline("promote() after a failure", move || promoting.promote());
            assert_eq!(promotion.cut, cut);
        }
    }

    /// `schedule` runs on the feeder's thread, so a panic in it unwinds into
    /// the feeder — and must still fail the pipeline as a dead stage thread
    /// did: every wait returns, the death is counted, later segments are
    /// counted as dropped.
    #[test]
    fn a_panic_in_schedule_fails_the_pipeline_on_the_feeders_thread() {
        // Position 21 is in the third segment.
        let runtime = Arc::new(poisoned_runtime(Poison::Schedule(21)));
        let mut segments = two_write_txn_segments(8, 5);
        let late = segments.split_off(3);
        let feeder = {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || segments.into_iter().for_each(|s| runtime.apply_segment(s)))
        };
        assert!(feeder.join().is_err(), "the panic is the feeder's");

        assert!(runtime.signals().failed());
        assert!(!runtime.wait_until_exposed(SeqNo(80), Duration::from_secs(3600)));
        let metrics = runtime.policy().metrics();
        assert_eq!(metrics.counter("pipeline_thread_deaths_total"), Some(1));
        assert_eq!(metrics.counter("dropped_segments_total"), Some(0));
        // The sink closed with the panic: what follows is dropped and counted.
        for segment in late {
            runtime.apply_segment(segment);
        }
        let metrics = runtime.policy().metrics();
        assert_eq!(metrics.counter("dropped_segments_total"), Some(5));
        assert_eq!(runtime.metrics().shipped_seq, SeqNo(20));

        let finishing = Arc::clone(&runtime);
        within_deadline("finish() after a failed schedule", move || {
            finishing.finish()
        });
        let cut = runtime.exposed_seq();
        assert!(
            cut <= SeqNo(20) && cut.as_u64() % 2 == 0,
            "the cut must stay a transaction boundary below the poisoned segment, got {cut}"
        );
        let promoting = Arc::clone(&runtime);
        let promotion = within_deadline("promote() after a failure", move || promoting.promote());
        assert_eq!(promotion.cut, cut);
    }

    /// The feeder is the scheduler and every cut is taken by the workers:
    /// no thread but theirs, whichever form the exposure has.
    #[test]
    fn a_runtime_runs_its_workers_and_no_other_thread_whatever_its_cursor() {
        let cursors: [Cursor; 2] = [PrefixExposure::timestamped, PrefixExposure::whole_database];
        for cursor in cursors {
            for workers in 1..=3 {
                for queue in [QueuePlan::Shared, QueuePlan::PerWorker] {
                    let runtime = PipelineRuntime::start(
                        PoisonedPolicy::with_cursor(Poison::None, cursor),
                        PipelineOptions { workers, queue },
                    );
                    assert_eq!(runtime.thread_count(), workers);
                }
            }
        }
    }

    /// Backpressure is bounded and the wire sees it: a wedged worker holds
    /// the applied prefix back, the in-flight window fills and blocks the
    /// feeder inside `apply_segment`, and from there on segments pile up in
    /// the subscription queue — the one buffer the shipper's idle rule looks
    /// at — and nowhere else.
    #[test]
    fn a_wedged_worker_backs_up_into_the_subscription_queue_and_no_further() {
        const WINDOW: u64 = 6;
        const SUBSCRIPTION: usize = 4;
        let policy = PoisonedPolicy::new(Poison::None);
        policy.gates[0].set_closed(true);
        let runtime = Arc::new(poisoned_runtime_with(policy, QueuePlan::PerWorker, WINDOW));
        // One transaction of two records to a segment, so segment `i` is
        // worker `i % 2`'s.
        let segments = two_write_txn_segments(12, 1);
        let (shipper, receiver) = c5_log::LogShipper::bounded(SUBSCRIPTION);
        let feeder = {
            let (runtime, receiver) = (Arc::clone(&runtime), receiver.clone());
            std::thread::spawn(move || {
                crate::replica::drive_from_receiver(runtime.as_ref(), receiver)
            })
        };

        // Worker 0 holds segment 0 at the gate, so the applied prefix stays
        // empty: with segments 1 and 2 dispatched, six records in flight
        // fill the window and the feeder blocks holding segment 3; 4..=7
        // fit in the subscription queue and every `ship` returns.
        for segment in &segments[..8] {
            shipper.ship(segment.clone());
        }
        wait_for("the feeder blocked at the window, the queue full", || {
            runtime.metrics().shipped_seq == SeqNo(6) && receiver.try_len() == SUBSCRIPTION
        });
        assert!(!shipper.is_idle(), "the wire must see the backlog");
        assert_eq!(runtime.policy().exposure.in_flight_records(), WINDOW);
        let metrics = runtime.metrics();
        assert_eq!(
            (metrics.applied_seq, metrics.exposed_seq),
            (SeqNo::ZERO, SeqNo::ZERO),
            "worker 1 ran ahead, but the prefix starts with worker 0's segment"
        );

        // Released, everything drains: the queue empties (the wire is idle
        // again), the log ends, and the feeder's `finish` returns.
        runtime.policy().gates[0].set_closed(false);
        for segment in &segments[8..] {
            shipper.ship(segment.clone());
        }
        wait_for("an idle wire", || shipper.is_idle());
        shipper.close();
        within_deadline("the feeder, once the worker is released", move || {
            feeder.join().expect("feeder")
        });
        assert_eq!(runtime.exposed_seq(), SeqNo(24));
        crate::mpc::MpcChecker::new(&[], &segments)
            .verify_view(runtime.read_view().as_ref())
            .expect("MPC holds");
        let metrics = runtime.policy().metrics();
        assert_eq!(metrics.counter("pipeline_thread_deaths_total"), Some(0));
        assert_eq!(metrics.counter("dropped_segments_total"), Some(0));
        let in_flight = metrics.histogram("in_flight_records").unwrap();
        assert!(in_flight.max() <= WINDOW + 2, "{}", in_flight.max());
    }

    /// Whatever the exposure's form and the queue topology, a feeder never
    /// dispatches while the window is full, and always dispatches a whole
    /// segment: with wedged workers, in-flight stays within the window plus
    /// one segment after every feed, also with a window smaller than one
    /// segment. Released, the workers drain it all to the last boundary.
    #[test]
    fn in_flight_stays_within_the_window_plus_one_segment() {
        const SEGMENT: u64 = 8;
        let cursors: [Cursor; 2] = [PrefixExposure::timestamped, PrefixExposure::whole_database];
        for cursor in cursors {
            for queue in [QueuePlan::Shared, QueuePlan::PerWorker] {
                // (window, where the feeder stops): below one segment it
                // still moves the first whole; above, it crosses the window
                // with the second.
                for (window, blocked_at) in [(4, 8), (12, 16)] {
                    let policy = PoisonedPolicy::with_cursor(Poison::None, cursor);
                    policy.gates.iter().for_each(|gate| gate.set_closed(true));
                    let runtime = Arc::new(poisoned_runtime_with(policy, queue, window));
                    let segments = two_write_txn_segments(6, SEGMENT / 2);
                    let feeder = {
                        let (runtime, segments) = (Arc::clone(&runtime), segments.clone());
                        std::thread::spawn(move || {
                            segments.into_iter().for_each(|s| runtime.apply_segment(s))
                        })
                    };
                    // Nothing is applied, so everything shipped is in flight.
                    wait_for("the feeder at the window", || {
                        runtime.metrics().shipped_seq == SeqNo(blocked_at)
                    });
                    assert_eq!(runtime.policy().exposure.in_flight_records(), blocked_at);

                    runtime.policy().interrupt();
                    within_deadline("the released feeder", move || {
                        feeder.join().expect("feeder")
                    });
                    runtime.finish();
                    assert_eq!(runtime.exposed_seq(), SeqNo(48));
                    crate::mpc::MpcChecker::new(&[], &segments)
                        .verify_view(runtime.read_view().as_ref())
                        .expect("MPC holds");
                    let metrics = runtime.policy().metrics();
                    let in_flight = metrics.histogram("in_flight_records").unwrap();
                    assert_eq!(in_flight.count(), 6, "one sample per feed");
                    assert!(
                        in_flight.max() <= window + SEGMENT,
                        "window {window}: {} records in flight",
                        in_flight.max()
                    );
                    let waits = metrics.histogram("feeder_window_wait_ns").unwrap();
                    assert!(waits.max() > 0, "the feeder waited at the window");
                }
            }
        }
    }

    /// A feeder at the window wakes as soon as applies take in-flight below
    /// it, in either form. In the gated one no cut moves here: the first
    /// cut, closed at the dispatched boundary, waits for worker 1's
    /// transaction, so the worker whose applies opened the window wakes the
    /// feeder itself.
    #[test]
    fn a_feeder_at_the_window_wakes_when_applies_open_it_without_a_cut() {
        let cursors: [Cursor; 2] = [PrefixExposure::timestamped, PrefixExposure::whole_database];
        for cursor in cursors {
            let policy = PoisonedPolicy::with_cursor(Poison::None, cursor);
            policy.gates.iter().for_each(|gate| gate.set_closed(true));
            let runtime = Arc::new(poisoned_runtime_with(policy, QueuePlan::PerWorker, 8));
            let feeder = {
                let runtime = Arc::clone(&runtime);
                std::thread::spawn(move || {
                    (two_write_txn_segments(2, 4).into_iter())
                        .for_each(|s| runtime.apply_segment(s))
                })
            };
            wait_for("the feeder at the window", || {
                runtime.metrics().shipped_seq == SeqNo(8)
            });
            // Worker 0 applies transactions 1 and 3: positions 1-2 leave
            // the window, and the hole at 3-4 keeps the prefix from whole.
            runtime.policy().gates[0].set_closed(false);
            wait_for("the feeder past the window", || {
                runtime.metrics().shipped_seq == SeqNo(16)
            });
            runtime.policy().gates[1].set_closed(false);
            within_deadline("the feeder", move || feeder.join().expect("feeder"));
            runtime.finish();
            assert_eq!(runtime.exposed_seq(), SeqNo(16));
        }
    }

    /// A feeder asleep at a full window wakes when the pipeline stops: on
    /// shutdown (requested as `finish` and drop request it), and when a
    /// worker dies. The window will not empty, so its segment and every
    /// later one are counted as dropped.
    #[test]
    fn a_feeder_at_the_window_returns_on_shutdown_and_on_a_dead_worker() {
        for dies in [false, true] {
            // Position 1 is worker 0's first transaction.
            let poison = if dies { Poison::Apply(1) } else { Poison::None };
            let policy = PoisonedPolicy::new(poison);
            policy.gates[0].set_closed(true);
            let runtime = Arc::new(poisoned_runtime_with(policy, QueuePlan::PerWorker, 4));
            let feeder = {
                let runtime = Arc::clone(&runtime);
                std::thread::spawn(move || {
                    (two_write_txn_segments(6, 4).into_iter())
                        .for_each(|s| runtime.apply_segment(s))
                })
            };
            wait_for("the feeder at the window", || {
                runtime.metrics().shipped_seq == SeqNo(8)
            });
            if dies {
                runtime.policy().gates[0].set_closed(false);
            } else {
                runtime.signals().request_shutdown();
            }
            within_deadline("the feeder at the window", move || {
                feeder.join().expect("feeder")
            });
            let metrics = runtime.policy().metrics();
            assert_eq!(metrics.counter("dropped_segments_total"), Some(5));
            assert_eq!(
                metrics.counter("pipeline_thread_deaths_total"),
                Some(u64::from(dies))
            );
            let finishing = Arc::clone(&runtime);
            within_deadline("finish() after the feeder gave up", move || {
                finishing.finish()
            });
            assert!(
                runtime.exposed_seq() <= SeqNo(8),
                "only what was dispatched"
            );
        }
    }

    /// A worker the operating system will not start fails the pipeline as
    /// a dead one does; `start` returns, and nothing waits for the prefix.
    #[test]
    fn a_worker_that_cannot_be_spawned_fails_the_pipeline_instead_of_start() {
        let runtime = Arc::new(PipelineRuntime::start_with(
            PoisonedPolicy::new(Poison::None),
            PipelineOptions {
                workers: 2,
                queue: QueuePlan::PerWorker,
            },
            IN_FLIGHT_WINDOW,
            |name, run| {
                if name == "poisoned-worker-1" {
                    Err(io::Error::other("no threads left"))
                } else {
                    spawn_thread(name, run)
                }
            },
        ));
        assert!(runtime.signals().failed());
        assert_eq!(runtime.thread_count(), 1);
        let metrics = runtime.policy().metrics();
        assert_eq!(metrics.counter("pipeline_thread_deaths_total"), Some(1));
        let trace = runtime.policy().exposure.obs().trace.merged();
        assert!(trace.iter().any(|r| matches!(
            r.event,
            TraceEvent::Span {
                name: "pipeline_thread_spawn_failed",
                ..
            }
        )));
        assert!(!runtime.wait_until_exposed(SeqNo(2), Duration::from_secs(3600)));

        // Worker 1's lane is closed: the first segment's send to it fails
        // the sink, and the second segment is dropped.
        for segment in two_write_txn_segments(2, 4) {
            runtime.apply_segment(segment);
        }
        let metrics = runtime.policy().metrics();
        assert_eq!(metrics.counter("dropped_segments_total"), Some(1));
        let finishing = Arc::clone(&runtime);
        within_deadline("finish() without worker 1", move || finishing.finish());
    }

    /// Two threads in `apply_segment` at once take turns in call order: the
    /// second schedules nothing until the first — blocked at the in-flight
    /// window, with a segment it has not stamped yet — is done. The
    /// `prev_seq` stamps are a single feeder's.
    #[test]
    fn concurrent_feeders_are_serialised_in_call_order() {
        let segments = two_write_txn_segments(6, 4);
        let single = poisoned_runtime(Poison::None);
        crate::replica::drive_segments(&single, segments.clone());
        let expected = single.policy().stamps();
        assert_eq!(expected.len(), 48);
        assert_eq!(expected[46], (SeqNo(47), SeqNo(45)), "the hot row chains");

        let policy = PoisonedPolicy::new(Poison::None);
        policy.gates[0].set_closed(true);
        let runtime = Arc::new(poisoned_runtime_with(policy, QueuePlan::PerWorker, 8));
        let mut log = segments.clone().into_iter();
        let mut feed = |count: usize, called: Arc<AtomicBool>| {
            let runtime = Arc::clone(&runtime);
            let batch: Vec<Segment> = log.by_ref().take(count).collect();
            std::thread::spawn(move || {
                called.store(true, Ordering::SeqCst);
                batch.into_iter().for_each(|s| runtime.apply_segment(s));
            })
        };
        // Worker 0 holds the first transaction, so the first segment's eight
        // records fill the window and the first feeder blocks before
        // stamping its second segment.
        let first = feed(2, Arc::default());
        wait_for("the first feeder at the window", || {
            runtime.policy().stamps().len() == 8
        });
        let called = Arc::new(AtomicBool::new(false));
        let second = feed(1, Arc::clone(&called));
        wait_for("the second feeder's call", || called.load(Ordering::SeqCst));
        assert_eq!(
            runtime.policy().stamps().len(),
            8,
            "the second feeder waits"
        );
        runtime.policy().gates[0].set_closed(false);
        for feeder in [first, second] {
            within_deadline("a released feeder", move || feeder.join().expect("feeder"));
        }
        crate::replica::drive_segments(runtime.as_ref(), log.collect());

        assert_eq!(runtime.policy().stamps(), expected);
        assert_eq!(runtime.exposed_seq(), SeqNo(48));
        crate::mpc::MpcChecker::new(&[], &segments)
            .verify_view(runtime.read_view().as_ref())
            .expect("MPC holds");
    }

    #[test]
    fn a_segment_fed_after_finish_is_counted_as_dropped() {
        let runtime = poisoned_runtime(Poison::None);
        let mut segments = two_write_txn_segments(2, 4);
        let late = segments.pop().unwrap();
        runtime.apply_segment(segments.pop().unwrap());
        runtime.finish();
        assert_eq!(runtime.exposed_seq(), SeqNo(8));

        runtime.apply_segment(late);
        let metrics = runtime.policy().metrics();
        assert_eq!(metrics.counter("dropped_segments_total"), Some(1));
        let trace = runtime.policy().exposure.obs().trace.merged();
        assert!(trace.iter().any(|r| matches!(
            r.event,
            TraceEvent::Span {
                name: "dropped_segment",
                ..
            }
        )));
        assert_eq!(runtime.exposed_seq(), SeqNo(8), "nothing was applied");
    }

    /// Takes each segment from a wire with nothing shipped behind it, as a
    /// feeder that keeps up does.
    fn received_alone(segments: Vec<Segment>) -> impl Iterator<Item = Segment> {
        let (shipper, receiver) = c5_log::LogShipper::unbounded();
        segments.into_iter().map(move |segment| {
            shipper.ship(segment);
            let segment = receiver.recv().expect("the segment just shipped");
            assert!(segment.nothing_queued_behind());
            segment
        })
    }

    /// How many items the feeder applied itself, and how many the apply
    /// stage recorded in all.
    fn feeder_and_all_items(runtime: &PipelineRuntime<PoisonedPolicy>) -> (u64, u64) {
        let metrics = runtime.policy().metrics();
        let counter = |name| metrics.counter(name).unwrap();
        let dwell = metrics
            .histogram("stage_dwell_ns{stage=\"apply\"}")
            .unwrap();
        let all = counter("stage_items_total{stage=\"apply\"}");
        assert_eq!(dwell.count(), all, "one dwell sample per item");
        (counter("feeder_applied_items_total"), all)
    }

    /// A feeder caught up with the wire, on a drained pipeline, applies a
    /// segment that schedules to one item itself: the item is applied and
    /// exposed when `apply_segment` returns, on the feeder's thread, and
    /// counted and timed as an apply-stage item.
    #[test]
    fn a_drained_pipeline_applies_a_lone_received_segment_on_the_feeder() {
        let runtime = poisoned_runtime(Poison::None);
        for (fed, segment) in received_alone(two_write_txn_segments(3, 1)).enumerate() {
            runtime.apply_segment(segment);
            let through = SeqNo(2 * (fed as u64 + 1));
            assert_eq!(runtime.exposed_seq(), through, "exposed on return");
        }
        assert_eq!(
            runtime.policy().appliers(),
            vec![FEEDER; 3],
            "no worker ran one"
        );
        assert_eq!(feeder_and_all_items(&runtime), (3, 3));
        runtime.finish();
        assert_eq!(runtime.exposed_seq(), SeqNo(6));
    }

    /// Each of the feeder's three conditions, turned off alone, sends the
    /// item to a worker: a segment not taken from a wire; one received
    /// with another queued behind it; one received after the drain edge
    /// shipped the logger's tail behind it; a pipeline whose worker still
    /// holds an item; a segment that schedules to two items.
    #[test]
    fn each_condition_turned_off_sends_the_item_to_a_worker() {
        let applied = |runtime: &PipelineRuntime<PoisonedPolicy>, through: u64| {
            assert!(runtime.wait_until_exposed(SeqNo(through), Duration::from_secs(30)));
        };

        // Built, not received.
        let runtime = poisoned_runtime(Poison::None);
        runtime.apply_segment(two_write_txn_segments(1, 1).remove(0));
        applied(&runtime, 2);
        assert_eq!(runtime.policy().appliers(), vec![Some(0)]);

        // Received with the next segment queued behind it; the next one,
        // received alone on a drained pipeline, is the feeder's.
        let runtime = poisoned_runtime(Poison::None);
        let (shipper, receiver) = c5_log::LogShipper::unbounded();
        two_write_txn_segments(2, 1)
            .into_iter()
            .for_each(|s| shipper.ship(s));
        runtime.apply_segment(receiver.recv().unwrap());
        applied(&runtime, 2);
        runtime.apply_segment(receiver.recv().unwrap());
        assert_eq!(runtime.exposed_seq(), SeqNo(4));
        assert_eq!(runtime.policy().appliers(), vec![Some(0), FEEDER]);

        // Received after the drain edge shipped the logger's tail: a commit
        // made while the wire was busy is queued behind it.
        let runtime = poisoned_runtime(Poison::None);
        let (shipper, receiver) = c5_log::LogShipper::unbounded();
        let logger = c5_log::StreamingLogger::new(100, shipper);
        let write = |k: u64| [RowWrite::update(RowRef::new(0, k), Value::from_u64(k))];
        logger.append(&write(1)); // the wire is idle: shipped at once
        logger.append(&write(2)); // the wire is busy: buffered
        runtime.apply_segment(receiver.recv().unwrap());
        applied(&runtime, 1);
        runtime.apply_segment(receiver.recv().unwrap());
        assert_eq!(runtime.exposed_seq(), SeqNo(2));
        assert_eq!(runtime.policy().appliers(), vec![Some(0), FEEDER]);
        logger.close();

        // A worker still holds an item: the received segment goes to the
        // next lane, and only the held item keeps the cut back.
        let runtime = poisoned_runtime(Poison::None);
        runtime.policy().gates[0].set_closed(true);
        let mut segments = two_write_txn_segments(2, 1);
        let late = received_alone(segments.split_off(1)).next().unwrap();
        runtime.apply_segment(segments.remove(0));
        wait_for("worker 0 holding its item", || {
            runtime.policy().appliers() == [Some(0)]
        });
        runtime.apply_segment(late);
        wait_for("worker 1 through its item", || {
            runtime.policy().exposure.metrics().applied_writes == 2
        });
        assert_eq!(runtime.exposed_seq(), SeqNo::ZERO);
        runtime.policy().gates[0].set_closed(false);
        applied(&runtime, 4);
        assert_eq!(runtime.policy().appliers(), vec![Some(0), Some(1)]);

        // Two transactions, two items: both go to the workers, in order.
        let runtime = poisoned_runtime(Poison::None);
        let segment = received_alone(two_write_txn_segments(1, 2)).next().unwrap();
        runtime.apply_segment(segment);
        applied(&runtime, 4);
        let mut appliers = runtime.policy().appliers();
        appliers.sort_unstable();
        assert_eq!(appliers, vec![Some(0), Some(1)]);
        assert_eq!(feeder_and_all_items(&runtime), (0, 2));
    }

    /// A panic in an item the feeder applies itself unwinds into the feeder
    /// and fails the pipeline as one in `schedule` does: the death is
    /// counted, every wait returns, later segments are dropped, and
    /// `finish` returns.
    #[test]
    fn a_panic_in_an_item_on_the_feeders_path_fails_the_pipeline() {
        let runtime = Arc::new(poisoned_runtime(Poison::Apply(3)));
        let mut segments = received_alone(two_write_txn_segments(4, 1));
        let first_two: Vec<Segment> = segments.by_ref().take(2).collect();
        let feeder = {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || first_two.into_iter().for_each(|s| runtime.apply_segment(s)))
        };
        assert!(feeder.join().is_err(), "the panic is the feeder's");
        assert_eq!(runtime.policy().appliers(), vec![FEEDER; 2]);

        assert!(runtime.signals().failed());
        assert!(!runtime.wait_until_exposed(SeqNo(8), Duration::from_secs(3600)));
        assert_eq!(runtime.exposed_seq(), SeqNo(2));
        segments.for_each(|s| runtime.apply_segment(s));
        let metrics = runtime.policy().metrics();
        assert_eq!(metrics.counter("pipeline_thread_deaths_total"), Some(1));
        assert_eq!(metrics.counter("dropped_segments_total"), Some(2));
        let finishing = Arc::clone(&runtime);
        within_deadline("finish() after a failed inline apply", move || {
            finishing.finish()
        });
        assert_eq!(runtime.exposed_seq(), SeqNo(2));
    }
}
