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
//! that extended the applied prefix, or, for the whole-database cursor, on
//! an expose thread. There is no stage, thread or buffer between the
//! shipper's subscription queue and the worker queues: a full worker queue
//! blocks the feeder, the subscription queue behind it fills, and that one
//! queue is what the wire's idle rule and an operator look at. This module owns the
//! machine once — the threads, the queues, the shutdown/drain protocol — and
//! splits what it runs along the paper's own line:
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
//! Nothing in the runtime runs on a timer. When a worker finishes an item
//! (its watermark marks are flushed by then) it calls
//! [`PrefixExposure::expose`]. On a timestamped cursor that is the cut
//! itself, one `fetch_max` (Section 7.2): the worker whose marks extended
//! the prefix publishes it in place, so an applied transaction is visible
//! as soon as its last item's marks are, with no hand-off. Then the worker
//! notifies the pipeline's one [`ProgressSignal`] and runs version GC.
//! A whole-database cut (Section 5.2) closes the gate and waits for other
//! workers' applies, so it cannot run on a worker: that cursor alone gets
//! an expose thread, which sleeps on the signal, cuts when something moved
//! (held [`PrefixExposure::min_cut_spacing`] apart), and notifies the
//! signal again once the cut is published. Every wait in the runtime blocks
//! on that same signal — `finish`'s two drain waits,
//! [`ClonedConcurrencyControl::wait_until_exposed`], and the waits an
//! exposure makes through [`PipelineSignals::wait_until`] — and shutdown,
//! the switch to draining, and the death of a stage thread (or of a feeder
//! inside `schedule`) notify it too. An idle replica makes no wake-ups at
//! all.
//!
//! The waits below the pipeline use the same primitive: a blocking install
//! sleeps on its wait-list shard's signal, and a write held at the
//! whole-database gate on [`crate::replica::FLEET_PROGRESS`], which every
//! published cut also notifies.
//!
//! ## Batched hand-off
//!
//! The feeder→worker and worker→watermark edges are the backup's hottest
//! path: every log record crosses both. Two disciplines keep their per-record
//! cost amortized, and policies are expected to follow them:
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
//!   watermark update when the item completes. This is safe because workers
//!   never *wait* on a watermark — a worker's own cut reads one and moves
//!   on; only the whole-database cut waits, on the expose thread, and only
//!   for records of items that were dispatched before its target was
//!   chosen, all of which flush when those items finish. The publication
//!   *order* inside a flush still matters; see
//!   [`crate::progress::WatermarkTracker::mark_applied_batch`].
//!
//! Two pieces of shared infrastructure also live here (beside the prefix
//! exposure's [`BoundaryLedger`]):
//!
//! * [`RowWaitList`] — the event-driven realization of the per-row FIFO
//!   queues specified in [`crate::design_queues`]. A write whose per-row
//!   predecessor has not been installed parks on that predecessor's log
//!   position; the worker that installs the predecessor wakes it (and
//!   installs it, cascading down the row's chain). This replaces the
//!   busy-retry deferral loop the replica used to run: a deferred write costs
//!   one hash-map insert instead of unbounded re-checks, and it moves into
//!   the wait list instead of being cloned out of its segment.
//! * [`GcDriver`] — advances a version-garbage-collection horizon trailing
//!   the exposed cut, so long-running workloads do not grow version chains
//!   without bound. The schedule stage tells it which rows each segment
//!   writes and whoever publishes a cut runs it afterwards, so a
//!   collection trims the chains written below the new horizon and nothing
//!   else.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use c5_common::{ProgressSignal, RowRef, SeqNo, Timestamp};
use c5_log::{LogRecord, Segment};
use c5_obs::{Counter, Histogram, Obs, PipelineStage, TraceEvent};
use c5_storage::MvStore;

use crate::exposure::PrefixExposure;
use crate::lag::LagTracker;
use crate::replica::{ClonedConcurrencyControl, Promotion, ReadView, ReplicaMetrics};

/// Cross-stage signals shared by every thread of one pipeline instance.
#[derive(Debug, Default)]
pub struct PipelineSignals {
    shutdown: AtomicBool,
    draining: AtomicBool,
    progress: Arc<ProgressSignal>,
}

impl PipelineSignals {
    /// Whether the runtime has asked every stage to stop. Long waits inside
    /// [`PipelinePolicy::apply`] and [`PrefixExposure::expose`] must bail
    /// out once this is set ([`wait_until`](Self::wait_until) does).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether the pipeline is draining: the log has ended and `finish` is
    /// waiting for the final prefix to be exposed. The expose
    /// thread ignores its minimum cut spacing while this is set.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Whether a stage thread of this pipeline has died. Terminal: the
    /// applied prefix will not advance past the work the dead thread held.
    pub fn failed(&self) -> bool {
        self.progress.failed()
    }

    /// The pipeline's progress signal.
    pub fn progress(&self) -> &Arc<ProgressSignal> {
        &self.progress
    }

    /// Blocks on the progress signal until `ready` holds. Returns whether it
    /// did; `false` means shutdown was requested or a stage thread died
    /// first, and the caller must abandon what it was waiting for. This is
    /// how an exposure waits for applied progress (the whole-database cut's
    /// drain): workers notify the signal after every item.
    pub fn wait_until(&self, mut ready: impl FnMut() -> bool) -> bool {
        let mut held = false;
        self.progress.wait_until(None, || {
            held = ready();
            held || self.shutdown_requested()
        });
        held
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.progress.notify();
    }

    fn start_draining(&self) {
        self.draining.store(true, Ordering::Release);
        self.progress.notify();
    }
}

/// Where the schedule stage's work items are queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePlan {
    /// One queue shared by every worker; workers pick up items in dispatch
    /// order (C5's one-worker-per-transaction mode, KuaFu, single-threaded).
    Shared {
        /// Queue capacity (items).
        capacity: usize,
    },
    /// One queue per worker; the policy routes each item to a lane
    /// (C5-Cicada's round-robin segments, coarse-grain conflict groups).
    PerWorker {
        /// Per-queue capacity (items).
        capacity: usize,
    },
}

/// Construction-time options for a [`PipelineRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Number of apply-stage worker threads.
    pub workers: usize,
    /// Queue topology between the schedule and apply stages. The queues are
    /// bounded: a full one blocks the feeder, which is the backpressure a
    /// hopelessly slow replica exerts on the shipper.
    pub queue: QueuePlan,
}

/// The schedule stage's outlet: routes work items into the apply stage's
/// queues. One sink lives as long as the pipeline accepts segments, so
/// policies that route round-robin get a persistent cursor for free.
pub struct WorkSink<T> {
    lanes: Vec<Sender<T>>,
    next: usize,
    gone: bool,
}

impl<T> WorkSink<T> {
    fn new(lanes: Vec<Sender<T>>) -> Self {
        Self {
            lanes,
            next: 0,
            gone: false,
        }
    }

    /// Number of queues (1 under [`QueuePlan::Shared`], `workers` under
    /// [`QueuePlan::PerWorker`]).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Sends an item to the next lane round-robin (equivalently: to the
    /// shared queue). Blocks for backpressure when the lane is full.
    pub fn send(&mut self, item: T) {
        let lane = self.next % self.lanes.len();
        self.next = self.next.wrapping_add(1);
        self.send_to(lane, item);
    }

    /// Sends an item to a specific lane (taken modulo the lane count).
    /// Blocks for backpressure when the lane is full.
    pub fn send_to(&mut self, lane: usize, item: T) {
        if self.lanes[lane % self.lanes.len()].send(item).is_err() {
            self.gone = true;
        }
    }

    /// Whether a send failed because the workers exited (shutdown).
    pub fn workers_gone(&self) -> bool {
        self.gone
    }

    /// Total items currently queued across every lane (the schedule stage's
    /// output backlog).
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|lane| lane.len()).sum()
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

/// What a thread running pipeline code — a stage thread for its lifetime, a
/// feeder while it is inside `schedule` — arms: if the thread unwinds past
/// the [`armed`](Self::armed) guard, the pipeline is marked failed (which
/// wakes every wait on the progress signal) and the death is counted. A
/// clean exit does nothing.
#[derive(Clone)]
struct DeathWatch {
    progress: Arc<ProgressSignal>,
    obs: Arc<Obs>,
    deaths: Arc<Counter>,
}

impl DeathWatch {
    fn new(signals: &PipelineSignals, obs: &Arc<Obs>) -> Self {
        Self {
            progress: Arc::clone(&signals.progress),
            obs: Arc::clone(obs),
            deaths: obs.metrics.counter("pipeline_thread_deaths_total"),
        }
    }

    fn armed(&self) -> ArmedDeathWatch<'_> {
        ArmedDeathWatch(self)
    }
}

struct ArmedDeathWatch<'a>(&'a DeathWatch);

impl Drop for ArmedDeathWatch<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let watch = self.0;
            watch.deaths.inc();
            watch.obs.trace.record(TraceEvent::Span {
                name: "pipeline_thread_death",
                elapsed_ns: 0,
            });
            watch.progress.fail();
        }
    }
}

/// A backup protocol's ordering, run by a [`PipelineRuntime`].
///
/// The runtime calls [`schedule`](Self::schedule) on the thread that feeds it
/// — one call at a time, in log order — and [`apply`](Self::apply) on worker
/// threads.
/// Everything else the runtime needs — the cut, the probes, the store — it
/// asks of the policy's [`exposure`](Self::exposure).
pub trait PipelinePolicy: Send + Sync + 'static {
    /// The unit of work flowing from the schedule stage to the apply stage.
    type Item: Send + 'static;

    /// Short protocol name for reports (e.g. `"c5"`, `"kuafu"`).
    fn name(&self) -> &'static str;

    /// Turns one segment into work items, in log order. The policy owns the
    /// segment: records should *move* into items, never be cloned. Runs
    /// inside `apply_segment`, so a blocking `sink` send is the feeder's
    /// backpressure and a panic unwinds into the feeder (and fails the
    /// pipeline).
    fn schedule(&self, segment: Segment, sink: &mut WorkSink<Self::Item>);

    /// Executes one work item under the protocol's ordering constraints.
    /// Long waits must re-check [`PipelineSignals::shutdown_requested`] on
    /// every wake-up and abandon the item on shutdown.
    fn apply(&self, worker: usize, item: Self::Item, signals: &PipelineSignals);

    /// Wakes any worker blocked inside [`apply`](Self::apply); called once
    /// when shutdown is signalled.
    fn interrupt(&self) {}

    /// What this ordering applies into and the runtime exposes from.
    fn exposure(&self) -> &PrefixExposure;
}

/// The shared runtime: the feeder-run schedule stage, worker threads (and,
/// for the whole-database cursor, an expose thread), queues, and the
/// drain/shutdown protocol, generic over a [`PipelinePolicy`]. `workers`
/// threads on a timestamped cursor, `workers + 1` on a whole-database one.
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
    schedule_obs: StageObs,
    watch: DeathWatch,
    threads: Mutex<Vec<JoinHandle<()>>>,
    finished: AtomicBool,
    dropped_segments: Arc<Counter>,
}

impl<P: PipelinePolicy> PipelineRuntime<P> {
    /// Starts the pipeline: spawns `options.workers` workers, and the expose
    /// thread if the exposure's cut waits for applies.
    pub fn start(policy: Arc<P>, options: PipelineOptions) -> Self {
        assert!(options.workers > 0, "pipeline requires at least one worker");
        let label = policy.name(); // names the threads
        let signals = Arc::new(PipelineSignals::default());
        // Taken before any worker exists: whatever a worker notifies, even
        // before the expose thread first runs, is news to the expose thread.
        let generation_at_start = signals.progress.generation();
        let mut threads = Vec::with_capacity(options.workers + 1);
        let expose_thread = policy.exposure().cut_waits_for_applies();

        let obs = Arc::clone(policy.exposure().obs());
        let watch = DeathWatch::new(&signals, &obs);
        let apply_obs = Arc::new(StageObs::new(&obs, PipelineStage::Apply));

        // Apply stage.
        let mut lane_txs: Vec<Sender<P::Item>> = Vec::new();
        {
            let mut spawn_worker = |worker: usize, rx: Receiver<P::Item>| {
                let policy = Arc::clone(&policy);
                let signals = Arc::clone(&signals);
                let apply_obs = Arc::clone(&apply_obs);
                let watch = watch.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("{label}-worker-{worker}"))
                        .spawn(move || {
                            let _armed = watch.armed();
                            let exposure = policy.exposure();
                            while let Ok(item) = rx.recv() {
                                let started = Instant::now();
                                policy.apply(worker, item, &signals);
                                apply_obs.record(started.elapsed(), rx.len());
                                // The item's marks are flushed: publish the
                                // cut they extended (or leave it to the
                                // expose thread), wake whoever waits, then
                                // collect off the cut's critical path.
                                if !expose_thread {
                                    exposure.expose(&signals);
                                }
                                signals.progress.notify();
                                if !expose_thread {
                                    exposure.collect_garbage();
                                }
                            }
                        })
                        .expect("spawn worker"),
                );
            };
            match options.queue {
                QueuePlan::Shared { capacity } => {
                    let (tx, rx) = bounded::<P::Item>(capacity);
                    lane_txs.push(tx);
                    for worker in 0..options.workers {
                        spawn_worker(worker, rx.clone());
                    }
                }
                QueuePlan::PerWorker { capacity } => {
                    for worker in 0..options.workers {
                        let (tx, rx) = bounded::<P::Item>(capacity);
                        lane_txs.push(tx);
                        spawn_worker(worker, rx);
                    }
                }
            }
        }

        if expose_thread {
            let policy = Arc::clone(&policy);
            let signals = Arc::clone(&signals);
            let wakeups = obs.metrics.counter("expose_wakeups_total");
            let watch = watch.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{label}-expose"))
                    .spawn(move || {
                        let _armed = watch.armed();
                        expose_loop(policy, signals, generation_at_start, wakeups)
                    })
                    .expect("spawn expose"),
            );
        }

        Self {
            policy,
            signals,
            sink: Mutex::new(Some(WorkSink::new(lane_txs))),
            schedule_obs: StageObs::new(&obs, PipelineStage::Schedule),
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

    /// The signals shared by this pipeline's threads (the progress signal,
    /// the failed flag).
    pub fn signals(&self) -> &Arc<PipelineSignals> {
        &self.signals
    }

    /// Stage threads still running: the workers, and the expose thread if
    /// there is one.
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

    fn stop_threads(&self) {
        self.signals.request_shutdown();
        self.policy.interrupt();
        for handle in self.threads.lock().drain(..) {
            // A stage thread that panicked already reported itself through
            // its `DeathWatch`; the payload adds nothing.
            let _ = handle.join();
        }
    }
}

/// The whole-database cursor's expose thread: sleep on the progress signal,
/// cut when something moved.
///
/// `seen` is the last generation of the signal the thread has acted on;
/// `wakeups` counts every time the thread leaves its wait (so wake-ups ÷
/// `stage_items_total{stage="expose"}` says how many found nothing to
/// expose).
/// The exposure's minimum cut spacing holds cuts apart, because each one
/// gates the workers; draining and shutdown override it, and shutdown (or a
/// dead stage thread) ends the loop after one final cut.
fn expose_loop<P: PipelinePolicy>(
    policy: Arc<P>,
    signals: Arc<PipelineSignals>,
    mut seen: u64,
    wakeups: Arc<Counter>,
) {
    let progress = &signals.progress;
    let exposure = policy.exposure();
    let min_spacing = exposure.min_cut_spacing();
    let mut last_cut: Option<Instant> = None;
    loop {
        progress.wait_until(None, || {
            progress.generation() != seen || signals.shutdown_requested()
        });
        if let Some(next) = last_cut.map(|at| at + min_spacing) {
            progress.wait_until(Some(next), || {
                signals.draining() || signals.shutdown_requested()
            });
        }
        let stopping = signals.shutdown_requested() || progress.failed();
        wakeups.inc();
        // Read before looking at the watermarks: progress notified from here
        // on is not covered by this cut and must wake the thread again.
        seen = progress.generation();
        if exposure.expose(&signals) {
            last_cut = Some(Instant::now());
            // Publish: wake whoever waits for this cut. If nobody else
            // notified since `seen` was read, the bump is ours alone and
            // must not wake this thread again.
            let published = progress.notify();
            if published == seen + 1 {
                seen = published;
            }
        }
        // Off the cut's critical path: the cut is already visible.
        exposure.collect_garbage();
        if stopping {
            return;
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
        // progress signal so nothing waits for the prefix this call held.
        let Some(mut sink) = slot.take() else {
            drop(slot);
            self.note_dropped_segment();
            return;
        };
        let _armed = self.watch.armed();
        let started = Instant::now();
        self.policy.schedule(segment, &mut sink);
        self.schedule_obs.record(started.elapsed(), sink.queued());
        if !sink.workers_gone() {
            *slot = Some(sink);
        }
    }

    fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        // Take the sink — behind any feeder still inside `schedule` — which
        // closes the worker queues, so the workers drain what was dispatched
        // and exit; then wait for every shipped write to be applied and
        // exposed. Each wait sleeps on the progress signal and gives up if a
        // stage thread died: the prefix that thread held will never
        // complete, so the pipeline seals at whatever cut it reached.
        self.sink.lock().take();
        let signals = &self.signals;
        let exposure = self.policy.exposure();
        let target = exposure.shipped_seq();
        signals.wait_until(|| exposure.applied_seq() >= target);
        signals.start_draining();
        signals.wait_until(|| exposure.exposed_seq() >= exposure.exposure_target());
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

    fn wait_until_exposed(&self, seq: SeqNo, timeout: Duration) -> bool {
        self.signals
            .progress
            .wait_until(Some(Instant::now() + timeout), || {
                self.policy.exposure().exposed_seq() >= seq
            })
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
            // `wait_until_exposed` blocks on the pipeline's own progress
            // signal, which also returns at once when a stage thread dies;
            // the trait default sleeps on the process-wide one.
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
    /// Panics if the segment does not directly follow the last one noted.
    /// Every policy depends on log order — the per-row `prev_seq` stamps,
    /// the boundary queue, the dispatch order — and a reordered segment
    /// corrupts them silently (the symptom is a replica that wedges much
    /// later, with rows whose version chains skip writes). Failing loudly at
    /// the first misordered segment names the real culprit: the producer.
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
    /// the exposed cut. Safe to call concurrently (workers and the expose
    /// stage may both drive it).
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
    /// record.
    parked: Mutex<HashMap<u64, LogRecord>>,
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
                    parked: Mutex::new(HashMap::new()),
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

// ---------------------------------------------------------------------------
// Garbage-collection horizon.
// ---------------------------------------------------------------------------

/// Drives version garbage collection after each published cut (on the worker
/// that published it, or the whole-database cursor's expose thread): the
/// horizon trails the exposed cut by `trail` log positions, so recently created read
/// views (which pin the cut at creation time) keep seeing every version they
/// can name, while versions older than the trail are reclaimed.
///
/// A collection costs what was *written*, not what is stored. The schedule
/// stage hands the driver the rows of every segment
/// ([`note_segment`](Self::note_segment)), and [`run`](Self::run) trims only
/// the chains written at or below the new horizon
/// ([`MvStore::gc_rows`]). That leaves the store exactly as a full
/// [`MvStore::gc`] at the same horizon would: a chain can only hold a
/// version to reclaim if it was written at or below the horizon since the
/// previous collection. (Chains that already held several versions when the
/// driver was created — none, on a preloaded or checkpoint-installed store —
/// are trimmed the first time they are written.)
///
/// Collections are rate-limited: the driver only runs once the horizon has
/// advanced by `max(1, trail / 4)` positions since the last one.
#[derive(Debug)]
pub struct GcDriver {
    store: Arc<MvStore>,
    trail: u64,
    step: u64,
    last_horizon: AtomicU64,
    reclaimed: AtomicU64,
    visited_chains: AtomicU64,
    /// Rows written above the horizon, one batch per noted segment.
    written: Mutex<Vec<WrittenBatch>>,
    /// Held for the duration of a collection — a concurrent caller skips
    /// instead of queueing — and for the duration of a checkpoint export
    /// ([`hold`](Self::hold)).
    collecting: Mutex<()>,
}

/// Version GC held back; released on drop (see [`GcDriver::hold`]).
pub struct GcHold<'a> {
    _collecting: parking_lot::MutexGuard<'a, ()>,
}

/// The `(position, row)` of every record of one segment, ascending by
/// position, consumed from the front as the horizon passes them.
#[derive(Debug)]
struct WrittenBatch {
    rows: Vec<(u64, RowRef)>,
    next: usize,
}

impl GcDriver {
    /// Creates a driver over `store` whose horizon trails the exposed cut by
    /// `trail` positions.
    pub fn new(store: Arc<MvStore>, trail: u64) -> Self {
        Self {
            store,
            trail,
            step: (trail / 4).max(1),
            last_horizon: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            visited_chains: AtomicU64::new(0),
            written: Mutex::new(Vec::new()),
            collecting: Mutex::new(()),
        }
    }

    /// Notes the rows `segment` writes. Call from the schedule stage before
    /// the segment's records are dispatched, so that by the time the exposed
    /// cut (and with it the horizon) passes a write, the driver knows its
    /// row. The one schedule stage feeds it in log order; the collection
    /// does not rely on that order (noted batches are independent).
    pub fn note_segment(&self, segment: &Segment) {
        if segment.is_empty() {
            return;
        }
        let rows = segment
            .records
            .iter()
            .map(|record| (record.seq.as_u64(), record.write.row))
            .collect();
        self.written.lock().push(WrittenBatch { rows, next: 0 });
    }

    /// Removes and returns the rows written at or below `horizon` (a row
    /// written twice appears twice; its second visit finds nothing left to
    /// trim and a warm cache, which is cheaper than sorting to find the
    /// duplicate). The batch list
    /// is swapped out and scanned without the lock, so a scheduler noting
    /// its next segment never waits for a scan.
    fn take_written_through(&self, horizon: u64) -> Vec<RowRef> {
        let mut batches = std::mem::take(&mut *self.written.lock());
        let mut rows = Vec::new();
        batches.retain_mut(|batch| {
            let passed = batch.rows[batch.next..].partition_point(|&(seq, _)| seq <= horizon);
            rows.extend(
                batch.rows[batch.next..batch.next + passed]
                    .iter()
                    .map(|&(_, row)| row),
            );
            batch.next += passed;
            batch.next < batch.rows.len()
        });
        // Batches are independent, so where the leftovers rejoin the list
        // (after whatever was noted meanwhile) does not matter.
        self.written.lock().append(&mut batches);
        rows
    }

    /// Advances the horizon towards `exposed - trail` and, if it moved at
    /// least one step, trims the chains written at or below it. Returns the
    /// number of versions reclaimed by this call. Call after the cut is
    /// published; safe to call from several threads (a caller that finds a
    /// collection in progress returns 0).
    pub fn run(&self, exposed: SeqNo) -> u64 {
        let horizon = exposed.as_u64().saturating_sub(self.trail);
        let due = || horizon >= self.horizon().as_u64().saturating_add(self.step);
        if !due() {
            return 0;
        }
        let Some(_collecting) = self.collecting.try_lock() else {
            return 0;
        };
        // Re-check: the collection that just released the lock may have
        // covered this horizon.
        if !due() {
            return 0;
        }
        self.last_horizon.store(horizon, Ordering::Release);
        let rows = self.take_written_through(horizon);
        let pass = self.store.gc_rows(rows, Timestamp(horizon));
        self.visited_chains
            .fetch_add(pass.visited_chains as u64, Ordering::Relaxed);
        self.reclaimed
            .fetch_add(pass.reclaimed as u64, Ordering::Relaxed);
        pass.reclaimed as u64
    }

    /// Holds version GC back until the returned guard drops: waits out a
    /// collection in progress, then makes every [`run`](Self::run) skip, so
    /// the horizon stays where it is. A checkpoint export takes this *before*
    /// it pins its cut — the horizon never passes the exposed cut, the pinned
    /// cut is at least the cut exposed when the hold began, and so no version
    /// the export can name is reclaimed under it. Collections skipped
    /// meanwhile are made up by the first `run` after the release (the
    /// written rows stay noted). Never blocks the apply path: the workers
    /// that publish cuts only ever `try_lock` it in [`run`](Self::run), and
    /// skip the collection while it is held.
    pub fn hold(&self) -> GcHold<'_> {
        GcHold {
            _collecting: self.collecting.lock(),
        }
    }

    /// Total versions reclaimed so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }

    /// Total chains visited so far: the work collections have done. Bounded
    /// by the number of records noted, whatever the store holds.
    pub fn visited_chains(&self) -> u64 {
        self.visited_chains.load(Ordering::Relaxed)
    }

    /// The current GC horizon (no version older than this is guaranteed to
    /// survive; reads at or after it are unaffected).
    pub fn horizon(&self) -> SeqNo {
        SeqNo(self.last_horizon.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, RowWrite, TxnId, Value, WriteKind};
    use parking_lot::{Condvar, Mutex as PlMutex};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn record(seq: u64, prev: u64, key: u64) -> LogRecord {
        LogRecord {
            txn: TxnId(seq),
            seq: SeqNo(seq),
            commit_ts: Timestamp(seq),
            commit_wall_nanos: 0,
            prev_seq: SeqNo(prev),
            write: RowWrite::update(RowRef::new(0, key), Value::from_u64(seq)),
            idx_in_txn: 0,
            txn_len: 1,
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
        std::thread::sleep(Duration::from_millis(10));
        assert!(!waiter.is_finished(), "the successor must wait");

        assert!(!waits.install_or_park(record(1, 0, 7), &|r| store.try_install(r)));
        assert_eq!(waiter.join().unwrap(), BlockingInstall::InstalledAfterWait);
        assert_eq!(*store.order.lock(), vec![1, 2]);
    }

    /// A blocking waiter sleeps until its predecessor's install is
    /// announced: held back for 20 ms, the predecessor costs the waiter one
    /// failed attempt before the sleep, not a re-check per timer tick.
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
        std::thread::sleep(Duration::from_millis(20));
        let before_predecessor = attempts.load(Ordering::SeqCst);
        assert!(
            (1..=2).contains(&before_predecessor),
            "{before_predecessor} attempts while the predecessor was held back"
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

    /// One segment of single-write transactions `first..=last`, all updating
    /// row `key`.
    fn hot_segment(id: u64, first: u64, last: u64, key: u64) -> Segment {
        Segment::new(
            id,
            (first..=last)
                .map(|seq| record(seq, seq - 1, key))
                .collect(),
        )
    }

    fn install_all(store: &MvStore, segment: &Segment) {
        for r in &segment.records {
            store.install(
                r.write.row,
                Timestamp(r.seq.as_u64()),
                r.write.kind,
                r.write.value.clone(),
            );
        }
    }

    #[test]
    fn gc_driver_trails_the_exposed_cut() {
        let store = Arc::new(MvStore::default());
        let row = RowRef::new(0, 1);
        let gc = GcDriver::new(Arc::clone(&store), 10);
        let segment = hot_segment(0, 1, 100, 1);
        gc.note_segment(&segment);
        install_all(&store, &segment);
        // Horizon 90: everything older than the newest version <= 90 goes.
        let reclaimed = gc.run(SeqNo(100));
        assert_eq!(reclaimed, 89);
        assert_eq!(gc.reclaimed(), reclaimed);
        assert_eq!(gc.horizon(), SeqNo(90));
        // Reads at or after the horizon still see the right values.
        assert_eq!(
            store.read_at(row, Timestamp(90)).unwrap().as_u64(),
            Some(90)
        );
        assert_eq!(
            store.read_at(row, Timestamp(100)).unwrap().as_u64(),
            Some(100)
        );
        // No advance, no second pass.
        assert_eq!(gc.run(SeqNo(100)), 0);
        assert_eq!(gc.visited_chains(), 90, "one visit per write passed");
    }

    #[test]
    fn gc_driver_rate_limits_collections() {
        let store = Arc::new(MvStore::default());
        let gc = GcDriver::new(store, 100);
        // step = 25: an advance of the horizon below that is skipped.
        assert_eq!(gc.run(SeqNo(110)), 0); // horizon 10 < 0 + 25
        assert_eq!(gc.horizon(), SeqNo::ZERO);
        gc.run(SeqNo(150)); // horizon 50 >= 25: collected (nothing to free)
        assert_eq!(gc.horizon(), SeqNo(50));
    }

    /// GC work is bounded by what was written, not by what is stored: on a
    /// store of 100 k preloaded rows, a collection after 1 k writes visits
    /// at most 1 k chains — and leaves the store exactly as the full sweep
    /// leaves an identical twin.
    #[test]
    fn gc_visits_only_the_chains_that_were_written() {
        const PRELOADED: u64 = 100_000;
        const WRITTEN: u64 = 1_000;
        let stores = [Arc::new(MvStore::default()), Arc::new(MvStore::default())];
        for store in &stores {
            for key in 0..PRELOADED {
                store.install(
                    RowRef::new(0, key),
                    Timestamp::ZERO,
                    WriteKind::Insert,
                    Some(Value::from_u64(0)),
                );
            }
        }
        let [targeted, swept] = &stores;
        let gc = GcDriver::new(Arc::clone(targeted), 0);
        // Two updates to each of 500 rows spread over the key space.
        let records: Vec<LogRecord> = (1..=WRITTEN)
            .map(|seq| record(seq, 0, (seq % 500) * 199))
            .collect();
        for (id, chunk) in records.chunks(256).enumerate() {
            let segment = Segment::new(id as u64, chunk.to_vec());
            gc.note_segment(&segment);
            install_all(targeted, &segment);
            install_all(swept, &segment);
        }

        let reclaimed = gc.run(SeqNo(WRITTEN));
        assert_eq!(reclaimed as usize, swept.gc(Timestamp(WRITTEN)));
        assert!(
            gc.visited_chains() <= WRITTEN,
            "visited {} chains for {WRITTEN} writes",
            gc.visited_chains()
        );
        assert_eq!(gc.visited_chains(), WRITTEN, "one visit per write");
        assert_eq!(targeted.stats(), swept.stats());
        assert_eq!(targeted.stats().versions as u64, PRELOADED);
    }

    /// Closed, it holds worker 0 before its next item.
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
    /// hand-off and whose worker 0 can be wedged behind a gate. `schedule`
    /// stamps and dispatches one transaction at a time, round-robin, so a
    /// feeder blocked on a full queue holds records it has not stamped yet;
    /// `apply` installs a transaction's records into the real prefix
    /// exposure.
    struct PoisonedPolicy {
        exposure: PrefixExposure,
        poison: Poison,
        gate: Gate,
        /// The per-row stamping state, and every `(seq, prev_seq)` it
        /// stamped, in schedule order.
        stamped: PlMutex<(crate::scheduler::SchedulerState, Vec<(SeqNo, SeqNo)>)>,
    }

    /// How a [`PoisonedPolicy`]'s exposure is built: which cursor it has.
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
                gate: Gate::default(),
                stamped: PlMutex::default(),
            })
        }

        fn metrics(&self) -> c5_obs::MetricsSnapshot {
            self.exposure.obs().metrics.snapshot()
        }

        fn stamps(&self) -> Vec<(SeqNo, SeqNo)> {
            self.stamped.lock().1.clone()
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
                "poisoned segment {}",
                segment.header.id
            );
            self.exposure.note_segment(&segment);
            let mut txn = Vec::new();
            for mut record in segment.records {
                {
                    let mut stamped = self.stamped.lock();
                    stamped.0.process_record(&mut record);
                    stamped.1.push((record.seq, record.prev_seq));
                }
                let last = record.is_txn_last();
                txn.push(record);
                if last {
                    sink.send(std::mem::take(&mut txn));
                }
            }
        }

        fn apply(&self, worker: usize, txn: Vec<LogRecord>, _signals: &PipelineSignals) {
            if worker == 0 {
                self.gate.pass();
            }
            for r in &txn {
                assert!(
                    self.poison != Poison::Apply(r.seq.as_u64()),
                    "poisoned record {}",
                    r.seq
                );
                self.exposure.install(r);
            }
        }

        fn interrupt(&self) {
            self.gate.set_closed(false);
        }

        fn exposure(&self) -> &PrefixExposure {
            &self.exposure
        }
    }

    /// Two workers with a queue of `capacity` transactions each.
    fn poisoned_runtime_with(
        policy: Arc<PoisonedPolicy>,
        capacity: usize,
    ) -> PipelineRuntime<PoisonedPolicy> {
        PipelineRuntime::start(
            policy,
            PipelineOptions {
                workers: 2,
                queue: QueuePlan::PerWorker { capacity },
            },
        )
    }

    fn poisoned_runtime(poison: Poison) -> PipelineRuntime<PoisonedPolicy> {
        poisoned_runtime_with(PoisonedPolicy::new(poison), 16)
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
                            txn: TxnId(txn + 1),
                            idx_in_txn: idx,
                            txn_len: 2,
                            ..record(txn * 2 + 1 + u64::from(idx), 0, u64::from(idx) * (txn + 1))
                        })
                    })
                    .collect();
                Segment::new(id, records)
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

    /// Runs `f` on its own thread and panics if it has not returned within
    /// the deadline: how a test states "this must not hang".
    fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(f());
        });
        outcome
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{what} did not return within its deadline"))
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
        // The workers took every cut, and each one that advanced was
        // counted, timed and traced as an expose stage item; there is no
        // expose thread to wake.
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
        assert_eq!(metrics.counter("expose_wakeups_total"), None);
    }

    #[test]
    fn a_dead_worker_fails_the_pipeline_instead_of_hanging_finish() {
        // Position 21 is the first write of the third segment's first
        // transaction; its worker dies there.
        let runtime = Arc::new(poisoned_runtime(Poison::Apply(21)));
        for segment in two_write_txn_segments(8, 5) {
            runtime.apply_segment(segment);
        }
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
        let promotion = within_deadline("promote() after a failure", move || promoting.promote());
        assert_eq!(promotion.cut, cut);
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

    /// The feeder is the scheduler and a timestamped cut is taken by the
    /// workers: no thread but theirs. Only the whole-database cursor, whose
    /// cut waits for the workers' applies, adds an expose thread.
    #[test]
    fn a_runtime_adds_an_expose_thread_to_its_workers_only_for_whole_database_cuts() {
        let cursors: [(Cursor, usize); 2] = [
            (PrefixExposure::timestamped, 0),
            (PrefixExposure::whole_database, 1),
        ];
        for (cursor, expose_threads) in cursors {
            for workers in 1..=3 {
                for queue in [
                    QueuePlan::Shared { capacity: 4 },
                    QueuePlan::PerWorker { capacity: 4 },
                ] {
                    let runtime = PipelineRuntime::start(
                        PoisonedPolicy::with_cursor(Poison::None, cursor),
                        PipelineOptions { workers, queue },
                    );
                    assert_eq!(runtime.thread_count(), workers + expose_threads);
                }
            }
        }
    }

    /// Backpressure is bounded and the wire sees it: a wedged worker fills
    /// its queue, the full queue blocks the feeder inside `apply_segment`,
    /// and from there on segments pile up in the subscription queue — the one
    /// buffer the shipper's idle rule looks at — and nowhere else.
    #[test]
    fn a_wedged_worker_backs_up_into_the_subscription_queue_and_no_further() {
        const LANE: usize = 2;
        const SUBSCRIPTION: usize = 4;
        let policy = PoisonedPolicy::new(Poison::None);
        policy.gate.set_closed(true);
        let runtime = Arc::new(poisoned_runtime_with(policy, LANE));
        // One transaction to a segment, so segment `i` is worker `i % 2`'s.
        let segments = two_write_txn_segments(12, 1);
        let (shipper, receiver) = c5_log::LogShipper::bounded(SUBSCRIPTION);
        let feeder = {
            let (runtime, receiver) = (Arc::clone(&runtime), receiver.clone());
            std::thread::spawn(move || {
                crate::replica::drive_from_receiver(runtime.as_ref(), receiver)
            })
        };

        // Worker 0 holds segment 0 at the gate with 2 and 4 queued behind it,
        // so the feeder blocks dispatching segment 6 (positions 13-14); 7..=10
        // fit in the subscription queue and every `ship` returns.
        for segment in &segments[..11] {
            shipper.ship(segment.clone());
        }
        wait_for("the feeder blocked on segment 6, the queue full", || {
            runtime.metrics().shipped_seq == SeqNo(14) && receiver.try_len() == SUBSCRIPTION
        });
        assert!(!shipper.is_idle(), "the wire must see the backlog");
        let metrics = runtime.metrics();
        assert_eq!(
            (metrics.applied_seq, metrics.exposed_seq),
            (SeqNo::ZERO, SeqNo::ZERO),
            "worker 1 ran ahead, but the prefix starts with worker 0's segment"
        );

        // Released, everything drains: the queue empties (the wire is idle
        // again), the log ends, and the feeder's `finish` returns.
        runtime.policy().gate.set_closed(false);
        shipper.ship(segments[11].clone());
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
    }

    /// Two threads in `apply_segment` at once take turns in call order: the
    /// second schedules nothing until the first — blocked mid-segment, with
    /// records it has not stamped yet — is done. The `prev_seq` stamps are a
    /// single feeder's.
    #[test]
    fn concurrent_feeders_are_serialised_in_call_order() {
        let segments = two_write_txn_segments(6, 4);
        let single = poisoned_runtime(Poison::None);
        crate::replica::drive_segments(&single, segments.clone());
        let expected = single.policy().stamps();
        assert_eq!(expected.len(), 48);
        assert_eq!(expected[46], (SeqNo(47), SeqNo(45)), "the hot row chains");

        let policy = PoisonedPolicy::new(Poison::None);
        policy.gate.set_closed(true);
        let runtime = Arc::new(poisoned_runtime_with(policy, 2));
        let mut log = segments.clone().into_iter();
        let mut feed = |count: usize, called: Arc<AtomicBool>| {
            let runtime = Arc::clone(&runtime);
            let batch: Vec<Segment> = log.by_ref().take(count).collect();
            std::thread::spawn(move || {
                called.store(true, Ordering::SeqCst);
                batch.into_iter().for_each(|s| runtime.apply_segment(s));
            })
        };
        // Worker 0 takes the even transactions: it holds the first with the
        // third and fifth queued, so the first feeder blocks sending the
        // seventh — the third of segment 1, whose fourth is still unstamped.
        let first = feed(2, Arc::default());
        wait_for("the first feeder blocked mid-segment", || {
            runtime.policy().stamps().len() == 14
        });
        let called = Arc::new(AtomicBool::new(false));
        let second = feed(1, Arc::clone(&called));
        wait_for("the second feeder's call", || called.load(Ordering::SeqCst));
        assert_eq!(
            runtime.policy().stamps().len(),
            14,
            "the second feeder waits"
        );
        runtime.policy().gate.set_closed(false);
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use c5_common::{RowWrite, TxnId, Value};
    use proptest::prelude::*;

    proptest! {
        /// For any interleaving of writes over a few rows, any number of
        /// feeders noting segments out of global order (each its own stream
        /// in order), any segment size and any trail, every collection of the
        /// row-targeted driver leaves the store exactly as a full
        /// `MvStore::gc` at the same horizon leaves an identical twin: the
        /// same number of versions, and the same answer to every read at or
        /// after the horizon.
        #[test]
        fn row_targeted_gc_matches_the_full_sweep(
            keys in prop::collection::vec(0u64..6, 1..120),
            feeders in 1usize..4,
            segment_len in 1usize..9,
            trail in 0u64..24,
            seed in any::<u64>(),
        ) {
            let targeted = Arc::new(MvStore::default());
            let swept = MvStore::default();
            let gc = GcDriver::new(Arc::clone(&targeted), trail);
            let total = keys.len() as u64;

            // Each feeder owns the rows that hash to it and sees their
            // writes in log order, cut into segments.
            let mut streams: Vec<std::collections::VecDeque<Segment>> = (0..feeders)
                .map(|feeder| {
                    let owned: Vec<LogRecord> = keys
                        .iter()
                        .enumerate()
                        .filter(|(_, key)| **key as usize % feeders == feeder)
                        .map(|(i, &key)| LogRecord {
                            txn: TxnId(i as u64 + 1),
                            seq: SeqNo(i as u64 + 1),
                            commit_ts: Timestamp(i as u64 + 1),
                            commit_wall_nanos: 0,
                            prev_seq: SeqNo::ZERO,
                            write: RowWrite::update(RowRef::new(0, key), Value::from_u64(i as u64 + 1)),
                            idx_in_txn: 0,
                            txn_len: 1,
                        })
                        .collect();
                    owned
                        .chunks(segment_len)
                        .enumerate()
                        .map(|(id, chunk)| Segment::new(id as u64, chunk.to_vec()))
                        .collect()
                })
                .collect();

            let mut state = seed | 1;
            while streams.iter().any(|s| !s.is_empty()) {
                // Pick a feeder with work left, pseudo-randomly.
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let ready: Vec<usize> = (0..feeders).filter(|&f| !streams[f].is_empty()).collect();
                let feeder = ready[(state >> 33) as usize % ready.len()];
                let segment = streams[feeder].pop_front().unwrap();
                // Schedule (note), then apply, as a pipeline does.
                gc.note_segment(&segment);
                for r in &segment.records {
                    for store in [&*targeted, &swept] {
                        store.install(r.write.row, Timestamp(r.seq.as_u64()), r.write.kind, r.write.value.clone());
                    }
                }
                // The cut may reach the end of the globally applied prefix:
                // just below the earliest record any feeder still holds.
                let exposed = streams
                    .iter()
                    .filter_map(|s| s.front().and_then(Segment::first_seq))
                    .map(|next| next.as_u64() - 1)
                    .min()
                    .unwrap_or(total);
                let before = gc.horizon();
                let reclaimed = gc.run(SeqNo(exposed));
                let horizon = gc.horizon();
                if horizon == before {
                    prop_assert_eq!(reclaimed, 0);
                    continue;
                }
                prop_assert_eq!(reclaimed as usize, swept.gc(Timestamp(horizon.as_u64())));
                prop_assert_eq!(targeted.stats(), swept.stats());
                for key in 0..6 {
                    let row = RowRef::new(0, key);
                    for t in horizon.as_u64()..=total + 1 {
                        prop_assert_eq!(
                            targeted.read_at(row, Timestamp(t)),
                            swept.read_at(row, Timestamp(t))
                        );
                    }
                }
            }
            prop_assert_eq!(gc.reclaimed() as usize + targeted.stats().versions, keys.len());
        }
    }
}
