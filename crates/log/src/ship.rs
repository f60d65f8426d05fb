//! Log shipping between the primary and the backups.
//!
//! The paper assumes the log is delivered promptly (Section 2.4, Section 3.1
//! assumes instantaneous delivery); the interesting dynamics are entirely in
//! how fast a backup can *apply* it. The wire's job is therefore to add as
//! little as it can to the time between a commit and its arrival at every
//! subscriber — and, where the log must also be durable, to keep the
//! archive's fsync off the committing threads.
//!
//! # Natural batching: the idle rule
//!
//! The shipper does not decide when a segment closes; the
//! [`StreamingLogger`](crate::logger::StreamingLogger) does, by asking the
//! shipper whether it is idle on every append and on every **drain edge**:
//! whenever a [`LogReceiver`] receive takes the last segment queued to it,
//! and, on an archived wire, whenever the wire thread has delivered a
//! segment and finds nothing queued behind it. An un-archived wire is
//! **idle** when it has at least one subscriber and every subscriber's
//! queue is empty. An archived wire is idle when it has at least one
//! subscriber and no archive append is queued or in flight; it does not
//! look at the subscriber queues, because a subscriber's backlog waits in
//! that subscriber's own channel, behind nothing the wire does. An idle wire
//! is handed the open segment at once, however small; a busy one lets it
//! fill to the logger's bound, and hands it over the moment it frees up.
//! Batch size therefore follows demand (what accumulated while the wire or
//! the consumers were busy) and there is no linger, timeout or minimum-size
//! setting. A wire with no subscribers is never idle: with nobody waiting,
//! segments are cut on size.
//!
//! For the drain edge every handle of a shipper, every receiver it hands
//! out and its wire thread share a `Weak` to the one logger that ships into
//! it ([`StreamingLogger::new`](crate::logger::StreamingLogger::new)
//! attaches it). A receive that empties its queue, or a wire thread that
//! empties its inbox, asks that logger to ship, under the logger lock as an
//! append would; with no logger attached (or the logger gone) a receive is
//! only a receive.
//!
//! # What runs on which thread
//!
//! * **Un-archived shipper** — [`LogShipper::ship`] delivers inline, on the
//!   calling (committing) thread: watermark advance under the registry
//!   lock, then one channel send per subscriber outside it. No thread is
//!   spawned.
//! * **Archived shipper** ([`LogShipper::with_archive`]) — `ship` is one
//!   bounded enqueue to the shipper's **wire thread**, which alone runs, per
//!   segment and in queue order: `LogArchive::try_append` (the fsync; no
//!   shipper or logger lock held), then the watermark advance and member
//!   snapshot under the registry lock, then the fan-out, then — if its
//!   inbox is empty — the drain edge. Whatever commits during one fsync is
//!   the next segment, cut by the wire thread as soon as the fsync's
//!   segment is delivered — group commit, by the idle rule, without a
//!   setting. [`LogShipper::close`] is a message on the same
//!   queue: the thread archives and delivers everything enqueued before it,
//!   then ends the log, and `close` returns once the thread has exited.
//!
//! Lock order, outermost first: a committer's row locks → the logger lock →
//! (archived) the wire queue's own lock / (un-archived) the registry lock →
//! a subscriber channel's lock. A thread on the drain edge — a receiver, or
//! the wire thread — holds no lock and only *tries* the logger lock: if it
//! is taken, its holder ships for it after releasing it (see the logger's
//! module docs). Under it, the drain edge takes the locks below the logger
//! lock as a committer does. Otherwise the wire thread takes the archive
//! lock, the registry lock and the channel locks one at a time, never
//! nested.
//!
//! # Invariants
//!
//! 1. **Wire order = log order.** The logger ships under its lock — on the
//!    drain edge too — the wire queue is FIFO, and one thread drains it.
//! 2. **Archive = wire.** A segment is archived if and only if it is
//!    delivered: both happen on the wire thread, in that order, and a
//!    segment shipped after [`LogShipper::close`] (or after the wire failed)
//!    gets neither. A crashed primary's unshipped tail is in neither.
//! 3. **Watermark ≤ archive.** [`LogShipper::shipped_through`] (and so
//!    [`Subscription::starts_after`]) advances only after the archive holds
//!    the segment. Between the two there is a window in which the archive
//!    is *ahead* of the watermark; a joiner subscribing inside it is also
//!    sent that segment live, so its backfill must stop at `starts_after`,
//!    not at the archive's end (`FleetController::join` filters exactly so).
//!
//! An archive I/O failure ends the wire instead of killing a thread: the
//! wire thread closes the shipper (subscribers see end-of-log after a
//! contiguous prefix that the archive also holds), later ships are
//! discarded, and [`LogShipper::failure`] reports the typed error. A wire
//! thread that cannot be started fails the wire the same way, before
//! anything is shipped (`Error::ThreadSpawn`).
//!
//! One shipper can feed **several replicas at once**
//! ([`LogShipper::fan_out`]): each replica gets its own bounded channel, so
//! every replica observes the identical segment stream but exerts
//! *independent* backpressure — a slow replica fills only its own channel
//! (eventually pacing the primary to the slowest replica, as any bounded
//! fan-out must), and per-replica lag stays individually observable. This is
//! the "one primary serving many read replicas" deployment of Section 2.1.
//!
//! Membership is **dynamic**: the shipper keeps a subscription registry, not
//! a fixed sender vector. [`LogShipper::subscribe`] attaches a new receiver
//! mid-stream and returns, atomically with respect to concurrent ships, the
//! coverage watermark the live stream starts *after* —
//! [`Subscription::starts_after`] — so a joining replica knows exactly which
//! archived prefix to backfill: every record at or below `starts_after`
//! must come from a checkpoint or the [`LogArchive`], every record above it
//! will arrive on the returned channel, and no sequence number falls between
//! the two (the gap-closure invariant the online-join protocol in `c5-core`
//! is built on). [`LogShipper::unsubscribe`] detaches one receiver without
//! disturbing delivery to its peers, and a shipper with **zero** subscribers
//! is a valid state — segments still advance the watermark and the attached
//! archive, exactly what an empty-then-join fleet needs.
//!
//! The wire always carries the whole log: a sharded replica receives it like
//! any other subscriber and splits it by key range itself (`c5-core`'s
//! `shard` module).

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{self, Receiver, SendError, Sender, TryRecvError};
use parking_lot::Mutex;

use c5_common::{Error, Result, SeqNo};
use c5_obs::{Counter, Histogram, Obs, TraceEvent};

use crate::archive::LogArchive;
use crate::logger::LoggerState;
use crate::segment::Segment;

/// Segments a live subscription buffers before `ship` blocks on it: the
/// capacity the fleet controller and the scenario harness subscribe with.
/// It is the one `Segment` buffer between the shipper and a replica, whose
/// feeder stops taking segments while the replica's in-flight window is
/// full, so it bounds how far a slow replica may fall behind before it
/// holds the wire back.
pub const SUBSCRIPTION_SEGMENTS: usize = 1024;

/// Stable identity of one subscription in a shipper's registry, handed out
/// by [`LogShipper::subscribe`] and accepted by [`LogShipper::unsubscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(u64);

/// One live subscription: a new member of the fan-out returned by
/// [`LogShipper::subscribe`].
pub struct Subscription {
    /// Identity to pass to [`LogShipper::unsubscribe`].
    pub id: SubscriptionId,
    /// The receiving half of the new member's channel.
    pub receiver: LogReceiver,
    /// The coverage watermark of the last segment shipped before this
    /// subscription took effect: the live stream delivers exactly the
    /// records **above** this position, so a joiner must backfill
    /// `(checkpoint cut, starts_after]` from an archive (or a checkpoint at
    /// or above it) and nothing else. Always a segment boundary, because
    /// ships advance it whole-segment-at-a-time under the same lock
    /// `subscribe` reads it under.
    pub starts_after: SeqNo,
}

/// One registered fan-out member.
#[derive(Clone)]
struct Subscriber {
    id: SubscriptionId,
    tx: Sender<Segment>,
}

/// The membership registry: the member list (copy-on-write behind an `Arc`,
/// so `ship` snapshots it with a refcount bump per segment) plus the
/// shipped-through coverage watermark that makes subscribe-vs-ship atomic.
struct Registry {
    members: Arc<Vec<Subscriber>>,
    next_id: u64,
    shipped_through: SeqNo,
}

impl Registry {
    fn new() -> Self {
        Registry {
            members: Arc::new(Vec::new()),
            next_id: 0,
            shipped_through: SeqNo::ZERO,
        }
    }
}

/// The logger that ships into a wire, shared by every handle of the shipper
/// and every receiver it hands out, for the drain edge. Set once, by
/// [`LogShipper::attach_logger`]; weak, so a receiver never keeps a logger
/// (and through it the shipper) alive.
type LoggerSlot = Arc<OnceLock<Weak<LoggerState>>>;

/// Sending half of the replication channel (owned by the primary's logger).
///
/// Cloning a shipper clones the underlying senders; the receivers observe
/// end-of-log once every clone has been closed or dropped.
#[derive(Clone)]
pub struct LogShipper {
    registry: Arc<Mutex<Option<Registry>>>,
    logger: LoggerSlot,
    /// Retention: when set, every segment that goes on the wire is first
    /// recorded in the wire's archive by the wire's own thread, enabling
    /// checkpoint truncation and cold-replica replay.
    wire: Option<Arc<Wire>>,
    /// Observability: when attached, every ship records one [`TraceEvent::Ship`]
    /// plus ship timing/volume metrics. Handles are resolved once here so the
    /// per-segment hot path never takes the registry lock.
    obs: Option<Arc<ShipObs>>,
}

/// Pre-resolved observability handles for the per-segment ship path.
struct ShipObs {
    obs: Arc<Obs>,
    ship_ns: Arc<Histogram>,
    segments: Arc<Counter>,
    records: Arc<Counter>,
    /// Records per shipped segment: the batch sizes the idle rule produced.
    segment_records: Arc<Histogram>,
    /// Segments the logger shipped below its size bound.
    partial_segments: Arc<Counter>,
    /// Of those, the segments a drain edge shipped: a receiver's, or an
    /// archived wire thread's.
    drain_tails: Arc<Counter>,
    /// Wire thread only: one `LogArchive::try_append`.
    archive_append_ns: Arc<Histogram>,
    /// Wire thread, durable archive only: the `sync_data` inside it, the
    /// frame bytes it added to the log, and the chunk files it created.
    archive_sync_ns: Arc<Histogram>,
    archive_bytes: Arc<Counter>,
    archive_rotations: Arc<Counter>,
    /// Wire thread only: enqueue by `ship` → dequeue by the wire thread.
    wire_queue_wait_ns: Arc<Histogram>,
    archive_failures: Arc<Counter>,
}

/// Segments an archived shipper's `ship` may queue ahead of its wire thread
/// before it blocks. The logger ships early only when nothing is queued, so
/// in steady state the queue holds at most one segment; the bound matters
/// when full segments arrive faster than the archive persists them, and
/// then it is where committers feel the disk.
///
/// The wire thread's own drain edge ships into this queue, which only the
/// wire thread empties, and yet cannot block on it: it ships only when
/// `pending` is 0, read under the logger lock, and every other ship into a
/// logger's wire also happens under that lock, so at that moment nothing
/// is queued.
const WIRE_QUEUE_SEGMENTS: usize = 16;

/// The handle side of an archived shipper's wire thread.
struct Wire {
    queue: Sender<WireMessage>,
    state: Arc<WireState>,
    /// Taken, and joined under this lock, by the first `close`: a concurrent
    /// second close waits here until the wire has drained too.
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// What the handles and the wire thread share.
#[derive(Default)]
struct WireState {
    /// Segments enqueued and not yet through the archive append. Only the
    /// idle rule reads it, as a batching hint: whatever it answers, shipping
    /// or not shipping is correct, so `Relaxed` everywhere — it publishes
    /// nothing. The drain edge's liveness rests on two fences instead: the
    /// wire thread counts a segment down, delivers it, fences (in the
    /// logger's `ship_on_drain`) and reads the logger's last position, and a
    /// receiver that got the segment does the same after it; a committer
    /// publishes that position, fences (in `is_idle`) and reads this count.
    /// So the committer or the drain edge sees the other, and what is
    /// buffered ships.
    pending: AtomicUsize,
    /// The archive error that ended the wire, if one did.
    failure: Mutex<Option<Error>>,
    /// Runs on the wire thread between the archive append and the watermark
    /// advance, so a test can act inside that window deterministically.
    #[cfg(test)]
    between_archive_and_watermark: Mutex<Option<Box<dyn FnMut() + Send>>>,
    /// Runs on the wire thread inside its drain edge, holding the logger it
    /// upgraded.
    #[cfg(test)]
    in_drain_edge: Mutex<Option<Box<dyn FnMut() + Send>>>,
}

enum WireMessage {
    Segment {
        segment: Segment,
        /// When `ship` enqueued it (observed shippers only).
        enqueued: Option<Instant>,
    },
    Close,
}

impl Wire {
    /// Ends the wire: everything enqueued before this call is archived and
    /// delivered, then subscribers see end-of-log. Returns once the wire
    /// thread has exited, or at once on the wire thread itself.
    fn close(&self) {
        let mut thread = self.thread.lock();
        // On the wire thread itself this is the drop of the last handle:
        // the logger it upgraded on its drain edge was the last one. The
        // queue's one sender goes with this handle, so the thread ends once
        // its inbox drains; it must not join itself, nor send into an inbox
        // only it empties.
        let own_thread = std::thread::current().id();
        if thread
            .as_ref()
            .is_some_and(|handle| handle.thread().id() == own_thread)
        {
            return;
        }
        // A wire that already ended (closed, or failed) has dropped its
        // receiver; there is nothing left to tell it.
        let _ = self.queue.send(WireMessage::Close);
        if let Some(handle) = thread.take() {
            // The thread only panics on a broken invariant (a misordered
            // producer tripping the archive's contiguity assert); that
            // panic has already been printed, and `close` runs from `Drop`.
            let _ = handle.join();
        }
    }
}

impl Drop for Wire {
    /// Dropping the last handle closes the wire, like closing it would: the
    /// queued segments still reach the archive and the subscribers, and the
    /// thread is joined rather than detached.
    fn drop(&mut self) {
        self.close();
    }
}

/// Receiving half of the replication channel (owned by a backup replica).
///
/// A receive that takes the last segment queued to it runs the drain edge
/// (see the [module docs](self)): the logger feeding the wire ships its open
/// segment if the wire went idle. It never blocks the receiver. Every
/// received segment then records whether the queue is still empty
/// ([`Segment::nothing_queued_behind`]), which a replica's feeder reads to
/// tell that it is caught up with the wire.
#[derive(Clone)]
pub struct LogReceiver {
    rx: Receiver<Segment>,
    logger: LoggerSlot,
}

impl LogShipper {
    fn empty() -> LogShipper {
        LogShipper {
            registry: Arc::new(Mutex::new(Some(Registry::new()))),
            logger: LoggerSlot::default(),
            wire: None,
            obs: None,
        }
    }

    /// Creates a bounded shipping channel. Bounded so that a hopelessly slow
    /// replica exerts backpressure on benchmark drivers instead of buffering
    /// the whole run in memory.
    pub fn bounded(capacity: usize) -> (LogShipper, LogReceiver) {
        let (shipper, mut receivers) = Self::fan_out(1, capacity);
        (shipper, receivers.remove(0))
    }

    /// Creates an unbounded shipping channel. Used by experiments that
    /// specifically measure how far a replica falls behind (backpressure
    /// would mask the lag the experiment wants to expose).
    pub fn unbounded() -> (LogShipper, LogReceiver) {
        let (shipper, mut receivers) = Self::fan_out_unbounded(1);
        (shipper, receivers.remove(0))
    }

    /// Creates a fan-out shipper feeding `replicas` receivers, each over its
    /// own bounded channel of `capacity` segments. Every shipped segment is
    /// delivered to every receiver; a full channel blocks the shipper until
    /// that replica catches up, without affecting segments already queued to
    /// the others.
    ///
    /// A thin loop over [`LogShipper::subscribe`]; `replicas` may be zero
    /// (an empty fleet that members later join via `subscribe`).
    pub fn fan_out(replicas: usize, capacity: usize) -> (LogShipper, Vec<LogReceiver>) {
        let shipper = Self::empty();
        let receivers = (0..replicas)
            .map(|_| {
                // Invariant: `subscribe` fails only on a closed shipper, and
                // nothing can have closed this one yet.
                shipper
                    .subscribe(capacity)
                    .expect("a fresh shipper accepts subscribers")
                    .receiver
            })
            .collect();
        (shipper, receivers)
    }

    /// Creates a fan-out shipper with unbounded per-replica channels (for
    /// experiments that measure how far each replica falls behind).
    /// `replicas` may be zero, as in [`LogShipper::fan_out`].
    pub fn fan_out_unbounded(replicas: usize) -> (LogShipper, Vec<LogReceiver>) {
        let shipper = Self::empty();
        let receivers = (0..replicas)
            .map(|_| {
                // Invariant: as in `fan_out`, nothing has closed it yet.
                shipper
                    .subscribe_unbounded()
                    .expect("a fresh shipper accepts subscribers")
                    .receiver
            })
            .collect();
        (shipper, receivers)
    }

    /// Attaches a new member to the fan-out over its own bounded channel of
    /// `capacity` segments, mid-stream. Returns the new receiver together
    /// with [`Subscription::starts_after`], the coverage watermark the live
    /// stream starts above — read under the same lock a delivery advances it
    /// and snapshots the members under, so every record at or below it is
    /// already on the archive (when one is attached) and every record above
    /// it will arrive on the channel: no sequence number falls between the
    /// backfill and the live stream. The archive may already hold records
    /// *above* it (archived, not yet announced); those arrive on the channel
    /// too, so a backfill stops at `starts_after`.
    ///
    /// Fails with [`Error::Shutdown`] once the shipper is closed.
    pub fn subscribe(&self, capacity: usize) -> Result<Subscription> {
        self.subscribe_with(|| channel::bounded(capacity))
    }

    /// [`LogShipper::subscribe`] over an unbounded channel.
    pub fn subscribe_unbounded(&self) -> Result<Subscription> {
        self.subscribe_with(channel::unbounded)
    }

    fn subscribe_with(
        &self,
        make_channel: impl FnOnce() -> (Sender<Segment>, Receiver<Segment>),
    ) -> Result<Subscription> {
        let mut guard = self.registry.lock();
        let Some(registry) = guard.as_mut() else {
            return Err(Error::Shutdown("log shipper"));
        };
        let (tx, rx) = make_channel();
        let id = SubscriptionId(registry.next_id);
        registry.next_id += 1;
        // Copy-on-write: rebuild the member vector so in-flight `ship`
        // snapshots (holding the old Arc) are undisturbed.
        let mut members: Vec<Subscriber> = registry.members.iter().cloned().collect();
        members.push(Subscriber { id, tx });
        registry.members = Arc::new(members);
        Ok(Subscription {
            id,
            receiver: LogReceiver {
                rx,
                logger: Arc::clone(&self.logger),
            },
            starts_after: registry.shipped_through,
        })
    }

    /// Detaches one subscription. Peers are undisturbed: their channels keep
    /// delivering, and segments already queued to the detached receiver stay
    /// readable until it is dropped (its channel closes once the last
    /// in-flight `ship` snapshot holding the sender drops). Returns `false`
    /// if the id is unknown or the shipper is closed.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let mut guard = self.registry.lock();
        let Some(registry) = guard.as_mut() else {
            return false;
        };
        if !registry.members.iter().any(|m| m.id == id) {
            return false;
        }
        registry.members = Arc::new(
            registry
                .members
                .iter()
                .filter(|m| m.id != id)
                .cloned()
                .collect(),
        );
        true
    }

    /// The coverage watermark of the last segment shipped (or recovered into
    /// the attached archive): what [`Subscription::starts_after`] would be
    /// for a subscriber attaching right now.
    pub fn shipped_through(&self) -> SeqNo {
        self.registry
            .lock()
            .as_ref()
            .map_or(SeqNo::ZERO, |r| r.shipped_through)
    }

    /// Number of replicas this shipper feeds (zero once closed).
    pub fn replica_count(&self) -> usize {
        self.registry.lock().as_ref().map_or(0, |r| r.members.len())
    }

    /// Attaches a retention archive: every segment that goes on the wire is
    /// first recorded in `archive`, so a checkpoint can truncate the log and
    /// a cold replica can replay its tail. Shared across clones like the
    /// wire itself.
    ///
    /// This starts the shipper's **wire thread** (see the module docs): from
    /// here on [`LogShipper::ship`] enqueues, and the archive append, the
    /// watermark advance and the fan-out run on that thread, so an fsync
    /// never runs under a committer's locks. The thread works with the
    /// observability sink the shipper has *now* — attach
    /// [`LogShipper::with_obs`] first.
    ///
    /// If the archive already holds a recovered prefix (a resumed shipper),
    /// the shipped-through watermark is raised to cover it, so a subscriber's
    /// `starts_after` reports the true wire position rather than this
    /// handle's lifetime position.
    ///
    /// If the wire thread cannot be started, the wire fails as after an
    /// archive I/O failure: [`LogShipper::failure`] reports
    /// `Error::ThreadSpawn`, subscribers see end-of-log, and every ship is
    /// discarded.
    pub fn with_archive(self, archive: Arc<LogArchive>) -> Self {
        self.attach_wire(archive, |run| {
            std::thread::Builder::new()
                .name("c5-wire".into())
                .spawn(run)
        })
    }

    /// [`LogShipper::with_archive`], starting the wire thread through
    /// `spawn`.
    fn attach_wire(
        mut self,
        archive: Arc<LogArchive>,
        spawn: impl FnOnce(Box<dyn FnOnce() + Send>) -> std::io::Result<JoinHandle<()>>,
    ) -> Self {
        if let Some(registry) = self.registry.lock().as_mut() {
            registry.shipped_through = registry.shipped_through.max(archive.last_seq());
        }
        let (queue, inbox) = channel::bounded(WIRE_QUEUE_SEGMENTS);
        let state = Arc::new(WireState::default());
        // The thread's own handle has no wire: it delivers, it never
        // enqueues, and it must not keep its own inbox open.
        let deliverer = LogShipper {
            wire: None,
            ..self.clone()
        };
        let run = {
            let state = Arc::clone(&state);
            Box::new(move || deliverer.run_wire(&archive, &state, &inbox))
        };
        let thread = match spawn(run) {
            Ok(thread) => Some(thread),
            Err(error) => {
                // The unstarted closure is dropped with its inbox, so every
                // ship discards; end the log for the subscribers too.
                *state.failure.lock() = Some(Error::ThreadSpawn {
                    thread: "c5-wire",
                    message: error.to_string(),
                });
                self.registry.lock().take();
                None
            }
        };
        self.wire = Some(Arc::new(Wire {
            queue,
            state,
            thread: Mutex::new(thread),
        }));
        self
    }

    /// Attaches an observability sink: every delivered segment records one
    /// [`TraceEvent::Ship`] (sequence position, record count, fan-out width,
    /// wall time of the sends) plus a `ship_ns` histogram,
    /// `ship_segments_total` / `ship_records_total` counters, the
    /// `ship_segment_records` histogram of batch sizes and the
    /// `ship_partial_segments_total` counter of segments the logger cut
    /// below its bound, of which `ship_drain_tails_total` counts those a
    /// drain edge cut (a receiver's, or the wire thread's); a wire thread
    /// adds `archive_append_ns`,
    /// `wire_queue_wait_ns` and `ship_archive_failures_total`, and over a
    /// durable archive `archive_sync_ns` (the `sync_data` alone),
    /// `archive_bytes_total` and `archive_rotations_total`. Metric
    /// handles are resolved here, once, so the per-segment path stays off the
    /// registry lock. Shared across clones like the wire itself; attach it
    /// before [`LogShipper::with_archive`].
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        let metrics = &obs.metrics;
        self.obs = Some(Arc::new(ShipObs {
            ship_ns: metrics.histogram("ship_ns"),
            segments: metrics.counter("ship_segments_total"),
            records: metrics.counter("ship_records_total"),
            segment_records: metrics.histogram("ship_segment_records"),
            partial_segments: metrics.counter("ship_partial_segments_total"),
            drain_tails: metrics.counter("ship_drain_tails_total"),
            archive_append_ns: metrics.histogram("archive_append_ns"),
            archive_sync_ns: metrics.histogram("archive_sync_ns"),
            archive_bytes: metrics.counter("archive_bytes_total"),
            archive_rotations: metrics.counter("archive_rotations_total"),
            wire_queue_wait_ns: metrics.histogram("wire_queue_wait_ns"),
            archive_failures: metrics.counter("ship_archive_failures_total"),
            obs,
        }));
        self
    }

    /// The error that ended this shipper's wire, if one did: an archive I/O
    /// failure, or a wire thread that could not be started. After it, the
    /// shipper behaves as after [`LogShipper::close`]: subscribers have seen
    /// end-of-log behind a contiguous prefix the archive also holds, and
    /// `ship` discards.
    pub fn failure(&self) -> Option<Error> {
        self.wire.as_ref()?.state.failure.lock().clone()
    }

    /// Whether the wire would deliver a segment shipped now without it
    /// waiting behind anything: at least one subscriber and, un-archived,
    /// every subscriber's queue empty, or, archived, nothing queued for or
    /// inside the archive. The logger's ship-now rule (see the module docs).
    /// On an un-archived wire a replica that cannot keep up shows here as a
    /// non-empty queue (a replica schedules on the thread that drains its
    /// subscription). On an archived wire it shows only once its full
    /// channel blocks the wire thread's send: the next segment then waits
    /// in the inbox, and the logger cuts on size again.
    pub fn is_idle(&self) -> bool {
        if let Some(wire) = &self.wire {
            // Pairs with the fence in the logger's drain edge.
            fence(Ordering::SeqCst);
            if wire.state.pending.load(Ordering::Relaxed) != 0 {
                return false;
            }
        }
        let guard = self.registry.lock();
        guard.as_ref().is_some_and(|registry| {
            !registry.members.is_empty()
                && (self.wire.is_some() || registry.members.iter().all(|m| m.tx.is_empty()))
        })
    }

    /// Counts one segment the logger cut below its size bound.
    pub(crate) fn note_partial_segment(&self) {
        if let Some(ship_obs) = &self.obs {
            ship_obs.partial_segments.inc();
        }
    }

    /// Counts one segment a drain edge cut, a receiver's or the wire
    /// thread's.
    pub(crate) fn note_drain_tail(&self) {
        if let Some(ship_obs) = &self.obs {
            ship_obs.drain_tails.inc();
        }
    }

    /// Makes `logger` the one logger that ships into this wire, so every
    /// receiver of every handle can reach it on the drain edge. A second
    /// logger is not attached (it still ships on append).
    pub(crate) fn attach_logger(&self, logger: Weak<LoggerState>) {
        let _ = self.logger.set(logger);
    }

    /// Ships a segment to every replica. Un-archived, it delivers on the
    /// calling thread and blocks while any receiving channel is full;
    /// archived, it enqueues to the wire thread and blocks only while that
    /// queue is full. Segments shipped
    /// after [`LogShipper::close`] (or after the wire failed) or into dropped
    /// receivers are discarded (a single dropped receiver does not affect
    /// delivery to the others).
    pub fn ship(&self, segment: Segment) {
        let Some(wire) = &self.wire else {
            self.deliver(segment);
            return;
        };
        wire.state.pending.fetch_add(1, Ordering::Relaxed);
        let message = WireMessage::Segment {
            segment,
            enqueued: self.obs.is_some().then(Instant::now),
        };
        if wire.queue.send(message).is_err() {
            // The wire has ended; the segment is discarded, and deliberately
            // not archived: the archive holds exactly the wire.
            wire.state.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The wire thread of an archived shipper: archives, then delivers, every
    /// enqueued segment in order, until a `Close`, an archive failure, or
    /// the last handle's drop ends the log.
    fn run_wire(&self, archive: &LogArchive, state: &WireState, inbox: &Receiver<WireMessage>) {
        while let Ok(WireMessage::Segment { segment, enqueued }) = inbox.recv() {
            // No shipper or logger lock is held across the append (the
            // fsync), and only this thread closes an archived shipper, so
            // the wire cannot end between the append and the sends.
            let timing = (self.obs.as_deref().zip(enqueued))
                .map(|(ship_obs, enqueued)| (ship_obs, enqueued, Instant::now()));
            let appended = archive.try_append(&segment);
            if let Some((ship_obs, enqueued, dequeued)) = timing {
                ship_obs
                    .wire_queue_wait_ns
                    .record_duration(dequeued.duration_since(enqueued));
                ship_obs
                    .archive_append_ns
                    .record_duration(dequeued.elapsed());
                if let Some(report) = appended.as_ref().ok().filter(|report| report.bytes > 0) {
                    ship_obs.archive_sync_ns.record_duration(report.sync);
                    ship_obs.archive_bytes.add(report.bytes);
                    ship_obs.archive_rotations.add(u64::from(report.rotated));
                }
            }
            if let Err(error) = appended {
                if let Some(ship_obs) = &self.obs {
                    ship_obs.archive_failures.inc();
                    // A point event: the failed append is already in
                    // `archive_append_ns`.
                    ship_obs.obs.trace.record(TraceEvent::Span {
                        name: "wire_archive_failed",
                        elapsed_ns: 0,
                    });
                }
                *state.failure.lock() = Some(error);
                break;
            }
            #[cfg(test)]
            if let Some(hook) = state.between_archive_and_watermark.lock().as_mut() {
                hook();
            }
            // The archive is done with it. Counted down before the sends,
            // so a subscriber that has received this segment finds the wire
            // idle again if nothing else was queued meanwhile.
            state.pending.fetch_sub(1, Ordering::Relaxed);
            self.deliver(segment);
            // The wire's own drain edge: with nothing queued behind this
            // segment the wire is idle, so what committed during its append
            // is cut now, as the next segment, without waiting for a
            // receiver or the next commit. The upgrade may make this thread
            // the last holder of the logger (see `Wire::close`).
            if inbox.is_empty() {
                if let Some(logger) = self.logger.get().and_then(Weak::upgrade) {
                    #[cfg(test)]
                    if let Some(hook) = state.in_drain_edge.lock().as_mut() {
                        hook();
                    }
                    logger.ship_on_drain();
                }
            }
        }
        // End of log. Dropping the inbox on return wakes any `ship` parked
        // on the full queue and makes every later one discard.
        self.registry.lock().take();
    }

    /// Puts one segment on the wire — watermark, fan-out — on the
    /// calling thread (a committer's, or the wire thread after its archive
    /// append), observed when a sink is attached.
    fn deliver(&self, segment: Segment) {
        let Some(ship_obs) = &self.obs else {
            self.deliver_inner(segment);
            return;
        };
        let segment_seq = segment.covered_through().0;
        let records = segment.len();
        let started = Instant::now();
        let subscribers = self.deliver_inner(segment);
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ship_obs.ship_ns.record(elapsed_ns);
        ship_obs.segments.inc();
        ship_obs.records.add(records as u64);
        ship_obs.segment_records.record(records as u64);
        ship_obs.obs.trace.record(TraceEvent::Ship {
            segment_seq,
            records,
            subscribers,
            elapsed_ns,
        });
    }

    /// The delivery itself; returns how many receivers the segment was
    /// delivered to (0 when the shipper is closed or nobody is subscribed).
    fn deliver_inner(&self, segment: Segment) -> usize {
        // One critical section covers the watermark advance and the
        // membership snapshot: a concurrent `subscribe` therefore observes
        // either none of this segment (it will arrive on the new channel) or
        // all of it (watermark advanced, hence archived) — the gap-closure
        // invariant joiners backfill against. The sends themselves happen
        // outside the lock so a full (blocking) channel cannot deadlock
        // against `close()` or `subscribe()`.
        let members = {
            let mut guard = self.registry.lock();
            let Some(registry) = guard.as_mut() else {
                // Segments shipped into a closed shipper are discarded.
                return 0;
            };
            registry.shipped_through = registry.shipped_through.max(segment.covered_through());
            Arc::clone(&registry.members)
        };
        // Zero subscribers is a valid state: the segment stays on the
        // archive (and the watermark advanced) for members that join later.
        let Some(last) = members.len().checked_sub(1) else {
            return 0;
        };
        for member in &members[..last] {
            match member.tx.send(segment.clone()) {
                Ok(()) => {}
                Err(SendError(_)) => {
                    // That receiver dropped; the others still get the log.
                }
            }
        }
        // The last replica takes the original — a 1→1 shipper never clones.
        let _ = members[last].tx.send(segment);
        members.len()
    }

    /// Closes this shipper handle. Once every clone sharing this handle is
    /// closed (or dropped), the receivers observe end-of-log. On an archived
    /// shipper the close drains the wire thread first: every segment handed
    /// to [`LogShipper::ship`] before it is archived and delivered before
    /// end-of-log, and `close` returns only then.
    pub fn close(&self) {
        match &self.wire {
            Some(wire) => wire.close(),
            None => {
                self.registry.lock().take();
            }
        }
    }
}

impl LogReceiver {
    /// Blocks until the next segment arrives or the log ends. The segment
    /// says whether anything was queued behind it
    /// ([`Segment::nothing_queued_behind`]).
    pub fn recv(&self) -> Option<Segment> {
        let segment = self.rx.recv().ok()?;
        Some(self.received(segment))
    }

    /// Non-blocking receive; marks the segment as [`recv`](Self::recv)
    /// does.
    pub fn try_recv(&self) -> Option<Segment> {
        match self.rx.try_recv() {
            Ok(segment) => Some(self.received(segment)),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// After a receive: runs the drain edge, then records on the segment
    /// whether its queue is empty. Asked after the edge, so a tail the edge
    /// shipped counts as queued: on an un-archived wire a feeder that
    /// cannot keep up shows as records buffered in the logger, not as
    /// queued segments, and the edge is what turns them into one.
    fn received(&self, mut segment: Segment) -> Segment {
        self.drained();
        segment.nothing_queued_behind = self.rx.is_empty();
        segment
    }

    /// The drain edge, after a receive: if that took the last queued
    /// segment, the logger ships its open segment should the wire be idle.
    ///
    /// The upgrade holds the logger for a moment; if its owner drops it
    /// meanwhile, the logger (and its shipper handle) is dropped here, which
    /// on an archived wire may join the wire thread. A logger closed before
    /// it is dropped leaves that join nothing to wait for.
    fn drained(&self) {
        if !self.rx.is_empty() {
            return;
        }
        if let Some(logger) = self.logger.get().and_then(Weak::upgrade) {
            logger.ship_on_drain();
        }
    }

    /// Number of segments currently queued.
    pub fn try_len(&self) -> usize {
        self.rx.len()
    }

    /// Drains every remaining segment, blocking until the channel closes.
    pub fn drain(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        while let Some(seg) = self.recv() {
            out.push(seg);
        }
        out
    }

    /// Drains whatever is currently available without blocking.
    pub fn drain_available(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        while let Some(seg) = self.try_recv() {
            out.push(seg);
        }
        out
    }
}

#[cfg(test)]
impl LogShipper {
    /// Makes this archived shipper's wire thread stop after each archive
    /// append, before the watermark moves: it signals the first channel,
    /// then waits on the second for the test to let it go.
    pub(crate) fn park_between_archive_and_watermark(
        &self,
    ) -> (std::sync::mpsc::Receiver<()>, std::sync::mpsc::Sender<()>) {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel();
        let wire = self.wire.as_ref().expect("an archived shipper");
        *wire.state.between_archive_and_watermark.lock() = Some(Box::new(move || {
            entered_tx.send(()).unwrap();
            released.recv().unwrap();
        }));
        (entered, release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentBuilder;
    use c5_common::{RowRef, RowWrite, SeqNo, Value};

    fn segment(id: u64) -> Segment {
        contiguous_segment(id, SeqNo(id * 10)).0
    }

    #[test]
    fn ship_and_receive_in_order() {
        let (tx, rx) = LogShipper::bounded(8);
        tx.ship(segment(1));
        tx.ship(segment(2));
        drop(tx);
        let got = rx.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].first_seq(), Some(SeqNo(11)));
        assert_eq!(got[1].first_seq(), Some(SeqNo(21)));
    }

    #[test]
    fn receiver_sees_end_of_log_when_all_senders_drop() {
        let (tx, rx) = LogShipper::bounded(8);
        let tx2 = tx.clone();
        tx.ship(segment(1));
        drop(tx);
        // Another sender still exists, so the channel is not closed.
        assert!(rx.recv().is_some());
        drop(tx2);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn try_recv_does_not_block() {
        let (_tx, rx) = LogShipper::bounded(8);
        assert!(rx.try_recv().is_none());
        assert_eq!(rx.try_len(), 0);
    }

    #[test]
    fn shipping_into_dropped_receiver_does_not_panic() {
        let (tx, rx) = LogShipper::bounded(1);
        drop(rx);
        tx.ship(segment(1));
    }

    #[test]
    fn fan_out_delivers_every_segment_to_every_replica() {
        let (tx, receivers) = LogShipper::fan_out(3, 8);
        assert_eq!(tx.replica_count(), 3);
        tx.ship(segment(1));
        tx.ship(segment(2));
        tx.close();
        assert_eq!(tx.replica_count(), 0);
        for rx in &receivers {
            let got = rx.drain();
            assert_eq!(got.len(), 2);
            assert_eq!(got[0].first_seq(), Some(SeqNo(11)));
            assert_eq!(got[1].first_seq(), Some(SeqNo(21)));
        }
    }

    #[test]
    fn fan_out_channels_backpressure_independently() {
        // Replica 0 never consumes; its channel has room for exactly the
        // shipped load, so replica 1 keeps receiving everything promptly.
        let (tx, receivers) = LogShipper::fan_out(2, 4);
        for id in 1..=4 {
            tx.ship(segment(id));
        }
        assert_eq!(receivers[0].try_len(), 4);
        let fast = receivers[1].drain_available();
        assert_eq!(fast.len(), 4);
        // The stalled replica's queue is untouched by the fast one draining.
        assert_eq!(receivers[0].try_len(), 4);
        tx.close();
        assert_eq!(receivers[0].drain().len(), 4);
    }

    #[test]
    fn fan_out_survives_one_replica_dropping() {
        let (tx, mut receivers) = LogShipper::fan_out(3, 4);
        let dead = receivers.remove(1);
        drop(dead);
        tx.ship(segment(9));
        tx.close();
        for rx in &receivers {
            assert_eq!(rx.drain().len(), 1);
        }
    }

    /// A one-write segment starting exactly at `start` (archive-contiguous,
    /// unlike [`segment`] which jumps to `id * 10`).
    fn contiguous_segment(id: u64, start: SeqNo) -> (Segment, SeqNo) {
        let write = RowWrite::insert(RowRef::new(0, id), Value::from_u64(id));
        let mut builder = SegmentBuilder::resume_at(1, start);
        let segment = builder.push_txn(crate::now_nanos(), &[write]);
        (
            segment.expect("one write fills a segment"),
            builder.last_seq(),
        )
    }

    #[test]
    fn zero_subscriber_fan_out_is_valid_and_still_archives() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, receivers) = LogShipper::fan_out(0, 4);
        assert!(receivers.is_empty());
        assert_eq!(tx.replica_count(), 0);
        let tx = tx.with_archive(Arc::clone(&archive));
        // Nobody is listening, but the segment is still "on the wire": the
        // watermark and archive advance so a later joiner can backfill it.
        let (seg1, next) = contiguous_segment(1, SeqNo::ZERO);
        tx.ship(seg1);
        // A member joining now starts above whatever the wire thread has
        // announced, and backfills exactly that from the archive; the rest
        // arrives live. Either way it sees both positions once.
        let sub = tx.subscribe(4).unwrap();
        let backfill = archive.replay_from(SeqNo::ZERO).unwrap();
        let (seg2, _) = contiguous_segment(2, next);
        tx.ship(seg2);
        tx.close();
        assert_eq!(tx.failure(), None);
        assert_eq!(archive.last_seq(), SeqNo(2));
        let seen: Vec<u64> = backfill
            .iter()
            .filter(|s| s.covered_through() <= sub.starts_after)
            .chain(&sub.receiver.drain())
            .flat_map(|s| s.records.iter().map(|r| r.seq.as_u64()))
            .collect();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn unsubscribe_detaches_without_disturbing_peers() {
        let (tx, _) = LogShipper::fan_out(0, 8);
        let stays = tx.subscribe(8).unwrap();
        let leaves = tx.subscribe(8).unwrap();
        assert_ne!(stays.id, leaves.id);
        tx.ship(segment(1));
        assert!(tx.unsubscribe(leaves.id));
        assert!(!tx.unsubscribe(leaves.id), "already detached");
        assert_eq!(tx.replica_count(), 1);
        tx.ship(segment(2));
        tx.close();
        // The survivor saw everything; the detached member got only the
        // segment shipped while it was subscribed, then end-of-log.
        assert_eq!(stays.receiver.drain().len(), 2);
        assert_eq!(leaves.receiver.drain().len(), 1);
    }

    #[test]
    fn subscribe_after_close_is_a_typed_error() {
        let (tx, _rx) = LogShipper::bounded(4);
        tx.close();
        assert!(matches!(tx.subscribe(4), Err(Error::Shutdown(_))));
        assert!(!tx.unsubscribe(SubscriptionId(0)));
    }

    #[test]
    fn resumed_shipper_reports_the_recovered_watermark() {
        // A shipper resuming over an archive with history must hand joiners
        // a `starts_after` covering that history, not its own lifetime.
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, _rx) = LogShipper::bounded(8);
        let tx = tx.with_archive(Arc::clone(&archive));
        let (seg1, _) = contiguous_segment(1, SeqNo::ZERO);
        tx.ship(seg1);
        tx.close();

        let (resumed, _rx2) = LogShipper::bounded(8);
        let resumed = resumed.with_archive(archive);
        assert_eq!(resumed.shipped_through(), SeqNo(1));
        assert_eq!(resumed.subscribe(4).unwrap().starts_after, SeqNo(1));
    }

    /// `n` one-write segments, contiguous from position 1.
    fn contiguous_log(n: u64) -> Vec<Segment> {
        let mut next = SeqNo::ZERO;
        (1..=n)
            .map(|id| {
                let (segment, after) = contiguous_segment(id, next);
                next = after;
                segment
            })
            .collect()
    }

    fn seqs(segments: &[Segment]) -> Vec<u64> {
        segments
            .iter()
            .flat_map(|s| s.records.iter().map(|r| r.seq.as_u64()))
            .collect()
    }

    #[test]
    fn unarchived_shipper_spawns_no_thread_and_delivers_inline() {
        let (tx, rx) = LogShipper::bounded(4);
        assert!(tx.wire.is_none());
        tx.ship(segment(1));
        // Delivered by the time `ship` returns, on this thread.
        assert_eq!(rx.try_len(), 1);
        assert_eq!(tx.shipped_through(), SeqNo(11));
    }

    #[test]
    fn idle_means_subscribed_drained_and_nothing_in_the_archive_path() {
        // No subscriber: never idle (cut on size).
        let (tx, _) = LogShipper::fan_out(0, 4);
        assert!(!tx.is_idle());
        // Two subscribers: idle only while both queues are empty.
        let (tx, receivers) = LogShipper::fan_out(2, 4);
        assert!(tx.is_idle());
        tx.ship(segment(1));
        assert!(!tx.is_idle());
        receivers[0].recv().unwrap();
        assert!(!tx.is_idle(), "the slower subscriber still holds a segment");
        receivers[1].recv().unwrap();
        assert!(tx.is_idle());
        tx.close();
        assert!(!tx.is_idle(), "a closed wire takes nothing");
    }

    #[test]
    fn archived_wire_is_not_idle_while_an_append_is_queued_or_in_flight() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, rx) = LogShipper::bounded(4);
        let tx = tx.with_archive(Arc::clone(&archive));
        let (entered, release) = tx.park_between_archive_and_watermark();
        assert!(tx.is_idle());
        let mut log = contiguous_log(2).into_iter();
        tx.ship(log.next().unwrap());
        entered.recv().unwrap();
        // In flight: the subscriber's queue is still empty, the wire is not.
        assert_eq!(rx.try_len(), 0);
        assert!(!tx.is_idle());
        // Queued behind it: still not idle.
        tx.ship(log.next().unwrap());
        assert!(!tx.is_idle());
        release.send(()).unwrap();
        entered.recv().unwrap();
        release.send(()).unwrap();
        assert_eq!(seqs(&[rx.recv().unwrap(), rx.recv().unwrap()]), vec![1, 2]);
        tx.close();
    }

    /// Invariant: `shipped_through ≤ archive.last_seq()` at every instant,
    /// and a subscriber attaching inside the "archived, not yet announced"
    /// window — backfilled from `replay_from(cut)` filtered at
    /// `starts_after`, exactly as `FleetController::join` does — sees every
    /// position exactly once.
    #[test]
    fn subscriber_inside_the_archived_not_announced_window_sees_each_position_once() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, _) = LogShipper::fan_out(0, 16);
        let tx = tx.with_archive(Arc::clone(&archive));
        let (entered, release) = tx.park_between_archive_and_watermark();
        let mut joiners = Vec::new();
        for segment in contiguous_log(4) {
            let through = segment.covered_through();
            tx.ship(segment);
            entered.recv().unwrap();
            // Inside the window: the archive is ahead of the watermark.
            assert_eq!(archive.last_seq(), through);
            assert_eq!(tx.shipped_through(), SeqNo(through.as_u64() - 1));
            let sub = tx.subscribe(16).unwrap();
            assert_eq!(sub.starts_after, tx.shipped_through());
            let backfill: Vec<Segment> = (archive.replay_from(SeqNo::ZERO).unwrap())
                .into_iter()
                .filter(|s| s.covered_through() <= sub.starts_after)
                .collect();
            joiners.push((backfill, sub.receiver));
            release.send(()).unwrap();
        }
        tx.close();
        assert_eq!(tx.shipped_through(), SeqNo::ZERO, "closed");
        for (backfill, live) in joiners {
            let mut seen = seqs(&backfill);
            seen.extend(seqs(&live.drain()));
            assert_eq!(seen, vec![1, 2, 3, 4]);
        }
    }

    /// Invariant: `close()` delivers and archives everything handed to
    /// `ship()` before it, and only then ends the log.
    #[test]
    fn close_drains_the_wire_thread_before_end_of_log() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, receivers) = LogShipper::fan_out(2, 64);
        let tx = tx.with_archive(Arc::clone(&archive));
        let log = contiguous_log(40);
        for segment in log.clone() {
            tx.ship(segment);
        }
        tx.close();
        // Nothing is still in flight once `close` has returned.
        assert_eq!(archive.retained_records(), 40);
        assert_eq!(seqs(&archive.replay_from(SeqNo::ZERO).unwrap()), seqs(&log));
        for rx in &receivers {
            assert_eq!(rx.try_len(), 40);
            assert_eq!(seqs(&rx.drain()), seqs(&log));
        }
        // After the close: discarded, not archived, and close is idempotent.
        let (late, _) = contiguous_segment(41, SeqNo(40));
        tx.ship(late);
        tx.close();
        assert_eq!(archive.last_seq(), SeqNo(40));
        assert!(matches!(tx.subscribe(4), Err(Error::Shutdown(_))));
    }

    #[test]
    fn dropping_the_last_handle_closes_an_archived_wire() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, rx) = LogShipper::bounded(8);
        let tx = tx.with_archive(Arc::clone(&archive));
        let tx2 = tx.clone();
        for segment in contiguous_log(3) {
            tx.ship(segment);
        }
        drop(tx);
        drop(tx2);
        assert_eq!(archive.last_seq(), SeqNo(3));
        assert_eq!(seqs(&rx.drain()), vec![1, 2, 3]);
    }

    /// Invariant: at every instant a concurrent sampler observes,
    /// `shipped_through() ≤ archive.last_seq()`.
    #[test]
    fn watermark_never_passes_the_archive_under_a_concurrent_sampler() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, rx) = LogShipper::unbounded();
        let tx = tx.with_archive(Arc::clone(&archive));
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut samples = 0u64;
                while !done.load(Ordering::Acquire) {
                    // Watermark first: both only grow, so reading the
                    // archive second can only help the inequality hold if
                    // it held when the watermark was read.
                    let shipped = tx.shipped_through();
                    let archived = archive.last_seq();
                    assert!(
                        shipped <= archived,
                        "watermark {shipped} announced ahead of the archive at {archived}"
                    );
                    samples += 1;
                }
                samples
            });
            for segment in contiguous_log(2_000) {
                tx.ship(segment);
            }
            // The last segment's arrival means every watermark move has
            // happened; the sampler has run alongside all of them.
            let mut received = 0;
            while received < 2_000 {
                received += rx.recv().unwrap().len();
            }
            done.store(true, Ordering::Release);
            assert!(sampler.join().unwrap() > 0);
        });
        tx.close();
    }

    /// An archive I/O error ends the wire with a typed error and no hang:
    /// no committing thread panics, `close()` returns, and the receiver
    /// drains to a contiguous prefix that the archive also holds.
    #[test]
    fn an_archive_io_failure_fails_the_wire_not_a_thread() {
        use c5_common::fs::FaultyFs;
        let policy = c5_common::DurabilityPolicy::EverySegment;
        let dir = std::env::temp_dir().join(format!("c5-wire-failure-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let write = |t: u64| vec![RowWrite::insert(RowRef::new(0, t), Value::from_u64(t))];
        // How many file-system calls creating the archive and appending the
        // five one-commit segments below make: the sync of the sixth append
        // is the second call after them.
        let probe = Arc::new(FaultyFs::new(0, None));
        let archive = crate::archive::LogArchive::durable_on(probe.clone(), &dir, policy).unwrap();
        for t in 1..=5u64 {
            archive.append(&contiguous_segment(t, SeqNo(t - 1)).0);
        }
        drop(archive);
        std::fs::remove_dir_all(&dir).unwrap();
        let failing = Arc::new(FaultyFs::new(0, Some(probe.calls() + 1)));
        let archive =
            Arc::new(crate::archive::LogArchive::durable_on(failing, &dir, policy).unwrap());
        let obs = Arc::new(c5_obs::Obs::new());
        let (tx, rx) = LogShipper::bounded(64);
        let tx = tx
            .with_obs(Arc::clone(&obs))
            .with_archive(Arc::clone(&archive));
        let logger = Arc::new(crate::logger::StreamingLogger::new(4, tx.clone()));
        // The wire thread archives a segment before it sends it, so each
        // receipt means that commit is on disk — and that the wire is idle,
        // so the next commit ships as a segment of its own.
        let mut delivered = Vec::new();
        for t in 1..=5u64 {
            logger.append(&write(t));
            delivered.push(rx.recv().unwrap());
        }
        // Committers keep committing — far more than the wire queue holds —
        // from several threads; none may panic or hang.
        std::thread::scope(|scope| {
            for c in 1..=4u64 {
                let logger = Arc::clone(&logger);
                scope.spawn(move || {
                    for i in 0..50 {
                        logger.append(&write(c * 100 + i));
                    }
                });
            }
        });
        logger.close();
        assert!(
            matches!(tx.failure(), Some(Error::ArchiveIo { first, .. }) if first > SeqNo(5)),
            "the failure is readable and typed: {:?}",
            tx.failure()
        );
        delivered.extend(rx.drain());
        let on_wire = seqs(&delivered);
        assert_eq!(on_wire, (1..=on_wire.len() as u64).collect::<Vec<_>>());
        assert_eq!(seqs(&archive.replay_from(SeqNo::ZERO).unwrap()), on_wire);
        assert!(matches!(tx.subscribe(4), Err(Error::Shutdown(_))));
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("ship_archive_failures_total"), Some(1));
        // The five appends that succeeded, from the sink alone: one created
        // the chunk, each was one sync, and each grew the log by one frame:
        // an 8-byte frame header and one 41-byte record (a `u64` value).
        assert_eq!(snap.counter("archive_rotations_total"), Some(1));
        assert_eq!(
            snap.histogram("archive_sync_ns").map(|h| h.count()),
            Some(5)
        );
        assert_eq!(snap.counter("archive_bytes_total"), Some(5 * (8 + 41)));
        assert!(obs.trace.merged().iter().any(|r| matches!(
            r.event,
            TraceEvent::Span {
                name: "wire_archive_failed",
                ..
            }
        )));
    }

    /// Spins until `ready`, failing the test after a deadline rather than
    /// hanging it.
    fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
        let deadline = Instant::now() + DEADLINE;
        while !ready() {
            assert!(Instant::now() < deadline, "never reached: {what}");
            std::thread::yield_now();
        }
    }

    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

    /// Commits A onto an idle archived wire, commits B while A's append is
    /// parked, and releases A. Nothing else happens: no receive, append,
    /// flush or close. The wire thread must then cut B itself, on its own
    /// drain edge, and archive and deliver it. Returns the logger once both
    /// segments are queued to `rx`.
    fn the_wire_thread_cuts_what_committed_during_an_append(
        tx: LogShipper,
        archive: &crate::archive::LogArchive,
        rx: &LogReceiver,
    ) -> crate::logger::StreamingLogger {
        let (entered, release) = tx.park_between_archive_and_watermark();
        let logger = crate::logger::StreamingLogger::new(100, tx);
        let write = |k: u64| [RowWrite::insert(RowRef::new(0, k), Value::from_u64(k))];
        logger.append(&write(1));
        entered.recv().unwrap();
        // A is in the archive path, so the wire is busy: B is buffered.
        logger.append(&write(2));
        assert_eq!(archive.last_seq(), SeqNo(1));
        release.send(()).unwrap();
        (entered.recv_timeout(DEADLINE)).expect("the wire thread cut B after delivering A");
        assert_eq!(archive.last_seq(), SeqNo(2));
        release.send(()).unwrap();
        wait_for("A and B delivered", || rx.try_len() == 2);
        logger
    }

    /// The wire thread's drain edge: a commit held back while the archive
    /// append of the one before it was in flight is cut by the wire thread
    /// as soon as that append returns, archived, then delivered.
    #[test]
    fn an_archived_wire_archives_and_delivers_the_tail_its_drain_ships() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, rx) = LogShipper::bounded(4);
        let tx = tx.with_archive(Arc::clone(&archive));
        let logger = the_wire_thread_cuts_what_committed_during_an_append(tx, &archive, &rx);
        assert_eq!(seqs(&rx.drain_available()), vec![1, 2]);
        logger.close();
        assert!(rx.drain().is_empty());
        assert_eq!(seqs(&archive.replay_from(SeqNo::ZERO).unwrap()), vec![1, 2]);
    }

    /// An archived wire's idle rule looks at the archive path only: a
    /// subscriber's backlog waits in its own channel, behind nothing the
    /// wire does, and the wire thread's drain edge follows every delivery.
    #[test]
    fn an_archived_wire_is_idle_while_a_subscriber_still_holds_a_segment() {
        let empty = LogShipper::fan_out(0, 4).0;
        let empty = empty.with_archive(Arc::new(crate::archive::LogArchive::new()));
        assert!(!empty.is_idle(), "no subscriber: cut on size");
        let (tx, receivers) = LogShipper::fan_out(2, 4);
        let tx = tx.with_archive(Arc::new(crate::archive::LogArchive::new()));
        tx.ship(contiguous_segment(1, SeqNo::ZERO).0);
        wait_for("delivered to both", || {
            receivers.iter().all(|rx| rx.try_len() == 1)
        });
        assert!(tx.is_idle(), "both subscribers still hold the segment");
        tx.close();
        assert!(!tx.is_idle(), "a closed wire takes nothing");
    }

    /// The wire thread's drain edge holds the logger it upgraded. If every
    /// other handle goes meanwhile, the wire thread drops the last logger,
    /// and with it the last wire handle: the wire must still end, cleanly.
    #[test]
    fn the_wire_ends_when_its_drain_edge_drops_the_last_logger() {
        let (tx, rx) = LogShipper::bounded(4);
        let tx = tx.with_archive(Arc::new(crate::archive::LogArchive::new()));
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel();
        let wire = tx.wire.as_ref().expect("an archived shipper");
        *wire.state.in_drain_edge.lock() = Some(Box::new(move || {
            let _ = entered_tx.send(());
            let _ = released.recv();
        }));
        // Held to tell a clean end from a panic: a wire thread that ends
        // takes the registry (and so ends the log); one that panics leaves
        // it, and the subscriber never sees end-of-log.
        let registry = Arc::clone(&tx.registry);
        let logger = crate::logger::StreamingLogger::new(100, tx);
        let write = [RowWrite::insert(RowRef::new(0, 1), Value::from_u64(1))];
        logger.append(&write);
        (entered.recv_timeout(DEADLINE)).expect("the wire thread's drain edge");
        drop(logger);
        release.send(()).unwrap();
        // Not scoped: on a hang the test fails at its deadline and leaves
        // the drainer parked, rather than joining it forever.
        let (done, drained) = std::sync::mpsc::channel();
        let drainer = std::thread::spawn(move || {
            let _ = done.send(rx.drain());
        });
        let delivered = (drained.recv_timeout(DEADLINE)).expect("the wire ended");
        drainer.join().unwrap();
        assert_eq!(seqs(&delivered), vec![1]);
        assert!(registry.lock().is_none());
    }

    #[test]
    fn the_sink_counts_the_segments_the_drain_edge_cut() {
        let obs = Arc::new(c5_obs::Obs::new());
        let (tx, rx) = LogShipper::bounded(4);
        let logger = crate::logger::StreamingLogger::new(100, tx.with_obs(Arc::clone(&obs)));
        let write = |k: u64| [RowWrite::insert(RowRef::new(0, k), Value::from_u64(k))];
        logger.append(&write(1)); // idle: cut on append
        logger.append(&write(2)); // busy: buffered
        rx.recv().unwrap(); // drained: cut on drain
        rx.recv().unwrap();
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("ship_partial_segments_total"), Some(2));
        assert_eq!(snap.counter("ship_drain_tails_total"), Some(1));
        logger.close();
    }

    /// A received segment says whether anything was queued behind it, asked
    /// after the drain edge: a tail the edge shipped counts. A segment built
    /// any other way says nothing was received.
    #[test]
    fn a_received_segment_says_whether_anything_is_queued_behind_it() {
        assert!(!segment(1).nothing_queued_behind(), "built, not received");
        let (tx, rx) = LogShipper::unbounded();
        tx.ship(segment(1));
        tx.ship(segment(2));
        let first = rx.recv().unwrap();
        assert!(!first.nothing_queued_behind(), "segment 2 is behind it");
        let last = rx.try_recv().unwrap();
        assert!(last.nothing_queued_behind());
        assert!(last.clone().nothing_queued_behind(), "a clone keeps it");

        let (tx, rx) = LogShipper::unbounded();
        let logger = crate::logger::StreamingLogger::new(100, tx);
        let write = |k: u64| [RowWrite::insert(RowRef::new(0, k), Value::from_u64(k))];
        logger.append(&write(1)); // idle: cut on append
        logger.append(&write(2)); // busy: buffered
        let first = rx.recv().unwrap();
        assert!(
            !first.nothing_queued_behind(),
            "the drain edge shipped the buffered commit behind it"
        );
        let tail = rx.recv().unwrap();
        assert!(tail.nothing_queued_behind());
        assert_eq!(seqs(&[first, tail]), vec![1, 2]);
        logger.close();
    }

    #[test]
    fn the_sink_counts_the_segments_the_wire_threads_drain_edge_cut() {
        let obs = Arc::new(c5_obs::Obs::new());
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, rx) = LogShipper::bounded(4);
        let tx = (tx.with_obs(Arc::clone(&obs))).with_archive(Arc::clone(&archive));
        let logger = the_wire_thread_cuts_what_committed_during_an_append(tx, &archive, &rx);
        let snap = obs.metrics.snapshot();
        // A was cut on append, B by the wire thread.
        assert_eq!(snap.counter("ship_partial_segments_total"), Some(2));
        assert_eq!(snap.counter("ship_drain_tails_total"), Some(1));
        logger.close();
    }

    /// A wire thread that cannot be started fails the wire, as an archive
    /// I/O failure does: a typed error, end-of-log, and ships discarded.
    #[test]
    fn a_wire_thread_that_cannot_start_fails_the_wire_not_the_caller() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, rx) = LogShipper::bounded(4);
        let tx = tx.attach_wire(Arc::clone(&archive), |_| {
            Err(std::io::Error::other("no threads left"))
        });
        assert!(
            matches!(
                tx.failure(),
                Some(Error::ThreadSpawn {
                    thread: "c5-wire",
                    ..
                })
            ),
            "{:?}",
            tx.failure()
        );
        assert!(rx.recv().is_none(), "subscribers see end-of-log");
        let logger = crate::logger::StreamingLogger::new(1, tx.clone());
        logger.append(&[RowWrite::insert(RowRef::new(0, 1), Value::from_u64(1))]);
        logger.close();
        assert_eq!(archive.last_seq(), SeqNo::ZERO, "nothing archived");
        assert!(matches!(tx.subscribe(4), Err(Error::Shutdown(_))));
    }

    #[test]
    fn attached_obs_traces_each_ship_with_fanout_width() {
        let obs = Arc::new(c5_obs::Obs::new());
        let (tx, receivers) = LogShipper::fan_out(2, 8);
        let tx = tx.with_obs(Arc::clone(&obs));
        tx.ship(segment(3));
        tx.close();
        // Shipping into a closed shipper is still traced — with zero
        // subscribers, because nothing went on the wire.
        tx.ship(segment(4));
        drop(receivers);

        let timeline = obs.trace.merged();
        let ships: Vec<_> = timeline
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Ship {
                    records,
                    subscribers,
                    ..
                } => Some((records, subscribers)),
                _ => None,
            })
            .collect();
        assert_eq!(ships, vec![(1, 2), (1, 0)]);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("ship_segments_total"), Some(2));
        assert_eq!(snap.counter("ship_records_total"), Some(2));
        assert_eq!(snap.histogram("ship_ns").map(|h| h.count()), Some(2));
    }

    #[test]
    fn attached_archive_records_exactly_the_wire() {
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (tx, rx) = LogShipper::bounded(8);
        let tx = tx.with_archive(Arc::clone(&archive));
        let (first, next) = contiguous_segment(1, SeqNo::ZERO);
        tx.ship(first);
        tx.close();
        // A segment shipped after close never reached the wire, so the
        // archive must not retain it either.
        tx.ship(contiguous_segment(2, next).0);

        assert_eq!(rx.drain().len(), 1);
        assert_eq!(archive.retained_records(), 1);
        assert_eq!(archive.last_seq(), SeqNo(1));
    }
}
