//! Online fleet membership: live replica join and retire.
//!
//! The paper assumes a fixed fleet wired at startup — Section 2.1's "one
//! primary serving many read replicas" never changes shape mid-run. This
//! module adds the elastic-membership layer on top of the primitives the
//! paper's cheap-failover design already provides: a joiner bootstraps from
//! a **live checkpoint** exported by a serving member (Section 6's
//! consistent-cut capture), closes the gap from the **log archive**, and
//! rides the **live stream** from there; a retiree drains its pinned reads
//! and detaches without disturbing its peers.
//!
//! The correctness hinge is the **gap-closure invariant**: the joiner
//! subscribes to the live stream *before* the archive replay finishes.
//! [`c5_log::LogShipper::subscribe`] returns `starts_after` — the coverage
//! watermark, read under the same lock the wire thread advances it and
//! snapshots the members under, and advanced only *after* the archive holds
//! the segment — so the archive is guaranteed to hold every record at or
//! below `starts_after`, the channel delivers every record above it, and no
//! sequence number falls between the two. The archive can be *ahead* of
//! `starts_after`, in two ways: segments it gained after the subscription,
//! and the one segment the wire thread had archived but not yet announced
//! when the subscription was taken. Both also arrive live (the member
//! snapshot that delivers them is taken after the subscription), so the
//! replay applies exactly the archived segments covered at or below
//! `starts_after` and skips the rest — `starts_after` is always a shipped
//! segment's coverage boundary, so the filter never splits one. The driver
//! thread applies the stream, and once the joiner's exposed cut reaches
//! `max(checkpoint cut, starts_after)` it is provably a prefix-complete
//! clone and flips to `Serving`.
//!
//! The lifecycle of a member is an explicit state machine
//! ([`ReplicaLifecycle`]): `Bootstrapping → CatchingUp → Serving →
//! Draining → Retired`, with a kill edge from any live state straight to
//! `Retired`. The [`FleetController`] drives both protocols end to end and
//! talks to the read-routing layer through [`FleetRoutingSink`] — defined
//! here (rather than in `c5-read`, which implements it on its `ReadRouter`)
//! because the dependency points the other way.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use c5_common::{Error, ReplicaConfig, Result, SeqNo};
use c5_log::{LogArchive, LogShipper, Subscription, SubscriptionId, SUBSCRIPTION_SEGMENTS};
use c5_obs::TraceEvent;
use c5_storage::MvStore;

use crate::replica::{
    drive_from_receiver, C5Mode, C5Replica, ClonedConcurrencyControl, FLEET_PROGRESS,
};

/// How long a joiner may take to catch up to its subscription point before
/// the join fails.
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a retire waits for pinned reads to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Where a fleet member is in its life: the only legal transitions are the
/// forward edges `Bootstrapping → CatchingUp → Serving → Draining →
/// Retired`, plus a kill edge from any live state straight to `Retired`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaLifecycle {
    /// Installing its starting state (a checkpoint or a seed store); not
    /// yet applying the log.
    Bootstrapping,
    /// Applying the archived gap and the live stream; not yet serving.
    CatchingUp,
    /// A full fleet member: serving reads, counted by freshness math.
    Serving,
    /// Mid-retire: no new reads are routed here, pinned reads finish.
    Draining,
    /// Detached from the fleet; terminal.
    Retired,
}

impl ReplicaLifecycle {
    /// Short state name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaLifecycle::Bootstrapping => "bootstrapping",
            ReplicaLifecycle::CatchingUp => "catching-up",
            ReplicaLifecycle::Serving => "serving",
            ReplicaLifecycle::Draining => "draining",
            ReplicaLifecycle::Retired => "retired",
        }
    }

    /// Whether the `self → next` edge is legal.
    pub fn can_advance_to(self, next: ReplicaLifecycle) -> bool {
        use ReplicaLifecycle::*;
        matches!(
            (self, next),
            (Bootstrapping, CatchingUp) | (CatchingUp, Serving) | (Serving, Draining)
        ) || (next == Retired && self != Retired)
    }

    /// Takes the `self → next` edge, or fails with [`Error::Lifecycle`] if
    /// the edge does not exist.
    pub fn advance(self, next: ReplicaLifecycle) -> Result<ReplicaLifecycle> {
        if self.can_advance_to(next) {
            Ok(next)
        } else {
            Err(Error::Lifecycle(format!(
                "illegal lifecycle transition {} -> {}",
                self.name(),
                next.name()
            )))
        }
    }
}

impl std::fmt::Display for ReplicaLifecycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The routing side of online membership, implemented by `c5-read`'s
/// `ReadRouter` (and by test stubs). The contract mirrors the router's
/// inherent methods: `admit` returns a stable member id, `retire` stops new
/// routes while pinned reads finish, `in_flight_of` is the drain barometer
/// (`None` once detached), `detach` removes the member and hands its
/// replica back.
pub trait FleetRoutingSink: Send + Sync {
    /// Adds a member; returns its stable routing id.
    fn admit(&self, replica: Arc<dyn ClonedConcurrencyControl>) -> usize;
    /// Marks a member draining: no new routes, pinned reads finish.
    fn retire(&self, replica: usize) -> Result<()>;
    /// Removes a member and returns its replica handle.
    fn detach(&self, replica: usize) -> Result<Arc<dyn ClonedConcurrencyControl>>;
    /// Reads currently pinned to a member (`None` once detached). A sink
    /// whose draining member's count reaches zero notifies
    /// [`FLEET_PROGRESS`], which the retire drain sleeps on.
    fn in_flight_of(&self, replica: usize) -> Option<u64>;
}

/// One controller-managed fleet member, keyed by its routing id.
struct Member {
    replica: Arc<C5Replica>,
    subscription: SubscriptionId,
    state: ReplicaLifecycle,
    /// The thread pumping the live stream into the replica; joined on
    /// retire/kill/finish ([`drive_from_receiver`] drains the closing
    /// channel, then finishes the replica).
    driver: Option<JoinHandle<Duration>>,
}

/// What an online join did, and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct JoinReport {
    /// The new member's routing id.
    pub replica: usize,
    /// The transaction-aligned cut the joiner's starting state covers
    /// (`SeqNo::ZERO` for a seeded join).
    pub checkpoint_cut: SeqNo,
    /// The watermark the live stream starts above
    /// ([`Subscription::starts_after`]); the archive replay covered
    /// `(checkpoint_cut, stream_start]`.
    pub stream_start: SeqNo,
    /// Log records applied from the archive to close the gap.
    pub replayed_records: u64,
    /// Wall-clock time from the join request until the member was
    /// `Serving` (checkpoint export + install + replay + catch-up).
    pub join_to_serving: Duration,
}

/// What an online retire did, and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct RetireReport {
    /// The retired member's routing id.
    pub replica: usize,
    /// Wall-clock time from the retire request until the member was
    /// detached with its pinned reads drained and its driver stopped.
    pub drain: Duration,
    /// The member's exposed cut at retirement.
    pub retired_exposed: SeqNo,
}

/// Drives online join and retire against one shipper/archive pair and one
/// routing sink. Owns the driver thread of every member it admits.
pub struct FleetController {
    shipper: LogShipper,
    archive: Arc<LogArchive>,
    router: Arc<dyn FleetRoutingSink>,
    mode: C5Mode,
    config: ReplicaConfig,
    /// [`DRAIN_TIMEOUT`]; a field so tests can shorten it.
    drain_timeout: Duration,
    members: Mutex<HashMap<usize, Member>>,
}

impl FleetController {
    /// Creates a controller joining replicas of `mode`/`config` onto
    /// `shipper`'s stream, backfilling from `archive` (which must be the
    /// archive attached to that shipper — the gap-closure invariant is
    /// theirs jointly), and publishing membership to `router`.
    pub fn new(
        shipper: LogShipper,
        archive: Arc<LogArchive>,
        router: Arc<dyn FleetRoutingSink>,
        mode: C5Mode,
        config: ReplicaConfig,
    ) -> Self {
        Self {
            shipper,
            archive,
            router,
            mode,
            config,
            drain_timeout: DRAIN_TIMEOUT,
            members: Mutex::new(HashMap::new()),
        }
    }

    /// Records one lifecycle transition into the configured observability
    /// sink (trace event plus a transition counter).
    fn trace_transition(&self, replica: usize, from: ReplicaLifecycle, to: ReplicaLifecycle) {
        self.config.obs.trace.record(TraceEvent::Lifecycle {
            replica: replica as u64,
            from: from.name(),
            to: to.name(),
        });
        self.config
            .obs
            .metrics
            .counter(&format!("fleet_transitions_total{{to=\"{}\"}}", to.name()))
            .inc();
    }

    /// Publishes the current `Serving` head-count as a gauge.
    fn publish_serving_gauge(&self) {
        self.config
            .obs
            .metrics
            .gauge("fleet_serving")
            .set(self.serving_count() as i64);
    }

    /// Joins a brand-new replica into the live fleet: exports a checkpoint
    /// from the freshest `Serving` member, installs it, subscribes to the
    /// live stream, replays the archived gap, waits until the joiner's
    /// exposed cut reaches the subscription point, then flips it to
    /// `Serving` and admits it to the router. Fails with
    /// [`Error::Lifecycle`] when no member is `Serving` (seed the fleet
    /// with [`FleetController::join_seeded`] first).
    pub fn join(&self) -> Result<JoinReport> {
        let started = Instant::now();
        let source = {
            let members = self.members.lock();
            members
                .values()
                .filter(|m| m.state == ReplicaLifecycle::Serving)
                .max_by_key(|m| m.replica.exposed_seq())
                .map(|m| Arc::clone(&m.replica))
        };
        let Some(source) = source else {
            return Err(Error::Lifecycle(
                "no serving member to export a checkpoint from; seed the fleet with \
                 join_seeded"
                    .into(),
            ));
        };
        // Export while the source keeps serving: the cut is pinned through
        // a read view, applies continue concurrently (Section 6).
        let checkpoint = source.checkpoint();
        let cut = checkpoint.cut();
        // Subscribe BEFORE the replay: everything at or below
        // `starts_after` is already archived, everything above it arrives
        // on this channel — the replay below closes exactly the gap.
        let subscription = self.shipper.subscribe(SUBSCRIPTION_SEGMENTS)?;
        let replica =
            C5Replica::resume_from_checkpoint(self.mode, &checkpoint, self.config.clone());
        self.catch_up_and_admit(replica, subscription, cut, started)
    }

    /// Seeds the fleet with a member bootstrapping from `store` (the
    /// initial population, installed at `Timestamp::ZERO`) instead of a
    /// checkpoint: the whole archived log is its gap. How the first
    /// members get in before anyone is `Serving`.
    pub fn join_seeded(&self, store: Arc<MvStore>) -> Result<JoinReport> {
        let started = Instant::now();
        let subscription = self.shipper.subscribe(SUBSCRIPTION_SEGMENTS)?;
        let replica = C5Replica::new(self.mode, store, self.config.clone());
        self.catch_up_and_admit(replica, subscription, SeqNo::ZERO, started)
    }

    /// The shared back half of both join flavours: `Bootstrapping` is done
    /// (starting state installed, subscription taken), so replay the
    /// archived gap, pump the live stream, wait for catch-up, admit.
    fn catch_up_and_admit(
        &self,
        replica: Arc<C5Replica>,
        subscription: Subscription,
        cut: SeqNo,
        started: Instant,
    ) -> Result<JoinReport> {
        let mut state = ReplicaLifecycle::Bootstrapping.advance(ReplicaLifecycle::CatchingUp)?;
        let stream_start = subscription.starts_after;
        // Replay exactly the archived segments the live stream will not
        // deliver. The archive may be past `starts_after` — it grew since
        // the subscription, or the wire thread had archived a segment it
        // had not announced yet; those segments arrive on the channel and
        // are filtered out here so nothing applies twice. `starts_after` is
        // always a shipped-segment coverage boundary, so the filter never
        // splits a segment.
        let mut replayed_records = 0u64;
        for segment in self.archive.replay_from(cut)? {
            if segment.covered_through() > stream_start {
                continue;
            }
            replayed_records += segment.len() as u64;
            replica.apply_segment(segment);
        }
        let driver = {
            let replica = Arc::clone(&replica);
            let receiver = subscription.receiver;
            std::thread::spawn(move || drive_from_receiver(replica.as_ref(), receiver))
        };
        // Caught up = exposed covers both the starting state and the
        // subscription point: from here the live stream alone keeps the
        // member a prefix-complete clone.
        let target = cut.max(stream_start);
        if !replica.wait_until_exposed(target, CATCH_UP_TIMEOUT) {
            self.shipper.unsubscribe(subscription.id);
            let _ = driver.join();
            return Err(Error::Lifecycle(format!(
                "joiner never caught up to {target} within {CATCH_UP_TIMEOUT:?} (exposed {})",
                replica.exposed_seq()
            )));
        }
        state = state.advance(ReplicaLifecycle::Serving)?;
        let id = self
            .router
            .admit(Arc::clone(&replica) as Arc<dyn ClonedConcurrencyControl>);
        self.members.lock().insert(
            id,
            Member {
                replica,
                subscription: subscription.id,
                state,
                driver: Some(driver),
            },
        );
        // The routing id only exists once the router admits the member, so
        // the join's earlier transitions are traced here, in order; their
        // wall time is the join duration histogram's business.
        self.trace_transition(
            id,
            ReplicaLifecycle::Bootstrapping,
            ReplicaLifecycle::CatchingUp,
        );
        self.trace_transition(id, ReplicaLifecycle::CatchingUp, ReplicaLifecycle::Serving);
        self.config
            .obs
            .metrics
            .histogram("fleet_join_to_serving_ns")
            .record_duration(started.elapsed());
        self.publish_serving_gauge();
        Ok(JoinReport {
            replica: id,
            checkpoint_cut: cut,
            stream_start,
            replayed_records,
            join_to_serving: started.elapsed(),
        })
    }

    /// Retires a member online: flips it to `Draining` (the router stops
    /// routing new reads to it), waits for its pinned reads to drain,
    /// detaches it from the router and the stream, joins its driver (which
    /// drains the closing channel and finishes the replica), and marks it
    /// `Retired`. On a drain timeout the member is left `Draining` — still
    /// finishing its pinned reads, receiving no new ones — and the call
    /// can be retried: a retry skips the `Serving → Draining` edge the
    /// first call took and waits for the drain again.
    pub fn retire(&self, id: usize) -> Result<RetireReport> {
        let started = Instant::now();
        let retrying = {
            let mut members = self.members.lock();
            let member = members.get_mut(&id).ok_or_else(|| {
                Error::Lifecycle(format!("replica {id} is not a controller-managed member"))
            })?;
            let retrying = member.state == ReplicaLifecycle::Draining;
            if !retrying {
                member.state = member.state.advance(ReplicaLifecycle::Draining)?;
            }
            retrying
        };
        if !retrying {
            self.trace_transition(id, ReplicaLifecycle::Serving, ReplicaLifecycle::Draining);
            self.publish_serving_gauge();
        }
        self.router.retire(id)?;
        // Wait outside the members lock: pinned reads completing must not
        // contend with concurrent joins. The lease that takes a draining
        // member's in-flight count to zero notifies `FLEET_PROGRESS`.
        let deadline = Instant::now() + self.drain_timeout;
        let drained =
            FLEET_PROGRESS.wait_until(Some(deadline), || self.router.in_flight_of(id) == Some(0));
        if !drained {
            return Err(Error::Lifecycle(format!(
                "replica {id} still has reads in flight after {:?}; retry the retire",
                self.drain_timeout
            )));
        }
        self.router.detach(id)?;
        let (subscription, driver) = {
            let mut members = self.members.lock();
            let member = members.get_mut(&id).expect("member checked above");
            (member.subscription, member.driver.take())
        };
        self.shipper.unsubscribe(subscription);
        // The unsubscribe dropped the member's sender: the driver drains
        // whatever was already queued, then finishes the replica. Joined
        // outside the lock — it can take as long as the backlog is deep.
        if let Some(driver) = driver {
            let _ = driver.join();
        }
        let mut members = self.members.lock();
        let member = members.get_mut(&id).expect("member checked above");
        member.state = member.state.advance(ReplicaLifecycle::Retired)?;
        let retired_exposed = member.replica.exposed_seq();
        drop(members);
        self.trace_transition(id, ReplicaLifecycle::Draining, ReplicaLifecycle::Retired);
        self.config
            .obs
            .metrics
            .histogram("fleet_retire_drain_ns")
            .record_duration(started.elapsed());
        Ok(RetireReport {
            replica: id,
            drain: started.elapsed(),
            retired_exposed,
        })
    }

    /// Kills a member: immediate detach from router and stream from any
    /// live state, no drain (pinned reads still finish safely — their
    /// leases keep the replica alive — but the fleet stops counting them).
    /// Returns the replica for post-mortem inspection.
    pub fn kill(&self, id: usize) -> Result<Arc<C5Replica>> {
        {
            let mut members = self.members.lock();
            let member = members.get_mut(&id).ok_or_else(|| {
                Error::Lifecycle(format!("replica {id} is not a controller-managed member"))
            })?;
            let from = member.state;
            member.state = member.state.advance(ReplicaLifecycle::Retired)?;
            drop(members);
            self.trace_transition(id, from, ReplicaLifecycle::Retired);
            self.publish_serving_gauge();
        }
        let _ = self.router.detach(id)?;
        let (subscription, driver, replica) = {
            let mut members = self.members.lock();
            let member = members.get_mut(&id).expect("member checked above");
            (
                member.subscription,
                member.driver.take(),
                Arc::clone(&member.replica),
            )
        };
        self.shipper.unsubscribe(subscription);
        if let Some(driver) = driver {
            let _ = driver.join();
        }
        Ok(replica)
    }

    /// Joins every remaining member's driver thread. Call after the log is
    /// closed (the channels end, the drivers finish their replicas): the
    /// end-of-run drain.
    pub fn finish(&self) {
        let drivers: Vec<JoinHandle<Duration>> = {
            let mut members = self.members.lock();
            members
                .values_mut()
                .filter_map(|m| m.driver.take())
                .collect()
        };
        for driver in drivers {
            let _ = driver.join();
        }
    }

    /// The member's replica handle, if it is controller-managed.
    pub fn replica(&self, id: usize) -> Option<Arc<C5Replica>> {
        self.members.lock().get(&id).map(|m| Arc::clone(&m.replica))
    }

    /// The member's lifecycle state, if it is controller-managed.
    pub fn lifecycle(&self, id: usize) -> Option<ReplicaLifecycle> {
        self.members.lock().get(&id).map(|m| m.state)
    }

    /// Every managed member and its state, sorted by routing id.
    pub fn members(&self) -> Vec<(usize, ReplicaLifecycle)> {
        let mut out: Vec<(usize, ReplicaLifecycle)> = self
            .members
            .lock()
            .iter()
            .map(|(&id, m)| (id, m.state))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// How many members are currently `Serving`.
    pub fn serving_count(&self) -> usize {
        self.members
            .lock()
            .values()
            .filter(|m| m.state == ReplicaLifecycle::Serving)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, RowWrite, Timestamp, TxnId, Value};
    use c5_log::{explode_txn, Segment, TxnEntry};

    #[test]
    fn lifecycle_edges() {
        use ReplicaLifecycle::*;
        let joined = Bootstrapping
            .advance(CatchingUp)
            .and_then(|s| s.advance(Serving))
            .and_then(|s| s.advance(Draining))
            .and_then(|s| s.advance(Retired))
            .unwrap();
        assert_eq!(joined, Retired);
        // The kill edge: any live state goes straight to Retired.
        for live in [Bootstrapping, CatchingUp, Serving, Draining] {
            assert_eq!(live.advance(Retired).unwrap(), Retired);
        }
        // No skipping forward, no going back, no leaving Retired.
        assert!(Bootstrapping.advance(Serving).is_err());
        assert!(Serving.advance(CatchingUp).is_err());
        assert!(Retired.advance(Serving).is_err());
        assert!(matches!(Retired.advance(Retired), Err(Error::Lifecycle(_))));
    }

    /// A minimal routing sink: a map of members, each with `pinned`
    /// in-flight reads (zero unless a test pins some).
    #[derive(Default)]
    struct StubSink {
        state: Mutex<StubState>,
    }

    #[derive(Default)]
    struct StubState {
        next: usize,
        members: HashMap<usize, Arc<dyn ClonedConcurrencyControl>>,
        pinned: u64,
    }

    impl FleetRoutingSink for StubSink {
        fn admit(&self, replica: Arc<dyn ClonedConcurrencyControl>) -> usize {
            let mut state = self.state.lock();
            let id = state.next;
            state.next += 1;
            state.members.insert(id, replica);
            id
        }

        fn retire(&self, replica: usize) -> Result<()> {
            if self.state.lock().members.contains_key(&replica) {
                Ok(())
            } else {
                Err(Error::Lifecycle(format!("no member {replica}")))
            }
        }

        fn detach(&self, replica: usize) -> Result<Arc<dyn ClonedConcurrencyControl>> {
            self.state
                .lock()
                .members
                .remove(&replica)
                .ok_or_else(|| Error::Lifecycle(format!("no member {replica}")))
        }

        fn in_flight_of(&self, replica: usize) -> Option<u64> {
            let state = self.state.lock();
            state.members.contains_key(&replica).then_some(state.pinned)
        }
    }

    fn segment_at(id: u64, start: SeqNo) -> (Segment, SeqNo) {
        let entry = TxnEntry::new(
            TxnId(id),
            Timestamp(id),
            vec![RowWrite::insert(
                RowRef::new(0, id),
                Value::from_u64(id * 100),
            )],
        );
        let (records, next) = explode_txn(entry, start);
        (Segment::new(id, records), next)
    }

    fn controller_over(
        shipper: &LogShipper,
        archive: &Arc<LogArchive>,
        sink: Arc<StubSink>,
    ) -> FleetController {
        FleetController::new(
            shipper.clone(),
            Arc::clone(archive),
            sink,
            C5Mode::Faithful,
            ReplicaConfig::default()
                .with_workers(2)
                .with_snapshot_interval(Duration::from_micros(200)),
        )
    }

    #[test]
    fn seeded_join_replays_the_archive_then_rides_the_stream() {
        let archive = Arc::new(LogArchive::new());
        let (shipper, _) = LogShipper::fan_out(0, 16);
        let shipper = shipper.with_archive(Arc::clone(&archive));
        let controller = controller_over(&shipper, &archive, Arc::default());

        // History shipped before anyone joined: archive-only. The wire
        // thread announces a segment before it sends it, so the probe's
        // receipt means the watermark covers it.
        let probe = shipper.subscribe(16).unwrap();
        let (seg1, next) = segment_at(1, SeqNo::ZERO);
        shipper.ship(seg1);
        probe
            .receiver
            .recv()
            .expect("the wire delivers the segment");
        assert!(shipper.unsubscribe(probe.id));

        let report = controller
            .join_seeded(Arc::new(MvStore::default()))
            .unwrap();
        assert_eq!(report.checkpoint_cut, SeqNo::ZERO);
        assert_eq!(report.stream_start, SeqNo(1));
        assert_eq!(report.replayed_records, 1);
        assert_eq!(
            controller.lifecycle(report.replica),
            Some(ReplicaLifecycle::Serving)
        );

        // Live traffic after the join arrives on the stream.
        let (seg2, _) = segment_at(2, next);
        shipper.ship(seg2);
        let member = controller.replica(report.replica).unwrap();
        assert!(member.wait_until_exposed(SeqNo(2), Duration::from_secs(10)));

        shipper.close();
        controller.finish();
        assert_eq!(member.exposed_seq(), SeqNo(2));
    }

    #[test]
    fn online_join_from_a_serving_member_and_online_retire() {
        let archive = Arc::new(LogArchive::new());
        let (shipper, _) = LogShipper::fan_out(0, 16);
        let shipper = shipper.with_archive(Arc::clone(&archive));
        let controller = controller_over(&shipper, &archive, Arc::default());

        // A join with nobody serving is a typed error.
        assert!(matches!(controller.join(), Err(Error::Lifecycle(_))));

        let seed = controller
            .join_seeded(Arc::new(MvStore::default()))
            .unwrap();
        let mut next = SeqNo::ZERO;
        for id in 1..=4 {
            let (seg, n) = segment_at(id, next);
            next = n;
            shipper.ship(seg);
        }
        let seed_replica = controller.replica(seed.replica).unwrap();
        assert!(seed_replica.wait_until_exposed(SeqNo(4), Duration::from_secs(10)));

        // Online join: checkpoint from the seed, gap from the archive,
        // tail from the stream.
        let joined = controller.join().unwrap();
        assert!(joined.checkpoint_cut <= joined.stream_start);
        assert_eq!(controller.serving_count(), 2);
        let joiner = controller.replica(joined.replica).unwrap();
        assert!(joiner.exposed_seq() >= joined.checkpoint_cut.max(joined.stream_start));

        // Traffic under the new shape reaches both members.
        let (seg5, _) = segment_at(5, next);
        shipper.ship(seg5);
        assert!(joiner.wait_until_exposed(SeqNo(5), Duration::from_secs(10)));
        assert!(seed_replica.wait_until_exposed(SeqNo(5), Duration::from_secs(10)));

        // Retire the seed: drained (stub has no reads), detached, Retired.
        let retired = controller.retire(seed.replica).unwrap();
        assert_eq!(retired.replica, seed.replica);
        assert_eq!(retired.retired_exposed, SeqNo(5));
        assert_eq!(
            controller.lifecycle(seed.replica),
            Some(ReplicaLifecycle::Retired)
        );
        assert_eq!(controller.serving_count(), 1);
        // Retiring twice is a lifecycle error, not a hang.
        assert!(matches!(
            controller.retire(seed.replica),
            Err(Error::Lifecycle(_))
        ));

        // The survivor still rides the stream; both stores converge over
        // the full history.
        shipper.close();
        controller.finish();
        assert_eq!(joiner.exposed_seq(), SeqNo(5));
        let survivor_rows = joiner.read_view().scan_all();
        let retired_rows = seed_replica.read_view().scan_all();
        assert_eq!(survivor_rows.len(), 5);
        assert_eq!(retired_rows.len(), 5);

        // A kill on an unknown id is a typed error.
        assert!(matches!(controller.kill(99), Err(Error::Lifecycle(_))));
    }

    #[test]
    fn a_retire_that_timed_out_on_pinned_reads_can_be_retried() {
        let archive = Arc::new(LogArchive::new());
        let (shipper, _) = LogShipper::fan_out(0, 16);
        let shipper = shipper.with_archive(Arc::clone(&archive));
        let sink = Arc::new(StubSink::default());
        let mut controller = controller_over(&shipper, &archive, Arc::clone(&sink));
        controller.drain_timeout = Duration::from_millis(20);
        let member = controller
            .join_seeded(Arc::new(MvStore::default()))
            .unwrap()
            .replica;

        // A pinned read outlives the drain timeout: the member stays
        // Draining, still attached.
        sink.state.lock().pinned = 1;
        assert!(matches!(
            controller.retire(member),
            Err(Error::Lifecycle(_))
        ));
        assert_eq!(
            controller.lifecycle(member),
            Some(ReplicaLifecycle::Draining)
        );
        assert_eq!(controller.serving_count(), 0);

        // Once the read finishes, the retry completes the retire.
        sink.state.lock().pinned = 0;
        let report = controller.retire(member).unwrap();
        assert_eq!(report.replica, member);
        assert_eq!(
            controller.lifecycle(member),
            Some(ReplicaLifecycle::Retired)
        );

        shipper.close();
        controller.finish();
    }
}
