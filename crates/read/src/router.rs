//! Freshness- and load-aware routing of reads across a replica fleet.
//!
//! A [`ReadRouter`] owns handles to N backups (any
//! [`ClonedConcurrencyControl`] — C5 in either mode, a sharded replica, or a
//! baseline) and serves each read from the replica that can satisfy the
//! read's [`ConsistencyClass`] with the least in-flight load. When no
//! replica is fresh enough yet, the read *blocks, bounded*, on
//! [`FLEET_PROGRESS`] — the process-wide signal every exposed cut and every
//! membership change notifies — re-evaluating the whole fleet on each
//! notification, so a read waiting on replica A is served by replica B the
//! moment B's cut covers the requirement (the "wait or re-route" rule). A
//! read that cannot be served within [`c5_common::ReadConfig::max_wait`]
//! fails with [`Error::ReadTimeout`] instead of wedging the client.
//!
//! The freshness estimate is deliberately conservative and observable: a
//! replica whose exposed cut covers the primary's log frontier is fresh
//! (staleness zero); otherwise its staleness is `now` minus the commit wall
//! time of the newest transaction it has exposed
//! ([`ClonedConcurrencyControl::freshness_commit_nanos`]) — everything the
//! primary committed up to that instant is already visible there.
//!
//! Fleet membership is **dynamic**: [`ReadRouter::admit`] attaches a new
//! member mid-run and [`ReadRouter::retire`] begins an online retire — the
//! member stops receiving new routes (and stops counting toward the
//! fleet-freshest staleness reference) but finishes the read transactions
//! already pinned to it; [`ReadRouter::detach`] removes it once drained.
//! The member list and a monotonically increasing *generation* are
//! published atomically (one lock), and every blocked read re-snapshots the
//! fleet on each notification, so a session's monotonic/read-your-writes
//! floors survive membership churn: replica ids are stable (never reused),
//! floors are positions in the one shared log, and whichever member serves
//! next must still cover them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use c5_common::{Error, ReadConfig, Result, SeqNo, SessionId};
use c5_core::fleet::FleetRoutingSink;
use c5_core::replica::{ClonedConcurrencyControl, ReadView, FLEET_PROGRESS};
use c5_log::now_nanos;
use c5_obs::{Obs, RouteOutcome, TraceEvent};

use crate::consistency::{ClassKind, ConsistencyClass};
use crate::metrics::{ClassStats, RouterMetrics};
use crate::session::ReadSession;
use crate::txn::ReadOnlyTxn;

/// A probe for the primary's log frontier: the highest log position assigned
/// so far. [`ConsistencyClass::Strong`] reads require the serving replica's
/// exposed cut to cover the frontier sampled at read start, and the
/// staleness estimator treats a replica at or past the frontier as perfectly
/// fresh. Implemented by any `Fn() -> SeqNo` closure.
pub trait PrimaryFrontier: Send + Sync {
    /// The primary's current log frontier.
    fn frontier(&self) -> SeqNo;
}

impl<F: Fn() -> SeqNo + Send + Sync> PrimaryFrontier for F {
    fn frontier(&self) -> SeqNo {
        self()
    }
}

/// One fleet member and its routing state. Behind an `Arc`: a slot detached
/// from the fleet stays alive for the pinned reads still holding it.
struct ReplicaSlot {
    /// Stable member id, assigned at admission and never reused — a
    /// session's `last_replica` stays meaningful across churn.
    id: usize,
    replica: Arc<dyn ClonedConcurrencyControl>,
    /// Reads (and open read-only transactions) currently pinned here.
    in_flight: AtomicU64,
    /// Reads ever served here (load-balance accounting).
    served: AtomicU64,
    /// A retiring member: no longer eligible for new routes and excluded
    /// from the fleet-freshest staleness reference, but pinned reads finish.
    draining: AtomicBool,
}

impl ReplicaSlot {
    fn new(id: usize, replica: Arc<dyn ClonedConcurrencyControl>) -> Self {
        Self {
            id,
            replica,
            in_flight: AtomicU64::new(0),
            served: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// The member list plus its generation, published atomically: every
/// admit/retire/detach bumps the generation under the same lock that swaps
/// the (copy-on-write) slot vector.
struct Fleet {
    slots: Arc<Vec<Arc<ReplicaSlot>>>,
    generation: u64,
    next_id: usize,
}

/// A point-in-time description of one fleet member, for reports.
#[derive(Debug, Clone)]
pub struct ReplicaStatus {
    /// Stable member id.
    pub replica: usize,
    /// Protocol name.
    pub protocol: &'static str,
    /// The replica's exposed cut.
    pub exposed: SeqNo,
    /// Reads currently pinned to this replica.
    pub in_flight: u64,
    /// Reads ever served by this replica.
    pub served: u64,
    /// Whether the member is mid-retire (no new routes).
    pub draining: bool,
    /// Estimated staleness in milliseconds (`None` = unbounded: the replica
    /// trails the freshness reference and has exposed nothing to estimate
    /// from).
    pub staleness_ms: Option<f64>,
}

/// Routes reads across a fleet of replicas by consistency class, freshness,
/// and in-flight load.
pub struct ReadRouter {
    fleet: Mutex<Fleet>,
    frontier: Option<Box<dyn PrimaryFrontier>>,
    /// Ships the primary log's buffered tail (e.g. `TplEngine::flush_log`).
    /// Called once when a read must block: everything at or below the
    /// read's requirement was assigned before the call, so one flush puts
    /// it on the wire.
    tail_flush: Option<Box<dyn Fn() + Send + Sync>>,
    config: ReadConfig,
    metrics: RouterMetrics,
    /// Trace sink for per-route decisions (from [`ReadConfig::obs`]).
    obs: Arc<Obs>,
    next_session: AtomicU64,
}

impl std::fmt::Debug for ReadRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fleet = self.fleet.lock();
        f.debug_struct("ReadRouter")
            .field("fleet", &fleet.slots.len())
            .field("generation", &fleet.generation)
            .field("has_frontier", &self.frontier.is_some())
            .finish()
    }
}

/// A view pinned by the router: the replica's read view plus the lease that
/// releases the replica's in-flight slot when the pinned read (or read-only
/// transaction) completes.
pub(crate) struct Pinned {
    pub(crate) view: Box<dyn ReadView>,
    pub(crate) replica: usize,
    pub(crate) blocked: Duration,
    /// Held for its `Drop`: releases the replica's in-flight slot.
    pub(crate) _lease: Lease,
}

/// Decrements a replica's in-flight counter on drop.
pub(crate) struct Lease {
    slot: Arc<ReplicaSlot>,
}

impl Drop for Lease {
    /// The last lease of a draining member wakes the retire drain. Both
    /// sides are `SeqCst`: the retirer stores `draining` and then reads the
    /// count, this drop decrements the count and then reads `draining`, so
    /// in the one total order either this load sees `draining` (and
    /// notifies), or the retirer's read of the count comes after the
    /// decrement (and sees zero).
    fn drop(&mut self) {
        let left = self.slot.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        if left == 0 && self.slot.is_draining() {
            FLEET_PROGRESS.notify();
        }
    }
}

impl ReadRouter {
    /// Creates a router over `fleet`. The fleet may be empty: an
    /// empty-then-[`admit`](Self::admit) router is how an elastic fleet
    /// starts (reads block, bounded, until a member is admitted).
    ///
    /// # Panics
    /// Panics if the configuration is invalid; [`ReadRouter::try_new`]
    /// surfaces that as a typed error instead.
    pub fn new(fleet: Vec<Arc<dyn ClonedConcurrencyControl>>, config: ReadConfig) -> Self {
        Self::try_new(fleet, config).expect("read configuration must be valid")
    }

    /// [`ReadRouter::new`], with an invalid configuration surfaced as
    /// [`Error::InvalidConfig`] instead of a panic.
    pub fn try_new(
        fleet: Vec<Arc<dyn ClonedConcurrencyControl>>,
        config: ReadConfig,
    ) -> Result<Self> {
        config.validate()?;
        let obs = Arc::clone(&config.obs);
        let slots: Vec<Arc<ReplicaSlot>> = fleet
            .into_iter()
            .enumerate()
            .map(|(id, replica)| Arc::new(ReplicaSlot::new(id, replica)))
            .collect();
        let next_id = slots.len();
        Ok(Self {
            fleet: Mutex::new(Fleet {
                slots: Arc::new(slots),
                generation: 0,
                next_id,
            }),
            frontier: None,
            tail_flush: None,
            config,
            metrics: RouterMetrics::new(&obs),
            obs,
            next_session: AtomicU64::new(0),
        })
    }

    /// Admits a new member to the fleet and returns its stable id. The
    /// member is immediately eligible for routes whose requirements its
    /// exposed cut covers; blocked reads, woken by the admission, pick it up
    /// at once.
    pub fn admit(&self, replica: Arc<dyn ClonedConcurrencyControl>) -> usize {
        let mut fleet = self.fleet.lock();
        let id = fleet.next_id;
        fleet.next_id += 1;
        let mut slots: Vec<Arc<ReplicaSlot>> = fleet.slots.iter().cloned().collect();
        slots.push(Arc::new(ReplicaSlot::new(id, replica)));
        fleet.slots = Arc::new(slots);
        fleet.generation += 1;
        drop(fleet);
        FLEET_PROGRESS.notify();
        id
    }

    /// Begins an online retire: the member stops receiving new routes (and
    /// stops counting toward the frontier-less staleness reference) but
    /// reads already pinned to it run to completion — watch
    /// [`in_flight_of`](Self::in_flight_of) reach zero, then
    /// [`detach`](Self::detach). Fails with [`Error::Lifecycle`] if `id`
    /// names no current member.
    pub fn retire(&self, id: usize) -> Result<()> {
        let mut fleet = self.fleet.lock();
        let Some(slot) = fleet.slots.iter().find(|s| s.id == id) else {
            return Err(Error::Lifecycle(format!(
                "replica {id} is not a fleet member; cannot retire it"
            )));
        };
        // `SeqCst`: see `Lease::drop`.
        slot.draining.store(true, Ordering::SeqCst);
        fleet.generation += 1;
        drop(fleet);
        // The staleness reference just lost a member: a bounded read may be
        // eligible elsewhere now.
        FLEET_PROGRESS.notify();
        Ok(())
    }

    /// Removes a member from the fleet and returns its replica handle.
    /// Legal even with reads still pinned (their leases keep the slot
    /// alive); a *graceful* retire drains first. Fails with
    /// [`Error::Lifecycle`] if `id` names no current member.
    pub fn detach(&self, id: usize) -> Result<Arc<dyn ClonedConcurrencyControl>> {
        let mut fleet = self.fleet.lock();
        let Some(slot) = fleet.slots.iter().find(|s| s.id == id).cloned() else {
            return Err(Error::Lifecycle(format!(
                "replica {id} is not a fleet member; cannot detach it"
            )));
        };
        fleet.slots = Arc::new(fleet.slots.iter().filter(|s| s.id != id).cloned().collect());
        fleet.generation += 1;
        drop(fleet);
        FLEET_PROGRESS.notify();
        Ok(Arc::clone(&slot.replica))
    }

    /// Reads currently pinned to member `id` (`None` if detached): the
    /// drain barometer of an online retire.
    pub fn in_flight_of(&self, id: usize) -> Option<u64> {
        self.snapshot()
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.in_flight.load(Ordering::SeqCst))
    }

    /// The fleet generation: bumped (under the same lock that publishes the
    /// member list) by every admit, retire, and detach.
    pub fn generation(&self) -> u64 {
        self.fleet.lock().generation
    }

    /// The current member list (copy-on-write; a refcount bump per call).
    fn snapshot(&self) -> Arc<Vec<Arc<ReplicaSlot>>> {
        Arc::clone(&self.fleet.lock().slots)
    }

    /// Attaches a primary-frontier probe, enabling
    /// [`ConsistencyClass::Strong`] reads and sharpening the staleness
    /// estimate (a replica at the frontier is fresh even between commits).
    pub fn with_frontier(mut self, frontier: impl PrimaryFrontier + 'static) -> Self {
        self.frontier = Some(Box::new(frontier));
        self
    }

    /// Attaches a primary log-tail flush hook (e.g.
    /// `TplEngine::flush_log`), called once whenever a read must block: a
    /// causal token or strong frontier can name a committed transaction
    /// whose records still sit in the logger's partially filled segment
    /// (the wire was busy when it committed). The logger ships that segment
    /// by itself once every subscriber has drained, but while one fan-out
    /// member is not draining (stalled, or its replica behind), a primary
    /// that has gone quiet sends no later append to ship it either —
    /// wedging the read until its wait bound expires. One flush
    /// puts everything at or below the read's requirement on the wire
    /// (sequence numbers are assigned at append, so the requirement's
    /// records are already buffered or shipped).
    pub fn with_tail_flush(mut self, flush: impl Fn() + Send + Sync + 'static) -> Self {
        self.tail_flush = Some(Box::new(flush));
        self
    }

    /// Number of replicas in the fleet.
    pub fn fleet_len(&self) -> usize {
        self.fleet.lock().slots.len()
    }

    /// Opens a new session. Sessions carry causal tokens and give
    /// read-your-writes and monotonic reads across replica switches.
    pub fn session(self: &Arc<Self>) -> ReadSession {
        let id = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed) + 1);
        ReadSession::new(id, Arc::clone(self))
    }

    /// Opens a sessionless read-only transaction pinned at one consistent
    /// view (for one-shot multi-key reads with no session history).
    pub fn read_only_txn(self: &Arc<Self>, class: &ConsistencyClass) -> Result<ReadOnlyTxn> {
        let start = Instant::now();
        let pinned = self.pin(class, SeqNo::ZERO)?;
        self.metrics
            .record_txn(class.kind(), start.elapsed(), pinned.blocked);
        Ok(ReadOnlyTxn::new(Arc::clone(self), class.kind(), pinned))
    }

    /// One class's statistics.
    pub fn class_stats(&self, kind: ClassKind) -> ClassStats {
        self.metrics.stats(kind)
    }

    /// Every class's statistics, in [`ClassKind::ALL`] order.
    pub fn all_class_stats(&self) -> Vec<ClassStats> {
        ClassKind::ALL
            .into_iter()
            .map(|kind| self.metrics.stats(kind))
            .collect()
    }

    /// A point-in-time snapshot of every fleet member, in admission order.
    pub fn fleet_status(&self) -> Vec<ReplicaStatus> {
        let slots = self.snapshot();
        let reference = self.staleness_reference(&slots);
        slots
            .iter()
            .map(|slot| ReplicaStatus {
                replica: slot.id,
                protocol: slot.replica.name(),
                exposed: slot.replica.exposed_seq(),
                in_flight: slot.in_flight.load(Ordering::Relaxed),
                served: slot.served.load(Ordering::Relaxed),
                draining: slot.is_draining(),
                staleness_ms: match self.staleness_nanos(slot, reference) {
                    u64::MAX => None,
                    nanos => Some(nanos as f64 / 1e6),
                },
            })
            .collect()
    }

    /// Estimated staleness of one fleet member in milliseconds, for the
    /// sampled metrics reservoirs (`None` = unbounded, or the member was
    /// detached). Costs a frontier probe (or a fleet sweep), so callers
    /// evaluate it lazily — only on the reads the metrics actually sample.
    pub(crate) fn staleness_ms_of(&self, replica: usize) -> Option<f64> {
        let slots = self.snapshot();
        let slot = slots.iter().find(|s| s.id == replica)?;
        match self.staleness_nanos(slot, self.staleness_reference(&slots)) {
            u64::MAX => None,
            nanos => Some(nanos as f64 / 1e6),
        }
    }

    pub(crate) fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// The freshest exposed cut across the whole fleet, draining members
    /// included (for timeout reporting: "the fleet holds at most X" must
    /// count everyone a blocked read could conceivably have been served by).
    pub fn freshest_exposed(&self) -> SeqNo {
        self.snapshot()
            .iter()
            .map(|slot| slot.replica.exposed_seq())
            .max()
            .unwrap_or(SeqNo::ZERO)
    }

    /// The cut a replica must reach to count as perfectly fresh: the
    /// primary frontier when a probe is attached, otherwise the freshest
    /// exposed cut among *active* members (without a probe the router
    /// cannot know what the whole fleet might be missing, but a replica no
    /// one is ahead of is as fresh as anyone can tell — in particular, a
    /// fully caught-up *idle* fleet never looks stale). Draining members
    /// are excluded — a mid-retire straggler must not make the remaining
    /// fleet look stale, nor a mid-retire leader make it look fresh — and
    /// so are members that have never exposed anything (a just-admitted
    /// joiner still installing its checkpoint says nothing about
    /// freshness).
    fn staleness_reference(&self, slots: &[Arc<ReplicaSlot>]) -> SeqNo {
        match &self.frontier {
            Some(frontier) => frontier.frontier(),
            None => slots
                .iter()
                .filter(|slot| !slot.is_draining())
                .map(|slot| slot.replica.exposed_seq())
                .filter(|&exposed| exposed > SeqNo::ZERO)
                .max()
                .unwrap_or(SeqNo::ZERO),
        }
    }

    /// Estimated staleness of one replica, in nanoseconds, against
    /// `reference` (see [`staleness_reference`](Self::staleness_reference)).
    /// `u64::MAX` means unbounded: the replica trails the reference and has
    /// exposed nothing to estimate from.
    fn staleness_nanos(&self, slot: &ReplicaSlot, reference: SeqNo) -> u64 {
        if slot.replica.exposed_seq() >= reference {
            return 0;
        }
        match slot.replica.freshness_commit_nanos() {
            Some(committed) => now_nanos().saturating_sub(committed),
            None => u64::MAX,
        }
    }

    /// The best eligible replica for a read requiring `required` to be
    /// exposed and (optionally) staleness within `bound_nanos`: least
    /// in-flight load wins, freshest exposed cut breaks ties. Draining
    /// members receive no new routes. Operates on a fresh snapshot, so a
    /// blocked read re-evaluating this picks up admissions mid-wait.
    fn eligible(&self, required: SeqNo, bound_nanos: Option<u64>) -> Option<Arc<ReplicaSlot>> {
        let slots = self.snapshot();
        let reference = bound_nanos.map(|_| self.staleness_reference(&slots));
        let mut best: Option<(u64, SeqNo, &Arc<ReplicaSlot>)> = None;
        for slot in slots.iter() {
            if slot.is_draining() {
                continue;
            }
            let exposed = slot.replica.exposed_seq();
            if exposed < required {
                continue;
            }
            if let (Some(bound), Some(reference)) = (bound_nanos, reference) {
                if self.staleness_nanos(slot, reference) > bound {
                    continue;
                }
            }
            let load = slot.in_flight.load(Ordering::Relaxed);
            let better = match best {
                None => true,
                Some((best_load, best_exposed, _)) => {
                    load < best_load || (load == best_load && exposed > best_exposed)
                }
            };
            if better {
                best = Some((load, exposed, slot));
            }
        }
        best.map(|(_, _, slot)| Arc::clone(slot))
    }

    /// Pins a read view satisfying `class` on top of the session floor
    /// `floor` (the monotonic-reads / read-your-writes minimum; `SeqNo::ZERO`
    /// for sessionless reads). Blocks bounded on [`FLEET_PROGRESS`]; the
    /// fleet is re-evaluated on every notification, so the read re-routes
    /// to whichever replica becomes eligible first.
    pub(crate) fn pin(&self, class: &ConsistencyClass, floor: SeqNo) -> Result<Pinned> {
        let required = match class {
            ConsistencyClass::Strong => {
                let frontier = self.frontier.as_ref().ok_or_else(|| {
                    Error::InvalidConfig(
                        "strong reads require a primary frontier (ReadRouter::with_frontier)"
                            .into(),
                    )
                })?;
                floor.max(frontier.frontier())
            }
            ConsistencyClass::Causal(token) => floor.max(*token),
            ConsistencyClass::BoundedStaleness(_) => floor,
        };
        let bound_nanos = match class {
            ConsistencyClass::BoundedStaleness(bound) => Some(bound.as_nanos() as u64),
            _ => None,
        };

        let mut chosen = self.eligible(required, bound_nanos);
        let mut blocked = Duration::ZERO;
        if chosen.is_none() {
            let wait_start = Instant::now();
            // About to block: ship the primary's buffered tail so a
            // requirement naming committed-but-unshipped records can
            // actually be met (see [`with_tail_flush`](Self::with_tail_flush)).
            if let Some(flush) = &self.tail_flush {
                flush();
            }
            FLEET_PROGRESS.wait_until(Some(wait_start + self.config.max_wait), || {
                chosen = self.eligible(required, bound_nanos);
                chosen.is_some()
            });
            blocked = wait_start.elapsed();
        }
        let Some(slot) = chosen else {
            self.metrics.record_timeout(class.kind(), blocked);
            self.obs.trace.record(TraceEvent::Route {
                class: class.kind().name(),
                replica: None,
                blocked_ns: blocked.as_nanos() as u64,
                outcome: RouteOutcome::Timeout,
            });
            return Err(Error::ReadTimeout {
                required,
                freshest: self.freshest_exposed(),
            });
        };

        // A retire can race this pin: the slot may be marked draining (or
        // even detached) between eligibility and here. That is benign — the
        // slot's replica stays alive through our Arc, the view taken below
        // still covers `required` (cuts only advance), and the lease keeps
        // the member's in-flight count honest so a graceful retire waits
        // for this read too.
        slot.in_flight.fetch_add(1, Ordering::SeqCst);
        slot.served.fetch_add(1, Ordering::Relaxed);
        let view = slot.replica.read_view();
        debug_assert!(view.as_of() >= required);
        self.obs.trace.record(TraceEvent::Route {
            class: class.kind().name(),
            replica: Some(slot.id as u64),
            blocked_ns: blocked.as_nanos() as u64,
            outcome: RouteOutcome::Served,
        });
        Ok(Pinned {
            view,
            replica: slot.id,
            blocked,
            _lease: Lease { slot },
        })
    }
}

/// The routing side of online join/retire, driven by
/// [`c5_core::fleet::FleetController`]. Defined in `c5-core` (which cannot
/// depend on this crate) and implemented here by delegation to the inherent
/// methods.
impl FleetRoutingSink for ReadRouter {
    fn admit(&self, replica: Arc<dyn ClonedConcurrencyControl>) -> usize {
        ReadRouter::admit(self, replica)
    }

    fn retire(&self, replica: usize) -> Result<()> {
        ReadRouter::retire(self, replica)
    }

    fn detach(&self, replica: usize) -> Result<Arc<dyn ClonedConcurrencyControl>> {
        ReadRouter::detach(self, replica)
    }

    fn in_flight_of(&self, replica: usize) -> Option<u64> {
        ReadRouter::in_flight_of(self, replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{ReplicaConfig, RowRef, RowWrite, Timestamp, TxnId, Value};
    use c5_core::replica::{drive_segments, C5Mode, C5Replica};
    use c5_log::{segments_from_entries, Segment, TxnEntry};
    use c5_storage::MvStore;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    fn log(txns: std::ops::RangeInclusive<u64>) -> Vec<Segment> {
        let entries: Vec<TxnEntry> = txns
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::update(row(t % 8), Value::from_u64(t))],
                )
            })
            .collect();
        segments_from_entries(&entries, 4)
    }

    fn replica_at(prefix_txns: u64) -> Arc<dyn ClonedConcurrencyControl> {
        let store = Arc::new(MvStore::default());
        for k in 0..8 {
            store.install(
                row(k),
                Timestamp::ZERO,
                c5_common::WriteKind::Insert,
                Some(Value::from_u64(0)),
            );
        }
        let replica = C5Replica::new(
            C5Mode::Faithful,
            store,
            ReplicaConfig::default()
                .with_workers(2)
                .with_snapshot_interval(Duration::from_micros(200)),
        );
        if prefix_txns > 0 {
            drive_segments(replica.as_ref(), log(1..=prefix_txns));
        } else {
            replica.finish();
        }
        replica
    }

    #[test]
    fn causal_reads_route_to_a_covering_replica() {
        // Replica 0 exposes 10 txns, replica 1 exposes 30.
        let router = Arc::new(ReadRouter::new(
            vec![replica_at(10), replica_at(30)],
            ReadConfig::default().with_max_wait(Duration::from_millis(100)),
        ));
        let mut session = router.session();

        // A token beyond replica 0's cut must be served by replica 1.
        let read = session
            .read(&ConsistencyClass::Causal(SeqNo(25)), row(1))
            .unwrap();
        assert_eq!(read.replica, 1);
        assert!(read.as_of >= SeqNo(25));

        // A token no replica covers times out with a useful error.
        let err = session
            .read(&ConsistencyClass::Causal(SeqNo(1000)), row(1))
            .unwrap_err();
        match err {
            Error::ReadTimeout { required, freshest } => {
                assert_eq!(required, SeqNo(1000));
                assert_eq!(freshest, SeqNo(30));
            }
            other => panic!("expected ReadTimeout, got {other}"),
        }
        let stats = router.class_stats(ClassKind::Causal);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.timeouts, 1);
    }

    #[test]
    fn strong_reads_require_a_frontier_and_verify_against_it() {
        let fleet = vec![replica_at(20)];
        let bare = Arc::new(ReadRouter::new(fleet.clone(), ReadConfig::default()));
        let err = bare
            .session()
            .read(&ConsistencyClass::Strong, row(0))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));

        let router = Arc::new(
            ReadRouter::new(
                fleet,
                ReadConfig::default().with_max_wait(Duration::from_millis(50)),
            )
            .with_frontier(|| SeqNo(20)),
        );
        let read = router
            .session()
            .read(&ConsistencyClass::Strong, row(1))
            .unwrap();
        assert!(read.as_of >= SeqNo(20));

        // A frontier beyond every replica's cut cannot be served.
        let ahead = Arc::new(
            ReadRouter::new(
                vec![replica_at(5)],
                ReadConfig::default().with_max_wait(Duration::from_millis(20)),
            )
            .with_frontier(|| SeqNo(50)),
        );
        assert!(matches!(
            ahead.session().read(&ConsistencyClass::Strong, row(0)),
            Err(Error::ReadTimeout { .. })
        ));
    }

    #[test]
    fn bounded_staleness_rejects_replicas_behind_a_live_frontier() {
        // The replica exposed everything it was shipped, but the frontier
        // says the primary is far ahead — its staleness estimate is its
        // last exposure's age, which (after a sleep) exceeds a tight bound.
        let router = Arc::new(
            ReadRouter::new(
                vec![replica_at(10)],
                ReadConfig::default().with_max_wait(Duration::from_millis(30)),
            )
            .with_frontier(|| SeqNo(1_000)),
        );
        std::thread::sleep(Duration::from_millis(30));
        let err = router
            .session()
            .read(
                &ConsistencyClass::BoundedStaleness(Duration::from_millis(1)),
                row(0),
            )
            .unwrap_err();
        assert!(matches!(err, Error::ReadTimeout { .. }));

        // A generous bound is served immediately.
        let read = router
            .session()
            .read(
                &ConsistencyClass::BoundedStaleness(Duration::from_secs(3600)),
                row(0),
            )
            .unwrap();
        assert_eq!(read.replica, 0);
    }

    #[test]
    fn blocked_reads_flush_the_primary_tail_instead_of_wedging() {
        use c5_log::{LogShipper, StreamingLogger};
        // A write-light primary fanned out to this backup and to a second
        // member that has stopped draining: the first transaction left on
        // the idle wire, the second found that segment still queued and sits
        // buffered below the size bound, and nothing commits after it. The
        // backup draining its own queue does not free the wire (the stalled
        // member still holds the first segment), so only the causal read's
        // block-time flush can put the token on the wire.
        let (shipper, mut receivers) = LogShipper::fan_out_unbounded(2);
        let (receiver, stalled) = (receivers.remove(0), receivers.remove(0));
        let logger = Arc::new(StreamingLogger::new(1_000, shipper));
        let store = Arc::new(MvStore::default());
        let replica = C5Replica::new(
            C5Mode::Faithful,
            store,
            ReplicaConfig::default()
                .with_workers(2)
                .with_snapshot_interval(Duration::from_micros(200)),
        );
        logger.append(
            c5_common::TxnId(1),
            &[RowWrite::update(row(1), Value::from_u64(6))],
        );
        let (_, token) = logger.append_tokened(
            c5_common::TxnId(2),
            &[RowWrite::update(row(1), Value::from_u64(7))],
        );
        assert!(token > SeqNo::ZERO);
        assert_eq!(
            receiver.try_len(),
            1,
            "the token's segment is not on the wire"
        );
        let driver = {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || {
                while let Some(segment) = receiver.recv() {
                    replica.apply_segment(segment);
                }
            })
        };

        let flush_logger = Arc::clone(&logger);
        let router = Arc::new(
            ReadRouter::new(
                vec![Arc::clone(&replica) as _],
                ReadConfig::default().with_max_wait(Duration::from_secs(30)),
            )
            .with_tail_flush(move || flush_logger.flush()),
        );
        let read = router
            .session()
            .read(&ConsistencyClass::Causal(token), row(1))
            .expect("the flush hook ships the buffered token");
        assert!(read.as_of >= token);
        assert_eq!(read.value.unwrap().as_u64(), Some(7));
        assert!(read.blocked > Duration::ZERO, "the fast path had to block");

        logger.close();
        driver.join().unwrap();
        replica.finish();
        assert_eq!(stalled.drain().len(), 2, "the stalled member got both");
    }

    #[test]
    fn without_a_frontier_staleness_is_measured_against_the_fleet_maximum() {
        // A fully caught-up but *idle* fleet never looks stale: the lone
        // replica sits at the fleet's freshest cut, so even a 1ms bound is
        // served after its last exposure has aged well past the bound.
        let router = Arc::new(ReadRouter::new(
            vec![replica_at(10)],
            ReadConfig::default().with_max_wait(Duration::from_millis(30)),
        ));
        std::thread::sleep(Duration::from_millis(20));
        let read = router
            .session()
            .read(
                &ConsistencyClass::BoundedStaleness(Duration::from_millis(1)),
                row(0),
            )
            .expect("an idle caught-up replica is fresh");
        assert_eq!(read.replica, 0);

        // A replica that trails the fleet's freshest cut and has exposed
        // nothing is unbounded-stale, not assumed fresh: bounded reads must
        // never prefer the replica least likely to have the data.
        let router = Arc::new(ReadRouter::new(
            vec![replica_at(10), replica_at(0)],
            ReadConfig::default().with_max_wait(Duration::from_millis(30)),
        ));
        let status = router.fleet_status();
        assert_eq!(status[0].staleness_ms, Some(0.0));
        assert_eq!(status[1].staleness_ms, None, "unbounded staleness");
        for _ in 0..4 {
            let read = router
                .session()
                .read(
                    &ConsistencyClass::BoundedStaleness(Duration::from_secs(3600)),
                    row(0),
                )
                .unwrap();
            assert_eq!(read.replica, 0, "the never-exposed replica must not serve");
        }
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let err = ReadRouter::try_new(
            vec![replica_at(0)],
            ReadConfig::default().with_max_wait(Duration::ZERO),
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn draining_members_get_no_new_routes_and_leave_the_freshness_reference() {
        // Member 0 (exposed through 40) enters Draining; member 1 (exposed
        // through 30) stays active. Frontier-less bounded-staleness math
        // must measure against the *active* fleet maximum (30): member 1
        // sits at it, so even a 1ms bound is served there. If the draining
        // member still set the reference (40), member 1 would look stale by
        // its last exposure's age and the read would time out.
        let router = Arc::new(ReadRouter::new(
            vec![replica_at(40), replica_at(30)],
            ReadConfig::default().with_max_wait(Duration::from_millis(40)),
        ));
        router.retire(0).unwrap();
        assert_eq!(router.generation(), 1);
        std::thread::sleep(Duration::from_millis(30));
        let read = router
            .session()
            .read(
                &ConsistencyClass::BoundedStaleness(Duration::from_millis(1)),
                row(0),
            )
            .expect("the active member at the active maximum is fresh");
        assert_eq!(read.replica, 1, "the draining member must not serve");

        let status = router.fleet_status();
        assert!(status[0].draining);
        assert!(!status[1].draining);
        // Whole-fleet freshest (timeout reporting) still counts the
        // draining member.
        assert_eq!(router.freshest_exposed(), SeqNo(40));

        // Even a requirement only the draining member covers is not routed
        // to it: the read times out rather than violating the drain.
        let err = router
            .session()
            .read(&ConsistencyClass::Causal(SeqNo(35)), row(0))
            .unwrap_err();
        assert!(matches!(err, Error::ReadTimeout { .. }));
    }

    #[test]
    fn admit_detach_keep_ids_stable_and_bump_the_generation() {
        let router = Arc::new(ReadRouter::new(
            vec![replica_at(10)],
            ReadConfig::default().with_max_wait(Duration::from_millis(100)),
        ));
        assert_eq!(router.generation(), 0);
        let id = router.admit(replica_at(30));
        assert_eq!(id, 1);
        assert_eq!(router.generation(), 1);
        assert_eq!(router.fleet_len(), 2);

        // A requirement above member 0's cut lands on the admitted member.
        let read = router
            .session()
            .read(&ConsistencyClass::Causal(SeqNo(25)), row(1))
            .unwrap();
        assert_eq!(read.replica, 1);

        // Detach member 0: its id is gone, member 1 keeps its id.
        router.detach(0).unwrap();
        assert_eq!(router.generation(), 2);
        let status = router.fleet_status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].replica, 1);
        assert_eq!(router.in_flight_of(0), None);
        assert!(matches!(router.detach(0), Err(Error::Lifecycle(_))));
        assert!(matches!(router.retire(0), Err(Error::Lifecycle(_))));

        // Ids are never reused: the next admission continues the sequence.
        assert_eq!(router.admit(replica_at(10)), 2);
    }

    #[test]
    fn an_empty_fleet_serves_once_a_member_is_admitted() {
        // The elastic start: a router with no members blocks reads
        // (bounded) until the first admission, then serves.
        let router = Arc::new(ReadRouter::new(
            Vec::new(),
            ReadConfig::default().with_max_wait(Duration::from_secs(5)),
        ));
        assert_eq!(router.fleet_len(), 0);
        let admitter = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                router.admit(replica_at(10))
            })
        };
        let read = router
            .session()
            .read(&ConsistencyClass::Causal(SeqNo(5)), row(1))
            .expect("the mid-wait admission serves the blocked read");
        assert_eq!(read.replica, 0);
        assert!(read.blocked > Duration::ZERO);
        assert_eq!(admitter.join().unwrap(), 0);
    }

    #[test]
    fn a_pinned_read_survives_retire_and_detach_of_its_replica() {
        let router = Arc::new(ReadRouter::new(
            vec![replica_at(10)],
            ReadConfig::default().with_max_wait(Duration::from_millis(100)),
        ));
        let txn = router
            .read_only_txn(&ConsistencyClass::Causal(SeqNo(5)))
            .unwrap();
        router.retire(0).unwrap();
        assert_eq!(router.in_flight_of(0), Some(1), "pinned read still counted");
        // Detach while pinned: the lease keeps the replica alive, the view
        // stays readable.
        let replica = router.detach(0).unwrap();
        assert!(txn.get(row(1)).is_some());
        assert!(replica.exposed_seq() >= SeqNo(10));
        drop(txn);
        assert_eq!(router.in_flight_of(0), None, "detached members report None");
    }

    #[test]
    fn load_balancing_prefers_idle_then_freshest_replicas() {
        let router = Arc::new(ReadRouter::new(
            vec![replica_at(10), replica_at(20)],
            ReadConfig::default(),
        ));
        // With equal load the freshest replica wins.
        let txn = router
            .read_only_txn(&ConsistencyClass::Causal(SeqNo::ZERO))
            .unwrap();
        assert_eq!(txn.replica(), 1);
        // While that transaction holds replica 1's slot, the next pin goes
        // to idle replica 0.
        let txn2 = router
            .read_only_txn(&ConsistencyClass::Causal(SeqNo::ZERO))
            .unwrap();
        assert_eq!(txn2.replica(), 0);
        let status = router.fleet_status();
        assert_eq!(status[0].in_flight, 1);
        assert_eq!(status[1].in_flight, 1);
        drop(txn);
        drop(txn2);
        let status = router.fleet_status();
        assert_eq!(status[0].in_flight, 0);
        assert_eq!(status[1].in_flight, 0);
        assert_eq!(status[0].served + status[1].served, 2);
    }

    /// Forwards only the trait's required methods, as a fault-injecting or
    /// instrumenting wrapper would: it registers nothing anywhere, so its
    /// readers can only be woken through the signal its wrapped replica's
    /// cursor notifies.
    struct PassThrough(Arc<C5Replica>);

    impl ClonedConcurrencyControl for PassThrough {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn apply_segment(&self, segment: Segment) {
            self.0.apply_segment(segment);
        }
        fn finish(&self) {
            self.0.finish();
        }
        fn promote(&self) -> c5_core::Promotion {
            self.0.promote()
        }
        fn applied_seq(&self) -> SeqNo {
            self.0.applied_seq()
        }
        fn exposed_seq(&self) -> SeqNo {
            self.0.exposed_seq()
        }
        fn read_view(&self) -> Box<dyn ReadView> {
            self.0.read_view()
        }
        fn lag(&self) -> Arc<c5_core::LagTracker> {
            self.0.lag()
        }
        fn metrics(&self) -> c5_core::ReplicaMetrics {
            self.0.metrics()
        }
    }

    #[test]
    fn a_read_blocked_on_a_pass_through_wrapper_is_served_when_its_replica_exposes() {
        let replica = C5Replica::new(
            C5Mode::Faithful,
            Arc::new(MvStore::default()),
            ReplicaConfig::default().with_workers(2),
        );
        let wrapper = Arc::new(PassThrough(Arc::clone(&replica)));
        // Both waits re-check once more at their deadline, so a missed
        // wake-up would show as a wait as long as the bound, not as a
        // failure: the assertions below bound the waits well inside it.
        let bound = Duration::from_secs(10);
        let router = Arc::new(ReadRouter::new(
            vec![Arc::clone(&wrapper) as _],
            ReadConfig::default().with_max_wait(bound),
        ));
        let token = SeqNo(20);
        // The trait's default wait, through the wrapper, from before
        // anything is exposed.
        let waiter = {
            let wrapper = Arc::clone(&wrapper);
            std::thread::spawn(move || {
                let started = Instant::now();
                (wrapper.wait_until_exposed(token, bound), started.elapsed())
            })
        };
        let feeder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            for segment in log(1..=20) {
                replica.apply_segment(segment);
            }
        });
        let read = router
            .session()
            .read(&ConsistencyClass::Causal(token), row(4))
            .expect("the wrapped replica's cut wakes the blocked read");
        assert!(read.as_of >= token);
        assert!(read.blocked > Duration::ZERO, "the read had to block");
        assert!(
            read.blocked < bound / 2,
            "woken by the deadline, not the cut"
        );
        let (exposed, waited) = waiter.join().unwrap();
        assert!(exposed, "the default wait saw the cut");
        assert!(waited < bound / 2, "woken by the deadline, not the cut");
        feeder.join().unwrap();
        wrapper.finish();
    }

    #[test]
    fn blocked_reads_reroute_to_whichever_replica_catches_up() {
        // Replica 0 is stuck at txn 5; replica 1 catches up to 40 while the
        // read waits — the read must land on replica 1.
        let store = Arc::new(MvStore::default());
        for k in 0..8 {
            store.install(
                row(k),
                Timestamp::ZERO,
                c5_common::WriteKind::Insert,
                Some(Value::from_u64(0)),
            );
        }
        let late = C5Replica::new(
            C5Mode::Faithful,
            store,
            ReplicaConfig::default()
                .with_workers(2)
                .with_snapshot_interval(Duration::from_micros(200)),
        );
        let router = Arc::new(ReadRouter::new(
            vec![replica_at(5), Arc::clone(&late) as _],
            ReadConfig::default().with_max_wait(Duration::from_secs(5)),
        ));
        let feeder = {
            let late = Arc::clone(&late);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                drive_segments(late.as_ref(), log(1..=40));
            })
        };
        let mut session = router.session();
        let read = session
            .read(&ConsistencyClass::Causal(SeqNo(40)), row(1))
            .unwrap();
        assert_eq!(read.replica, 1, "the catching-up replica serves the read");
        assert!(read.blocked > Duration::ZERO);
        feeder.join().unwrap();
        let stats = router.class_stats(ClassKind::Causal);
        assert_eq!(stats.blocked, 1);
        assert!(stats.block_nanos > 0);
    }
}
