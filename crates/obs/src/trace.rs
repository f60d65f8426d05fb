//! Bounded structured stage tracing.
//!
//! A [`TraceRecorder`] collects typed [`TraceEvent`]s into one bounded ring
//! buffer per recording thread. Recording takes a single uncontended mutex
//! (each ring is owned by exactly one thread; the lock exists only so a
//! merge can read a ring its owner is still appending to), pushes one
//! record, and overwrites the oldest record when the ring is full — memory
//! is bounded no matter how long the run, and a `dropped` counter says how
//! much history was overwritten.
//!
//! The per-thread ring for a given recorder is found through a thread-local
//! cache keyed by the recorder's process-unique id (an address would alias
//! after drop and silently cross-wire recorders), so the steady-state cost
//! of a record is one TLS lookup, one timestamp, and one `VecDeque` push.
//!
//! [`TraceRecorder::merged`] collects every thread's ring and sorts by
//! wall-clock nanoseconds into one timeline — the `experiments obs` dump.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Wall-clock nanoseconds since the Unix epoch — the same clock the log
/// records stamp commits with, so trace timelines and lag samples align.
pub fn now_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The three stages of the replica pipeline, in log order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    /// Dependency stamping and dispatch to workers, on the thread that feeds
    /// the replica. Service time only: the feeder's wait at the in-flight
    /// window comes before it and is timed apart.
    Schedule,
    /// Applying one unit of work (a segment or a transaction) to the store.
    Apply,
    /// Publishing one transaction-aligned cut.
    Expose,
}

impl PipelineStage {
    /// Lower-case stage name, used as the `stage` label on metrics.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineStage::Schedule => "schedule",
            PipelineStage::Apply => "apply",
            PipelineStage::Expose => "expose",
        }
    }

    /// All three stages in pipeline order.
    pub fn all() -> [PipelineStage; 3] {
        [
            PipelineStage::Schedule,
            PipelineStage::Apply,
            PipelineStage::Expose,
        ]
    }
}

/// Why a routed read ended the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// A replica satisfied the freshness requirement (possibly after
    /// blocking).
    Served,
    /// No replica reached the required position within the deadline.
    Timeout,
}

impl RouteOutcome {
    /// Lower-case outcome name for dumps.
    pub fn name(&self) -> &'static str {
        match self {
            RouteOutcome::Served => "served",
            RouteOutcome::Timeout => "timeout",
        }
    }
}

/// One typed observation. Every instrumented subsystem has its own variant,
/// so a merged timeline can be filtered and counted by source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// One pipeline-stage completion: how long the unit of work dwelt in
    /// the stage and how deep the stage's input queue was.
    Stage {
        /// Which stage.
        stage: PipelineStage,
        /// Time the unit spent in (or waiting for) the stage, nanoseconds.
        dwell_ns: u64,
        /// Depth of the stage's input queue observed at completion.
        queue_depth: usize,
    },
    /// One segment's delivery by a `LogShipper`: watermark, routing and
    /// fan-out (an archived wire's append is timed by `archive_append_ns`).
    Ship {
        /// First sequence number in the shipped segment.
        segment_seq: u64,
        /// Records in the segment.
        records: usize,
        /// Subscribers the segment was fanned out to.
        subscribers: usize,
        /// Wall time of the whole ship call, nanoseconds.
        elapsed_ns: u64,
    },
    /// One `ReadRouter` route decision.
    Route {
        /// Consistency class name (`strong` / `causal` / `bounded`).
        class: &'static str,
        /// Chosen replica id, if one served the read.
        replica: Option<u64>,
        /// Time spent blocked waiting for a replica to catch up.
        blocked_ns: u64,
        /// How the decision ended.
        outcome: RouteOutcome,
    },
    /// One `FleetController` replica lifecycle transition.
    Lifecycle {
        /// Replica id.
        replica: u64,
        /// State the replica left.
        from: &'static str,
        /// State the replica entered.
        to: &'static str,
    },
    /// One completed `recover_replica` phase.
    Recovery {
        /// Phase name (`load_checkpoint` / `replay_tail` / …).
        phase: &'static str,
        /// Phase wall time, nanoseconds.
        elapsed_ns: u64,
    },
    /// A generic named span, for instrumentation that fits no other variant.
    Span {
        /// Span name.
        name: &'static str,
        /// Span wall time, nanoseconds.
        elapsed_ns: u64,
    },
}

impl TraceEvent {
    /// Event-kind slug (`stage`, `ship`, `route`, `lifecycle`, `recovery`,
    /// `span`), the key timeline summaries count by.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Stage { .. } => "stage",
            TraceEvent::Ship { .. } => "ship",
            TraceEvent::Route { .. } => "route",
            TraceEvent::Lifecycle { .. } => "lifecycle",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::Span { .. } => "span",
        }
    }
}

/// One timestamped event on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Wall-clock nanoseconds since the Unix epoch at record time.
    pub at_nanos: u64,
    /// Name of the recording thread (`unnamed-<id>` if anonymous).
    pub thread: Arc<str>,
    /// The event.
    pub event: TraceEvent,
}

struct RingState {
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

struct Ring {
    state: Mutex<RingState>,
    capacity: usize,
}

impl Ring {
    fn push(&self, record: TraceRecord) {
        let mut state = self.state.lock();
        if state.records.len() == self.capacity {
            state.records.pop_front();
            state.dropped += 1;
        }
        state.records.push_back(record);
    }
}

thread_local! {
    /// (recorder id, this thread's ring in that recorder). A small linear
    /// vector: a thread rarely records into more than a handful of
    /// recorders over its life.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// Collects typed trace events into bounded per-thread rings.
pub struct TraceRecorder {
    id: u64,
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
}

impl TraceRecorder {
    /// Creates a recorder whose per-thread rings keep at most
    /// `capacity_per_thread` records (oldest overwritten first).
    pub fn new(capacity_per_thread: usize) -> Self {
        Self {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity_per_thread.max(1),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Records one event on the calling thread, stamped with the current
    /// wall clock.
    pub fn record(&self, event: TraceEvent) {
        let record = TraceRecord {
            at_nanos: now_nanos(),
            thread: thread_label(),
            event,
        };
        THREAD_RINGS.with(|rings| {
            let mut rings = rings.borrow_mut();
            if let Some((_, ring)) = rings.iter().find(|(id, _)| *id == self.id) {
                ring.push(record);
                return;
            }
            let ring = Arc::new(Ring {
                state: Mutex::new(RingState {
                    records: VecDeque::with_capacity(self.capacity.min(1024)),
                    dropped: 0,
                }),
                capacity: self.capacity,
            });
            ring.push(record);
            self.rings.lock().push(Arc::clone(&ring));
            rings.push((self.id, ring));
        });
    }

    /// Times `f` and records it as a [`TraceEvent::Span`].
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record(TraceEvent::Span {
            name,
            elapsed_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        out
    }

    /// Every retained record from every thread, merged into one timeline
    /// sorted by wall-clock timestamp.
    pub fn merged(&self) -> Vec<TraceRecord> {
        let rings = self.rings.lock();
        let mut all = Vec::new();
        for ring in rings.iter() {
            all.extend(ring.state.lock().records.iter().cloned());
        }
        drop(rings);
        all.sort_by_key(|r| r.at_nanos);
        all
    }

    /// Total records overwritten across every ring (history lost to the
    /// capacity bound).
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .iter()
            .map(|ring| ring.state.lock().dropped)
            .sum()
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("id", &self.id)
            .field("capacity_per_thread", &self.capacity)
            .finish_non_exhaustive()
    }
}

fn thread_label() -> Arc<str> {
    thread_local! {
        static LABEL: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
    }
    LABEL.with(|label| {
        label
            .borrow_mut()
            .get_or_insert_with(|| {
                let current = std::thread::current();
                match current.name() {
                    Some(name) => Arc::from(name),
                    None => Arc::from(format!("unnamed-{:?}", current.id()).as_str()),
                }
            })
            .clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_merge_into_a_sorted_timeline() {
        let recorder = TraceRecorder::new(64);
        recorder.record(TraceEvent::Stage {
            stage: PipelineStage::Schedule,
            dwell_ns: 10,
            queue_depth: 2,
        });
        recorder.record(TraceEvent::Ship {
            segment_seq: 1,
            records: 8,
            subscribers: 3,
            elapsed_ns: 99,
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                recorder.record(TraceEvent::Lifecycle {
                    replica: 7,
                    from: "joining",
                    to: "serving",
                });
            });
        });

        let timeline = recorder.merged();
        assert_eq!(timeline.len(), 3);
        assert!(timeline.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
        let kinds: Vec<&str> = timeline.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains(&"stage"));
        assert!(kinds.contains(&"ship"));
        assert!(kinds.contains(&"lifecycle"));
        assert_eq!(recorder.dropped(), 0);
    }

    #[test]
    fn rings_are_bounded_and_count_drops() {
        let recorder = TraceRecorder::new(4);
        for i in 0..10 {
            recorder.record(TraceEvent::Span {
                name: "tick",
                elapsed_ns: i,
            });
        }
        let timeline = recorder.merged();
        assert_eq!(timeline.len(), 4, "ring keeps only the newest records");
        assert_eq!(recorder.dropped(), 6);
        // The survivors are the most recent four.
        let kept: Vec<u64> = timeline
            .iter()
            .map(|r| match r.event {
                TraceEvent::Span { elapsed_ns, .. } => elapsed_ns,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn two_recorders_do_not_cross_wire() {
        let a = TraceRecorder::new(8);
        let b = TraceRecorder::new(8);
        a.record(TraceEvent::Span {
            name: "a",
            elapsed_ns: 1,
        });
        b.record(TraceEvent::Span {
            name: "b",
            elapsed_ns: 2,
        });
        assert_eq!(a.merged().len(), 1);
        assert_eq!(b.merged().len(), 1);
        assert!(matches!(
            a.merged()[0].event,
            TraceEvent::Span { name: "a", .. }
        ));
    }

    #[test]
    fn span_times_the_closure() {
        let recorder = TraceRecorder::new(8);
        let out = recorder.span("work", || 42);
        assert_eq!(out, 42);
        let timeline = recorder.merged();
        assert_eq!(timeline.len(), 1);
        assert!(matches!(
            timeline[0].event,
            TraceEvent::Span { name: "work", .. }
        ));
    }
}
