//! The explicit queue structure of Section 4.1 (Figure 4).
//!
//! The design describes the scheduler as maintaining, per row, a FIFO queue
//! of that row's writes in log order, plus a *scheduler queue* — a FIFO of
//! row queues — from which workers draw work: a worker removes the row queue
//! at the head of the scheduler queue, executes the write at that queue's
//! head, and on completion the row queue (if still non-empty) is reinserted
//! at the scheduler queue's tail.
//!
//! The production execution paths in [`crate::replica`] use the embedded
//! `prev_seq` representation instead (Section 7.2), because dynamically
//! allocating and managing explicit queues is exactly the scheduler
//! bottleneck the paper warns about. This module keeps the explicit structure
//! as the specification the embedded form is tested against — the proptest
//! `embedded_prev_seq_admits_exactly_what_the_queues_make_executable` shows
//! both expose the same executable set at every step, the parallelism
//! Theorem 2 is about — and it makes the Figure 4 walkthrough executable.

use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasherDefault;

use c5_common::{RowHasher, RowMap, RowRef};
use c5_log::LogRecord;

/// A write waiting in a per-row queue.
#[derive(Debug, Clone)]
pub struct QueuedWrite {
    /// The log record carrying the write.
    pub record: LogRecord,
}

/// The scheduler's explicit queues.
#[derive(Debug, Default)]
pub struct RowQueueScheduler {
    row_queues: RowMap<VecDeque<QueuedWrite>>,
    scheduler_queue: VecDeque<RowRef>,
    /// Rows whose head write is currently being executed by some worker.
    executing: HashSet<RowRef, BuildHasherDefault<RowHasher>>,
    enqueued: u64,
    completed: u64,
}

impl RowQueueScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a write. If the row's queue becomes newly runnable (it was
    /// empty and nobody is executing its head), the row enters the scheduler
    /// queue.
    pub fn enqueue(&mut self, record: LogRecord) {
        let row = record.write.row;
        let queue = self.row_queues.entry(row).or_default();
        let was_empty = queue.is_empty();
        queue.push_back(QueuedWrite { record });
        self.enqueued += 1;
        if was_empty && !self.executing.contains(&row) {
            self.scheduler_queue.push_back(row);
        }
    }

    /// A worker asks for its next write: the head write of the row queue at
    /// the head of the scheduler queue. Returns `None` if no row queue is
    /// currently runnable (either everything is empty or every non-empty row
    /// is already being executed by another worker).
    pub fn next_work(&mut self) -> Option<LogRecord> {
        let row = self.scheduler_queue.pop_front()?;
        let queue = self.row_queues.get(&row).expect("queued row has a queue");
        let write = queue.front().expect("runnable row queue is non-empty");
        self.executing.insert(row);
        Some(write.record.clone())
    }

    /// A worker reports that it finished executing the head write of `row`'s
    /// queue. The write is removed; if the queue still holds writes the row
    /// is reinserted at the scheduler queue's tail.
    pub fn complete(&mut self, row: RowRef) {
        let remove_queue = {
            let queue = self
                .row_queues
                .get_mut(&row)
                .expect("completed row has a queue");
            queue.pop_front().expect("completed row had a head write");
            self.completed += 1;
            self.executing.remove(&row);
            if queue.is_empty() {
                true
            } else {
                self.scheduler_queue.push_back(row);
                false
            }
        };
        if remove_queue {
            self.row_queues.remove(&row);
        }
    }

    /// Number of writes enqueued so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Number of writes completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of writes currently waiting or executing.
    pub fn pending(&self) -> u64 {
        self.enqueued - self.completed
    }

    /// Number of row queues currently runnable (i.e. the maximum number of
    /// writes that could execute in parallel right now). This is the
    /// quantity Theorem 2 is about: it never falls below the parallelism the
    /// primary's own concurrency control had available.
    pub fn runnable(&self) -> usize {
        self.scheduler_queue.len()
    }

    /// Whether every enqueued write has completed.
    pub fn is_drained(&self) -> bool {
        self.pending() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowWrite, SeqNo, Value};

    fn record(seq: u64, key: u64) -> LogRecord {
        LogRecord {
            seq: SeqNo(seq),
            commit_wall_nanos: 0,
            prev_seq: SeqNo::ZERO,
            write: RowWrite::update(RowRef::new(0, key), Value::from_u64(seq)),
            txn_first: true,
            txn_last: true,
        }
    }

    /// The Figure 4 walkthrough: Alice's transaction A writes a1 (comment
    /// row) and a2 (video counter); Bob's transaction B writes b1 and b2 to
    /// the same two rows. Two workers execute them.
    #[test]
    fn figure_4_walkthrough() {
        const COMMENT_A: u64 = 1;
        const COMMENT_B: u64 = 2;
        const COUNTER: u64 = 9;

        let mut sched = RowQueueScheduler::new();
        // Log order: a1 (comment A), a2 (counter), b1 (comment B), b2 (counter).
        sched.enqueue(record(1, COMMENT_A));
        sched.enqueue(record(2, COUNTER));
        sched.enqueue(record(3, COMMENT_B));
        sched.enqueue(record(4, COUNTER));

        // Panel 2: two workers take a1 and a2 in parallel. b1 is also
        // runnable (different row), but b2 is stuck behind a2 in the
        // counter's queue.
        let w1 = sched.next_work().unwrap();
        let w2 = sched.next_work().unwrap();
        assert_eq!(w1.seq, SeqNo(1));
        assert_eq!(w2.seq, SeqNo(2));
        assert_eq!(sched.runnable(), 1); // only b1's row

        // Panel 3: a2 finishes first; the counter queue is reinserted at the
        // scheduler queue's tail, behind b1's row.
        sched.complete(w2.write.row);
        let w3 = sched.next_work().unwrap();
        assert_eq!(w3.seq, SeqNo(3), "b1 runs before b2: FIFO of row queues");

        // Panel 4: b2 now runs; a1 finishes whenever.
        let w4 = sched.next_work().unwrap();
        assert_eq!(w4.seq, SeqNo(4));
        sched.complete(w1.write.row);
        sched.complete(w3.write.row);
        sched.complete(w4.write.row);
        assert!(sched.is_drained());
    }

    #[test]
    fn per_row_order_is_preserved() {
        let mut sched = RowQueueScheduler::new();
        for seq in 1..=5 {
            sched.enqueue(record(seq, 7));
        }
        let mut executed = Vec::new();
        while let Some(w) = sched.next_work() {
            executed.push(w.seq.as_u64());
            sched.complete(w.write.row);
        }
        assert_eq!(executed, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn conflicting_writes_never_run_concurrently() {
        let mut sched = RowQueueScheduler::new();
        sched.enqueue(record(1, 7));
        sched.enqueue(record(2, 7));
        let w = sched.next_work().unwrap();
        assert_eq!(w.seq, SeqNo(1));
        // The second write to row 7 is not runnable while the first executes.
        assert!(sched.next_work().is_none());
        sched.complete(w.write.row);
        assert_eq!(sched.next_work().unwrap().seq, SeqNo(2));
    }

    #[test]
    fn non_conflicting_writes_expose_full_parallelism() {
        let mut sched = RowQueueScheduler::new();
        for seq in 1..=16 {
            sched.enqueue(record(seq, seq)); // all distinct rows
        }
        assert_eq!(sched.runnable(), 16);
        let mut grabbed = Vec::new();
        while let Some(w) = sched.next_work() {
            grabbed.push(w);
        }
        assert_eq!(grabbed.len(), 16, "all sixteen writes can run concurrently");
    }

    #[test]
    fn counters_track_progress() {
        let mut sched = RowQueueScheduler::new();
        sched.enqueue(record(1, 1));
        sched.enqueue(record(2, 2));
        assert_eq!(sched.enqueued(), 2);
        assert_eq!(sched.pending(), 2);
        let w = sched.next_work().unwrap();
        sched.complete(w.write.row);
        assert_eq!(sched.completed(), 1);
        assert!(!sched.is_drained());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    use c5_common::{RowWrite, SeqNo, Timestamp, Value};
    use c5_log::SegmentBuilder;
    use c5_storage::MvStore;
    use proptest::prelude::*;

    use crate::scheduler::SchedulerState;

    fn record(seq: u64, key: u64) -> LogRecord {
        LogRecord {
            seq: SeqNo(seq),
            commit_wall_nanos: 0,
            prev_seq: SeqNo::ZERO,
            write: RowWrite::update(RowRef::new(0, key), Value::from_u64(seq)),
            txn_first: true,
            txn_last: true,
        }
    }

    proptest! {
        /// Draining the queues with a simulated pool of workers always
        /// executes each row's writes in log order, for any interleaving of
        /// grab/complete steps.
        #[test]
        fn per_row_log_order_holds_under_any_interleaving(
            keys in prop::collection::vec(0u64..6, 1..40),
            choices in prop::collection::vec(any::<bool>(), 0..200),
        ) {
            let mut sched = RowQueueScheduler::new();
            for (i, &k) in keys.iter().enumerate() {
                sched.enqueue(record(i as u64 + 1, k));
            }
            let mut in_flight: Vec<LogRecord> = Vec::new();
            let mut executed_per_row: std::collections::HashMap<RowRef, Vec<u64>> =
                std::collections::HashMap::new();
            let mut choice_idx = 0;
            while !sched.is_drained() {
                let grab = if in_flight.is_empty() {
                    true
                } else {
                    let c = choices.get(choice_idx).copied().unwrap_or(false);
                    choice_idx += 1;
                    c
                };
                if grab {
                    if let Some(w) = sched.next_work() {
                        in_flight.push(w);
                        continue;
                    }
                }
                // Complete the oldest in-flight write.
                if let Some(w) = in_flight.first().cloned() {
                    in_flight.remove(0);
                    executed_per_row.entry(w.write.row).or_default().push(w.seq.as_u64());
                    sched.complete(w.write.row);
                }
            }
            for seqs in executed_per_row.values() {
                let mut sorted = seqs.clone();
                sorted.sort_unstable();
                prop_assert_eq!(seqs, &sorted);
            }
            prop_assert_eq!(sched.completed(), keys.len() as u64);
        }

        /// The embedded form (Section 7.2) exposes exactly Figure 4's
        /// parallelism. A log over few rows (long per-row chains,
        /// multi-write transactions) is stamped by [`SchedulerState`] and
        /// fed to the explicit queues, which a random grab/complete
        /// interleaving then drains. At every step the records the queues
        /// make executable — heads of runnable rows plus those executing —
        /// are exactly the uncompleted records `install_if_prev` would admit:
        /// those whose stamped `prev_seq` is zero or already installed.
        #[test]
        fn embedded_prev_seq_admits_exactly_what_the_queues_make_executable(
            txns in prop::collection::vec(prop::collection::vec(0u64..4, 1..4), 1..25),
            steps in prop::collection::vec((any::<bool>(), any::<usize>()), 0..300),
        ) {
            let mut log = SegmentBuilder::new(1024);
            for keys in txns {
                let mut seen = HashSet::new();
                let writes: Vec<RowWrite> = keys
                    .iter()
                    .filter(|k| seen.insert(**k))
                    .map(|&k| RowWrite::update(RowRef::new(0, k), Value::from_u64(k)))
                    .collect();
                prop_assert!(log.push_txn(0, &writes).is_none());
            }
            let mut segment = log.flush().expect("every transaction writes");
            SchedulerState::new().process_segment(&mut segment);
            let records = segment.records;

            let mut sched = RowQueueScheduler::new();
            for record in &records {
                sched.enqueue(record.clone());
            }
            // The backup's store: a record is installed at its own position,
            // naming its predecessor's (Section 7.2).
            let store = MvStore::default();
            let mut completed = HashSet::new();
            let mut in_flight: Vec<LogRecord> = Vec::new();
            let mut steps = steps.into_iter();
            loop {
                let explicit: BTreeSet<SeqNo> = sched
                    .scheduler_queue
                    .iter()
                    .map(|row| sched.row_queues[row].front().unwrap().record.seq)
                    .chain(in_flight.iter().map(|r| r.seq))
                    .collect();
                let embedded: BTreeSet<SeqNo> = records
                    .iter()
                    .filter(|r| !completed.contains(&r.seq))
                    .filter(|r| {
                        store.latest_write_ts(r.write.row) == Timestamp(r.prev_seq.as_u64())
                    })
                    .map(|r| r.seq)
                    .collect();
                prop_assert_eq!(&explicit, &embedded);
                if sched.is_drained() {
                    break;
                }
                let (grab, pick) = steps.next().unwrap_or((false, 0));
                if in_flight.is_empty() || grab {
                    if let Some(w) = sched.next_work() {
                        in_flight.push(w);
                        continue;
                    }
                }
                // Complete any in-flight write, not only the oldest.
                let w = in_flight.swap_remove(pick % in_flight.len());
                prop_assert!(store.install_if_prev(
                    w.write.row,
                    Timestamp(w.prev_seq.as_u64()),
                    Timestamp(w.seq.as_u64()),
                    w.write.kind,
                    w.write.value.clone(),
                ));
                completed.insert(w.seq);
                sched.complete(w.write.row);
            }
            prop_assert_eq!(completed.len(), records.len());
        }
    }
}
