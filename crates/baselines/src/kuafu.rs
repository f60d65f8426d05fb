//! KuaFu: the transaction-granularity baseline.
//!
//! KuaFu (Hong et al., ICDE 2013) is the paper's main comparison point and is
//! "nearly identical to MySQL 8's writeset-based parallel replication"
//! (Section 6). The protocol's defining constraint (Section 3.1): for any two
//! transactions whose write sets intersect, all of the earlier one's writes
//! execute before any of the later one's. Transactions with disjoint write
//! sets apply concurrently, each on a single worker.
//!
//! On the shared pipeline runtime, the schedule stage tracks, per row, the
//! last transaction that wrote it, so every incoming transaction knows
//! exactly which earlier transactions it must wait for. Workers pull
//! transactions from the shared queue in commit order, wait until every
//! dependency has finished, then apply the transaction's writes.
//!
//! Section 7.3's ablation ("we re-ran the experiment but disabled its
//! scheduler's calculation of transaction-granularity constraints") is the
//! [`KuaFuConfig::ignore_constraints`] flag: dependencies are still computed
//! but not waited on, which removes the protocol's correctness guarantee and
//! serves purely to show that the constraints — not implementation overhead —
//! are what make KuaFu lag.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use c5_common::{ProgressSignal, ReplicaConfig, RowMap, SeqNo};
use c5_core::exposure::PrefixExposure;
use c5_core::pipeline::{
    PipelineOptions, PipelinePolicy, PipelineRuntime, PipelineSignals, QueuePlan, WorkSink,
};
use c5_log::{LogRecord, Segment};
use c5_storage::MvStore;

/// KuaFu-specific configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct KuaFuConfig {
    /// Skip waiting on write-set dependencies (the Section 7.3 ablation).
    /// The replica no longer guarantees convergence; use only to measure the
    /// cost of the constraints themselves.
    pub ignore_constraints: bool,
}

/// A transaction handed to the workers.
struct TxnWork {
    /// Dense transaction index in commit order (1-based).
    index: u64,
    /// Indices of earlier transactions whose write sets intersect this one's.
    deps: Vec<u64>,
    records: Vec<LogRecord>,
}

/// Tracks which transaction indices have finished applying. Indices are
/// dense and start at 1, so the board keeps the contiguous prefix of done
/// indices as one number and only the done indices above it as a set: its
/// size is bounded by how far the workers run ahead of the oldest
/// unfinished transaction, not by how many transactions have ever applied.
#[derive(Default)]
struct CompletionBoard {
    done: Mutex<DoneSet>,
    /// Notified after every index marked done, and on abort.
    finished: ProgressSignal,
}

#[derive(Default)]
struct DoneSet {
    /// Every index `<= through` is done.
    through: u64,
    /// Done indices above `through`.
    above: HashSet<u64>,
}

impl DoneSet {
    fn contains(&self, index: u64) -> bool {
        index <= self.through || self.above.contains(&index)
    }

    fn insert(&mut self, index: u64) {
        if index != self.through + 1 {
            self.above.insert(index);
            return;
        }
        self.through = index;
        while self.above.remove(&(self.through + 1)) {
            self.through += 1;
        }
    }
}

impl CompletionBoard {
    fn mark_done(&self, index: u64) {
        self.done.lock().insert(index);
        self.finished.notify();
    }

    /// Waits until every index in `deps` is done; returns `false` if
    /// `should_abort` fires first. Sleeps on the board's signal with no
    /// timeout: whoever makes `should_abort` true must call
    /// [`wake_all`](Self::wake_all) afterwards.
    fn wait_for(&self, deps: &[u64], should_abort: &impl Fn() -> bool) -> bool {
        let mut ready = false;
        self.finished.wait_until(None, || {
            let done = self.done.lock();
            ready = deps.iter().all(|&d| done.contains(d));
            ready || should_abort()
        });
        ready
    }

    fn wake_all(&self) {
        self.finished.notify();
    }
}

/// Schedule-stage state: which transaction last wrote each row.
#[derive(Default)]
struct DispatchState {
    last_writer: RowMap<u64>,
    next_index: u64,
    pending_txn: Vec<LogRecord>,
}

/// KuaFu's ordering on the shared pipeline runtime.
struct KuaFuPolicy {
    config: KuaFuConfig,
    exposure: PrefixExposure,
    board: CompletionBoard,
    /// Only the schedule stage locks this.
    dispatch: Mutex<DispatchState>,
}

impl PipelinePolicy for KuaFuPolicy {
    type Item = TxnWork;

    fn name(&self) -> &'static str {
        if self.config.ignore_constraints {
            "kuafu-unconstrained"
        } else {
            "kuafu"
        }
    }

    fn schedule(&self, segment: Segment, sink: &mut WorkSink<TxnWork>) {
        self.exposure.note_segment(&segment);
        // Group records into whole transactions and compute, per transaction,
        // the set of earlier transactions it conflicts with.
        let mut dispatch = self.dispatch.lock();
        for record in segment.records {
            let is_last = record.is_txn_last();
            dispatch.pending_txn.push(record);
            if is_last {
                let records = std::mem::take(&mut dispatch.pending_txn);
                dispatch.next_index += 1;
                let index = dispatch.next_index;
                let mut deps: Vec<u64> = Vec::new();
                for r in &records {
                    if let Some(&writer) = dispatch.last_writer.get(&r.write.row) {
                        if writer != index && !deps.contains(&writer) {
                            deps.push(writer);
                        }
                    }
                    dispatch.last_writer.insert(r.write.row, index);
                }
                sink.send(TxnWork {
                    index,
                    deps,
                    records,
                });
                if sink.workers_gone() {
                    return;
                }
            }
        }
    }

    fn apply(&self, _worker: usize, work: TxnWork, signals: &PipelineSignals) {
        if !self.config.ignore_constraints
            && !self
                .board
                .wait_for(&work.deps, &|| signals.shutdown_requested())
        {
            return;
        }
        for record in &work.records {
            self.exposure.install(record);
        }
        self.board.mark_done(work.index);
    }

    fn interrupt(&self) {
        self.board.wake_all();
    }

    fn exposure(&self) -> &PrefixExposure {
        &self.exposure
    }
}

/// The KuaFu replica.
pub struct KuaFuReplica {
    runtime: PipelineRuntime<KuaFuPolicy>,
}

impl KuaFuReplica {
    /// Creates and starts a KuaFu replica with `replica_config.workers`
    /// workers.
    pub fn new(
        store: Arc<MvStore>,
        replica_config: ReplicaConfig,
        config: KuaFuConfig,
    ) -> Arc<Self> {
        let policy = Arc::new(KuaFuPolicy {
            config,
            exposure: PrefixExposure::timestamped(store, &replica_config, SeqNo::ZERO),
            board: CompletionBoard::default(),
            dispatch: Mutex::new(DispatchState::default()),
        });
        let options = PipelineOptions {
            workers: replica_config.workers,
            queue: QueuePlan::Shared { capacity: 4096 },
        };
        Arc::new(Self {
            runtime: PipelineRuntime::start(policy, options),
        })
    }
}

c5_core::delegate_replica_to_pipeline!(KuaFuReplica, runtime);

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, RowWrite, Timestamp, TxnId, Value};
    use c5_core::replica::{drive_segments, ClonedConcurrencyControl};
    use c5_log::{segments_from_entries, TxnEntry};

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    /// Adversarial-style log: every transaction inserts unique rows and
    /// updates the shared row 0, so every transaction conflicts with its
    /// predecessor.
    fn conflicting_log(txns: u64, inserts: u64) -> Vec<Segment> {
        let entries: Vec<TxnEntry> = (1..=txns)
            .map(|t| {
                let mut writes: Vec<RowWrite> = (0..inserts)
                    .map(|i| RowWrite::insert(row(1 + t * inserts + i), Value::from_u64(i)))
                    .collect();
                writes.push(RowWrite::update(row(0), Value::from_u64(t)));
                TxnEntry::new(TxnId(t), Timestamp(t), writes)
            })
            .collect();
        segments_from_entries(&entries, 32)
    }

    fn replica(workers: usize, config: KuaFuConfig) -> (Arc<MvStore>, Arc<KuaFuReplica>) {
        let store = Arc::new(MvStore::default());
        store.install(
            row(0),
            Timestamp::ZERO,
            c5_common::WriteKind::Insert,
            Some(Value::from_u64(0)),
        );
        let replica = KuaFuReplica::new(
            Arc::clone(&store),
            ReplicaConfig::default().with_workers(workers),
            config,
        );
        (store, replica)
    }

    #[test]
    fn conflicting_transactions_serialize_correctly() {
        let (_store, replica) = replica(4, KuaFuConfig::default());
        drive_segments(replica.as_ref(), conflicting_log(100, 3));

        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 100);
        assert_eq!(metrics.exposed_seq, metrics.applied_seq);
        // The hot row reflects the last transaction: conflicting transactions
        // were applied in commit order.
        assert_eq!(replica.read_view().get(row(0)).unwrap().as_u64(), Some(100));
        assert_eq!(replica.lag().len(), 100);
        assert_eq!(replica.name(), "kuafu");
    }

    #[test]
    fn non_conflicting_transactions_apply_fully() {
        let (_store, replica) = replica(4, KuaFuConfig::default());
        let entries: Vec<TxnEntry> = (1..=200u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::insert(row(t), Value::from_u64(t))],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 16));
        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 200);
        assert_eq!(metrics.applied_writes, 200);
    }

    /// The board forgets finished transactions: once everything has
    /// applied, only the contiguous prefix is left.
    #[test]
    fn the_completion_board_keeps_only_the_done_indices_above_the_prefix() {
        let (_store, replica) = replica(4, KuaFuConfig::default());
        let entries: Vec<TxnEntry> = (1..=10_000u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::update(row(t % 64), Value::from_u64(t))],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 64));
        let done = replica.runtime.policy().board.done.lock();
        assert_eq!(done.through, 10_000);
        assert!(done.above.is_empty(), "{} indices kept", done.above.len());
    }

    #[test]
    fn unconstrained_mode_still_applies_everything() {
        let (_store, replica) = replica(
            4,
            KuaFuConfig {
                ignore_constraints: true,
            },
        );
        drive_segments(replica.as_ref(), conflicting_log(50, 2));
        assert_eq!(replica.metrics().applied_txns, 50);
        assert_eq!(replica.name(), "kuafu-unconstrained");
    }

    /// Stage metrics land in the sink the configuration names, not in the
    /// process-wide default.
    #[test]
    fn stage_metrics_go_to_the_configured_sink() {
        let (used, untouched) = (c5_obs::Obs::new(), c5_obs::Obs::new());
        let replica = KuaFuReplica::new(
            Arc::new(MvStore::default()),
            ReplicaConfig::default()
                .with_workers(2)
                .with_obs(Arc::clone(&used)),
            KuaFuConfig::default(),
        );
        drive_segments(replica.as_ref(), conflicting_log(20, 1));
        let applied = |obs: &c5_obs::Obs| {
            let snapshot = obs.metrics.snapshot();
            snapshot.counter("stage_items_total{stage=\"apply\"}")
        };
        assert_eq!(applied(&used), Some(20), "one apply item per transaction");
        assert_eq!(applied(&untouched), None);
    }

    #[test]
    fn dependencies_are_computed_per_write_set_intersection() {
        // txn1 writes {1}, txn2 writes {2}, txn3 writes {1,2}: txn3 depends on
        // both, txn2 depends on nothing. We verify behaviourally: the final
        // state reflects txn3's writes even with many workers racing.
        let (_store, replica) = replica(4, KuaFuConfig::default());
        let entries = vec![
            TxnEntry::new(
                TxnId(1),
                Timestamp(1),
                vec![RowWrite::update(row(1), Value::from_u64(1))],
            ),
            TxnEntry::new(
                TxnId(2),
                Timestamp(2),
                vec![RowWrite::update(row(2), Value::from_u64(2))],
            ),
            TxnEntry::new(
                TxnId(3),
                Timestamp(3),
                vec![
                    RowWrite::update(row(1), Value::from_u64(31)),
                    RowWrite::update(row(2), Value::from_u64(32)),
                ],
            ),
        ];
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 16));
        let view = replica.read_view();
        assert_eq!(view.get(row(1)).unwrap().as_u64(), Some(31));
        assert_eq!(view.get(row(2)).unwrap().as_u64(), Some(32));
    }
}
