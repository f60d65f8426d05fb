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
//! last position of the last transaction that wrote it, so every incoming
//! transaction knows exactly which earlier transactions it must wait for:
//! a dependency is that transaction's last position. Workers pull
//! transactions from the shared queue in commit order and wait until the
//! exposure's applied tracker holds every dependency — each transaction is
//! installed and published as one item, so its last position being applied
//! means all of it is — then apply the transaction's writes. The wait
//! sleeps on the replica's own signal, notified after every transaction.
//!
//! Section 7.3's ablation ("we re-ran the experiment but disabled its
//! scheduler's calculation of transaction-granularity constraints") is the
//! [`KuaFuConfig::ignore_constraints`] flag: dependencies are still computed
//! but not waited on, which removes the protocol's correctness guarantee and
//! serves purely to show that the constraints — not implementation overhead —
//! are what make KuaFu lag.

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
    /// The last positions of earlier transactions whose write sets
    /// intersect this one's.
    deps: Vec<SeqNo>,
    records: Vec<LogRecord>,
}

/// KuaFu's ordering on the shared pipeline runtime.
struct KuaFuPolicy {
    config: KuaFuConfig,
    exposure: PrefixExposure,
    /// Notified after every applied transaction, and on interrupt.
    finished: ProgressSignal,
    /// Per row, the last position of the last transaction that wrote it.
    /// Only the schedule stage locks this.
    last_writer: Mutex<RowMap<SeqNo>>,
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
        // Group records into whole transactions (a segment holds only whole
        // ones) and compute, per transaction, the set of earlier transactions
        // it conflicts with.
        let mut last_writer = self.last_writer.lock();
        let mut txn = Vec::new();
        for record in segment.records {
            let is_last = record.is_txn_last();
            txn.push(record);
            if is_last {
                let records = std::mem::take(&mut txn);
                let last = records[records.len() - 1].seq;
                let mut deps = Vec::new();
                for r in &records {
                    if let Some(&writer) = last_writer.get(&r.write.row) {
                        if writer != last && !deps.contains(&writer) {
                            deps.push(writer);
                        }
                    }
                    last_writer.insert(r.write.row, last);
                }
                sink.send(TxnWork { deps, records });
            }
        }
    }

    fn apply(&self, _worker: usize, work: TxnWork, signals: &PipelineSignals) {
        if !self.config.ignore_constraints {
            // Sleeps with no timeout: `interrupt` notifies once shutdown is
            // requested.
            let mut ready = false;
            self.finished.wait_until(None, || {
                ready = work.deps.iter().all(|&d| self.exposure.is_applied(d));
                ready || signals.shutdown_requested()
            });
            if !ready {
                return;
            }
        }
        self.exposure.install_all(&work.records);
        self.finished.notify();
    }

    fn interrupt(&self) {
        self.finished.notify();
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
            finished: ProgressSignal::new(),
            last_writer: Mutex::new(RowMap::default()),
        });
        let options = PipelineOptions {
            workers: replica_config.workers,
            queue: QueuePlan::Shared,
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
    use c5_common::{RowRef, RowWrite, Timestamp, Value};
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
                TxnEntry::new(Timestamp(t), writes)
            })
            .collect();
        segments_from_entries(&entries, 32)
    }

    /// `drive_segments` on its own thread, failing the test if the replay
    /// has not drained within 30 s (a lost boundary or a missing wake-up
    /// leaves `finish` waiting for a cut) instead of hanging the suite.
    fn drive_within_deadline(replica: &Arc<KuaFuReplica>, segments: Vec<Segment>) {
        let (driven, (done, drained)) = (Arc::clone(replica), std::sync::mpsc::channel());
        let replay = std::thread::spawn(move || {
            drive_segments(driven.as_ref(), segments);
            let _ = done.send(());
        });
        // A replay thread that panicked has printed its panic and dropped
        // `done`, which also ends the wait.
        drained
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("the replay did not drain within 30 s"));
        replay.join().expect("the replay thread panicked");
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
        drive_within_deadline(&replica, conflicting_log(100, 3));

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
                    Timestamp(t),
                    vec![RowWrite::insert(row(t), Value::from_u64(t))],
                )
            })
            .collect();
        drive_within_deadline(&replica, segments_from_entries(&entries, 16));
        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 200);
        assert_eq!(metrics.applied_writes, 200);
    }

    /// A long replay whose every transaction waits on a recent one drains
    /// completely, within a deadline (a missing wake-up hangs it): everything
    /// applies and is exposed.
    #[test]
    fn a_drained_replay_over_64_hot_rows_applies_and_exposes_every_position() {
        let (_store, replica) = replica(4, KuaFuConfig::default());
        let entries: Vec<TxnEntry> = (1..=10_000u64)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(t),
                    vec![RowWrite::update(row(t % 64), Value::from_u64(t))],
                )
            })
            .collect();
        drive_within_deadline(&replica, segments_from_entries(&entries, 64));
        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 10_000);
        assert_eq!(metrics.applied_seq, SeqNo(10_000));
        assert_eq!(metrics.exposed_seq, SeqNo(10_000));
    }

    #[test]
    fn unconstrained_mode_still_applies_everything() {
        let (_store, replica) = replica(
            4,
            KuaFuConfig {
                ignore_constraints: true,
            },
        );
        drive_within_deadline(&replica, conflicting_log(50, 2));
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
        drive_within_deadline(&replica, conflicting_log(20, 1));
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
                Timestamp(1),
                vec![RowWrite::update(row(1), Value::from_u64(1))],
            ),
            TxnEntry::new(
                Timestamp(2),
                vec![RowWrite::update(row(2), Value::from_u64(2))],
            ),
            TxnEntry::new(
                Timestamp(3),
                vec![
                    RowWrite::update(row(1), Value::from_u64(31)),
                    RowWrite::update(row(2), Value::from_u64(32)),
                ],
            ),
        ];
        drive_within_deadline(&replica, segments_from_entries(&entries, 16));
        let view = replica.read_view();
        assert_eq!(view.get(row(1)).unwrap().as_u64(), Some(31));
        assert_eq!(view.get(row(2)).unwrap().as_u64(), Some(32));
    }
}
