//! Single-threaded log replay.
//!
//! MySQL 5.6's default cloned concurrency control (Section 8, Figure 12):
//! one thread applies the log strictly in order. It trivially guarantees
//! monotonic prefix consistency and is trivially unable to keep up with any
//! primary that executes writes in parallel — the protocol whose daily
//! two-hour lag at Meta motivates the paper. On the shared pipeline runtime
//! this is simply the degenerate ordering: one worker, one shared queue,
//! whole segments applied in order.

use std::sync::Arc;

use c5_common::{ReplicaConfig, SeqNo};
use c5_core::exposure::PrefixExposure;
use c5_core::pipeline::{
    PipelineOptions, PipelinePolicy, PipelineRuntime, PipelineSignals, QueuePlan, WorkSink,
};
use c5_log::{LogRecord, Segment};
use c5_storage::MvStore;

/// The single-threaded ordering: whole segments, one worker, log order.
struct SinglePolicy {
    exposure: PrefixExposure,
}

impl PipelinePolicy for SinglePolicy {
    type Item = Segment;

    fn name(&self) -> &'static str {
        "single-threaded"
    }

    fn schedule(&self, segment: Segment, sink: &mut WorkSink<Segment>) {
        self.exposure.note_segment(&segment);
        sink.send(segment);
    }

    fn apply(&self, _worker: usize, segment: Segment, signals: &PipelineSignals) {
        // One publish and one cut per transaction, so lag is sampled the
        // moment a transaction applies rather than when the segment ends
        // (the runtime exposes once more per item).
        for txn in segment.records.split_inclusive(LogRecord::is_txn_last) {
            self.exposure.install_all(txn);
            self.exposure.expose(signals);
        }
    }

    fn exposure(&self) -> &PrefixExposure {
        &self.exposure
    }
}

/// The single-threaded replica.
pub struct SingleThreadedReplica {
    runtime: PipelineRuntime<SinglePolicy>,
}

impl SingleThreadedReplica {
    /// Creates a single-threaded replica over `store`. The `workers` field of
    /// the configuration is ignored (there is exactly one worker by
    /// definition).
    pub fn new(store: Arc<MvStore>, config: ReplicaConfig) -> Arc<Self> {
        let policy = Arc::new(SinglePolicy {
            exposure: PrefixExposure::timestamped(store, &config, SeqNo::ZERO),
        });
        let options = PipelineOptions {
            workers: 1,
            queue: QueuePlan::Shared,
        };
        Arc::new(Self {
            runtime: PipelineRuntime::start(policy, options),
        })
    }
}

c5_core::delegate_replica_to_pipeline!(SingleThreadedReplica, runtime);

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, RowWrite, SeqNo, Timestamp, Value};
    use c5_core::replica::{drive_segments, ClonedConcurrencyControl};
    use c5_log::{segments_from_entries, TxnEntry};

    #[test]
    fn applies_everything_in_order() {
        let store = Arc::new(MvStore::default());
        let replica = SingleThreadedReplica::new(Arc::clone(&store), ReplicaConfig::default());

        let entries: Vec<TxnEntry> = (1..=20u64)
            .map(|i| {
                TxnEntry::new(
                    Timestamp(i),
                    vec![RowWrite::update(RowRef::new(0, 0), Value::from_u64(i))],
                )
            })
            .collect();
        let segments = segments_from_entries(&entries, 4);
        drive_segments(replica.as_ref(), segments);

        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 20);
        assert_eq!(metrics.applied_seq, SeqNo(20));
        assert_eq!(metrics.exposed_seq, SeqNo(20));
        assert_eq!(replica.lag().len(), 20);
        assert_eq!(
            replica.read_view().get(RowRef::new(0, 0)).unwrap().as_u64(),
            Some(20)
        );
        assert_eq!(replica.name(), "single-threaded");
    }
}
