//! Experiment sizing: one type, three constants.

use std::time::Duration;

use c5_workloads::TpccConfig;

/// How big to make each experiment.
///
/// Every scenario takes its sizing from one of three constants. The
/// experiments run at [`quick`](Self::quick) (a few seconds per data point,
/// so the whole suite finishes in minutes; the *shape* of every result is
/// already visible) or [`full`](Self::full) (the paper's trials run for 120
/// seconds on a CloudLab cluster; this is the closest a laptop gets); tests
/// build on [`smoke`](Self::smoke).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Wall-clock duration of each streaming measurement window.
    pub duration: Duration,
    /// Primary executor threads / closed-loop clients.
    pub primary_threads: usize,
    /// Backup apply workers (never more than the primary's threads; a
    /// sharded replica divides them among its shards, one at least each).
    pub replica_workers: usize,
    /// Log records per shipped segment.
    pub segment_records: usize,
    /// Transactions in an offline (replay) measurement, across all primary
    /// threads: the MVTSO experiments and the apply-path ns/record replay.
    pub apply_txns: u64,
    /// Number of TPC-C items in the catalog.
    pub tpcc_items: u64,
    /// Number of TPC-C customers per district.
    pub tpcc_customers: u64,
    /// Replicas in the fan-out, read-serving and elastic scenarios.
    pub fanout_replicas: usize,
    /// Reader sessions in the read-serving and elastic scenarios.
    pub read_sessions: usize,
}

impl Scale {
    /// The quick scale the `experiments` sub-commands default to.
    pub const fn quick() -> Self {
        Self {
            duration: Duration::from_millis(1500),
            primary_threads: 4,
            replica_workers: 4,
            segment_records: 256,
            apply_txns: 8_000,
            tpcc_items: 1_000,
            tpcc_customers: 100,
            fanout_replicas: 3,
            read_sessions: 4,
        }
    }

    /// A fuller scale for more stable numbers (`experiments --full`).
    pub const fn full() -> Self {
        Self {
            duration: Duration::from_secs(10),
            primary_threads: 8,
            replica_workers: 8,
            segment_records: 512,
            apply_txns: 160_000,
            tpcc_items: 10_000,
            tpcc_customers: 500,
            ..Self::quick()
        }
    }

    /// The scale the end-to-end tests run scenarios at: two threads and a
    /// fraction of the duration, enough to exercise every path, too short
    /// for its numbers to mean anything.
    pub const fn smoke() -> Self {
        Self {
            duration: Duration::from_millis(300),
            primary_threads: 2,
            replica_workers: 2,
            segment_records: 64,
            apply_txns: 5_000,
            fanout_replicas: 2,
            read_sessions: 2,
            ..Self::quick()
        }
    }

    /// Transactions each primary thread submits in an offline measurement.
    pub fn offline_txns_per_thread(&self) -> u64 {
        (self.apply_txns / self.primary_threads as u64).max(1)
    }

    /// The TPC-C configuration at this scale (standard 10 districts,
    /// unoptimized; experiments override the knobs they sweep).
    pub fn tpcc(&self) -> TpccConfig {
        TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 10,
            items: self.tpcc_items,
            customers_per_district: self.tpcc_customers,
            optimized: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_four_scales_are_valid_and_ordered() {
        for scale in [Scale::quick(), Scale::full(), Scale::smoke()] {
            assert!(
                !scale.duration.is_zero() && scale.apply_txns > 0,
                "{scale:?}"
            );
            assert!(scale.replica_workers <= scale.primary_threads, "{scale:?}");
            assert!(
                scale.fanout_replicas > 0 && scale.read_sessions > 0,
                "{scale:?}"
            );
        }
        let (q, f) = (Scale::quick(), Scale::full());
        assert!(q.duration < f.duration);
        assert!(q.offline_txns_per_thread() < f.offline_txns_per_thread());
        assert_eq!(q.tpcc().districts_per_warehouse, 10);
    }
}
