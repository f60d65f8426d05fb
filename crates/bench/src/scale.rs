//! Experiment sizing: one type, four constants.

use std::time::Duration;

use c5_common::{Error, Result};
use c5_workloads::TpccConfig;

/// How big to make each experiment.
///
/// Every scenario takes its sizing from one of four constants. The figure
/// experiments run at [`quick`](Self::quick) (a few seconds per data point,
/// so the whole suite finishes in minutes; the *shape* of every result is
/// already visible) or [`full`](Self::full) (the paper's trials run for 120
/// seconds on a CloudLab cluster; this is the closest a laptop gets). The
/// `bench` sub-command emits the `BENCH_*.json` files at
/// [`fixed`](Self::fixed) — *data*, not knobs: numbers taken at different
/// values do not compare — and CI checks their schema at
/// [`smoke`](Self::smoke).
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
    /// Largest shard count of the sharding sweep (the sweep doubles from 1
    /// up to this; the high end is what locates the cut-coordinator knee).
    pub max_sweep_shards: usize,
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
            max_sweep_shards: 8,
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

    /// The fixed parameters `BENCH_*.json` files are measured at.
    pub const fn fixed() -> Self {
        Self {
            apply_txns: 60_000,
            max_sweep_shards: 64,
            ..Self::quick()
        }
    }

    /// The reduced-iteration mode CI runs `bench` in on every push: same
    /// scenarios and schema, a fraction of the duration, sweep capped low.
    /// Numbers from this mode are for schema validation only.
    pub const fn smoke() -> Self {
        Self {
            duration: Duration::from_millis(300),
            primary_threads: 2,
            replica_workers: 2,
            segment_records: 64,
            apply_txns: 5_000,
            fanout_replicas: 2,
            read_sessions: 2,
            max_sweep_shards: 16,
            ..Self::quick()
        }
    }

    /// Rejects a scale no scenario can run at.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            ("duration", !self.duration.is_zero()),
            ("primary_threads", self.primary_threads > 0),
            ("replica_workers", self.replica_workers > 0),
            ("segment_records", self.segment_records > 0),
            ("apply_txns", self.apply_txns > 0),
            ("fanout_replicas", self.fanout_replicas > 0),
            ("read_sessions", self.read_sessions > 0),
        ];
        if let Some((field, _)) = positive.iter().find(|(_, ok)| !ok) {
            return Err(Error::InvalidConfig(format!("{field} must be non-zero")));
        }
        if !self.max_sweep_shards.is_power_of_two()
            || self.max_sweep_shards > c5_common::shard::MAX_SHARDS
        {
            return Err(Error::InvalidConfig(format!(
                "sweep shard count must be a power of two at most {} (got {})",
                c5_common::shard::MAX_SHARDS,
                self.max_sweep_shards
            )));
        }
        Ok(())
    }

    /// Transactions each primary thread submits in an offline measurement.
    pub fn offline_txns_per_thread(&self) -> u64 {
        (self.apply_txns / self.primary_threads as u64).max(1)
    }

    /// The shard counts the sharding sweep visits: powers of two from 1
    /// through `max_sweep_shards`.
    pub fn sweep_shards(&self) -> Vec<usize> {
        std::iter::successors(Some(1), |n| Some(n * 2))
            .take_while(|&n| n <= self.max_sweep_shards)
            .collect()
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
        for scale in [
            Scale::quick(),
            Scale::full(),
            Scale::fixed(),
            Scale::smoke(),
        ] {
            scale.validate().expect("a built-in scale is valid");
        }
        let (q, f) = (Scale::quick(), Scale::full());
        assert!(q.duration < f.duration);
        assert!(q.offline_txns_per_thread() < f.offline_txns_per_thread());
        assert_eq!(q.tpcc().districts_per_warehouse, 10);
        assert_eq!(Scale::smoke().sweep_shards(), [1, 2, 4, 8, 16]);
        assert_eq!(Scale::fixed().sweep_shards().last(), Some(&64));
    }

    #[test]
    fn an_unrunnable_scale_is_rejected() {
        for broken in [
            Scale {
                duration: Duration::ZERO,
                ..Scale::smoke()
            },
            Scale {
                replica_workers: 0,
                ..Scale::smoke()
            },
            Scale {
                max_sweep_shards: 3,
                ..Scale::smoke()
            },
            Scale {
                max_sweep_shards: 2 * c5_common::shard::MAX_SHARDS,
                ..Scale::smoke()
            },
        ] {
            assert!(broken.validate().is_err(), "{broken:?}");
        }
    }
}
