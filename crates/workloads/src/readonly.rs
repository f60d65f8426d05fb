//! Read-only point-query clients (Figures 8 and 9).
//!
//! Section 6.3: "Each read-only transaction executes a random point query on
//! the table's primary key; queries could select a nonexistent key." The
//! clients here are closed-loop: each repeatedly takes a read view of the
//! backup's exposed snapshot, issues one point read, and immediately issues
//! the next.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use c5_common::RowRef;
use c5_core::lag::LagStats;
use c5_core::replica::ClonedConcurrencyControl;
use c5_obs::Histogram;

/// Every `LATENCY_SAMPLE_EVERY`th read's latency is measured and recorded,
/// keeping the clock calls off the closed-loop hot path.
pub const LATENCY_SAMPLE_EVERY: u64 = 16;

/// Outcome of a read-only client run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadRunStats {
    /// Point queries executed.
    pub reads: u64,
    /// Point queries that found a row.
    pub hits: u64,
    /// Wall-clock duration of the run in nanoseconds.
    pub wall_nanos: u64,
    /// Latency percentiles over the sampled reads (one in every
    /// [`LATENCY_SAMPLE_EVERY`]), or `None` when no read was sampled.
    pub latency: Option<LagStats>,
}

impl ReadRunStats {
    /// Read-only transactions per second.
    pub fn throughput(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.reads as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }
}

/// Runs `clients` closed-loop point-query clients against `replica` for
/// `duration`. Keys are drawn uniformly from `[0, key_space)` in table
/// `table`; with zero clients the function returns immediately (the
/// Figure 8/9 baseline case).
pub fn run_point_read_clients(
    replica: &dyn ClonedConcurrencyControl,
    clients: usize,
    duration: Duration,
    table: u32,
    key_space: u64,
    seed: u64,
) -> ReadRunStats {
    if clients == 0 {
        return ReadRunStats::default();
    }
    let reads = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    let latency_ns = Histogram::new();
    let stop = AtomicBool::new(false);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for client in 0..clients {
            let reads = &reads;
            let hits = &hits;
            let latency_ns = &latency_ns;
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(client as u64));
                let mut local_reads = 0u64;
                let mut local_hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..key_space.max(1));
                    // Time one in every LATENCY_SAMPLE_EVERY reads; the rest
                    // run clock-free so sampling barely perturbs throughput.
                    let timed = local_reads % LATENCY_SAMPLE_EVERY == 0;
                    let read_start = timed.then(Instant::now);
                    let view = replica.read_view();
                    if view.get(RowRef::new(table, key)).is_some() {
                        local_hits += 1;
                    }
                    if let Some(read_start) = read_start {
                        latency_ns.record_duration(read_start.elapsed());
                    }
                    local_reads += 1;
                    // Check the clock only every few iterations to keep the
                    // measurement loop cheap.
                    if local_reads % 64 == 0 && start.elapsed() >= duration {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                reads.fetch_add(local_reads, Ordering::Relaxed);
                hits.fetch_add(local_hits, Ordering::Relaxed);
            });
        }
        // A watchdog in case clients spin slower than the check interval.
        scope.spawn(|| {
            while start.elapsed() < duration {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    ReadRunStats {
        reads: reads.load(Ordering::Relaxed),
        hits: hits.load(Ordering::Relaxed),
        wall_nanos: start.elapsed().as_nanos() as u64,
        latency: LagStats::from_histogram(&latency_ns.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SYNTHETIC_TABLE;
    use c5_common::{ReplicaConfig, RowWrite, Timestamp, Value};
    use c5_core::replica::{drive_segments, C5Mode, C5Replica};
    use c5_log::{segments_from_entries, TxnEntry};
    use c5_storage::MvStore;
    use std::sync::Arc;

    #[test]
    fn zero_clients_is_a_noop() {
        let store = Arc::new(MvStore::default());
        let replica = C5Replica::new(C5Mode::Faithful, store, ReplicaConfig::default());
        let stats = run_point_read_clients(
            replica.as_ref(),
            0,
            Duration::from_millis(10),
            SYNTHETIC_TABLE,
            100,
            1,
        );
        assert_eq!(stats, ReadRunStats::default());
        replica.finish();
    }

    #[test]
    fn clients_read_only_exposed_rows() {
        let store = Arc::new(MvStore::default());
        let replica = C5Replica::new(
            C5Mode::Faithful,
            Arc::clone(&store),
            ReplicaConfig::default().with_workers(2),
        );
        // Ship 50 single-insert transactions.
        let entries: Vec<TxnEntry> = (0..50u64)
            .map(|k| {
                TxnEntry::new(
                    Timestamp(k + 1),
                    vec![RowWrite::insert(
                        RowRef::new(SYNTHETIC_TABLE, k),
                        Value::from_u64(k),
                    )],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 8));

        let stats = run_point_read_clients(
            replica.as_ref(),
            2,
            Duration::from_millis(50),
            SYNTHETIC_TABLE,
            100,
            7,
        );
        assert!(stats.reads > 0);
        // Roughly half the key space is populated; hits must be non-zero but
        // cannot exceed total reads.
        assert!(stats.hits > 0);
        assert!(stats.hits <= stats.reads);
        assert!(stats.throughput() > 0.0);
        // Each client times its very first read, so samples always exist and
        // the percentile summary is well-formed.
        let latency = stats.latency.expect("latency samples were collected");
        assert!(latency.count >= 1);
        assert!(latency.p50_ms <= latency.p99_ms);
        assert!(latency.p99_ms <= latency.max_ms);
    }
}
