//! Per-consistency-class read metrics.
//!
//! The router buckets every read by its [`ClassKind`] and tracks counters
//! plus two sampled distributions: end-to-end read latency (routing + any
//! blocking + the storage read) and the observed staleness of the serving
//! replica at the moment the read was pinned. The distributions live in
//! shared [`c5_obs::Histogram`]s registered as
//! `read_latency_ns{class="…"}` / `read_staleness_ns{class="…"}` — fixed
//! bucket arrays recorded with plain atomics, so the sampled path takes no
//! lock and memory stays bounded however long the run. Percentile summaries
//! are [`LagStats::from_histogram`], the one summary the replication-lag
//! tracker reports too (quantiles carry the histogram's ≤12.5% bucket
//! resolution; count/min/max/mean are exact).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use c5_core::lag::LagStats;
use c5_obs::{Histogram, Obs};

use crate::consistency::ClassKind;

/// One class's counters and distribution handles.
#[derive(Debug)]
struct ClassMetrics {
    reads: AtomicU64,
    hits: AtomicU64,
    txns: AtomicU64,
    blocked: AtomicU64,
    block_nanos: AtomicU64,
    timeouts: AtomicU64,
    /// Drives the 1-in-N sampling of the distributions below.
    sample_clock: AtomicU64,
    latency_ns: Arc<Histogram>,
    staleness_ns: Arc<Histogram>,
}

impl ClassMetrics {
    fn new(obs: &Obs, kind: ClassKind) -> Self {
        let class = kind.name();
        Self {
            reads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            txns: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            block_nanos: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            sample_clock: AtomicU64::new(0),
            latency_ns: obs
                .metrics
                .histogram(&format!("read_latency_ns{{class=\"{class}\"}}")),
            staleness_ns: obs
                .metrics
                .histogram(&format!("read_staleness_ns{{class=\"{class}\"}}")),
        }
    }
}

/// One in every `LATENCY_SAMPLE_EVERY` reads of a class records its latency
/// and observed staleness into the class's histograms, which keeps the
/// metrics path (a clock read, a frontier probe) off the hot read path.
pub const LATENCY_SAMPLE_EVERY: u64 = 8;

/// All classes' metrics, owned by the router.
#[derive(Debug)]
pub(crate) struct RouterMetrics {
    classes: [ClassMetrics; 3],
}

impl RouterMetrics {
    pub(crate) fn new(obs: &Obs) -> Self {
        Self {
            classes: ClassKind::ALL.map(|kind| ClassMetrics::new(obs, kind)),
        }
    }

    fn class(&self, kind: ClassKind) -> &ClassMetrics {
        &self.classes[kind.index()]
    }

    /// Records one served read. `staleness_ms` is evaluated *only* on
    /// sampled ticks — computing it costs a frontier probe or a fleet
    /// sweep, which must stay off the unsampled hot path — and may return
    /// `None` when the serving replica's staleness was unbounded.
    pub(crate) fn record_read(
        &self,
        kind: ClassKind,
        latency: Duration,
        blocked: Duration,
        staleness_ms: impl FnOnce() -> Option<f64>,
        hit: bool,
    ) {
        let class = self.class(kind);
        class.reads.fetch_add(1, Ordering::Relaxed);
        if hit {
            class.hits.fetch_add(1, Ordering::Relaxed);
        }
        if !blocked.is_zero() {
            class.blocked.fetch_add(1, Ordering::Relaxed);
            class
                .block_nanos
                .fetch_add(blocked.as_nanos() as u64, Ordering::Relaxed);
        }
        let tick = class.sample_clock.fetch_add(1, Ordering::Relaxed);
        if tick % LATENCY_SAMPLE_EVERY == 0 {
            class.latency_ns.record_duration(latency);
            if let Some(staleness) = staleness_ms() {
                class.staleness_ns.record((staleness * 1e6) as u64);
            }
        }
    }

    /// Records one opened read-only transaction (its pin cost counts like a
    /// read's; the reads it performs are recorded individually).
    pub(crate) fn record_txn(&self, kind: ClassKind, latency: Duration, blocked: Duration) {
        self.class(kind).txns.fetch_add(1, Ordering::Relaxed);
        // An opened transaction is not itself a row read; count only its
        // blocking and latency so pin cost is visible per class.
        let class = self.class(kind);
        if !blocked.is_zero() {
            class.blocked.fetch_add(1, Ordering::Relaxed);
            class
                .block_nanos
                .fetch_add(blocked.as_nanos() as u64, Ordering::Relaxed);
        }
        let tick = class.sample_clock.fetch_add(1, Ordering::Relaxed);
        if tick % LATENCY_SAMPLE_EVERY == 0 {
            class.latency_ns.record_duration(latency);
        }
    }

    /// Records one read inside an already-pinned read-only transaction.
    pub(crate) fn record_txn_read(&self, kind: ClassKind, hit: bool) {
        self.record_txn_reads(kind, 1, hit as u64);
    }

    /// Records a batch of reads (a `get_many` or a scan) inside an
    /// already-pinned read-only transaction: two increments total, however
    /// large the batch.
    pub(crate) fn record_txn_reads(&self, kind: ClassKind, reads: u64, hits: u64) {
        let class = self.class(kind);
        class.reads.fetch_add(reads, Ordering::Relaxed);
        class.hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Records a read that gave up waiting.
    pub(crate) fn record_timeout(&self, kind: ClassKind, blocked: Duration) {
        let class = self.class(kind);
        class.timeouts.fetch_add(1, Ordering::Relaxed);
        class.blocked.fetch_add(1, Ordering::Relaxed);
        class
            .block_nanos
            .fetch_add(blocked.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Snapshot of one class's statistics.
    pub(crate) fn stats(&self, kind: ClassKind) -> ClassStats {
        let class = self.class(kind);
        ClassStats {
            kind,
            reads: class.reads.load(Ordering::Relaxed),
            hits: class.hits.load(Ordering::Relaxed),
            txns: class.txns.load(Ordering::Relaxed),
            blocked: class.blocked.load(Ordering::Relaxed),
            block_nanos: class.block_nanos.load(Ordering::Relaxed),
            timeouts: class.timeouts.load(Ordering::Relaxed),
            latency: LagStats::from_histogram(&class.latency_ns.snapshot()),
            staleness: LagStats::from_histogram(&class.staleness_ns.snapshot()),
        }
    }
}

/// A snapshot of one consistency class's read statistics.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Which class this summarizes.
    pub kind: ClassKind,
    /// Point reads served (including reads inside read-only transactions).
    pub reads: u64,
    /// Reads that found a live row.
    pub hits: u64,
    /// Read-only transactions opened.
    pub txns: u64,
    /// Reads/transaction-opens that had to block for a fresh-enough replica.
    pub blocked: u64,
    /// Total time spent blocked, in nanoseconds.
    pub block_nanos: u64,
    /// Reads that gave up waiting ([`c5_common::Error::ReadTimeout`]).
    pub timeouts: u64,
    /// Sampled end-to-end read latency distribution (milliseconds).
    pub latency: Option<LagStats>,
    /// Sampled observed staleness of the serving replica (milliseconds).
    pub staleness: Option<LagStats>,
}

impl ClassStats {
    /// Reads per second over `wall`.
    pub fn throughput(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            self.reads as f64 / wall.as_secs_f64()
        }
    }

    /// Mean block time per *blocked* operation, in milliseconds.
    pub fn mean_block_ms(&self) -> f64 {
        if self.blocked == 0 {
            0.0
        } else {
            self.block_nanos as f64 / self.blocked as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_obs::HistogramSnapshot;

    #[test]
    fn counters_and_reservoirs_accumulate() {
        let obs = Obs::new();
        let m = RouterMetrics::new(&obs);
        m.record_read(
            ClassKind::Causal,
            Duration::from_millis(2),
            Duration::from_millis(1),
            || Some(0.5),
            true,
        );
        m.record_read(
            ClassKind::Causal,
            Duration::from_millis(4),
            Duration::ZERO,
            || None,
            false,
        );
        m.record_txn(ClassKind::Causal, Duration::from_millis(1), Duration::ZERO);
        m.record_txn_read(ClassKind::Causal, true);
        m.record_timeout(ClassKind::Strong, Duration::from_millis(10));

        let causal = m.stats(ClassKind::Causal);
        assert_eq!(causal.reads, 3);
        assert_eq!(causal.hits, 2);
        assert_eq!(causal.txns, 1);
        assert_eq!(causal.blocked, 1);
        assert_eq!(causal.timeouts, 0);
        let latency = causal.latency.expect("the first operation is sampled");
        assert_eq!(latency.count, 1);
        assert_eq!(causal.staleness.expect("one staleness sample").count, 1);
        assert!(causal.throughput(Duration::from_secs(1)) > 0.0);
        assert!(causal.mean_block_ms() >= 1.0);

        let strong = m.stats(ClassKind::Strong);
        assert_eq!(strong.timeouts, 1);
        assert_eq!(strong.blocked, 1);

        let bounded = m.stats(ClassKind::BoundedStaleness);
        assert_eq!(bounded.reads, 0);
        assert!(bounded.latency.is_none());
        assert_eq!(bounded.throughput(Duration::ZERO), 0.0);
        assert_eq!(bounded.mean_block_ms(), 0.0);

        // The distributions surface in the shared registry too, one
        // histogram per class and dimension.
        let snap = obs.metrics.snapshot();
        assert_eq!(
            snap.histogram("read_latency_ns{class=\"causal\"}")
                .map(HistogramSnapshot::count),
            Some(1)
        );
        assert_eq!(
            snap.histogram("read_staleness_ns{class=\"causal\"}")
                .map(HistogramSnapshot::count),
            Some(1)
        );
    }

    #[test]
    fn sampling_stride_thins_the_reservoirs() {
        let obs = Obs::new();
        let m = RouterMetrics::new(&obs);
        // Count how often the lazy staleness probe actually runs: only on
        // sampled ticks, never on the unsampled hot path.
        let probes = AtomicU64::new(0);
        for _ in 0..4 * LATENCY_SAMPLE_EVERY {
            m.record_read(
                ClassKind::Strong,
                Duration::from_millis(1),
                Duration::ZERO,
                || {
                    probes.fetch_add(1, Ordering::Relaxed);
                    Some(1.0)
                },
                true,
            );
        }
        assert_eq!(probes.load(Ordering::Relaxed), 4);
        let stats = m.stats(ClassKind::Strong);
        assert_eq!(stats.reads, 4 * LATENCY_SAMPLE_EVERY);
        assert_eq!(stats.latency.unwrap().count, 4);
    }

    #[test]
    fn lag_stats_from_histogram_match_the_exact_rule_within_a_bucket() {
        // The same samples through the histogram and through the exact
        // sorted-vector rule: count/min/max/mean agree exactly, quantiles
        // within the histogram's documented ≤12.5% bucket resolution.
        let h = Histogram::new();
        let samples_ms: Vec<f64> = (1..=200).map(|i| i as f64 * 0.7).collect();
        for &ms in &samples_ms {
            h.record((ms * 1e6) as u64);
        }
        let from_hist = LagStats::from_histogram(&h.snapshot()).unwrap();

        // The checked nearest-rank rule over the sorted samples: rank ⌈p·N⌉,
        // at least 1.
        let n = samples_ms.len();
        let exact = |p: f64| samples_ms[((n as f64 * p).ceil().max(1.0) as usize).min(n) - 1];
        let mean = samples_ms.iter().sum::<f64>() / n as f64;

        assert_eq!(from_hist.count, n);
        assert!((from_hist.min_ms - samples_ms[0]).abs() < 1e-6);
        assert!((from_hist.max_ms - samples_ms[n - 1]).abs() < 1e-6);
        assert!((from_hist.mean_ms - mean).abs() < 1e-3);
        for (got, want) in [
            (from_hist.p25_ms, exact(0.25)),
            (from_hist.p50_ms, exact(0.50)),
            (from_hist.p75_ms, exact(0.75)),
            (from_hist.p99_ms, exact(0.99)),
        ] {
            assert!(
                (got - want).abs() <= want * 0.125 + 1e-6,
                "histogram quantile {got}ms vs exact {want}ms"
            );
        }
    }
}
