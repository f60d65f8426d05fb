//! # c5-obs — unified observability for the C5 reproduction
//!
//! The paper's claim — backups that *always keep up* — is an observability
//! claim: replication lag, stage dwell, and takeover latency are the
//! product. This crate is the one place the rest of the workspace records
//! those signals:
//!
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   log-scale [`Histogram`]s. Registration takes a lock once; recording is
//!   lock-free atomics on `Arc` handles; [`MetricsRegistry::snapshot`]
//!   reads everything coherently in one pass.
//! * [`TraceRecorder`] — bounded per-thread rings of typed [`TraceEvent`]s
//!   covering the pipeline stages, the log shipper, the read router, fleet
//!   lifecycle transitions, and recovery phases.
//! * [`Obs`] — the pair of them, shared as `Arc<Obs>` through
//!   `ReplicaConfig` / `ReadConfig` so every layer reaches the same sink
//!   without new plumbing; [`Obs::global`] is the default sink for code
//!   that was not handed one.
//!
//! The crate sits *below* `c5-common` (it depends only on the
//! `parking_lot` shim), which is what lets configs carry an `Arc<Obs>`.
//! Exposition is Prometheus text, and it lives here
//! ([`MetricsSnapshot::to_prometheus`]); the experiments print tables from
//! typed fields and write no JSON.

#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod trace;

use std::sync::{Arc, OnceLock};

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use trace::{now_nanos, PipelineStage, RouteOutcome, TraceEvent, TraceRecord, TraceRecorder};

/// Per-thread trace-ring capacity of an [`Obs`]: enough for an experiment's
/// full timeline at per-segment granularity, ~a few hundred KiB per thread
/// at worst.
const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// One observability sink: a metrics registry plus a trace recorder.
///
/// Shared as `Arc<Obs>`; cloning the `Arc` is the only coupling between
/// subsystems and their telemetry.
pub struct Obs {
    /// Named counters, gauges, histograms.
    pub metrics: MetricsRegistry,
    /// Typed event timeline.
    pub trace: TraceRecorder,
}

impl Obs {
    /// Creates a fresh sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            metrics: MetricsRegistry::new(),
            trace: TraceRecorder::new(DEFAULT_TRACE_CAPACITY),
        })
    }

    /// The process-wide default sink, used by components that were not
    /// configured with their own. Created on first use, never dropped.
    pub fn global() -> &'static Arc<Obs> {
        static GLOBAL: OnceLock<Arc<Obs>> = OnceLock::new();
        GLOBAL.get_or_init(Obs::new)
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Configs derive Debug and carry an Arc<Obs>; keep their output
        // readable instead of dumping every bucket array.
        f.debug_struct("Obs").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_a_singleton() {
        let a = Arc::clone(Obs::global());
        let b = Arc::clone(Obs::global());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fresh_sinks_are_independent() {
        let a = Obs::new();
        let b = Obs::new();
        a.metrics.counter("x").inc();
        assert_eq!(a.metrics.snapshot().counter("x"), Some(1));
        assert_eq!(b.metrics.snapshot().counter("x"), None);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(format!("{a:?}").contains("Obs"));
    }
}
