//! Configuration for the primary engines and the backup replicas.

use std::sync::Arc;
use std::time::Duration;

use c5_obs::Obs;

use crate::cost::OpCost;
use crate::error::{Error, Result};

/// Configuration for a primary engine.
#[derive(Debug, Clone)]
pub struct PrimaryConfig {
    /// Number of executor threads (the paper's `m` cores).
    pub threads: usize,
    /// Per-operation cost model.
    pub op_cost: OpCost,
}

impl Default for PrimaryConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            op_cost: OpCost::free(),
        }
    }
}

impl PrimaryConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(Error::InvalidConfig(
                "primary must have at least one thread".into(),
            ));
        }
        Ok(())
    }
}

/// How a durable log forces its appends to the device: always, one sync per
/// appended segment.
///
/// The paper's protocols are described over an always-durable log; the
/// reproduction makes the cost explicit. The components that actually write
/// to disk (a disk-backed `LogArchive`, replica recovery) take the policy as
/// an argument; the in-memory pipeline has no use for it. There is no
/// "every n segments": the wire closes a segment when the backup is idle, so
/// a segment is already whatever committed during the previous sync. Nor is
/// there a "never": the wire delivers a segment only once it is synced, which
/// is what lets recovery drop a torn frame whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// `sync_data` after every appended segment. A `kill -9` (or a power
    /// cut) loses at most the segment being written when the process died.
    #[default]
    EverySegment,
}

/// Configuration for a backup replica (any cloned concurrency control
/// protocol).
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Number of worker threads applying writes. The paper never uses more
    /// workers than the primary has threads.
    pub workers: usize,
    /// Per-operation cost model (`d` is the backup-side cost).
    pub op_cost: OpCost,
    /// Minimum spacing between *whole-database* snapshot cuts, the `I` knob
    /// of Section 5.2: such a cut closes a gate on the workers, so a cut
    /// closes at least this long after the last one completed. It is a
    /// spacing, not a period — cuts are driven by applied progress, the
    /// first one after a quiet spell is taken at once, and so is one whose
    /// prefix is already whole (everything dispatched applied), which holds
    /// no writer back.
    /// Ignored by the faithful form (faithful C5 at any shard count, the
    /// baselines), whose cut is one atomic store and follows the applied
    /// prefix with no spacing at all.
    pub snapshot_interval: Duration,
    /// How far (in log positions) the version-garbage-collection horizon
    /// trails the exposed cut. Read views pin their cut at creation time, so
    /// the trail is the window within which an already-created view is
    /// guaranteed to keep seeing every version it can name: no horizon is
    /// ever above `exposed - gc_trail`. Whoever moves the cut raises the
    /// store's horizon, and each install trims its own row's chain to it.
    /// A row that is not written again keeps what it held at its last
    /// install: one version at or below that install's horizon plus its
    /// writes above it, so at most one version per row more than a full
    /// `MvStore::gc` at the horizon would leave, never growth with history.
    /// Zero collects right up to the cut.
    pub gc_trail: u64,
    /// Number of keyspace shards of a faithful C5 replica: it runs `shards ×
    /// workers` worker lanes of its one pipeline, and each shard's records
    /// of a segment go to one of that shard's `workers` lanes. There is one
    /// cut whatever the count. `1` (the default) is the paper's unsharded
    /// replica; one-worker-per-transaction C5 requires it, and the baselines
    /// ignore it.
    pub shards: usize,
    /// The key space the shard router partitions into contiguous ranges
    /// (keys at or beyond it clamp into the last shard). Read by faithful C5
    /// when `shards > 1`; the baselines ignore it.
    pub shard_key_space: u64,
    /// The observability sink the replica's pipeline records stage metrics
    /// and trace events into. Defaults to the process-wide
    /// [`Obs::global`] sink; experiments attach a fresh one per run so
    /// their snapshots are isolated.
    pub obs: Arc<Obs>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            op_cost: OpCost::free(),
            snapshot_interval: Duration::from_millis(10),
            gc_trail: 4096,
            shards: 1,
            shard_key_space: 1 << 20,
            obs: Arc::clone(Obs::global()),
        }
    }
}

impl ReplicaConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(Error::InvalidConfig(
                "replica must have at least one worker".into(),
            ));
        }
        if self.snapshot_interval.is_zero() {
            return Err(Error::InvalidConfig(
                "snapshot interval must be non-zero".into(),
            ));
        }
        if self.shards == 0 || self.shards > crate::shard::MAX_SHARDS {
            return Err(Error::InvalidConfig(format!(
                "shard count must be in 1..={} (got {})",
                crate::shard::MAX_SHARDS,
                self.shards
            )));
        }
        if !crate::shard::ShardRouter::splits_evenly(self.shards, self.shard_key_space) {
            return Err(Error::InvalidConfig(format!(
                "shard key space {} cannot split into {} non-empty equal-width ranges",
                self.shard_key_space, self.shards
            )));
        }
        Ok(())
    }

    /// The shard router this configuration describes.
    pub fn shard_router(&self) -> crate::shard::ShardRouter {
        if self.shards == 1 {
            crate::shard::ShardRouter::single()
        } else {
            crate::shard::ShardRouter::new(self.shards, self.shard_key_space)
        }
    }

    /// Builder-style setter for the number of workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style setter for the minimum spacing of whole-database cuts
    /// (see [`snapshot_interval`](Self::snapshot_interval)).
    pub fn with_snapshot_interval(mut self, interval: Duration) -> Self {
        self.snapshot_interval = interval;
        self
    }

    /// Builder-style setter for the op cost.
    pub fn with_op_cost(mut self, cost: OpCost) -> Self {
        self.op_cost = cost;
        self
    }

    /// Builder-style setter for the GC-horizon trail.
    pub fn with_gc_trail(mut self, trail: u64) -> Self {
        self.gc_trail = trail;
        self
    }

    /// Builder-style setter for the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style setter for the sharded key space.
    pub fn with_shard_key_space(mut self, key_space: u64) -> Self {
        self.shard_key_space = key_space;
        self
    }

    /// Builder-style setter for the observability sink.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }
}

/// Configuration for the read-serving layer (`c5-read`): sessions, read-only
/// transactions, and the freshness-aware router over a replica fleet.
#[derive(Debug, Clone)]
pub struct ReadConfig {
    /// The longest a read may block waiting for some replica's exposed cut to
    /// cover its required position (a causal token, the primary frontier for
    /// strong reads, or a session's monotonic floor) before it fails with
    /// [`crate::Error::ReadTimeout`].
    pub max_wait: Duration,
    /// The observability sink the router records route decisions and
    /// latency histograms into. Defaults to the process-wide
    /// [`Obs::global`] sink.
    pub obs: Arc<Obs>,
}

impl Default for ReadConfig {
    fn default() -> Self {
        Self {
            max_wait: Duration::from_secs(2),
            obs: Arc::clone(Obs::global()),
        }
    }
}

impl ReadConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.max_wait.is_zero() {
            return Err(Error::InvalidConfig(
                "read max_wait must be non-zero".into(),
            ));
        }
        Ok(())
    }

    /// Builder-style setter for the blocking bound.
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Builder-style setter for the observability sink.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }
}

impl PrimaryConfig {
    /// Builder-style setter for the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style setter for the op cost.
    pub fn with_op_cost(mut self, cost: OpCost) -> Self {
        self.op_cost = cost;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        assert!(PrimaryConfig::default().validate().is_ok());
        assert!(ReplicaConfig::default().validate().is_ok());
        assert!(ReadConfig::default().validate().is_ok());
    }

    #[test]
    fn read_config_rejects_degenerate_knobs() {
        assert!(ReadConfig::default()
            .with_max_wait(Duration::ZERO)
            .validate()
            .is_err());
        let cfg = ReadConfig::default().with_max_wait(Duration::from_millis(50));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.max_wait, Duration::from_millis(50));
    }

    #[test]
    fn zero_threads_rejected() {
        let cfg = PrimaryConfig::default().with_threads(0);
        assert!(matches!(cfg.validate(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = ReplicaConfig::default().with_workers(0);
        assert!(matches!(cfg.validate(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn zero_snapshot_interval_rejected() {
        let cfg = ReplicaConfig::default().with_snapshot_interval(Duration::ZERO);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn shard_knobs_validate() {
        assert!(ReplicaConfig::default().with_shards(0).validate().is_err());
        assert!(ReplicaConfig::default().with_shards(65).validate().is_err());
        assert!(ReplicaConfig::default()
            .with_shards(4)
            .with_shard_key_space(3)
            .validate()
            .is_err());
        // The rounded-up span must leave the last shard a non-empty range
        // (ceil(9/4) = 3 starves shard 3), mirroring ShardRouter::new.
        assert!(ReplicaConfig::default()
            .with_shards(4)
            .with_shard_key_space(9)
            .validate()
            .is_err());
        let cfg = ReplicaConfig::default()
            .with_shards(4)
            .with_shard_key_space(1000);
        assert!(cfg.validate().is_ok());
        let router = cfg.shard_router();
        assert_eq!(router.shards(), 4);
        assert_eq!(router.key_space(), 1000);
        // The default single-shard config routes everything to shard 0.
        let single = ReplicaConfig::default().shard_router();
        assert_eq!(single.shards(), 1);
    }

    #[test]
    fn builders_set_fields() {
        let cfg = ReplicaConfig::default()
            .with_workers(8)
            .with_snapshot_interval(Duration::from_millis(5))
            .with_op_cost(OpCost::symmetric(10))
            .with_gc_trail(128);
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.snapshot_interval, Duration::from_millis(5));
        assert_eq!(cfg.op_cost, OpCost::symmetric(10));
        assert_eq!(cfg.gc_trail, 128);

        let p = PrimaryConfig::default()
            .with_threads(12)
            .with_op_cost(OpCost::symmetric(7));
        assert_eq!(p.threads, 12);
        assert_eq!(p.op_cost, OpCost::symmetric(7));
    }
}
