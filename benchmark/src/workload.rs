//! The four workloads and their seeded traffic.
//!
//! The benchmark owns its generators so that no change outside this
//! directory can alter the traffic: keys and payloads come from the PRNG
//! below, seeded from `--seed`, and reach the program under test only as
//! stored procedures and preloaded rows. The same seed always yields the
//! same transaction stream, byte for byte.

use c5_common::{Result, RowRef, Value};
use c5_primary::{StoredProcedure, TxnCtx};

/// Table holding the preloaded population (the rows `uniform` traffic
/// updates and every snapshot read targets).
pub const BASE_TABLE: u32 = 1;
/// Table receiving the unique inserts of `hot` traffic.
pub const INSERT_TABLE: u32 = 2;
/// Table holding the single hot row.
pub const HOT_TABLE: u32 = 3;
/// The hot row every `hot` transaction updates.
pub const HOT_ROW: RowRef = RowRef::new(HOT_TABLE, 0);

/// SplitMix64: a bijective mixer, used both as the PRNG step and to scatter
/// sequential insert keys without ever colliding.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's own PRNG (SplitMix64), so the traffic does not depend on
/// the repository's `rand` stand-in.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A value in `0..n`. The modulo bias is below 2^-40 for every `n` used
    /// here and, unlike rejection sampling, draws exactly once.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What the generator thread sends to the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Two updates per transaction, uniform over `rows` preloaded rows, with
    /// `value_len`-byte payloads.
    Uniform {
        /// Preloaded rows (also the key space of the updates).
        rows: u64,
        /// Payload bytes per row.
        value_len: usize,
    },
    /// The paper's adversarial transaction: four unique inserts plus one
    /// update of the single hot row, 8-byte payloads. `base_rows` rows are
    /// preloaded for the snapshot reads to target.
    Hot {
        /// Preloaded rows in [`BASE_TABLE`].
        base_rows: u64,
    },
}

impl Traffic {
    /// Preloaded rows in [`BASE_TABLE`].
    pub fn base_rows(&self) -> u64 {
        match *self {
            Traffic::Uniform { rows, .. } => rows,
            Traffic::Hot { base_rows } => base_rows,
        }
    }

    /// Log records each transaction produces.
    pub fn records_per_txn(&self) -> u64 {
        match self {
            Traffic::Uniform { .. } => 2,
            Traffic::Hot { .. } => 5,
        }
    }

    fn value_len(&self) -> usize {
        match *self {
            Traffic::Uniform { value_len, .. } => value_len,
            Traffic::Hot { .. } => 8,
        }
    }
}

/// How the reader thread behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// `visits_per_s` times a second on average, at seeded random (Poisson)
    /// instants: a burst of snapshot transactions, then one read-your-writes
    /// read of the newest commit and, every fifth visit, one strong read.
    /// Random instants because the backup exposes on a timer: a periodic
    /// reader would sample one phase of it and report that phase's wait.
    /// Latencies run from each read's own start; the ordered reads block for
    /// about one replication lag, so a visit can overrun the next one's due
    /// time, which then simply starts late.
    Light {
        /// Visits per second.
        visits_per_s: u64,
    },
    /// One closed-loop client: snapshot transactions back to back, and after
    /// a seeded random think time averaging `ordered_every_ms` one
    /// read-your-writes read and one strong read.
    Mixed {
        /// Mean milliseconds between the causal + strong pairs.
        ordered_every_ms: u64,
    },
}

/// One workload: traffic, rate, fleet shape and reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The transaction mix.
    pub traffic: Traffic,
    /// Paced-phase rate, transactions per second (frozen; see the README).
    pub rate_tps: f64,
    /// Replicas in the fleet.
    pub replicas: usize,
    /// Apply workers per replica (sums to two across the fleet).
    pub workers: usize,
    /// Whether the shipper archives to disk with an fsync per segment.
    pub durable: bool,
    /// The reader.
    pub reader: Reader,
    /// Transactions in the materialised replay log.
    pub replay_txns: u64,
}

/// XORed into the seed for the reader's PRNG, so that reader and generator
/// draw different streams from the one seed.
pub const READER_SALT: u64 = 0x5EED_5EED_5EED_5EED;
/// Rows per snapshot read transaction.
pub const SNAPSHOT_KEYS: usize = 8;
/// Staleness bound of the snapshot read transactions.
pub const SNAPSHOT_STALENESS_MS: u64 = 100;
/// Records per log segment (the one non-default logger setting).
pub const SEGMENT_RECORDS: usize = 256;

const UNIFORM: Traffic = Traffic::Uniform {
    rows: 250_000,
    value_len: 64,
};

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "stream.uniform",
        traffic: UNIFORM,
        rate_tps: 40_000.0,
        replicas: 1,
        workers: 2,
        durable: false,
        reader: Reader::Light { visits_per_s: 50 },
        replay_txns: 500_000,
    },
    WorkloadSpec {
        name: "stream.hot",
        traffic: Traffic::Hot { base_rows: 16_384 },
        rate_tps: 16_000.0,
        replicas: 1,
        workers: 2,
        durable: false,
        reader: Reader::Light { visits_per_s: 50 },
        replay_txns: 200_000,
    },
    WorkloadSpec {
        name: "fleet.durable",
        traffic: UNIFORM,
        rate_tps: 20_000.0,
        replicas: 2,
        workers: 1,
        durable: true,
        reader: Reader::Light { visits_per_s: 50 },
        replay_txns: 125_000,
    },
    WorkloadSpec {
        name: "reads.mixed",
        traffic: UNIFORM,
        rate_tps: 40_000.0,
        replicas: 1,
        workers: 2,
        durable: false,
        reader: Reader::Mixed {
            ordered_every_ms: 5,
        },
        replay_txns: 500_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every payload starts with the 1-based index of the transaction that wrote
/// it (0 for preloaded rows), so a reader can tell how new a value is.
pub fn stamp_of(value: &Value) -> Option<u64> {
    let bytes = value.as_bytes().get(..8)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

fn payload(stamp: u64, filler: u64, len: usize) -> Value {
    let mut bytes = Vec::with_capacity(len);
    bytes.extend_from_slice(&stamp.to_le_bytes());
    let mut word = filler;
    while bytes.len() < len {
        word = mix(word.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let take = (len - bytes.len()).min(8);
        bytes.extend_from_slice(&word.to_le_bytes()[..take]);
    }
    Value::from(bytes)
}

/// The initial database: what primary and replicas are preloaded with.
pub fn population(traffic: &Traffic, seed: u64) -> Vec<(RowRef, Value)> {
    let len = traffic.value_len();
    let mut rows: Vec<(RowRef, Value)> = (0..traffic.base_rows())
        .map(|key| (RowRef::new(BASE_TABLE, key), payload(0, seed ^ key, len)))
        .collect();
    if matches!(traffic, Traffic::Hot { .. }) {
        rows.push((HOT_ROW, payload(0, seed, len)));
    }
    rows
}

/// One generated transaction: a stored procedure plus what the benchmark
/// needs to check a read-your-writes read of it.
pub struct Txn {
    /// The 1-based position in the stream; every value it writes carries it.
    pub stamp: u64,
    /// A row this transaction writes (the read-your-writes probe).
    pub probe: RowRef,
    /// The transaction body.
    pub body: Box<dyn StoredProcedure>,
}

/// The seeded, endless transaction stream of one workload.
#[derive(Debug, Clone)]
pub struct TxnStream {
    traffic: Traffic,
    rng: Prng,
    next_stamp: u64,
    insert_salt: u64,
}

impl TxnStream {
    /// The stream for `traffic` under `seed`.
    pub fn new(traffic: Traffic, seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        let insert_salt = rng.next_u64();
        Self {
            traffic,
            rng,
            next_stamp: 1,
            insert_salt,
        }
    }

    /// Generates the next transaction.
    pub fn next_txn(&mut self) -> Txn {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        match self.traffic {
            Traffic::Uniform { rows, value_len } => {
                let first = self.rng.below(rows);
                let mut second = self.rng.below(rows);
                if second == first {
                    second = (first + 1) % rows;
                }
                let value = payload(stamp, self.rng.next_u64(), value_len);
                let (a, b) = (
                    RowRef::new(BASE_TABLE, first),
                    RowRef::new(BASE_TABLE, second),
                );
                Txn {
                    stamp,
                    probe: a,
                    body: Box::new(move |ctx: &mut dyn TxnCtx| -> Result<()> {
                        ctx.update(a, value.clone())?;
                        ctx.update(b, value.clone())
                    }),
                }
            }
            Traffic::Hot { .. } => {
                let value = Value::from_u64(stamp);
                // `mix` is a bijection, so keys derived from distinct
                // counters never collide and every insert is of a new row.
                let base = (stamp - 1) * 4;
                let salt = self.insert_salt;
                let keys: [u64; 4] = std::array::from_fn(|j| mix((base + j as u64) ^ salt));
                // Draw from the stream so `hot` consumes the seed too.
                let _ = self.rng.next_u64();
                Txn {
                    stamp,
                    probe: HOT_ROW,
                    body: Box::new(move |ctx: &mut dyn TxnCtx| -> Result<()> {
                        for key in keys {
                            ctx.insert(RowRef::new(INSERT_TABLE, key), value.clone())?;
                        }
                        ctx.update(HOT_ROW, value.clone())
                    }),
                }
            }
        }
    }
}

/// The keys of one snapshot read transaction: [`SNAPSHOT_KEYS`] preloaded
/// rows, so every one of them exists at every cut.
pub fn snapshot_keys(rng: &mut Prng, traffic: &Traffic) -> [RowRef; SNAPSHOT_KEYS] {
    std::array::from_fn(|_| RowRef::new(BASE_TABLE, rng.below(traffic.base_rows())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_sized_for_two_cores() {
        for w in &WORKLOADS {
            assert_eq!(w.replicas * w.workers, 2, "{}", w.name);
            // A million records, except where every segment costs an fsync.
            let floor = if w.durable { 250_000 } else { 1_000_000 };
            assert!(
                w.replay_txns * w.traffic.records_per_txn() >= floor,
                "{} replays too few records",
                w.name
            );
            assert_eq!(workload(w.name), Some(w));
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn payloads_carry_their_stamp_and_length() {
        let v = payload(77, 1, 64);
        assert_eq!(v.len(), 64);
        assert_eq!(stamp_of(&v), Some(77));
        assert_eq!(stamp_of(&Value::from_u64(5)), Some(5));
        assert_ne!(payload(77, 1, 64), payload(77, 2, 64));
        assert_eq!(stamp_of(&Value::from(vec![1u8, 2])), None);
    }

    #[test]
    fn population_is_seeded_and_complete() {
        let hot = Traffic::Hot { base_rows: 10 };
        let rows = population(&hot, 42);
        assert_eq!(rows.len(), 11);
        assert_eq!(rows.last().unwrap().0, HOT_ROW);
        assert!(rows.iter().all(|(_, v)| stamp_of(v) == Some(0)));
        let small = Traffic::Uniform {
            rows: 100,
            value_len: 64,
        };
        assert_eq!(population(&small, 1), population(&small, 1));
        assert_ne!(population(&small, 1), population(&small, 2));
    }

    #[test]
    fn insert_keys_never_repeat() {
        let mut seen = std::collections::HashSet::new();
        for counter in 0..100_000u64 {
            assert!(seen.insert(mix(counter ^ 0xABCD)));
        }
    }
}
