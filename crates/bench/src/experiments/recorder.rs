//! Records a workload's write sets so the analytical model can replay them.
//!
//! The Section 3 model cares only about *which rows* each transaction writes
//! and in what order. Rather than re-deriving that by hand for every
//! workload, the recorder executes the real stored procedures against a
//! trivial single-threaded in-memory database and captures their write sets.
//! The resulting [`ModelWorkload`] therefore has exactly the conflict
//! structure of the real workload — TPC-C's district and warehouse hot rows,
//! the adversarial workload's shared counter, and so on.

use rand::rngs::StdRng;
use rand::SeedableRng;

use c5_common::{Result, RowMap, RowRef, Value};
use c5_lagmodel::{ModelTxn, ModelWorkload};
use c5_primary::{TxnCtx, TxnFactory};

/// A single-threaded recording context: reads come from a plain map, writes
/// are applied to it and captured in order.
struct RecordingCtx<'a> {
    state: &'a mut RowMap<Value>,
    writes: Vec<RowRef>,
}

impl TxnCtx for RecordingCtx<'_> {
    fn read(&mut self, row: RowRef) -> Result<Option<Value>> {
        Ok(self.state.get(&row).cloned())
    }

    fn insert(&mut self, row: RowRef, value: Value) -> Result<()> {
        self.state.insert(row, value);
        self.writes.push(row);
        Ok(())
    }

    fn update(&mut self, row: RowRef, value: Value) -> Result<()> {
        self.state.insert(row, value);
        self.writes.push(row);
        Ok(())
    }

    fn delete(&mut self, row: RowRef) -> Result<()> {
        self.state.remove(&row);
        self.writes.push(row);
        Ok(())
    }
}

/// Executes `txns` transactions from `factory` against a recording store
/// preloaded with `population` and returns the model workload whose
/// transaction `i` carries transaction `i`'s write set (rows packed into
/// model keys). Arrivals are staggered by one time unit so the model primary
/// is always backlogged — the closed-loop, throughput-bound regime of the
/// paper's experiments.
pub fn record_workload(
    factory: &dyn TxnFactory,
    population: &[(RowRef, Value)],
    txns: u64,
    seed: u64,
) -> ModelWorkload {
    let mut state: RowMap<Value> = population.iter().cloned().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(txns as usize);
    for id in 0..txns {
        let proc = factory.next_txn((id % 8) as usize, &mut rng);
        let mut ctx = RecordingCtx {
            state: &mut state,
            writes: Vec::new(),
        };
        // The recording store is single-threaded, so procedures cannot abort
        // for concurrency reasons; a workload-level error (which none of the
        // shipped workloads produce) is simply skipped.
        if proc.execute(&mut ctx).is_err() {
            continue;
        }
        // Deduplicate repeated writes to the same row within a transaction
        // (matching the engines' write-set semantics) while keeping order.
        let mut seen = std::collections::HashSet::new();
        let keys: Vec<u64> = ctx
            .writes
            .iter()
            .filter(|row| seen.insert(**row))
            .map(|row| pack_row(*row))
            .collect();
        out.push(ModelTxn {
            id,
            arrival: id,
            keys,
        });
    }
    ModelWorkload { txns: out }
}

/// Packs a row reference into the model's flat key space.
fn pack_row(row: RowRef) -> u64 {
    // Tables are small integers; keys in our workloads stay far below 2^56.
    ((row.table.as_u32() as u64) << 56) | (row.key.as_u64() & ((1 << 56) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_workloads::synthetic::{adversarial_population, AdversarialWorkload};
    use c5_workloads::tpcc::{population, TpccConfig, TpccMix};

    #[test]
    fn adversarial_recording_has_the_hot_key_in_every_transaction() {
        let factory = AdversarialWorkload::new(3);
        let w = record_workload(&factory, &adversarial_population(), 20, 1);
        assert_eq!(w.len(), 20);
        let hot = pack_row(c5_workloads::synthetic::hot_row());
        for txn in &w.txns {
            assert_eq!(txn.keys.len(), 4);
            assert_eq!(*txn.keys.last().unwrap(), hot);
        }
    }

    #[test]
    fn tpcc_payment_recording_shares_the_warehouse_row() {
        let cfg = TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            items: 20,
            customers_per_district: 5,
            optimized: false,
        };
        let factory = TpccMix::payment_only(cfg);
        let w = record_workload(&factory, &population(&cfg), 10, 3);
        assert_eq!(w.len(), 10);
        let warehouse = pack_row(c5_workloads::tpcc::warehouse_row(0));
        for txn in &w.txns {
            assert!(
                txn.keys.contains(&warehouse),
                "every payment hits the warehouse"
            );
            // Unoptimized payments write the warehouse first.
            assert_eq!(txn.keys[0], warehouse);
        }
        // The optimized variant moves it last.
        let factory = TpccMix::payment_only(cfg.with_optimized(true));
        let w = record_workload(&factory, &population(&cfg), 10, 3);
        for txn in &w.txns {
            assert_eq!(*txn.keys.last().unwrap(), warehouse);
        }
    }
}
