//! A TPC-C subset: NewOrder and Payment, standard and optimized.
//!
//! The paper's evaluation uses TPC-C restricted to its two write-heavy
//! transactions (Sections 6.1 and 7.3). The schema here keeps the columns
//! that matter to concurrency (the district's next order id, the warehouse
//! and district year-to-date balances, customer balances, stock quantities)
//! and encodes each row's payload compactly; the concurrency structure — who
//! conflicts with whom, and on which row — is identical to full TPC-C.
//!
//! Two knobs reproduce the paper's experiments:
//!
//! * `optimized` — defer the transaction's highest-contention write as far as
//!   data dependencies allow (the district next-order-id increment in
//!   NewOrder, the warehouse year-to-date update in Payment). The paper notes
//!   these optimizations raise primary throughput (by over 700% for Payment
//!   on MyRocks) and are what expose transaction-granularity backups to
//!   unbounded lag (Figure 6).
//! * `districts_per_warehouse` — sweeping it from 10 down to 1 raises
//!   contention on the NewOrder district row (Figure 10).

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::Rng;

use c5_common::{Result, RowRef, Value};
use c5_primary::{StoredProcedure, TxnCtx, TxnFactory};

/// Table identifiers.
pub mod table {
    /// Warehouse table (key: warehouse id).
    pub const WAREHOUSE: u32 = 0;
    /// District table (key: warehouse × 100 + district).
    pub const DISTRICT: u32 = 1;
    /// Customer table.
    pub const CUSTOMER: u32 = 2;
    /// Item table.
    pub const ITEM: u32 = 3;
    /// Stock table.
    pub const STOCK: u32 = 4;
    /// Orders table.
    pub const ORDERS: u32 = 5;
    /// New-order table.
    pub const NEW_ORDER: u32 = 6;
    /// Order-line table.
    pub const ORDER_LINE: u32 = 7;
    /// History table.
    pub const HISTORY: u32 = 8;
}

/// Workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (the Figure 10 contention knob; 10 is the
    /// standard setting).
    pub districts_per_warehouse: u64,
    /// Number of items in the catalog (100 000 in full TPC-C; smaller values
    /// keep tests fast without changing the conflict structure).
    pub items: u64,
    /// Customers per district (3 000 in full TPC-C).
    pub customers_per_district: u64,
    /// Whether to run the contention-deferred ("optimized") transaction
    /// variants.
    pub optimized: bool,
}

impl Default for TpccConfig {
    fn default() -> Self {
        Self {
            warehouses: 1,
            districts_per_warehouse: 10,
            items: 1_000,
            customers_per_district: 100,
            optimized: false,
        }
    }
}

impl TpccConfig {
    /// Builder-style setter for the optimized flag.
    pub fn with_optimized(mut self, optimized: bool) -> Self {
        self.optimized = optimized;
        self
    }

    /// Builder-style setter for the district count.
    pub fn with_districts(mut self, districts: u64) -> Self {
        self.districts_per_warehouse = districts.clamp(1, 10);
        self
    }
}

// --- Key encoding -----------------------------------------------------------

/// Warehouse row.
pub fn warehouse_row(w: u64) -> RowRef {
    RowRef::new(table::WAREHOUSE, w)
}

/// District row.
pub fn district_row(w: u64, d: u64) -> RowRef {
    RowRef::new(table::DISTRICT, w * 100 + d)
}

/// Customer row.
pub fn customer_row(w: u64, d: u64, c: u64) -> RowRef {
    RowRef::new(table::CUSTOMER, (w * 100 + d) * 100_000 + c)
}

/// Item row.
pub fn item_row(i: u64) -> RowRef {
    RowRef::new(table::ITEM, i)
}

/// Stock row.
pub fn stock_row(w: u64, i: u64) -> RowRef {
    RowRef::new(table::STOCK, w * 1_000_000 + i)
}

/// Orders row.
pub fn order_row(w: u64, d: u64, o: u64) -> RowRef {
    RowRef::new(table::ORDERS, (w * 100 + d) * 100_000_000 + o)
}

/// New-order row.
pub fn new_order_row(w: u64, d: u64, o: u64) -> RowRef {
    RowRef::new(table::NEW_ORDER, (w * 100 + d) * 100_000_000 + o)
}

/// Order-line row.
pub fn order_line_row(w: u64, d: u64, o: u64, ol: u64) -> RowRef {
    RowRef::new(
        table::ORDER_LINE,
        ((w * 100 + d) * 100_000_000 + o) * 16 + ol,
    )
}

/// History row (globally unique id).
pub fn history_row(id: u64) -> RowRef {
    RowRef::new(table::HISTORY, id)
}

/// District payload: the next order id in the high 32 bits, the year-to-date
/// balance (cents) in the low 32 bits.
pub fn district_value(next_o_id: u32, ytd_cents: u32) -> Value {
    Value::from_u64(((next_o_id as u64) << 32) | ytd_cents as u64)
}

/// Decodes a district payload.
pub fn decode_district(v: &Value) -> (u32, u32) {
    let raw = v.as_u64().unwrap_or(0);
    ((raw >> 32) as u32, (raw & 0xffff_ffff) as u32)
}

// --- Initial population ------------------------------------------------------

/// The initial database population for `config`: every warehouse, district,
/// customer, item, and stock row. Orders/new-orders/order-lines/history start
/// empty. Install these rows into both the primary and the backup before
/// starting a run (the backup starts from a copy of the primary's state).
pub fn population(config: &TpccConfig) -> Vec<(RowRef, Value)> {
    let mut rows = Vec::new();
    for w in 0..config.warehouses {
        rows.push((warehouse_row(w), Value::from_u64(0)));
        for d in 0..config.districts_per_warehouse {
            rows.push((district_row(w, d), district_value(3_001, 0)));
            for c in 0..config.customers_per_district {
                rows.push((customer_row(w, d, c), Value::from_u64(1_000)));
            }
        }
        for i in 0..config.items {
            rows.push((stock_row(w, i), Value::from_u64(100)));
        }
    }
    for i in 0..config.items {
        rows.push((item_row(i), Value::from_u64(100 + i % 900)));
    }
    rows
}

// --- Transactions ------------------------------------------------------------

/// Which TPC-C transaction to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// The NewOrder transaction.
    NewOrder,
    /// The Payment transaction.
    Payment,
}

/// One NewOrder execution's parameters (chosen by the factory so the stored
/// procedure itself is deterministic and retry-safe).
struct NewOrderTxn {
    w: u64,
    d: u64,
    c: u64,
    /// (item id, quantity) pairs.
    lines: Vec<(u64, u64)>,
    optimized: bool,
}

impl StoredProcedure for NewOrderTxn {
    fn execute(&self, ctx: &mut dyn TxnCtx) -> Result<()> {
        // Warehouse tax rate (read-only touch of the warehouse row).
        let _wh = ctx.read_expected(warehouse_row(self.w))?;
        // Customer discount/credit.
        let _cust = ctx.read_expected(customer_row(self.w, self.d, self.c))?;

        let mut stock_updates: Vec<(RowRef, Value)> = Vec::with_capacity(self.lines.len());
        let mut line_amounts: Vec<u64> = Vec::with_capacity(self.lines.len());
        for &(item, qty) in &self.lines {
            let price = ctx.read_expected(item_row(item))?.as_u64().unwrap_or(0);
            let stock = stock_row(self.w, item);
            let on_hand = ctx.read_for_update_expected(stock)?.as_u64().unwrap_or(0);
            let new_on_hand = if on_hand >= qty + 10 {
                on_hand - qty
            } else {
                on_hand + 91 - qty
            };
            stock_updates.push((stock, Value::from_u64(new_on_hand)));
            line_amounts.push(price * qty);
        }
        if !self.optimized {
            // Standard: apply the stock updates immediately.
            for (row, value) in &stock_updates {
                ctx.update(*row, value.clone())?;
            }
        }

        // The district's next-order-id increment is the highest-contention
        // write. The standard transaction performs it in the natural place;
        // the optimized one has already deferred everything that could be
        // deferred, so it lands here, right before commit, minimizing the
        // time the hot row is held.
        let district = district_row(self.w, self.d);
        let (next_o_id, ytd) = decode_district(&ctx.read_for_update_expected(district)?);
        ctx.update(district, district_value(next_o_id + 1, ytd))?;
        let o_id = next_o_id as u64;

        if self.optimized {
            for (row, value) in &stock_updates {
                ctx.update(*row, value.clone())?;
            }
        }

        // Insert the order, its new-order marker, and one order line per item.
        let ol_cnt = self.lines.len() as u64;
        ctx.insert(
            order_row(self.w, self.d, o_id),
            Value::from_u64((self.c << 8) | ol_cnt),
        )?;
        ctx.insert(new_order_row(self.w, self.d, o_id), Value::from_u64(1))?;
        for (ol, amount) in line_amounts.iter().enumerate() {
            ctx.insert(
                order_line_row(self.w, self.d, o_id, ol as u64),
                Value::from_u64(*amount),
            )?;
        }
        Ok(())
    }

    fn label(&self) -> &'static str {
        if self.optimized {
            "new_order_opt"
        } else {
            "new_order"
        }
    }
}

/// One Payment execution's parameters.
struct PaymentTxn {
    w: u64,
    d: u64,
    c: u64,
    amount: u64,
    history_id: u64,
    optimized: bool,
}

impl PaymentTxn {
    fn update_warehouse(&self, ctx: &mut dyn TxnCtx) -> Result<()> {
        let ytd = ctx
            .read_for_update_expected(warehouse_row(self.w))?
            .as_u64()
            .unwrap_or(0);
        ctx.update(warehouse_row(self.w), Value::from_u64(ytd + self.amount))
    }

    fn update_district(&self, ctx: &mut dyn TxnCtx) -> Result<()> {
        let district = district_row(self.w, self.d);
        let (next_o_id, ytd) = decode_district(&ctx.read_for_update_expected(district)?);
        ctx.update(
            district,
            district_value(next_o_id, ytd.wrapping_add(self.amount as u32)),
        )
    }

    fn update_customer(&self, ctx: &mut dyn TxnCtx) -> Result<()> {
        let customer = customer_row(self.w, self.d, self.c);
        let balance = ctx
            .read_for_update_expected(customer)?
            .as_u64()
            .unwrap_or(0);
        ctx.update(
            customer,
            Value::from_u64(balance.saturating_sub(self.amount)),
        )?;
        ctx.insert(history_row(self.history_id), Value::from_u64(self.amount))
    }
}

impl StoredProcedure for PaymentTxn {
    fn execute(&self, ctx: &mut dyn TxnCtx) -> Result<()> {
        if self.optimized {
            // Deferred variant: the warehouse year-to-date update — the
            // workload's single hottest write (every Payment to the same
            // warehouse conflicts on it) — moves to the very end.
            self.update_customer(ctx)?;
            self.update_district(ctx)?;
            self.update_warehouse(ctx)
        } else {
            self.update_warehouse(ctx)?;
            self.update_district(ctx)?;
            self.update_customer(ctx)
        }
    }

    fn label(&self) -> &'static str {
        if self.optimized {
            "payment_opt"
        } else {
            "payment"
        }
    }
}

// --- The mix factory ---------------------------------------------------------

/// A weighted NewOrder/Payment mix implementing [`TxnFactory`].
#[derive(Debug)]
pub struct TpccMix {
    config: TpccConfig,
    /// Percentage of NewOrder transactions (the remainder are Payments).
    new_order_pct: u32,
    history_ids: AtomicU64,
}

impl TpccMix {
    /// Creates a mix with the given NewOrder percentage (0–100).
    pub fn new(config: TpccConfig, new_order_pct: u32) -> Self {
        assert!(new_order_pct <= 100, "percentage must be 0-100");
        Self {
            config,
            new_order_pct,
            history_ids: AtomicU64::new(1),
        }
    }

    /// 100% NewOrder.
    pub fn new_order_only(config: TpccConfig) -> Self {
        Self::new(config, 100)
    }

    /// 100% Payment.
    pub fn payment_only(config: TpccConfig) -> Self {
        Self::new(config, 0)
    }

    /// The standard 50%/50% mix used by Section 7.3.
    pub fn half_and_half(config: TpccConfig) -> Self {
        Self::new(config, 50)
    }

    /// The workload's configuration.
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    fn pick_kind(&self, rng: &mut StdRng) -> TxnKind {
        if rng.gen_range(0..100) < self.new_order_pct {
            TxnKind::NewOrder
        } else {
            TxnKind::Payment
        }
    }
}

impl TxnFactory for TpccMix {
    fn next_txn(&self, _client: usize, rng: &mut StdRng) -> Box<dyn StoredProcedure> {
        let cfg = &self.config;
        let w = rng.gen_range(0..cfg.warehouses);
        let d = rng.gen_range(0..cfg.districts_per_warehouse);
        let c = rng.gen_range(0..cfg.customers_per_district);
        match self.pick_kind(rng) {
            TxnKind::NewOrder => {
                let ol_cnt = rng.gen_range(5..=15);
                let mut lines = Vec::with_capacity(ol_cnt);
                let mut seen = std::collections::HashSet::new();
                while lines.len() < ol_cnt {
                    let item = rng.gen_range(0..cfg.items);
                    if seen.insert(item) {
                        lines.push((item, rng.gen_range(1..=10)));
                    }
                }
                Box::new(NewOrderTxn {
                    w,
                    d,
                    c,
                    lines,
                    optimized: cfg.optimized,
                })
            }
            TxnKind::Payment => Box::new(PaymentTxn {
                w,
                d,
                c,
                amount: rng.gen_range(1..=5_000),
                history_id: self.history_ids.fetch_add(1, Ordering::Relaxed),
                optimized: cfg.optimized,
            }),
        }
    }

    fn label(&self) -> &'static str {
        match self.new_order_pct {
            100 => "tpcc-new-order",
            0 => "tpcc-payment",
            _ => "tpcc-mix",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::PrimaryConfig;
    use c5_log::{flatten, LogShipper, StreamingLogger};
    use c5_primary::{ClosedLoopDriver, RunLength, TplEngine};
    use c5_storage::MvStore;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn small_config() -> TpccConfig {
        TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            items: 50,
            customers_per_district: 10,
            optimized: false,
        }
    }

    fn engine_with(config: &TpccConfig) -> (Arc<TplEngine>, c5_log::LogReceiver) {
        let (shipper, receiver) = LogShipper::unbounded();
        let logger = StreamingLogger::new(128, shipper);
        let engine = Arc::new(TplEngine::new(
            Arc::new(MvStore::default()),
            PrimaryConfig::default().with_threads(4),
            logger,
        ));
        for (row, value) in population(config) {
            engine.load_row(row, value);
        }
        (engine, receiver)
    }

    #[test]
    fn population_contains_every_schema_row() {
        let cfg = small_config();
        let rows = population(&cfg);
        let warehouses = rows
            .iter()
            .filter(|(r, _)| r.table.as_u32() == table::WAREHOUSE)
            .count();
        let districts = rows
            .iter()
            .filter(|(r, _)| r.table.as_u32() == table::DISTRICT)
            .count();
        let customers = rows
            .iter()
            .filter(|(r, _)| r.table.as_u32() == table::CUSTOMER)
            .count();
        let items = rows
            .iter()
            .filter(|(r, _)| r.table.as_u32() == table::ITEM)
            .count();
        let stock = rows
            .iter()
            .filter(|(r, _)| r.table.as_u32() == table::STOCK)
            .count();
        assert_eq!(warehouses, 1);
        assert_eq!(districts, 2);
        assert_eq!(customers, 20);
        assert_eq!(items, 50);
        assert_eq!(stock, 50);
        // Keys are unique.
        let unique: std::collections::HashSet<_> = rows.iter().map(|(r, _)| *r).collect();
        assert_eq!(unique.len(), rows.len());
    }

    #[test]
    fn district_payload_round_trips() {
        let v = district_value(3_001, 77);
        assert_eq!(decode_district(&v), (3_001, 77));
    }

    #[test]
    fn new_orders_advance_the_district_counter_and_insert_orders() {
        let cfg = small_config();
        let (engine, receiver) = engine_with(&cfg);
        let factory: Arc<dyn TxnFactory> = Arc::new(TpccMix::new_order_only(cfg));
        let stats = ClosedLoopDriver::with_seed(3).run_tpl(
            &engine,
            &factory,
            4,
            RunLength::PerClientCount(10),
        );
        engine.close_log();
        assert_eq!(stats.committed, 40);

        // The district counters advanced by exactly the number of new orders.
        let mut total_orders = 0u64;
        for d in 0..cfg.districts_per_warehouse {
            let (next_o_id, _) =
                decode_district(&engine.store().read_latest(district_row(0, d)).unwrap());
            total_orders += next_o_id as u64 - 3_001;
        }
        assert_eq!(total_orders, 40);

        // Every committed NewOrder logged an order row and a new-order row.
        let records = flatten(&receiver.drain());
        let orders = records
            .iter()
            .filter(|r| r.write.row.table.as_u32() == table::ORDERS)
            .count();
        let new_orders = records
            .iter()
            .filter(|r| r.write.row.table.as_u32() == table::NEW_ORDER)
            .count();
        assert_eq!(orders, 40);
        assert_eq!(new_orders, 40);
    }

    #[test]
    fn payments_accumulate_into_the_warehouse_ytd() {
        let cfg = small_config();
        let (engine, _receiver) = engine_with(&cfg);
        let factory: Arc<dyn TxnFactory> = Arc::new(TpccMix::payment_only(cfg));
        let stats = ClosedLoopDriver::with_seed(3).run_tpl(
            &engine,
            &factory,
            4,
            RunLength::PerClientCount(10),
        );
        assert_eq!(stats.committed, 40);
        let ytd = engine
            .store()
            .read_latest(warehouse_row(0))
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(ytd > 0, "forty payments must have accumulated a balance");
    }

    #[test]
    fn optimized_variants_preserve_application_semantics() {
        // Running the same seed with and without the optimization produces
        // the same district counters and warehouse totals: the optimization
        // only moves the hot write later, it does not change what is written.
        let mut totals = Vec::new();
        for optimized in [false, true] {
            let cfg = small_config().with_optimized(optimized);
            let (engine, _receiver) = engine_with(&cfg);
            let factory: Arc<dyn TxnFactory> = Arc::new(TpccMix::half_and_half(cfg));
            let stats = ClosedLoopDriver::with_seed(9).run_tpl(
                &engine,
                &factory,
                1,
                RunLength::PerClientCount(30),
            );
            assert_eq!(stats.committed, 30);
            let mut orders = 0u64;
            for d in 0..cfg.districts_per_warehouse {
                let (next_o_id, _) =
                    decode_district(&engine.store().read_latest(district_row(0, d)).unwrap());
                orders += next_o_id as u64 - 3_001;
            }
            let ytd = engine
                .store()
                .read_latest(warehouse_row(0))
                .unwrap()
                .as_u64()
                .unwrap();
            totals.push((orders, ytd));
        }
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn mix_respects_percentages_roughly() {
        let cfg = small_config();
        let mix = TpccMix::new(cfg, 50);
        let mut rng = StdRng::seed_from_u64(1);
        let mut new_orders = 0;
        for _ in 0..1000 {
            if mix.pick_kind(&mut rng) == TxnKind::NewOrder {
                new_orders += 1;
            }
        }
        assert!((400..600).contains(&new_orders));
        assert_eq!(TpccMix::new_order_only(cfg).label(), "tpcc-new-order");
        assert_eq!(TpccMix::payment_only(cfg).label(), "tpcc-payment");
        assert_eq!(TpccMix::half_and_half(cfg).label(), "tpcc-mix");
    }

    #[test]
    fn district_knob_is_clamped() {
        let cfg = TpccConfig::default().with_districts(0);
        assert_eq!(cfg.districts_per_warehouse, 1);
        let cfg = TpccConfig::default().with_districts(50);
        assert_eq!(cfg.districts_per_warehouse, 10);
    }
}
