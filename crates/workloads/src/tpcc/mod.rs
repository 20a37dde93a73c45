//! The TPC-C workload: NewOrder + Payment over nine tables partitioned by
//! warehouse (Section 7.1.1 of the paper).

pub mod procedures;
pub mod schema;

use procedures::{NewOrder, OrderLineInput, Payment};
use rand::rngs::StdRng;
use rand::Rng;
use schema::{self as s, table};
use star_common::rng::{astring, nurand};
use star_common::{PackedRow, PartitionId, RowBuilder};
use star_core::{Workload, WorkloadMix};
use star_occ::Procedure;
use star_storage::{Database, TableSpec};

/// Configuration of the TPC-C workload.
///
/// Row counts default to a scaled-down database so that a whole cluster of
/// replicas loads in milliseconds; the paper's full-size parameters are noted
/// on each field.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Number of warehouses = number of partitions (one warehouse per
    /// partition, ~100 MB per partition at full scale).
    pub warehouses: usize,
    /// Districts per warehouse (TPC-C: 10).
    pub districts_per_warehouse: u64,
    /// Customers per district (TPC-C: 3 000).
    pub customers_per_district: u64,
    /// Items in the catalog, replicated per partition (TPC-C: 100 000).
    pub items: u64,
    /// Fraction of transactions that are cross-partition. The paper's default
    /// mix has 10% of NewOrder and 15% of Payment cross-partition; a single
    /// knob is exposed because the figures sweep it uniformly.
    pub cross_partition_fraction: f64,
    /// Fraction of NewOrder transactions carrying an invalid item id (TPC-C:
    /// 1%), which abort at the application level.
    pub invalid_item_fraction: f64,
    /// Fraction of customers created with bad credit ("BC", TPC-C: 10%).
    pub bad_credit_fraction: f64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 4,
            districts_per_warehouse: 10,
            customers_per_district: 120,
            items: 1_000,
            cross_partition_fraction: 0.125,
            invalid_item_fraction: 0.01,
            bad_credit_fraction: 0.10,
        }
    }
}

impl TpccConfig {
    /// A very small configuration for unit tests.
    pub fn small() -> Self {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 3,
            customers_per_district: 10,
            items: 50,
            ..Default::default()
        }
    }

    /// A configuration with `warehouses` warehouses and the default knobs.
    pub fn with_warehouses(warehouses: usize) -> Self {
        TpccConfig { warehouses, ..Default::default() }
    }
}

/// The TPC-C workload (NewOrder + Payment standard mix).
#[derive(Debug, Clone)]
pub struct TpccWorkload {
    config: TpccConfig,
}

impl TpccWorkload {
    /// Creates the workload.
    pub fn new(config: TpccConfig) -> Self {
        TpccWorkload { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    fn random_district(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(1..=self.config.districts_per_warehouse)
    }

    fn random_customer(&self, rng: &mut StdRng) -> u64 {
        nurand(rng, 1023, 1, self.config.customers_per_district, 259)
            .min(self.config.customers_per_district)
    }

    fn random_item(&self, rng: &mut StdRng) -> u64 {
        nurand(rng, 8191, 1, self.config.items, 7911).min(self.config.items)
    }

    fn random_remote_warehouse(&self, rng: &mut StdRng, home: u64) -> u64 {
        if self.config.warehouses < 2 {
            return home;
        }
        let offset = rng.gen_range(1..self.config.warehouses as u64);
        (home + offset) % self.config.warehouses as u64
    }

    fn make_new_order(&self, rng: &mut StdRng, home: u64, cross: bool) -> NewOrder {
        let line_count = rng.gen_range(5..=15usize);
        // For cross-partition orders, force at least one remote supplier.
        let remote_line = if cross { Some(rng.gen_range(0..line_count)) } else { None };
        let invalid = rng.gen::<f64>() < self.config.invalid_item_fraction;
        let invalid_line = if invalid { Some(line_count - 1) } else { None };
        let lines = (0..line_count)
            .map(|i| {
                let supply_warehouse = if Some(i) == remote_line {
                    self.random_remote_warehouse(rng, home)
                } else {
                    home
                };
                OrderLineInput {
                    item_id: if Some(i) == invalid_line {
                        None
                    } else {
                        Some(self.random_item(rng))
                    },
                    supply_warehouse,
                    quantity: rng.gen_range(1..=10),
                }
            })
            .collect();
        NewOrder {
            warehouse: home,
            district: self.random_district(rng),
            customer: self.random_customer(rng),
            lines,
        }
    }

    fn make_payment(&self, rng: &mut StdRng, home: u64, cross: bool) -> Payment {
        let (customer_warehouse, customer_district) = if cross {
            (self.random_remote_warehouse(rng, home), self.random_district(rng))
        } else {
            (home, self.random_district(rng))
        };
        Payment {
            warehouse: home,
            district: self.random_district(rng),
            customer_warehouse,
            customer_district,
            customer: self.random_customer(rng),
            amount: rng.gen_range(1.0..5_000.0),
            history_seq: rng.gen(),
        }
    }

    fn make_transaction(&self, rng: &mut StdRng, home: u64, cross: bool) -> Box<dyn Procedure> {
        // The standard mix alternates NewOrder and Payment; drawing uniformly
        // gives the same 50/50 proportion in expectation.
        if rng.gen_bool(0.5) {
            Box::new(self.make_new_order(rng, home, cross))
        } else {
            Box::new(self.make_payment(rng, home, cross))
        }
    }

    fn warehouse_row(b: &mut RowBuilder, w: u64, rng: &mut StdRng) -> PackedRow {
        b.u64(w).str(&astring(rng, 6, 10)).f64(rng.gen_range(0.0..0.2)).f64(300_000.0).finish()
    }

    fn district_row(b: &mut RowBuilder, w: u64, d: u64, rng: &mut StdRng) -> PackedRow {
        b.u64(d)
            .u64(w)
            .str(&astring(rng, 6, 10))
            .f64(rng.gen_range(0.0..0.2))
            .f64(30_000.0)
            .u64(3_001)
            .finish()
    }

    fn customer_row(
        &self,
        b: &mut RowBuilder,
        w: u64,
        d: u64,
        c: u64,
        rng: &mut StdRng,
    ) -> PackedRow {
        let credit = if rng.gen::<f64>() < self.config.bad_credit_fraction { "BC" } else { "GC" };
        b.u64(c)
            .u64(d)
            .u64(w)
            .str(&format!("LAST{}", c % 100))
            .str(credit)
            .f64(-10.0)
            .f64(10.0)
            .u64(1)
            .str(&astring(rng, 300, procedures::C_DATA_MAX))
            .finish()
    }

    fn item_row(b: &mut RowBuilder, i: u64, rng: &mut StdRng) -> PackedRow {
        b.u64(i)
            .str(&astring(rng, 14, 24))
            .f64(rng.gen_range(1.0..100.0))
            .str(&astring(rng, 26, 50))
            .finish()
    }

    fn stock_row(b: &mut RowBuilder, w: u64, i: u64, rng: &mut StdRng) -> PackedRow {
        b.u64(i)
            .u64(w)
            .i64(rng.gen_range(10..100))
            .f64(0.0)
            .u64(0)
            .u64(0)
            .str(&astring(rng, 26, 50))
            .finish()
    }
}

impl Workload for TpccWorkload {
    fn name(&self) -> &'static str {
        "TPC-C"
    }

    fn catalog(&self) -> Vec<TableSpec> {
        schema::catalog()
    }

    fn num_partitions(&self) -> usize {
        self.config.warehouses
    }

    fn mix(&self) -> WorkloadMix {
        WorkloadMix { cross_partition_fraction: self.config.cross_partition_fraction }
    }

    fn load_partition(&self, db: &Database, partition: PartitionId) {
        use rand::SeedableRng;
        let w = partition as u64;
        // Deterministic per-partition seed so every replica of the partition
        // loads identical rows.
        let mut rng = StdRng::seed_from_u64(0x7BCC_0000u64 ^ w);
        // One builder for every row; each row constructor draws from `rng`
        // in field order and packs the row as the record stores it.
        let b = &mut RowBuilder::new();
        db.insert(
            table::WAREHOUSE,
            partition,
            s::warehouse_key(w),
            Self::warehouse_row(b, w, &mut rng),
        )
        .expect("loading a held partition cannot fail");
        for d in 1..=self.config.districts_per_warehouse {
            db.insert(
                table::DISTRICT,
                partition,
                s::district_key(w, d),
                Self::district_row(b, w, d, &mut rng),
            )
            .unwrap();
            for c in 1..=self.config.customers_per_district {
                db.insert(
                    table::CUSTOMER,
                    partition,
                    s::customer_key(w, d, c),
                    self.customer_row(b, w, d, c, &mut rng),
                )
                .unwrap();
            }
        }
        for i in 1..=self.config.items {
            db.insert(table::ITEM, partition, s::item_key(i), Self::item_row(b, i, &mut rng))
                .unwrap();
            db.insert(
                table::STOCK,
                partition,
                s::stock_key(w, i),
                Self::stock_row(b, w, i, &mut rng),
            )
            .unwrap();
        }
    }

    fn single_partition_transaction(
        &self,
        rng: &mut StdRng,
        partition: PartitionId,
    ) -> Box<dyn Procedure> {
        self.make_transaction(rng, partition as u64, false)
    }

    fn cross_partition_transaction(
        &self,
        rng: &mut StdRng,
        partition: PartitionId,
    ) -> Box<dyn Procedure> {
        if self.config.warehouses < 2 {
            return self.single_partition_transaction(rng, partition);
        }
        self.make_transaction(rng, partition as u64, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use star_occ::TxnCtx;
    use star_storage::DatabaseBuilder;

    fn build_db(wl: &TpccWorkload) -> Database {
        let mut builder = DatabaseBuilder::new(wl.num_partitions());
        for spec in wl.catalog() {
            builder = builder.table(spec);
        }
        let db = builder.build();
        for p in 0..wl.num_partitions() {
            wl.load_partition(&db, p);
        }
        db
    }

    #[test]
    fn loader_creates_all_tables() {
        let wl = TpccWorkload::new(TpccConfig::small());
        let db = build_db(&wl);
        let c = &wl.config;
        let per_wh = 1
            + c.districts_per_warehouse
            + c.districts_per_warehouse * c.customers_per_district
            + 2 * c.items;
        assert_eq!(db.len() as u64, per_wh * c.warehouses as u64);
        // Spot-check a few rows.
        assert!(db.get(table::WAREHOUSE, 1, s::warehouse_key(1)).is_ok());
        assert!(db.get(table::DISTRICT, 0, s::district_key(0, 3)).is_ok());
        assert!(db.get(table::CUSTOMER, 1, s::customer_key(1, 2, 5)).is_ok());
        assert!(db.get(table::STOCK, 0, s::stock_key(0, 17)).is_ok());
        assert!(db.get(table::ITEM, 1, s::item_key(17)).is_ok());
    }

    #[test]
    fn loading_is_deterministic_across_replicas() {
        let wl = TpccWorkload::new(TpccConfig::small());
        let a = build_db(&wl);
        let b = build_db(&wl);
        let key = s::customer_key(0, 1, 3);
        assert_eq!(
            a.get(table::CUSTOMER, 0, key).unwrap().read().row,
            b.get(table::CUSTOMER, 0, key).unwrap().read().row
        );
    }

    #[test]
    fn generated_transactions_respect_the_cross_partition_flag() {
        let wl = TpccWorkload::new(TpccConfig::with_warehouses(4));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let single = wl.single_partition_transaction(&mut rng, 2);
            assert_eq!(single.partitions(), vec![2]);
            let cross = wl.cross_partition_transaction(&mut rng, 2);
            assert!(cross.partitions().contains(&2));
            assert!(cross.partitions().len() >= 2, "cross txn must span partitions");
        }
    }

    #[test]
    fn standard_mix_executes_against_loaded_database() {
        let config = TpccConfig { warehouses: 2, ..TpccConfig::default() };
        let wl = TpccWorkload::new(config);
        let db = build_db(&wl);
        let mut rng = StdRng::seed_from_u64(11);
        let mut commits = 0;
        let mut user_aborts = 0;
        for i in 0..200 {
            let txn = wl.mixed_transaction(&mut rng, i % 2);
            let mut ctx = TxnCtx::new(&db);
            match txn.execute(&mut ctx) {
                Ok(()) => commits += 1,
                Err(star_common::Error::Abort(star_common::AbortReason::User)) => user_aborts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(commits > 150, "commits={commits}");
        // ~1% of NewOrders (i.e. ~0.5% of the mix) abort; over 200 txns the
        // count should be small but the mechanism must exist.
        assert!(user_aborts < 20, "user_aborts={user_aborts}");
    }

    #[test]
    fn new_order_consumes_consecutive_order_ids() {
        let wl = TpccWorkload::new(TpccConfig::small());
        let db = build_db(&wl);
        let mut rng = StdRng::seed_from_u64(13);
        let mut gen = star_common::TidGenerator::new();
        let mut order_ids = Vec::new();
        for _ in 0..3 {
            let proc = wl.make_new_order(&mut rng, 0, false);
            let d = proc.district;
            let mut ctx = TxnCtx::new(&db);
            if proc.execute(&mut ctx).is_err() {
                continue;
            }
            let (rs, ws) = ctx.into_sets();
            star_occ::commit_single_master(&db, rs, ws, 1, &mut gen).unwrap();
            let district = db.get(table::DISTRICT, 0, s::district_key(0, d)).unwrap().read().row;
            order_ids.push(district.field(s::district::D_NEXT_O_ID).unwrap().as_u64().unwrap());
        }
        // Each committed NewOrder advances its district's next order id.
        assert!(order_ids.iter().all(|&o| o > 3_001));
    }
}
