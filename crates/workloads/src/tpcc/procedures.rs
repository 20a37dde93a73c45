//! The TPC-C NewOrder and Payment stored procedures.
//!
//! Parameters are fully materialised at generation time (warehouse, district,
//! customer, item list, amounts), so the procedures themselves are
//! deterministic and can be re-executed by OCC retries or by deterministic
//! engines without consulting a random-number generator.

use super::schema::{self as s, table};
use star_common::{Error, FieldRef, FieldValue, Operation, PartitionId, Result};
use star_occ::{Procedure, TxnCtx};

/// Maximum length of the customer's `C_DATA` field (TPC-C clause 2.5.3.4 uses
/// 500 characters).
pub const C_DATA_MAX: usize = 500;

/// One order line requested by a NewOrder transaction.
#[derive(Debug, Clone)]
pub struct OrderLineInput {
    /// Item ordered. `None` models the 1% of NewOrders carrying an invalid
    /// item id, which must abort at the application level.
    pub item_id: Option<u64>,
    /// Warehouse supplying the item (may differ from the home warehouse for
    /// cross-partition orders).
    pub supply_warehouse: u64,
    /// Quantity ordered (1–10).
    pub quantity: u64,
}

/// The TPC-C NewOrder transaction.
#[derive(Debug, Clone)]
pub struct NewOrder {
    /// Home warehouse (and partition).
    pub warehouse: u64,
    /// District within the warehouse (1–10).
    pub district: u64,
    /// Customer placing the order.
    pub customer: u64,
    /// The requested order lines (5–15 of them).
    pub lines: Vec<OrderLineInput>,
}

impl NewOrder {
    fn is_all_local(&self) -> bool {
        self.lines.iter().all(|l| l.supply_warehouse == self.warehouse)
    }
}

impl Procedure for NewOrder {
    fn name(&self) -> &'static str {
        "NewOrder"
    }

    fn partitions(&self) -> Vec<PartitionId> {
        let mut ps = vec![s::warehouse_partition(self.warehouse)];
        ps.extend(self.lines.iter().map(|l| s::warehouse_partition(l.supply_warehouse)));
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<()> {
        let w = self.warehouse;
        let d = self.district;
        let home = s::warehouse_partition(w);

        // Warehouse and district reads; the district's next order id is
        // consumed and incremented.
        let _warehouse = ctx.read(table::WAREHOUSE, home, s::warehouse_key(w))?;
        let district_row = ctx.read(table::DISTRICT, home, s::district_key(w, d))?;
        let next_o_id = district_row
            .field(s::district::D_NEXT_O_ID)
            .and_then(FieldRef::as_u64)
            .ok_or_else(|| Error::Config("district row missing D_NEXT_O_ID".into()))?;
        let mut new_district = district_row.unpack();
        new_district.set(s::district::D_NEXT_O_ID, FieldValue::U64(next_o_id + 1));
        ctx.update_with_operation(
            table::DISTRICT,
            home,
            s::district_key(w, d),
            new_district,
            Operation::SetField {
                field: s::district::D_NEXT_O_ID,
                value: FieldValue::U64(next_o_id + 1),
            },
        );

        let _customer = ctx.read(table::CUSTOMER, home, s::customer_key(w, d, self.customer))?;

        // Insert the Order and NewOrder rows.
        let o_id = next_o_id;
        ctx.insert(
            table::ORDER,
            home,
            s::order_key(w, d, o_id),
            [
                FieldValue::U64(o_id),
                FieldValue::U64(d),
                FieldValue::U64(w),
                FieldValue::U64(self.customer),
                FieldValue::U64(self.lines.len() as u64),
                FieldValue::U64(self.is_all_local() as u64),
            ]
            .into_iter()
            .collect(),
        );
        ctx.insert(
            table::NEW_ORDER,
            home,
            s::order_key(w, d, o_id),
            [FieldValue::U64(o_id), FieldValue::U64(d), FieldValue::U64(w)].into_iter().collect(),
        );

        // Order lines: read the item, update the supplying stock, insert the
        // order line.
        for (number, line) in self.lines.iter().enumerate() {
            let Some(item_id) = line.item_id else {
                // Invalid item id: the transaction must roll back at the
                // application level (counted as a user abort, not retried).
                return Err(ctx.abort());
            };
            let item_row = match ctx.read(table::ITEM, home, s::item_key(item_id)) {
                Ok(row) => row,
                Err(Error::KeyNotFound { .. }) => return Err(ctx.abort()),
                Err(e) => return Err(e),
            };
            let price = item_row.field(s::item::I_PRICE).and_then(FieldRef::as_f64).unwrap_or(1.0);

            let supply_w = line.supply_warehouse;
            let supply_partition = s::warehouse_partition(supply_w);
            let stock_key = s::stock_key(supply_w, item_id);
            let stock_row = ctx.read(table::STOCK, supply_partition, stock_key)?;
            let quantity =
                stock_row.field(s::stock::S_QUANTITY).and_then(FieldRef::as_i64).unwrap_or(0);
            let new_quantity = if quantity - (line.quantity as i64) >= 10 {
                quantity - line.quantity as i64
            } else {
                quantity - line.quantity as i64 + 91
            };
            let remote = supply_w != w;
            let mut new_stock = stock_row.unpack();
            new_stock.set(s::stock::S_QUANTITY, FieldValue::I64(new_quantity));
            let ytd = new_stock.field(s::stock::S_YTD).and_then(FieldValue::as_f64).unwrap_or(0.0);
            new_stock.set(s::stock::S_YTD, FieldValue::F64(ytd + line.quantity as f64));
            let order_cnt =
                new_stock.field(s::stock::S_ORDER_CNT).and_then(FieldValue::as_u64).unwrap_or(0);
            new_stock.set(s::stock::S_ORDER_CNT, FieldValue::U64(order_cnt + 1));
            if remote {
                let remote_cnt = new_stock
                    .field(s::stock::S_REMOTE_CNT)
                    .and_then(FieldValue::as_u64)
                    .unwrap_or(0);
                new_stock.set(s::stock::S_REMOTE_CNT, FieldValue::U64(remote_cnt + 1));
            }
            let mut ops = vec![
                Operation::SetField {
                    field: s::stock::S_QUANTITY,
                    value: FieldValue::I64(new_quantity),
                },
                Operation::AddF64 { field: s::stock::S_YTD, delta: line.quantity as f64 },
                Operation::SetField {
                    field: s::stock::S_ORDER_CNT,
                    value: FieldValue::U64(order_cnt + 1),
                },
            ];
            if remote {
                let remote_cnt = new_stock
                    .field(s::stock::S_REMOTE_CNT)
                    .and_then(FieldValue::as_u64)
                    .unwrap_or(0);
                ops.push(Operation::SetField {
                    field: s::stock::S_REMOTE_CNT,
                    value: FieldValue::U64(remote_cnt),
                });
            }
            ctx.update_with_operation(
                table::STOCK,
                supply_partition,
                stock_key,
                new_stock,
                Operation::Multi { ops },
            );

            let amount = line.quantity as f64 * price;
            ctx.insert(
                table::ORDER_LINE,
                home,
                s::order_line_key(w, d, o_id, number as u64 + 1),
                [
                    FieldValue::U64(o_id),
                    FieldValue::U64(d),
                    FieldValue::U64(w),
                    FieldValue::U64(number as u64 + 1),
                    FieldValue::U64(item_id),
                    FieldValue::U64(supply_w),
                    FieldValue::U64(line.quantity),
                    FieldValue::F64(amount),
                ]
                .into_iter()
                .collect(),
            );
        }
        Ok(())
    }
}

/// The TPC-C Payment transaction.
#[derive(Debug, Clone)]
pub struct Payment {
    /// Home warehouse (and partition).
    pub warehouse: u64,
    /// District within the home warehouse.
    pub district: u64,
    /// Warehouse of the paying customer (differs from `warehouse` for the
    /// cross-partition 15%).
    pub customer_warehouse: u64,
    /// District of the paying customer.
    pub customer_district: u64,
    /// Customer id.
    pub customer: u64,
    /// Payment amount.
    pub amount: f64,
    /// Unique suffix for the History row inserted by this payment.
    pub history_seq: u64,
}

impl Procedure for Payment {
    fn name(&self) -> &'static str {
        "Payment"
    }

    fn partitions(&self) -> Vec<PartitionId> {
        let mut ps = vec![
            s::warehouse_partition(self.warehouse),
            s::warehouse_partition(self.customer_warehouse),
        ];
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<()> {
        let w = self.warehouse;
        let d = self.district;
        let home = s::warehouse_partition(w);
        let remote = s::warehouse_partition(self.customer_warehouse);

        // Warehouse YTD.
        let warehouse_row = ctx.read(table::WAREHOUSE, home, s::warehouse_key(w))?;
        let w_ytd =
            warehouse_row.field(s::warehouse::W_YTD).and_then(FieldRef::as_f64).unwrap_or(0.0);
        let mut new_warehouse = warehouse_row.unpack();
        new_warehouse.set(s::warehouse::W_YTD, FieldValue::F64(w_ytd + self.amount));
        ctx.update_with_operation(
            table::WAREHOUSE,
            home,
            s::warehouse_key(w),
            new_warehouse,
            Operation::AddF64 { field: s::warehouse::W_YTD, delta: self.amount },
        );

        // District YTD.
        let district_row = ctx.read(table::DISTRICT, home, s::district_key(w, d))?;
        let d_ytd =
            district_row.field(s::district::D_YTD).and_then(FieldRef::as_f64).unwrap_or(0.0);
        let mut new_district = district_row.unpack();
        new_district.set(s::district::D_YTD, FieldValue::F64(d_ytd + self.amount));
        ctx.update_with_operation(
            table::DISTRICT,
            home,
            s::district_key(w, d),
            new_district,
            Operation::AddF64 { field: s::district::D_YTD, delta: self.amount },
        );

        // Customer: balance, payment statistics and (for bad credit) C_DATA.
        let c_key = s::customer_key(self.customer_warehouse, self.customer_district, self.customer);
        let customer_row = ctx.read(table::CUSTOMER, remote, c_key)?;
        let balance =
            customer_row.field(s::customer::C_BALANCE).and_then(FieldRef::as_f64).unwrap_or(0.0);
        let ytd_payment = customer_row
            .field(s::customer::C_YTD_PAYMENT)
            .and_then(FieldRef::as_f64)
            .unwrap_or(0.0);
        let payment_cnt =
            customer_row.field(s::customer::C_PAYMENT_CNT).and_then(FieldRef::as_u64).unwrap_or(0);
        let bad_credit = customer_row
            .field(s::customer::C_CREDIT)
            .and_then(FieldRef::as_str)
            .map(|c| c == "BC")
            .unwrap_or(false);

        let mut new_customer = customer_row.unpack();
        new_customer.set(s::customer::C_BALANCE, FieldValue::F64(balance - self.amount));
        new_customer.set(s::customer::C_YTD_PAYMENT, FieldValue::F64(ytd_payment + self.amount));
        new_customer.set(s::customer::C_PAYMENT_CNT, FieldValue::U64(payment_cnt + 1));
        let mut ops = vec![
            Operation::AddF64 { field: s::customer::C_BALANCE, delta: -self.amount },
            Operation::AddF64 { field: s::customer::C_YTD_PAYMENT, delta: self.amount },
            Operation::SetField {
                field: s::customer::C_PAYMENT_CNT,
                value: FieldValue::U64(payment_cnt + 1),
            },
        ];
        if bad_credit {
            // Clause 2.5.2.2: bad-credit customers have the payment details
            // prepended to C_DATA, truncated to 500 characters. Shipping just
            // the short prefix (operation replication) instead of the whole
            // 500-character field is the paper's motivating example for the
            // hybrid replication strategy.
            let prefix = format!(
                "{} {} {} {} {} {:.2}|",
                self.customer, self.customer_district, self.customer_warehouse, d, w, self.amount
            );
            let old_data =
                customer_row.field(s::customer::C_DATA).and_then(FieldRef::as_str).unwrap_or("");
            let mut new_data = String::with_capacity(C_DATA_MAX);
            new_data.push_str(&prefix);
            new_data.push_str(old_data);
            new_data.truncate(C_DATA_MAX);
            new_customer.set(s::customer::C_DATA, FieldValue::Str(new_data));
            ops.push(Operation::ConcatStr {
                field: s::customer::C_DATA,
                prefix,
                max_len: C_DATA_MAX,
            });
        }
        ctx.update_with_operation(
            table::CUSTOMER,
            remote,
            c_key,
            new_customer,
            Operation::Multi { ops },
        );

        // History insert (home warehouse side).
        ctx.insert(
            table::HISTORY,
            home,
            s::history_key(w, d, self.customer, self.history_seq),
            [
                FieldValue::U64(self.customer),
                FieldValue::U64(self.customer_district),
                FieldValue::U64(self.customer_warehouse),
                FieldValue::U64(d),
                FieldValue::U64(w),
                FieldValue::F64(self.amount),
                FieldValue::Str(format!("payment-{}", self.history_seq)),
            ]
            .into_iter()
            .collect(),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::{TpccConfig, TpccWorkload};
    use star_core::Workload as _;
    use star_storage::{Database, DatabaseBuilder};

    fn build_db(config: &TpccConfig) -> (TpccWorkload, Database) {
        let wl = TpccWorkload::new(config.clone());
        let mut builder = DatabaseBuilder::new(wl.num_partitions());
        for spec in wl.catalog() {
            builder = builder.table(spec);
        }
        let db = builder.build();
        for p in 0..wl.num_partitions() {
            wl.load_partition(&db, p);
        }
        (wl, db)
    }

    fn config() -> TpccConfig {
        TpccConfig { warehouses: 2, ..TpccConfig::small() }
    }

    #[test]
    fn new_order_inserts_order_rows_and_updates_stock() {
        let (_wl, db) = build_db(&config());
        let proc = NewOrder {
            warehouse: 0,
            district: 1,
            customer: 1,
            lines: vec![
                OrderLineInput { item_id: Some(1), supply_warehouse: 0, quantity: 3 },
                OrderLineInput { item_id: Some(2), supply_warehouse: 0, quantity: 5 },
            ],
        };
        assert!(proc.is_single_partition());
        let mut ctx = TxnCtx::new(&db);
        proc.execute(&mut ctx).unwrap();
        let inserts = ctx.write_set().iter().filter(|w| w.insert).count();
        // Order + NewOrder + 2 OrderLines.
        assert_eq!(inserts, 4);
        // District next_o_id and 2 stock rows are updated.
        let updates = ctx.write_set().iter().filter(|w| !w.insert).count();
        assert_eq!(updates, 3);
    }

    #[test]
    fn new_order_with_remote_supplier_is_cross_partition() {
        let proc = NewOrder {
            warehouse: 0,
            district: 1,
            customer: 1,
            lines: vec![OrderLineInput { item_id: Some(1), supply_warehouse: 1, quantity: 1 }],
        };
        assert!(!proc.is_single_partition());
        assert_eq!(proc.partitions(), vec![0, 1]);
        assert!(!proc.is_all_local());
    }

    #[test]
    fn new_order_with_invalid_item_aborts() {
        let (_wl, db) = build_db(&config());
        let proc = NewOrder {
            warehouse: 0,
            district: 1,
            customer: 1,
            lines: vec![OrderLineInput { item_id: None, supply_warehouse: 0, quantity: 1 }],
        };
        let mut ctx = TxnCtx::new(&db);
        let err = proc.execute(&mut ctx).unwrap_err();
        assert_eq!(err, Error::Abort(star_common::AbortReason::User));
    }

    #[test]
    fn payment_updates_ytd_and_customer_balance() {
        let (_wl, db) = build_db(&config());
        let proc = Payment {
            warehouse: 0,
            district: 1,
            customer_warehouse: 0,
            customer_district: 1,
            customer: 2,
            amount: 42.5,
            history_seq: 7,
        };
        assert!(proc.is_single_partition());
        let mut ctx = TxnCtx::new(&db);
        proc.execute(&mut ctx).unwrap();
        let customer_write = ctx
            .write_set()
            .iter()
            .find(|w| w.table == table::CUSTOMER)
            .expect("payment must update the customer");
        let balance =
            customer_write.row.field(s::customer::C_BALANCE).and_then(FieldValue::as_f64).unwrap();
        // Customers are loaded with a -10.00 balance (TPC-C clause 4.3.3.1);
        // the payment decrements it further.
        assert!((balance - (-52.5)).abs() < 1e-9);
        // Warehouse + district + customer updates and one history insert.
        assert_eq!(ctx.write_set().len(), 4);
        assert_eq!(ctx.write_set().iter().filter(|w| w.insert).count(), 1);
    }

    #[test]
    fn payment_to_remote_customer_is_cross_partition() {
        let proc = Payment {
            warehouse: 0,
            district: 1,
            customer_warehouse: 1,
            customer_district: 2,
            customer: 3,
            amount: 1.0,
            history_seq: 1,
        };
        assert!(!proc.is_single_partition());
        assert_eq!(proc.partitions(), vec![0, 1]);
    }

    #[test]
    fn payment_operation_replication_is_much_cheaper_than_value() {
        // The C_DATA field makes the full customer row heavy; the registered
        // operation ships only the short prefix.
        let (_wl, db) = build_db(&config());
        // Find a bad-credit customer so C_DATA is actually updated.
        let mut bad_credit_customer = None;
        'outer: for d in 1..=3u64 {
            for c in 1..=10u64 {
                let key = s::customer_key(0, d, c);
                let row = db.get(table::CUSTOMER, 0, key).unwrap().read().row;
                if row.field(s::customer::C_CREDIT).and_then(FieldRef::as_str) == Some("BC") {
                    bad_credit_customer = Some((d, c));
                    break 'outer;
                }
            }
        }
        let (d, c) = bad_credit_customer.expect("loader must create some bad-credit customers");
        let proc = Payment {
            warehouse: 0,
            district: d,
            customer_warehouse: 0,
            customer_district: d,
            customer: c,
            amount: 10.0,
            history_seq: 1,
        };
        let mut ctx = TxnCtx::new(&db);
        proc.execute(&mut ctx).unwrap();
        let customer_write = ctx.write_set().iter().find(|w| w.table == table::CUSTOMER).unwrap();
        let op = customer_write.operation.as_ref().unwrap();
        assert!(op.wire_size() * 5 < customer_write.row.wire_size());
    }
}
