//! Micro-benchmarks of the OCC commit path: the cost behind every throughput
//! figure (single-master phase commit, partitioned-phase commit, validation
//! failure).

use criterion::{criterion_group, criterion_main, Criterion};
use star::common::row::row;
use star::common::{FieldValue, TidGenerator};
use star::occ::{commit_partitioned, commit_single_master, TxnCtx};
use star::storage::{Database, DatabaseBuilder, TableSpec};

fn database() -> Database {
    let db = DatabaseBuilder::new(4).table(TableSpec::new("t")).build();
    for p in 0..4usize {
        for k in 0..10_000u64 {
            db.insert(0, p, (p as u64) << 32 | k, row([FieldValue::U64(k)])).unwrap();
        }
    }
    db
}

fn bench_occ(c: &mut Criterion) {
    let db = database();
    let mut group = c.benchmark_group("occ_commit");

    group.bench_function("single_master_rmw10", |b| {
        let mut tid_gen = TidGenerator::new();
        let mut key = 0u64;
        b.iter(|| {
            let mut ctx = TxnCtx::new(&db);
            for i in 0..10u64 {
                let k = (key + i * 37) % 10_000;
                let r = ctx.read(0, 0, k).unwrap();
                ctx.update(0, 0, k, r.unpack());
            }
            key = (key + 1) % 10_000;
            let (rs, ws) = ctx.into_sets();
            commit_single_master(&db, rs, ws, 1, &mut tid_gen).unwrap();
        })
    });

    group.bench_function("partitioned_rmw10", |b| {
        let mut tid_gen = TidGenerator::new();
        let mut key = 0u64;
        b.iter(|| {
            let mut ctx = TxnCtx::new_single_threaded(&db);
            for i in 0..10u64 {
                let k = (1u64 << 32) | ((key + i * 37) % 10_000);
                let r = ctx.read(0, 1, k).unwrap();
                ctx.update(0, 1, k, r.unpack());
            }
            key = (key + 1) % 10_000;
            let (rs, ws) = ctx.into_sets();
            commit_partitioned(&db, rs, ws, 1, &mut tid_gen).unwrap();
        })
    });

    group.bench_function("read_only_10", |b| {
        let mut tid_gen = TidGenerator::new();
        b.iter(|| {
            let mut ctx = TxnCtx::new(&db);
            for i in 0..10u64 {
                ctx.read(0, 2, (2u64 << 32) | (i * 991 % 10_000)).unwrap();
            }
            let (rs, ws) = ctx.into_sets();
            commit_single_master(&db, rs, ws, 1, &mut tid_gen).unwrap();
        })
    });

    group.finish();
}

criterion_group!(benches, bench_occ);
criterion_main!(benches);
