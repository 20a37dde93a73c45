//! The traced pass: per-layer numbers from timing the harness's own calls
//! into each crate's public functions. Nothing inside `crates/` is
//! instrumented.
//!
//! A traced run does, inside one root span and on the workload's own seeded
//! inputs: the layer probes (storage, workloads, occ, replication, net,
//! proto, then serverd and client on a loopback cluster), a stepped pass
//! through the engine with a span around every phase, fence and drain — run
//! once without and once with span recording, the difference being the
//! tracing overhead — a recovery, and half the usual measurement windows for
//! the numbers only windows can give.

use crate::host;
use crate::inproc;
use crate::measure::{measure, Measured, Subject, Window};
use crate::spec::{self, Workload};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_common::{AbortReason, ClusterConfig, Error, ReplicationStrategy, TidGenerator};
use star_core::messages::ReplicationBatch;
use star_core::StarEngine;
use star_net::{NetworkConfig, SimNetwork};
use star_occ::{commit_partitioned, commit_single_master, CommitOutput, TxnCtx};
use star_proto::{replication_frame_encoded, AdminQuery, Request, Response, Role, WireMessage};
use star_replication::checkpoint::Checkpoint;
use star_replication::{build_log_entries, EncodedEntry, ExecutionPhase, LogEntry, WalWriter};
use star_serverd::replica_digest;
use star_storage::{Database, DatabaseBuilder};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a traced run produced.
pub struct Traced {
    pub metrics: Metrics,
    pub trace_json: String,
    /// Self time of each layer in milliseconds.
    pub self_time_ms: Vec<(&'static str, f64)>,
    /// Length of the root span in milliseconds.
    pub root_ms: f64,
    /// Transactions attempted in the measurement windows.
    pub attempted: u64,
}

const GENERATED_TXNS: usize = 20_000;
const POINT_READS: usize = 200_000;
const INSERTS: usize = 50_000;
const COMMITS_PER_PHASE: usize = 10_000;
const COMMIT_BATCH: usize = 500;
const FRAME_ENTRIES: usize = 64;
const NET_BATCHES: usize = 2_000;
const PROTO_ROUNDS: usize = 2_000;
const STEPPED_ITERATIONS: usize = 60;
const STEPPED_ATTEMPTS_PER_PHASE_PAIR: f64 = 200.0;
/// Windows the in-process twin of `wire_ycsb` runs for its slice counters,
/// after a warm-up like `ycsb_cross`'s.
const TWIN_WINDOWS: usize = 4;
const TWIN_WARMUP_ITERATIONS: usize = 70;
const TWIN_WARMUP_ATTEMPTS: u64 = 250;

type DynWorkload = Arc<dyn star_core::Workload>;

/// Address of one record: table, partition, key.
type RecordKey = (u32, usize, u64);

/// An empty database with the workload's tables, holding every partition.
fn empty_database(definition: &DynWorkload) -> Database {
    let mut builder = DatabaseBuilder::new(definition.num_partitions());
    for table in definition.catalog() {
        builder = builder.table(table);
    }
    builder.build()
}

/// A full replica of the workload's initial database.
fn load_replica(definition: &DynWorkload) -> Database {
    let db = empty_database(definition);
    for partition in db.held_partitions() {
        definition.load_partition(&db, partition);
    }
    db
}

fn temp_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("steadybench-{}-{name}", std::process::id()))
}

/// Storage and workload-generation probes. Returns the loaded replica and a
/// seeded sample of its keys for the later probes.
fn probe_storage(
    tracer: &mut Tracer,
    definition: &DynWorkload,
    rng: &mut StdRng,
    metrics: &mut Metrics,
) -> Result<(Database, Vec<RecordKey>), String> {
    // First thing in the process, so the resident-size delta is the data.
    let rss_before = host::rss_mb().ok_or("cannot read VmRSS")?;
    let (db, load_s) = tracer.timed("workloads.load_partition", || load_replica(definition));
    let rss_after = host::rss_mb().ok_or("cannot read VmRSS")?;
    let rows = db.len().max(1) as f64;
    metrics.insert("workloads.load_us_per_krow", load_s * 1e6 / (rows / 1e3));
    metrics.insert("storage.bytes_per_row", (rss_after - rss_before) * 1024.0 * 1024.0 / rows);

    let mut keys = Vec::with_capacity(db.len());
    let ((), scan_s) = tracer.timed("storage.for_each_record", || {
        db.for_each_record(|table, partition, key, record| {
            black_box(record.read());
            keys.push((table, partition, key));
        })
    });
    metrics.insert("storage.scan_ns_per_row", scan_s * 1e9 / rows);

    // The hash index iterates in an order that differs between processes;
    // sort before sampling so the same seed reads the same keys.
    keys.sort_unstable();
    let sample: Vec<RecordKey> =
        (0..POINT_READS).map(|_| keys[rng.gen_range(0..keys.len())]).collect();
    let (found, get_s) = tracer.timed("storage.get", || {
        sample
            .iter()
            .filter(|(table, partition, key)| db.get(*table, *partition, *key).is_ok())
            .count()
    });
    if found != sample.len() {
        return Err(format!("storage.get found {found} of {} loaded keys", sample.len()));
    }
    metrics.insert("storage.get_ns", get_s * 1e9 / sample.len() as f64);

    // Inserts go into an empty database of the same catalog, with rows of
    // the workload's largest table.
    let mut per_table: BTreeMap<u32, usize> = BTreeMap::new();
    for (table, _, _) in &keys {
        *per_table.entry(*table).or_insert(0) += 1;
    }
    let (&largest, _) =
        per_table.iter().max_by_key(|(_, count)| **count).ok_or("empty database")?;
    let &(_, partition, key) = keys.iter().find(|(t, _, _)| *t == largest).ok_or("empty table")?;
    let row = db.get(largest, partition, key).map_err(|e| format!("get: {e}"))?.read().row;
    let rows_to_insert = vec![row; INSERTS];
    let scratch = empty_database(definition);
    let (inserted, insert_s) = tracer.timed("storage.insert", || {
        rows_to_insert
            .into_iter()
            .enumerate()
            .map(|(i, row)| scratch.insert(largest, 0, i as u64, row).is_ok())
            .filter(|ok| *ok)
            .count()
    });
    if inserted != INSERTS {
        return Err(format!("storage.insert stored {inserted} of {INSERTS} rows"));
    }
    metrics.insert("storage.insert_ns", insert_s * 1e9 / INSERTS as f64);
    tracer.timed("storage.drop", || drop(scratch));

    let partitions = definition.num_partitions();
    let ((), single_s) = tracer.timed("workloads.single_partition_transaction", || {
        for i in 0..GENERATED_TXNS {
            black_box(definition.single_partition_transaction(rng, i % partitions));
        }
    });
    let ((), cross_s) = tracer.timed("workloads.cross_partition_transaction", || {
        for i in 0..GENERATED_TXNS {
            black_box(definition.cross_partition_transaction(rng, i % partitions));
        }
    });
    metrics.insert("workloads.gen_single_ns", single_s * 1e9 / GENERATED_TXNS as f64);
    metrics.insert("workloads.gen_cross_ns", cross_s * 1e9 / GENERATED_TXNS as f64);
    Ok((db, sample))
}

/// Executes generated transactions of one phase on `db`, one batch at a
/// time: generation in a `workloads` span, execute + commit in an `occ`
/// span. Returns the commits and the seconds spent executing them.
fn commit_phase(
    tracer: &mut Tracer,
    definition: &DynWorkload,
    db: &Database,
    rng: &mut StdRng,
    phase: ExecutionPhase,
) -> Result<(Vec<CommitOutput>, f64), String> {
    let partitions = definition.num_partitions();
    let mut tid_gen = TidGenerator::new();
    let mut commits = Vec::with_capacity(COMMITS_PER_PHASE);
    let mut seconds = 0.0;
    let (generate, commit) = match phase {
        ExecutionPhase::Partitioned => {
            ("workloads.single_partition_transaction", "occ.commit_partitioned")
        }
        ExecutionPhase::SingleMaster => {
            ("workloads.cross_partition_transaction", "occ.commit_single_master")
        }
    };
    for batch in 0..COMMITS_PER_PHASE / COMMIT_BATCH {
        let (procedures, _) = tracer.timed(generate, || {
            (0..COMMIT_BATCH)
                .map(|i| {
                    let home = (batch + i) % partitions;
                    match phase {
                        ExecutionPhase::Partitioned => {
                            definition.single_partition_transaction(rng, home)
                        }
                        ExecutionPhase::SingleMaster => {
                            definition.cross_partition_transaction(rng, home)
                        }
                    }
                })
                .collect::<Vec<_>>()
        });
        let (result, batch_s) = tracer.timed(commit, || -> Result<(), String> {
            for procedure in &procedures {
                let mut ctx = match phase {
                    ExecutionPhase::Partitioned => TxnCtx::new_single_threaded(db),
                    ExecutionPhase::SingleMaster => TxnCtx::new(db),
                };
                match procedure.execute(&mut ctx) {
                    Ok(()) => {}
                    // TPC-C rolls back 1 % of NewOrders by design.
                    Err(Error::Abort(AbortReason::User)) => continue,
                    Err(e) => return Err(format!("{commit}: execute: {e}")),
                }
                let (reads, writes) = ctx.into_sets();
                let output = match phase {
                    ExecutionPhase::Partitioned => {
                        commit_partitioned(db, reads, writes, 1, &mut tid_gen)
                    }
                    ExecutionPhase::SingleMaster => {
                        commit_single_master(db, reads, writes, 1, &mut tid_gen)
                    }
                };
                // One thread, so nothing can invalidate a read.
                commits.push(output.map_err(|e| format!("{commit}: {e}"))?);
            }
            Ok(())
        });
        result?;
        seconds += batch_s;
    }
    Ok((commits, seconds))
}

/// OCC, replication and WAL probes on the loaded replica. Returns encoded
/// entries for the net and proto probes.
fn probe_occ_and_replication(
    tracer: &mut Tracer,
    definition: &DynWorkload,
    primary: &Database,
    rng: &mut StdRng,
    metrics: &mut Metrics,
) -> Result<Vec<EncodedEntry>, String> {
    let (backup, _) = tracer.timed("workloads.load_partition", || load_replica(definition));
    let mut entries: Vec<LogEntry> = Vec::new();
    let mut wal_entries: Vec<LogEntry> = Vec::new();
    for (phase, metric) in [
        (ExecutionPhase::Partitioned, "occ.part_commit_us"),
        (ExecutionPhase::SingleMaster, "occ.sm_commit_us"),
    ] {
        let (commits, seconds) = commit_phase(tracer, definition, primary, rng, phase)?;
        metrics.insert(metric, seconds * 1e6 / commits.len().max(1) as f64);
        let open = tracer.begin("replication.build_log_entries");
        for commit in &commits {
            // What the engine ships (operations in the partitioned phase,
            // values in the single-master phase) and what it logs (values).
            entries.extend(build_log_entries(
                &commit.write_set,
                commit.tid,
                ReplicationStrategy::Hybrid,
                phase,
            ));
            wal_entries.extend(build_log_entries(
                &commit.write_set,
                commit.tid,
                ReplicationStrategy::Value,
                phase,
            ));
        }
        tracer.end(open);
    }
    if entries.is_empty() {
        return Err("the probe transactions wrote nothing".into());
    }
    let count = entries.len() as f64;

    let (encoded, encode_s) =
        tracer.timed("replication.encode", || EncodedEntry::encode_all(entries));
    metrics.insert("replication.encode_ns_per_entry", encode_s * 1e9 / count);
    let bytes: usize = encoded.iter().map(EncodedEntry::wire_size).sum();
    metrics.insert("replication.bytes_per_entry", bytes as f64 / count);

    let (applied, apply_s) = tracer.timed("replication.apply", || {
        encoded.iter().filter(|entry| entry.apply(&backup).is_ok()).count()
    });
    if applied != encoded.len() {
        return Err(format!("replication.apply applied {applied} of {} entries", encoded.len()));
    }
    metrics.insert("replication.apply_ns_per_entry", apply_s * 1e9 / count);
    let (digests, _) = tracer
        .timed("serverd.replica_digest", || (replica_digest(primary), replica_digest(&backup)));
    if digests.0 != digests.1 {
        return Err(format!("the backup diverged from the primary after apply: {digests:?}"));
    }

    let wal_path = temp_file("probe.wal");
    let (result, wal_s) = tracer.timed("replication.wal_append", || -> star_common::Result<()> {
        let mut wal = WalWriter::open(&wal_path)?;
        for entry in &wal_entries {
            wal.append_value(entry)?;
        }
        wal.flush()
    });
    let _ = std::fs::remove_file(&wal_path);
    result.map_err(|e| format!("wal append: {e}"))?;
    metrics.insert("replication.wal_append_ns_per_entry", wal_s * 1e9 / wal_entries.len() as f64);

    let checkpoint_path = temp_file("probe.ckpt");
    let (result, checkpoint_s) = tracer.timed("replication.checkpoint", || {
        Checkpoint::capture(primary, 1).write_to(&checkpoint_path)
    });
    let _ = std::fs::remove_file(&checkpoint_path);
    result.map_err(|e| format!("checkpoint: {e}"))?;
    metrics.insert("replication.checkpoint_ms", checkpoint_s * 1e3);
    tracer.timed("storage.drop", || drop(backup));
    Ok(encoded)
}

/// Simulated-network and wire-protocol probes over real encoded entries.
fn probe_net_and_proto(
    tracer: &mut Tracer,
    config: &ClusterConfig,
    encoded: &[EncodedEntry],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let frame_entries: Vec<EncodedEntry> =
        encoded.iter().cycle().take(FRAME_ENTRIES).cloned().collect();

    let (_network, endpoints) =
        SimNetwork::new::<ReplicationBatch>(2, NetworkConfig::with_latency(config.network_latency));
    let batches: Vec<ReplicationBatch> = (0..NET_BATCHES)
        .map(|_| ReplicationBatch { from_node: 0, epoch: 1, entries: frame_entries.clone() })
        .collect();
    let (received, net_s) = tracer.timed("net.send_recv", || {
        for batch in batches {
            let _ = endpoints[0].send(1, batch);
        }
        endpoints[1].drain().len()
    });
    if received != NET_BATCHES {
        return Err(format!("net probe received {received} of {NET_BATCHES} batches"));
    }
    metrics.insert("net.send_recv_ns_per_batch", net_s * 1e9 / NET_BATCHES as f64);

    let frames = [
        replication_frame_encoded(0, 1, &frame_entries),
        WireMessage::Request {
            id: 1,
            body: Request::Run {
                iterations: 1,
                partitioned_txns: spec::WIRE_PARTITIONED_TXNS,
                single_master_txns: spec::WIRE_SINGLE_MASTER_TXNS,
            },
        },
        WireMessage::Response { id: 1, body: Response::RunDone { committed: 210, epochs: 2 } },
    ];
    let ((), encode_s) = tracer.timed("proto.encode", || {
        for _ in 0..PROTO_ROUNDS {
            for frame in &frames {
                black_box(frame.encode());
            }
        }
    });
    let encoded_frames: Vec<_> = frames.iter().map(WireMessage::encode).collect();
    let (decoded, decode_s) = tracer.timed("proto.decode", || {
        let mut decoded = 0;
        for _ in 0..PROTO_ROUNDS {
            for bytes in &encoded_frames {
                decoded += usize::from(black_box(WireMessage::decode(bytes)).is_ok());
            }
        }
        decoded
    });
    let total = (PROTO_ROUNDS * frames.len()) as f64;
    if decoded as f64 != total {
        return Err(format!("proto probe decoded {decoded} of {total} frames"));
    }
    metrics.insert("proto.encode_ns_per_frame", encode_s * 1e9 / total);
    metrics.insert("proto.decode_ns_per_frame", decode_s * 1e9 / total);
    let payload: usize = frame_entries.iter().map(EncodedEntry::wire_size).sum();
    metrics.insert("proto.frame_overhead_b", encoded_frames[0].len() as f64 - payload as f64);
    Ok(())
}

/// Median round trip, in microseconds, of `count` calls of `call`.
fn median_us(
    count: usize,
    mut call: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(count);
    for i in 0..count {
        let start = Instant::now();
        call(i)?;
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&times))
}

/// serverd and client probes on a loopback cluster loaded with the
/// workload's own data.
fn probe_wire(
    tracer: &mut Tracer,
    definition: &DynWorkload,
    seed: u64,
    keys: &[RecordKey],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let config = wire::cluster_config(seed);
    let open = tracer.begin("serverd.start");
    let started = wire::Cluster::start(&config, Arc::clone(definition));
    tracer.end(open);
    let (mut cluster, _, boot_s) = started?;
    metrics.insert("serverd.boot_ms_per_node", boot_s * 1e3 / cluster.nodes() as f64);

    let open = tracer.begin("serverd.ping");
    let ping = median_us(1_000, |_| match cluster.client.request(Request::Ping) {
        Ok(Response::Pong) => Ok(()),
        other => Err(format!("Ping answered {other:?}")),
    });
    tracer.end(open);
    metrics.insert("serverd.ping_rtt_us", ping?);

    let open = tracer.begin("serverd.run_empty");
    let empty = median_us(100, |_| cluster.run(1, 0, 0).map(|_| ()));
    tracer.end(open);
    metrics.insert("serverd.empty_iter_us", empty?);

    let get = |&(table, partition, key): &RecordKey| Request::Get {
        table,
        partition: partition as u32,
        key,
    };
    let open = tracer.begin("serverd.get");
    let get_rtt = median_us(1_000, |i| match cluster.client.request(get(&keys[i % keys.len()])) {
        Ok(Response::Record { row: Some(_), .. }) => Ok(()),
        other => Err(format!("Get answered {other:?}")),
    });
    tracer.end(open);
    metrics.insert("serverd.get_rtt_us", get_rtt?);

    let (digest, digest_s) = tracer.timed("serverd.digest", || {
        cluster.client.request(Request::Admin(AdminQuery::ReplicaDigest))
    });
    if !matches!(digest, Ok(Response::Digest { .. })) {
        return Err(format!("ReplicaDigest answered {digest:?}"));
    }
    metrics.insert("serverd.digest_ms", digest_s * 1e3);

    let addr = cluster.addrs[0].clone();
    let open = tracer.begin("client.connect");
    let connect = median_us(30, |_| {
        star_client::Client::connect(&addr, Role::Client)
            .map(|_| ())
            .map_err(|e| format!("connect: {e}"))
    });
    tracer.end(open);
    metrics.insert("client.connect_us", connect?);

    const PIPELINE: usize = 256;
    const PIPELINES: usize = 20;
    let (result, pipeline_s) = tracer.timed("client.pipeline", || -> Result<(), String> {
        for batch in 0..PIPELINES {
            let requests: Vec<Request> =
                (0..PIPELINE).map(|i| get(&keys[(batch * PIPELINE + i) % keys.len()])).collect();
            let responses =
                cluster.client.pipeline(requests).map_err(|e| format!("pipeline: {e}"))?;
            if !responses.iter().all(|r| matches!(r, Response::Record { row: Some(_), .. })) {
                return Err("a pipelined Get did not return its row".into());
            }
        }
        Ok(())
    });
    result?;
    metrics.insert("client.pipelined_gets_per_s", (PIPELINE * PIPELINES) as f64 / pipeline_s);
    tracer.timed("serverd.shutdown", || drop(cluster));
    Ok(())
}

/// Totals of the stepped iterations run with one tracer.
#[derive(Default)]
struct SteppedPass {
    seconds: f64,
    partitioned_s: f64,
    single_master_s: f64,
    drain_s: f64,
    fences_s: Vec<f64>,
    partitioned_commits: u64,
    single_master_commits: u64,
}

impl SteppedPass {
    fn commits(&self) -> f64 {
        (self.partitioned_commits + self.single_master_commits).max(1) as f64
    }

    /// One iteration through the deterministic stepped API, a span around
    /// every public call: partitioned phase, fence, single-master phase,
    /// fence, drain.
    fn iterate(
        &mut self,
        tracer: &mut Tracer,
        engine: &mut StarEngine,
        partitioned: u64,
        single_master: u64,
    ) {
        let start = Instant::now();
        let (commits, s) = tracer.timed("core.run_partitioned_phase_stepped", || {
            engine.run_partitioned_phase_stepped(partitioned)
        });
        self.partitioned_commits += commits;
        self.partitioned_s += s;
        self.fences_s.push(tracer.timed("core.fence", || engine.fence()).1);
        let (commits, s) = tracer.timed("core.run_single_master_phase_stepped", || {
            engine.run_single_master_phase_stepped(single_master)
        });
        self.single_master_commits += commits;
        self.single_master_s += s;
        self.fences_s.push(tracer.timed("core.fence", || engine.fence()).1);
        self.drain_s += tracer.timed("core.quiesce", || engine.quiesce()).1;
        self.seconds += start.elapsed().as_secs_f64();
    }
}

/// The stepped pass and the recovery probe. Iterations alternate between
/// the recording tracer and a disabled one on the same engine, so the two
/// sets see the same data at the same age and differ only in the spans.
fn probe_core(
    tracer: &mut Tracer,
    workload: Workload,
    definition: &DynWorkload,
    seed: u64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let config = inproc::engine_config(workload, seed);
    let (engine, _) =
        tracer.timed("core.engine_new", || StarEngine::new(config, Arc::clone(definition)));
    let mut engine = engine.map_err(|e| format!("StarEngine::new: {e}"))?;
    // Attempts per phase follow the workload's mix.
    let cross = definition.mix().cross_partition_fraction;
    let single_master = (STEPPED_ATTEMPTS_PER_PHASE_PAIR * cross).round() as u64;
    let partitioned = STEPPED_ATTEMPTS_PER_PHASE_PAIR as u64 - single_master;

    let mut off = Tracer::new(false);
    let (mut traced, mut untraced) = (SteppedPass::default(), SteppedPass::default());
    for _ in 0..STEPPED_ITERATIONS {
        let open = tracer.begin("core.untraced_iteration");
        untraced.iterate(&mut off, &mut engine, partitioned, single_master);
        tracer.end(open);
        traced.iterate(tracer, &mut engine, partitioned, single_master);
    }

    let per_txn_untraced = untraced.seconds / untraced.commits();
    let per_txn_traced = traced.seconds / traced.commits();
    metrics.insert(
        "host.trace_overhead_pct",
        100.0 * (per_txn_traced - per_txn_untraced) / per_txn_untraced,
    );
    metrics.insert(
        "core.part_phase_us_per_txn",
        traced.partitioned_s * 1e6 / traced.partitioned_commits.max(1) as f64,
    );
    metrics.insert(
        "core.sm_phase_us_per_txn",
        traced.single_master_s * 1e6 / traced.single_master_commits.max(1) as f64,
    );
    let fences_us: Vec<f64> = traced.fences_s.iter().map(|s| s * 1e6).collect();
    metrics.insert("core.fence_us_p50", median(&fences_us));
    metrics.insert("core.fence_us_p99", percentile(&fences_us, 99.0));
    metrics.insert("core.drain_us_per_epoch", traced.drain_s * 1e6 / fences_us.len().max(1) as f64);
    metrics.insert("core.part_share", traced.partitioned_commits as f64 / traced.commits());

    let partial = spec::FULL_REPLICAS;
    let (recovered, recover_s) = tracer.timed("replication.recover", || {
        engine.inject_failure(partial);
        engine.fence();
        engine.recover_node(partial)
    });
    recovered.map_err(|e| format!("recover_node: {e}"))?;
    metrics.insert("replication.recover_ms", recover_s * 1e3);
    let (consistent, _) =
        tracer.timed("core.verify_replica_consistency", || engine.verify_replica_consistency());
    tracer.timed("core.drop", || drop(engine));
    consistent.map_err(|e| format!("replica consistency after recovery: {e}"))
}

/// Windows on the in-process twin of `wire_ycsb`: one engine with the
/// loopback nodes' configuration, warmed up the in-process way.
fn twin_windows(workload: Workload, seed: u64) -> Result<Vec<Window>, String> {
    let (mut engine, _) = StarEngine::build(workload, seed)?;
    for _ in 0..TWIN_WARMUP_ITERATIONS {
        engine.run_iteration_stepped(TWIN_WARMUP_ATTEMPTS, TWIN_WARMUP_ATTEMPTS);
    }
    (0..TWIN_WINDOWS).map(|_| engine.window()).collect()
}

/// The traced run of one workload.
pub fn traced_run(workload: Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let definition = inproc::workload_definition(workload);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_6365);
    let mut metrics = Metrics::new();
    let mut tracer = Tracer::new(true);
    let root = tracer.begin("harness.trace");

    let (primary, keys) = probe_storage(&mut tracer, &definition, &mut rng, &mut metrics)?;
    let encoded =
        probe_occ_and_replication(&mut tracer, &definition, &primary, &mut rng, &mut metrics)?;
    tracer.timed("storage.drop", || drop(primary));
    probe_net_and_proto(&mut tracer, &inproc::cluster_config(seed), &encoded, &mut metrics)?;
    tracer.timed("replication.drop", || drop(encoded));
    probe_wire(&mut tracer, &definition, seed, &keys, &mut metrics)?;
    drop(keys);
    probe_core(&mut tracer, workload, &definition, seed, &mut metrics)?;

    let open = tracer.begin(match workload {
        Workload::WireYcsb => "client.run_windows",
        _ => "core.run_for_windows",
    });
    let measured = measure(workload, seed, seconds, workload.segments());
    tracer.end(open);
    let measured = measured?;
    metrics.extend(measured.window_layer_metrics());
    if workload == Workload::WireYcsb {
        // Loopback nodes do not expose the engine's slice counters; a few
        // windows on one in-process twin give them.
        let open = tracer.begin("core.run_for_windows");
        let twin = twin_windows(workload, seed);
        tracer.end(open);
        let twin = Measured { windows: twin?, ..Measured::default() }.window_layer_metrics();
        metrics.extend(
            twin.into_iter()
                .filter(|(name, _)| name.starts_with("core.") && *name != "core.epochs_per_s"),
        );
    }
    metrics.insert("host.peak_rss_mb", host::peak_rss_mb().ok_or("cannot read VmHWM")?);
    tracer.end(root);

    // Time no layer's span covers is the `harness` layer's self time:
    // sampling keys, cloning inputs, bookkeeping. More than 5 % of the pass
    // means a call into a crate is being made outside any span.
    let root_ns = tracer.root_ns();
    let by_layer = tracer.self_time_by_layer();
    let uncovered = by_layer.get("harness").copied().unwrap_or(0);
    if uncovered as f64 > 0.05 * root_ns as f64 {
        return Err(format!(
            "{uncovered} ns of the {root_ns} ns traced pass are covered by no layer's span"
        ));
    }
    Ok(Traced {
        trace_json: tracer.to_json(workload.name()),
        self_time_ms: by_layer.iter().map(|(layer, ns)| (*layer, *ns as f64 / 1e6)).collect(),
        root_ms: root_ns as f64 / 1e6,
        attempted: measured.attempted(),
        metrics,
    })
}
