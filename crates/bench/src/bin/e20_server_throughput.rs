//! E20 — serving-layer throughput: shard scaling and group commit.
//!
//! Two sweeps over the `lsm-server` stack (TCP loopback, real threads):
//!
//! 1. **Shard sweep** (1 → 2 → 4 shards, fixed pipeline depth): an
//!    open-loop Poisson load offered *above* single-shard capacity. Each
//!    shard is an independent engine on a [`WallLatencyDevice`], which
//!    converts the device profile's cost model into real `thread::sleep`s
//!    — so while one shard's committer waits out a WAL append, other
//!    shards' I/O proceeds, exactly like independent disks. Throughput
//!    is acked writes per wall second; latency is measured from the
//!    *scheduled* arrival (coordinated omission stays in the numbers).
//!
//! 2. **Depth sweep** (pipeline depth 1 → 4 → 16, one shard): a
//!    closed-loop window drives the group-commit batcher. The committer
//!    folds whatever queued while the previous batch was in flight into
//!    one `Db::write_batch_mut` → one logical WAL append, so
//!    `wal_appends / put` falls below 1.0 as soon as the window lets
//!    writes queue (depth ≥ 4).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_bench::*;
use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_server::{Client, Request, Response, Server, ServerConfig};
use lsm_storage::{DeviceProfile, MemDevice, StorageDevice, WallLatencyDevice};
use lsm_workload::{encode_key, Arrivals, OpenLoopSchedule};

/// The modeled disk behind every shard: WAL appends and table writes
/// cost real wall time (slept, not spun), reads stay cheap.
fn disk_profile() -> DeviceProfile {
    DeviceProfile {
        random_read_ns: 20_000,
        random_write_ns: 250_000,
        read_block_ns: 1_000,
        write_block_ns: 2_000,
    }
}

fn shard_config() -> LsmConfig {
    LsmConfig {
        background: BackgroundMode::Threaded,
        background_workers: 2,
        wal: true, // the whole point: group commit amortizes WAL syncs
        ..base_config()
    }
}

fn open_shards(n: usize) -> Vec<Db> {
    let cfg = shard_config();
    (0..n)
        .map(|_| {
            let mem: Arc<dyn StorageDevice> =
                Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
            let dev: Arc<dyn StorageDevice> =
                Arc::new(WallLatencyDevice::new(mem, disk_profile()));
            Db::open(dev, cfg.clone()).unwrap()
        })
        .collect()
}

/// Drives one connection: sends PUTs at the scheduled arrival times
/// (immediately when behind — open loop), keeping at most `window`
/// unacknowledged. `arrivals` of all zeros degenerates to a closed loop
/// at that window. Returns (latencies ns from scheduled arrival, oks,
/// errors).
fn drive(
    addr: SocketAddr,
    conn: u64,
    arrivals: Vec<u64>,
    window: usize,
    keyspace: u64,
    start: Instant,
) -> (Vec<u64>, u64, u64) {
    let mut c = Client::connect(addr).expect("bench client connect");
    let mut pending: HashMap<u64, u64> = HashMap::new();
    let mut lats = Vec::with_capacity(arrivals.len());
    let (mut oks, mut errs) = (0u64, 0u64);
    let mut state = conn.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut recv_one = |c: &mut Client, pending: &mut HashMap<u64, u64>| {
        let (rid, resp) = c.recv().expect("bench recv");
        let done = start.elapsed().as_nanos() as u64;
        if let Some(at) = pending.remove(&rid) {
            lats.push(done.saturating_sub(at));
        }
        match resp {
            Response::Ok => oks += 1,
            _ => errs += 1,
        }
    };
    for &at in &arrivals {
        loop {
            let now = start.elapsed().as_nanos() as u64;
            if now >= at {
                break;
            }
            std::thread::sleep(Duration::from_nanos((at - now).min(500_000)));
        }
        // deterministic uniform key choice (xorshift*)
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let id = state.wrapping_mul(0x2545F4914F6CDD1D) % keyspace;
        let rid = c
            .send(&Request::Put {
                key: encode_key(id),
                value: value_of(id, 64),
            })
            .expect("bench send");
        // open loop: latency counts from the *scheduled* arrival even
        // when sends fall behind; closed loop (at == 0): from the send
        let t_ref = if at > 0 { at } else { start.elapsed().as_nanos() as u64 };
        pending.insert(rid, t_ref);
        while pending.len() >= window {
            recv_one(&mut c, &mut pending);
        }
    }
    while !pending.is_empty() {
        recv_one(&mut c, &mut pending);
    }
    (lats, oks, errs)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 - 1.0) * p) as usize]
}

struct RunResult {
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    oks: u64,
    errs: u64,
    wal_appends: u64,
    puts: u64,
    batches: u64,
    mean_batch: f64,
}

/// One server run: `conns` driver threads against `shards` shards.
/// `rate_per_sec == 0` means closed loop (windows only).
fn run_server(
    shards: usize,
    conns: usize,
    window: usize,
    total_ops: u64,
    rate_per_sec: f64,
    tag: &str,
) -> RunResult {
    let server_cfg = ServerConfig {
        pipeline_depth: window.max(1),
        // shedding off for the sweep: saturation must queue into the
        // batcher (the engine's own backpressure still applies), so the
        // configs are compared on completed work, not on refused work
        shed_l0_runs: Some(usize::MAX),
        ..ServerConfig::default()
    };
    let server = Server::start(open_shards(shards), server_cfg).expect("start server");
    let addr = server.addr();
    let keyspace = total_ops.max(1);
    let per_conn = (total_ops / conns as u64).max(1);
    let start = Instant::now();
    let drivers: Vec<_> = (0..conns)
        .map(|t| {
            let arrivals = if rate_per_sec > 0.0 {
                OpenLoopSchedule::new(rate_per_sec / conns as f64, Arrivals::Poisson, 77 + t as u64)
                    .take(per_conn as usize)
            } else {
                vec![0u64; per_conn as usize]
            };
            std::thread::spawn(move || drive(addr, t as u64, arrivals, window, keyspace, start))
        })
        .collect();
    let mut lats = Vec::new();
    let (mut oks, mut errs) = (0u64, 0u64);
    for d in drivers {
        let (l, o, e) = d.join().expect("driver thread");
        lats.extend(l);
        oks += o;
        errs += e;
    }
    let wall = start.elapsed().as_secs_f64();
    lats.sort_unstable();

    let metrics = server.metrics();
    let server_snap = metrics.snapshot();
    let batches = server_snap.counters.get("server.batches").copied().unwrap_or(0);
    let dbs = server.shutdown().expect("graceful shutdown");
    let (mut wal_appends, mut puts) = (0u64, 0u64);
    let mut lines = Vec::new();
    lines.push(server_snap.to_json_line_tagged(&[
        ("experiment", "e20_server_throughput"),
        ("scope", "server"),
        ("config", tag),
    ]));
    for e in metrics.drain_events() {
        lines.push(e.to_json_line());
    }
    for (s, db) in dbs.iter().enumerate() {
        let snap = db.stats().snapshot();
        wal_appends += snap.wal_appends;
        puts += snap.puts;
        lines.push(db.metrics().to_json_line_tagged(&[
            ("experiment", "e20_server_throughput"),
            ("scope", "shard"),
            ("shard", &s.to_string()),
            ("config", tag),
        ]));
    }
    write_metrics_lines("e20_server_throughput", &lines);

    RunResult {
        throughput: oks as f64 / wall,
        p50_us: percentile(&lats, 0.50) as f64 / 1000.0,
        p99_us: percentile(&lats, 0.99) as f64 / 1000.0,
        oks,
        errs,
        wal_appends,
        puts,
        batches,
        mean_batch: if batches == 0 { 0.0 } else { puts as f64 / batches as f64 },
    }
}

fn main() {
    let n = bench_n();
    let conns = 4;

    println!("E20: serving-layer throughput — {n} puts per config, {conns} connections\n");

    println!("shard sweep (open-loop Poisson, offered well above 1-shard capacity, window 16):");
    let t = TablePrinter::new(&[
        "shards",
        "kops/s",
        "p50 ms",
        "p99 ms",
        "acked",
        "errors",
        "appends/put",
        "mean batch",
    ]);
    let mut by_shards = Vec::new();
    for shards in [1usize, 2, 4] {
        let r = run_server(shards, conns, 16, n, 60_000.0, &format!("shards{shards}"));
        t.print(&[
            shards.to_string(),
            format!("{:.1}", r.throughput / 1000.0),
            format!("{:.2}", r.p50_us / 1000.0),
            format!("{:.2}", r.p99_us / 1000.0),
            r.oks.to_string(),
            r.errs.to_string(),
            f3(r.wal_appends as f64 / r.puts.max(1) as f64),
            f2(r.mean_batch),
        ]);
        by_shards.push((shards, r.throughput));
    }
    if let (Some((_, t1)), Some((_, t4))) = (by_shards.first(), by_shards.last()) {
        println!("\n  1 → 4 shard speedup: {:.2}x", t4 / t1);
    }

    println!("\ndepth sweep (closed loop, 1 shard — group commit vs pipeline depth):");
    let t = TablePrinter::new(&[
        "depth",
        "kops/s",
        "appends/put",
        "mean batch",
        "batches",
    ]);
    for depth in [1usize, 4, 16] {
        // one connection, so the pipeline window alone sets queue depth
        let r = run_server(1, 1, depth, n / 2, 0.0, &format!("depth{depth}"));
        t.print(&[
            depth.to_string(),
            format!("{:.1}", r.throughput / 1000.0),
            f3(r.wal_appends as f64 / r.puts.max(1) as f64),
            f2(r.mean_batch),
            r.batches.to_string(),
        ]);
    }

    println!("\nexpected shape: the shard sweep scales because each shard's WAL");
    println!("and compaction I/O is slept wall time on its own device — while");
    println!("one shard's committer waits out an append, the other shards'");
    println!("committers sleep through theirs concurrently, like independent");
    println!("disks. One shard serializes every batch behind one WAL, so");
    println!("throughput roughly multiplies with shards (≥1.5x at 4) until");
    println!("the single core saturates on protocol + memtable work. In the");
    println!("depth sweep, depth 1 commits singles (appends/put ≈ 1.0); any");
    println!("depth ≥ 4 lets writes queue while a batch commits, so the");
    println!("committer folds them into one WAL append (appends/put < 1.0,");
    println!("mean batch > 1) — the group-commit curve.");
}
