//! E21 — zero-copy hot path: engine borrowed views and served reads.
//!
//! Two sections gate the allocation work end to end:
//!
//! 1. **Engine micro** (no server): warm-cache point reads and scans
//!    through the owned APIs (`get` → `Vec` per value, `scan` → two
//!    `Vec`s per entry) against the borrowed ones (`get_with`/`get_into`
//!    run on the cached block bytes in place, `scan_with` streams views
//!    off the merge cursor). The ratio is pure allocator + memcpy
//!    savings: both paths decode the same blocks.
//!
//! 2. **Served reads** (TCP loopback, 1 shard): pipelined GETs and
//!    SCANs against the full serving stack — borrowed frame decode
//!    ([`lsm_server`]'s `next_frame_ref`/`decode_request_ref`), engine
//!    views copied straight into pooled response buffers, and recycled
//!    write batches. Every scan response is byte-compared against the
//!    engine's owned `scan` oracle (the shard handle is shared with the
//!    server), so the zero-copy plumbing is proven identical while it is
//!    being timed.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

use lsm_bench::*;
use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_server::{Client, Request, Response, Server, ServerConfig};
use lsm_workload::encode_key;

const VALUE_LEN: usize = 64;

fn hot_config() -> LsmConfig {
    LsmConfig {
        background: BackgroundMode::Inline,
        wal: true,
        cache_bytes: 64 << 20, // everything cache-resident: the hot path
        ..base_config()
    }
}

/// Fills `db` with `n` scattered keys, flushes to quiescence, and warms
/// every block the reads will touch.
fn fill_and_warm(db: &Db, n: u64) {
    fill_scattered(db, n, VALUE_LEN);
    db.flush_all().unwrap();
    let mut buf = Vec::with_capacity(VALUE_LEN + 16);
    for id in 0..n {
        db.get_into(&encode_key(id), &mut buf).unwrap();
    }
}

struct Micro {
    ops_per_s: f64,
    bytes: u64,
}

fn time_ops(ops: u64, mut f: impl FnMut(u64) -> u64) -> Micro {
    let t0 = Instant::now();
    let mut bytes = 0u64;
    for i in 0..ops {
        bytes += f(i);
    }
    let wall = t0.elapsed().as_secs_f64();
    Micro {
        ops_per_s: ops as f64 / wall,
        bytes,
    }
}

fn engine_micro(n: u64) -> (Db, f64, f64) {
    let db = Db::open_in_memory(hot_config()).unwrap();
    fill_and_warm(&db, n);
    let probes = (n * 4).max(1);
    let ids = uniform_ids(probes as usize, n, seed_for("e21-get"));

    let owned_get = time_ops(probes, |i| {
        db.get(&encode_key(ids[i as usize])).unwrap().map_or(0, |v| v.len() as u64)
    });
    let borrowed_get = time_ops(probes, |i| {
        db.get_with(&encode_key(ids[i as usize]), |v| v.len() as u64)
            .unwrap()
            .unwrap_or(0)
    });
    assert_eq!(owned_get.bytes, borrowed_get.bytes, "get paths must see the same data");

    let scan_len = 256usize;
    let scans = (n / 16).max(1);
    let owned_scan = time_ops(scans, |i| {
        let lo = (i * 37) % n;
        let entries = db
            .scan(encode_key(lo)..encode_key(n), scan_len)
            .unwrap();
        entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
    });
    let borrowed_scan = time_ops(scans, |i| {
        let lo = (i * 37) % n;
        let mut bytes = 0u64;
        db.scan_with(&encode_key(lo), Some(&encode_key(n)), scan_len, |k, v| {
            bytes += (k.len() + v.len()) as u64;
        })
        .unwrap();
        bytes
    });
    assert_eq!(owned_scan.bytes, borrowed_scan.bytes, "scan paths must see the same data");

    println!("engine micro (warm cache, {n} keys, {VALUE_LEN}B values):");
    let t = TablePrinter::new(&["path", "owned kops/s", "borrowed kops/s", "speedup"]);
    t.print(&[
        "get".into(),
        format!("{:.1}", owned_get.ops_per_s / 1000.0),
        format!("{:.1}", borrowed_get.ops_per_s / 1000.0),
        f2(borrowed_get.ops_per_s / owned_get.ops_per_s),
    ]);
    t.print(&[
        format!("scan({scan_len})"),
        format!("{:.1}", owned_scan.ops_per_s / 1000.0),
        format!("{:.1}", borrowed_scan.ops_per_s / 1000.0),
        f2(borrowed_scan.ops_per_s / owned_scan.ops_per_s),
    ]);
    (
        db,
        borrowed_get.ops_per_s / owned_get.ops_per_s,
        borrowed_scan.ops_per_s / owned_scan.ops_per_s,
    )
}

/// Pipelined GETs on one connection; returns (acked ops, hit count).
fn drive_gets(addr: SocketAddr, conn: u64, ops: u64, keyspace: u64, window: usize) -> (u64, u64) {
    let mut c = Client::connect(addr).expect("bench client connect");
    let mut pending: HashMap<u64, u64> = HashMap::new();
    let (mut acked, mut hits) = (0u64, 0u64);
    let mut state = conn.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut recv_one = |c: &mut Client, pending: &mut HashMap<u64, u64>| {
        let (rid, resp) = c.recv().expect("bench recv");
        pending.remove(&rid);
        acked += 1;
        if matches!(resp, Response::Value(_)) {
            hits += 1;
        }
    };
    for _ in 0..ops {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let id = state.wrapping_mul(0x2545F4914F6CDD1D) % keyspace;
        let rid = c.send(&Request::Get { key: encode_key(id) }).expect("bench send");
        pending.insert(rid, id);
        while pending.len() >= window {
            recv_one(&mut c, &mut pending);
        }
    }
    while !pending.is_empty() {
        recv_one(&mut c, &mut pending);
    }
    (acked, hits)
}

/// SCANs over the server, each byte-compared against the owned-path
/// oracle on the shared shard handle. Returns (scans done, entries).
fn drive_scans(addr: SocketAddr, oracle: &Db, scans: u64, keyspace: u64, limit: usize) -> (u64, u64) {
    let mut c = Client::connect(addr).expect("bench client connect");
    let mut entries = 0u64;
    for i in 0..scans {
        let lo = (i * 131) % keyspace;
        let (start, end) = (encode_key(lo), encode_key(keyspace));
        let rid = c
            .send(&Request::Scan {
                start: start.clone(),
                end: end.clone(),
                limit: limit as u32,
            })
            .expect("bench send");
        let (got_rid, resp) = c.recv().expect("bench recv");
        assert_eq!(got_rid, rid);
        let got = match resp {
            Response::Entries(e) => e,
            other => panic!("scan answered {other:?}"),
        };
        // the gate: the served zero-copy path must be byte-identical to
        // the engine's owned scan
        let expect = oracle.scan(start..end, limit).expect("oracle scan");
        assert_eq!(got, expect, "served scan diverged from owned oracle at lo={lo}");
        entries += got.len() as u64;
    }
    (scans, entries)
}

fn main() {
    let n = bench_n();
    println!("E21: zero-copy hot path — {n} keys\n");

    let (micro_db, get_speedup, scan_speedup) = engine_micro(n);

    // served reads: one shard, shared with the oracle checks
    let shard = Db::open_in_memory(hot_config()).unwrap();
    fill_and_warm(&shard, n);
    let server = Server::start(vec![shard.clone()], ServerConfig::default()).expect("start server");
    let addr = server.addr();

    let conns = 2usize;
    let per_conn = (n * 2 / conns as u64).max(1);
    let t0 = Instant::now();
    let drivers: Vec<_> = (0..conns)
        .map(|t| std::thread::spawn(move || drive_gets(addr, t as u64, per_conn, n, 32)))
        .collect();
    let (mut acked, mut hits) = (0u64, 0u64);
    for d in drivers {
        let (a, h) = d.join().expect("driver thread");
        acked += a;
        hits += h;
    }
    let get_wall = t0.elapsed().as_secs_f64();
    let served_get_ops = acked as f64 / get_wall;

    let t0 = Instant::now();
    let (scans, scan_entries) = drive_scans(addr, &shard, (n / 8).max(8), n, 200);
    let scan_wall = t0.elapsed().as_secs_f64();

    println!("\nserved reads (1 shard, loopback, window 32, {conns} conns):");
    let t = TablePrinter::new(&["op", "kops/s", "acked", "hits/entries"]);
    t.print(&[
        "get".into(),
        format!("{:.1}", served_get_ops / 1000.0),
        acked.to_string(),
        hits.to_string(),
    ]);
    t.print(&[
        "scan(200)".into(),
        format!("{:.1}", scans as f64 / scan_wall / 1000.0),
        scans.to_string(),
        scan_entries.to_string(),
    ]);
    println!("  every served scan byte-matched the owned-path oracle");

    let metrics = server.metrics();
    let server_snap = metrics.snapshot();
    let mut lines = Vec::new();
    lines.push(server_snap.to_json_line_tagged(&[
        ("experiment", "e21_hot_path"),
        ("scope", "server"),
        ("config", "served_reads"),
    ]));
    for e in metrics.drain_events() {
        lines.push(e.to_json_line());
    }
    let dbs = server.shutdown().expect("graceful shutdown");
    for db in &dbs {
        lines.push(db.metrics().to_json_line_tagged(&[
            ("experiment", "e21_hot_path"),
            ("scope", "shard"),
            ("config", "served_reads"),
        ]));
    }
    lines.push(micro_db.metrics().to_json_line_tagged(&[
        ("experiment", "e21_hot_path"),
        ("scope", "engine"),
        ("config", "micro"),
    ]));
    write_metrics_lines("e21_hot_path", &lines);

    println!("\nexpected shape: borrowed get/scan beat the owned paths (both");
    println!("decode the same cached blocks; the delta is per-entry Vec");
    println!("allocations and copies — speedups here: get {:.2}x, scan {:.2}x).", get_speedup, scan_speedup);
    println!("Served GETs ride the same plumbing end to end: frames decode");
    println!("borrowed, values copy once from the cached block into a pooled");
    println!("response buffer, and the writer recycles buffers, so steady-state");
    println!("serving allocates nothing per request on the read path.");
}
