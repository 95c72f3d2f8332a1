//! E18 — write-stall tail latencies (tutorial Modules I.2 and III.2:
//! "for tail latency sensitive applications, many LSM engines have
//! adopted a partial compaction strategy"; SILK/CruiseDB motivation).
//!
//! Measures the simulated latency of every individual put under full vs
//! partial compaction. Maintenance runs synchronously inside the
//! triggering put, so a put's latency *is* the stall its client sees.
//! Expected shape: similar medians (most puts just hit the memtable), but
//! full compaction's p99.9/max stalls are an order of magnitude above
//! partial compaction's — the whole reason partial compaction exists.

use lsm_bench::*;
use lsm_core::{CompactionGranularity, Db, FilePicker, LsmConfig, MergeLayout};
use lsm_server::{ShardMap, ShardSet};
use lsm_storage::DeviceProfile;
use lsm_workload::encode_key;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p) as usize;
    sorted[idx]
}

fn run(name: &str, cfg: LsmConfig, n: u64, t: &TablePrinter) {
    let db = Db::open_simulated(cfg, DeviceProfile::nvme_ssd()).unwrap();
    let clock = db.device().latency().clock();
    let mut lat: Vec<u64> = Vec::with_capacity(n as usize);
    for i in 0..n {
        let id = i.wrapping_mul(2654435761) % n;
        let t0 = clock.now_ns();
        db.put(encode_key(id), value_of(id, 64)).unwrap();
        lat.push(clock.now_ns() - t0);
    }
    lat.sort_unstable();
    write_metrics_artifact(
        &db,
        "e18_write_stalls",
        &[("experiment", "e18_write_stalls"), ("config", name)],
    );
    let s = db.stats().snapshot();
    t.print(&[
        name.to_string(),
        format!("{:.1}", percentile(&lat, 0.50) as f64 / 1000.0),
        format!("{:.1}", percentile(&lat, 0.99) as f64 / 1000.0),
        format!("{:.0}", percentile(&lat, 0.999) as f64 / 1000.0),
        format!("{:.0}", *lat.last().unwrap() as f64 / 1000.0),
        s.compactions.to_string(),
        f2(write_amp(&db)),
    ]);
}

fn main() {
    let n = bench_n();
    println!("E18: per-put stall latency (simulated NVMe) — {n} keys, leveled T=4\n");
    let t = TablePrinter::new(&[
        "granularity",
        "p50 µs",
        "p99 µs",
        "p99.9 µs",
        "max µs",
        "compactions",
        "write-amp",
    ]);
    let mut full = base_config();
    full.layout = MergeLayout::Leveled;
    full.granularity = CompactionGranularity::Full;
    full.target_table_bytes = 32 << 10;
    run("full", full, n, &t);
    let mut partial = base_config();
    partial.layout = MergeLayout::Leveled;
    partial.granularity = CompactionGranularity::Partial(FilePicker::MinOverlap);
    partial.target_table_bytes = 32 << 10;
    run("partial/min-overlap", partial, n, &t);
    let mut tiered = base_config();
    tiered.layout = MergeLayout::Tiered;
    tiered.target_table_bytes = 32 << 10;
    run("tiered (lazy merges)", tiered, n, &t);
    // key-space partitioning: 4 trees, each a quarter of the data,
    // range-routed by a shard map split at the quarter points
    {
        let mut cfg = base_config();
        cfg.layout = MergeLayout::Leveled;
        cfg.granularity = CompactionGranularity::Full;
        cfg.target_table_bytes = 32 << 10;
        let map = (1..4)
            .try_fold(ShardMap::uniform(1), |map, i| {
                let boundary = format!("user{:012}", n * i / 4);
                map.split(i as usize - 1, boundary.as_bytes()).map(|(m, _)| m)
            })
            .unwrap();
        let dbs = (0..map.len())
            .map(|_| Db::open_simulated(cfg.clone(), DeviceProfile::nvme_ssd()).unwrap())
            .collect();
        let set = ShardSet::with_map(dbs, map);
        // one put only advances its own tree's clock, so deltas of the sum
        // measure per-put simulated latency
        let sim_now = || -> u64 {
            set.dbs()
                .iter()
                .map(|db| db.device().latency().clock().now_ns())
                .sum()
        };
        let mut lat: Vec<u64> = Vec::with_capacity(n as usize);
        for i in 0..n {
            let id = i.wrapping_mul(2654435761) % n;
            let key = encode_key(id);
            let t0 = sim_now();
            set.db(set.shard_index(&key)).put(key, value_of(id, 64)).unwrap();
            lat.push(sim_now() - t0);
        }
        lat.sort_unstable();
        let compactions: u64 = set.dbs().iter().map(|db| db.stats().snapshot().compactions).sum();
        t.print(&[
            "full × 4 partitions".to_string(),
            format!("{:.1}", percentile(&lat, 0.50) as f64 / 1000.0),
            format!("{:.1}", percentile(&lat, 0.99) as f64 / 1000.0),
            format!("{:.0}", percentile(&lat, 0.999) as f64 / 1000.0),
            format!("{:.0}", *lat.last().unwrap() as f64 / 1000.0),
            compactions.to_string(),
            "-".to_string(),
        ]);
    }
    println!("\nexpected shape: p50 is the bare memtable insert everywhere");
    println!("(the p99.9 is the flush); the *max* stall is where the designs");
    println!("separate: full compaction's worst put absorbs a whole-level");
    println!("merge, partial compaction caps the worst stall at one file's");
    println!("merge, tiering sits between, and key-space partitioning");
    println!("divides every stall by the partition count — the tutorial's");
    println!("load-balancing motivation for partitioned trees.");
}
