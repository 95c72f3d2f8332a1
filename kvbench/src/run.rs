//! One run of one workload: set up, serve over loopback, check every
//! answer and every acknowledged write, and turn what was measured into
//! metrics.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use lsm_core::Db;
use lsm_server::{reopen_shards, Server, ServerConfig};

use crate::data::{key, mix64, Keyspace, VALUE_LEN};
use crate::drive::{closed_get_scan, closed_gets, open_puts, Tally, Window};
use crate::ledger::{closure, replay, Fixture};
use crate::report::{Metric, Outcome, SELF_TIME_LAYERS};
use crate::spec::{Spec, Workload, GET_CONNS, SERVER_RESTARTS, SETUPS, WARMUP_S};
use crate::stats::{median, median_of, ratio, slices, summarize};
use crate::store::{live_bytes, ServerTotals, Store, Totals};
use crate::trace::{self_time_by_layer, Tracer};

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Args {
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured seconds, split evenly over the rounds of an untraced run.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Where a traced run writes its spans; `None` keeps them in memory.
    pub spans_path: Option<std::path::PathBuf>,
}

/// One served window and what followed it.
struct Served {
    tally: Tally,
    window_s: f64,
    engine: Totals,
    server: ServerTotals,
    write_amp: f64,
    /// User PUTs over the store's life (load and window).
    life_puts: u64,
    space_amp: f64,
    /// Peak resident set size when the load stopped, MB.
    peak_rss_mb: f64,
    /// The shards after serving: drained (GET workloads) or reopened
    /// from their devices after an abort (`put_scan`).
    dbs: Vec<Db>,
    lost_writes: u64,
    first_lost: Option<String>,
}

/// Bytes of one user entry: a 16-byte key and its value.
const ENTRY_BYTES: u64 = 16 + VALUE_LEN as u64;

/// Runs `spec` once.
pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced(spec, args)
    } else {
        run_untraced(spec, args)
    }
}

fn keyspace(spec: &Spec, seed: u64, round: u64) -> Keyspace {
    Keyspace {
        seed: mix64(seed ^ mix64(round)),
        n: spec.keys,
    }
}

fn run_untraced(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    // the first setup is served, in a fresh process; the others only
    // time setup again, after the served store is gone
    let t = Instant::now();
    let store = Store::setup(spec, keyspace(spec, args.seed, 0))?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let s = serve(spec, store, args.seconds, None)?;
    drop(s.dbs);
    for round in 1..SETUPS {
        let t = Instant::now();
        drop(Store::setup(spec, keyspace(spec, args.seed, round))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let sl = slices(
        &s.tally.get_ns,
        s.window_s / s.tally.get_ns.len().max(1) as f64,
    );
    let gets = s.tally.get_ns.iter().map(|x| x.len() as u64).sum();
    let mut out = outcome(&s.tally, s.lost_writes, s.first_lost)?;
    let row = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "GET kops/s per slice: {}",
        row(sl.iter().map(|x| x.rate / 1e3).collect())
    ));
    out.notes.push(format!(
        "GET p99 us per slice: {}",
        row(sl.iter().map(|x| x.latency.p99 / 1e3).collect())
    ));
    out.metrics = vec![
        metric("setup_s", median(&setup_s), setup_s.len() as u64),
        metric("get_kops", median_of(&sl, |x| x.rate) / 1e3, gets),
        metric("get_p50_us", median_of(&sl, |x| x.latency.p50) / 1e3, gets),
        metric("get_p90_us", median_of(&sl, |x| x.latency.p90) / 1e3, gets),
        metric("write_amp", s.write_amp, s.life_puts),
        metric("space_amp", s.space_amp, 1),
        metric("peak_rss_mb", s.peak_rss_mb, 1),
    ];
    Ok(out)
}

fn metric(name: &'static str, value: f64, n: u64) -> Metric {
    Metric { name, value, n }
}

/// `correct`, `attempted` and `failed` from the checks, with a note for
/// the first wrong answer or lost write.
fn outcome(tally: &Tally, lost: u64, first_lost: Option<String>) -> Result<Outcome, String> {
    if tally.attempted == 0 {
        return Err("no request was measured".into());
    }
    let mut notes = Vec::new();
    if let Some(w) = &tally.first_wrong {
        notes.push(format!("{} wrong answers; first: {w}", tally.wrong));
    }
    if let Some(l) = first_lost {
        notes.push(format!("{lost} acknowledged writes lost; first: {l}"));
    }
    Ok(Outcome {
        correct: tally.wrong == 0 && lost == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
        notes,
    })
}

/// One server lifetime: started on `dbs`, loaded for a warm-up plus
/// `seconds` measured, then left running for the caller to stop.
struct Part {
    server: Server,
    results: Vec<Result<Tally, String>>,
    win: Window,
    engine_from: Totals,
    engine_to: Totals,
    server_totals: ServerTotals,
}

fn serve_part(
    spec: &Spec,
    dbs: &[Db],
    ks: Keyspace,
    part: u64,
    seconds: f64,
    trace: Option<Instant>,
) -> Result<Part, String> {
    let server = Server::start(dbs.to_vec(), ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let start = Instant::now();
    let win = Window {
        measure_from: start + Duration::from_secs_f64(WARMUP_S),
        until: start + Duration::from_secs_f64(WARMUP_S + seconds),
    };
    let issued = AtomicU64::new(0);
    let metrics = server.metrics();
    // connection indices are unique across parts, so request ids are too
    let conn = part * GET_CONNS;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        match spec.workload {
            Workload::GetHot | Workload::GetCold => {
                for c in conn..conn + GET_CONNS {
                    handles.push(s.spawn(move || closed_gets(addr, c, spec, ks, win, trace)));
                }
            }
            Workload::PutScan => {
                let issued = &issued;
                handles.push(s.spawn(move || open_puts(addr, conn, spec, ks, issued, win, trace)));
                handles.push(
                    s.spawn(move || closed_get_scan(addr, conn + 1, spec, ks, issued, win, trace)),
                );
            }
        }
        std::thread::sleep(win.measure_from.saturating_duration_since(Instant::now()));
        let (e0, s0) = (Totals::of(dbs), ServerTotals::of(&metrics));
        std::thread::sleep(win.until.saturating_duration_since(Instant::now()));
        let (e1, s1) = (Totals::of(dbs), ServerTotals::of(&metrics));
        let results = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect();
        Ok(Part {
            server,
            results,
            win,
            engine_from: e0,
            engine_to: e1,
            server_totals: s1.since(&s0),
        })
    })
}

/// Serves `store` for `seconds` measured. The GET workloads restart the
/// server [`SERVER_RESTARTS`] times, splitting the window, so one run
/// samples several placements of the server's threads on the
/// processors; `put_scan` keeps one server, whose life its durability
/// check ends. `trace` is the span epoch of a traced run.
fn serve(
    spec: &Spec,
    store: Store,
    seconds: f64,
    trace: Option<Instant>,
) -> Result<Served, String> {
    let Store {
        cfg,
        ks,
        devices,
        dbs,
        ..
    } = store;
    let space_before = live_bytes(&devices);
    let parts = if spec.workload == Workload::PutScan {
        1
    } else {
        SERVER_RESTARTS
    };
    let mut done = Vec::new();
    let mut server = None;
    for part in 0..parts {
        if let Some(s) = server.take() {
            drop(Server::shutdown(s).map_err(|e| format!("shutdown: {e}"))?);
        }
        let p = serve_part(spec, &dbs, ks, part, seconds / parts as f64, trace)?;
        server = Some(p.server);
        done.push((
            p.results,
            p.win,
            p.engine_from,
            p.engine_to,
            p.server_totals,
        ));
    }
    let server = server.expect("at least one part");
    // before the samples are merged and sorted, which is the
    // benchmark's own work
    let peak_rss_mb = peak_rss_mb()?;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(trace.unwrap_or_else(Instant::now));
    let mut server_totals = ServerTotals::default();
    let mut window_s = 0.0;
    let engine = done[done.len() - 1].3.since(&done[0].2);
    for (results, win, _, _, st) in done {
        // a server's connections share its slices; later servers' slices
        // follow on
        let mut part = Tally::default();
        for r in results {
            part.merge(r?, &mut tracer);
        }
        let mut slices = std::mem::take(&mut part.get_ns);
        tally.merge(part, &mut tracer);
        tally.get_ns.append(&mut slices);
        server_totals.add(&st);
        window_s += win.seconds();
    }
    tally.spans = tracer.spans;

    if spec.workload != Workload::PutScan {
        let life = Totals::of(&dbs);
        let write_amp = ratio(life.written_bytes as f64, life.bytes_ingested as f64);
        let dbs = server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        return Ok(Served {
            tally,
            window_s,
            engine,
            server: server_totals,
            write_amp,
            life_puts: life.puts,
            space_amp: ratio(space_before as f64, (ks.n * ENTRY_BYTES) as f64),
            peak_rss_mb,
            dbs,
            lost_writes: 0,
            first_lost: None,
        });
    }

    // put_scan: kill the server, reopen its shards from the devices, and
    // read every acknowledged write back. The old engines are leaked, not
    // dropped: dropping the last handle pads the WAL tail as a clean
    // shutdown does, which would hide an acknowledged write that was
    // never synced. They are idle first, so nothing else writes the
    // devices, and so the write amplification counts all the compaction
    // the window's PUTs caused, however far behind it ran.
    let aborted = server.abort();
    for db in &aborted {
        db.wait_background_idle();
    }
    let life = Totals::of(&dbs);
    let write_amp = ratio(life.written_bytes as f64, life.bytes_ingested as f64);
    for db in aborted.into_iter().chain(dbs) {
        std::mem::forget(db);
    }
    let dbs = reopen_shards(&devices, &cfg).map_err(|e| format!("reopen: {e}"))?;
    let (lost_writes, first_lost) = durability_check(&dbs, &ks, &tally.last_acked)?;
    for db in &dbs {
        db.flush_all()
            .map_err(|e| format!("settle after reopen: {e}"))?;
    }
    let inserted = tally.last_acked.keys().filter(|id| *id % 2 == 1).count() as u64;
    let space_amp = ratio(
        live_bytes(&devices) as f64,
        ((ks.n + inserted) * ENTRY_BYTES) as f64,
    );
    Ok(Served {
        tally,
        window_s,
        engine,
        server: server_totals,
        write_amp,
        life_puts: life.puts,
        space_amp,
        peak_rss_mb,
        dbs,
        lost_writes,
        first_lost,
    })
}

/// Every key's value after a reopen must carry the last acknowledged
/// version written to it, and every preloaded key nobody wrote must still
/// hold its preload. Returns the count of keys that do not and the first.
fn durability_check(
    dbs: &[Db],
    ks: &Keyspace,
    last_acked: &HashMap<u64, u64>,
) -> Result<(u64, Option<String>), String> {
    let mut lost = 0;
    let mut first = None;
    let expected = (0..ks.n)
        .map(|i| ks.present(i))
        .filter(|id| !last_acked.contains_key(id))
        .map(|id| (id, 0))
        .chain(last_acked.iter().map(|(&id, &v)| (id, v)));
    for (id, v) in expected {
        let k = key(id);
        let db = &dbs[lsm_server::shard_of(&k, dbs.len())];
        let got = db
            .get_with(&k, |b| ks.version_of(id, b))
            .map_err(|e| format!("read back: {e}"))?;
        if got != Some(Some(v)) {
            lost += 1;
            first.get_or_insert_with(|| format!("key {id}: expected version {v}, read {got:?}"));
        }
    }
    Ok((lost, first))
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn run_traced(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let ks = keyspace(spec, args.seed, 0);
    let store = Store::setup(spec, ks)?;
    let cfg = store.cfg.clone();
    let epoch = Instant::now();
    let s = serve(spec, store, args.seconds, Some(epoch))?;
    let mut tracer = Tracer::new(epoch);
    let mut tally = s.tally;
    tally.ops.sort_by_key(|o| o.at);
    tracer.spans = std::mem::take(&mut tally.spans);
    let served_roots = tracer
        .spans
        .iter()
        .filter(|x| x.name == "wire.request")
        .count() as u64;
    let roots: HashMap<u64, u32> = tracer
        .spans
        .iter()
        .enumerate()
        .filter(|(_, x)| x.name == "wire.request")
        .map(|(i, x)| (x.req, i as u32))
        .collect();

    let e = &s.engine;
    let sv = &s.server;
    let puts = e.puts as f64;
    let kputs = puts / 1e3;
    let ops_per_batch = ratio(tally.put_ns.len() as f64, sv.batches as f64);
    let batch = ops_per_batch.round().max(1.0) as usize;

    let mut fixture = Fixture::build(ks, &cfg, spec.shards, batch, &tally.ops);
    let costs = fixture.time_stages();
    let rp = replay(
        &s.dbs,
        &ks,
        &tally.ops,
        batch,
        &mut fixture,
        &mut tracer,
        &roots,
    );
    let (explained, unexplained) = closure(&costs, &rp);
    let replayed = tally.ops.len().min(crate::ledger::TRACED_REPLAY_OPS) as u64;
    let by_layer = self_time_by_layer(&tracer.spans);
    if let Some(path) = &args.spans_path {
        tracer
            .write_jsonl(path)
            .map_err(|err| format!("write spans to {}: {err}", path.display()))?;
    }

    let mut get_ns: Vec<u64> = tally.get_ns.iter().flatten().map(|&x| x as u64).collect();
    let gets = summarize(&mut get_ns);
    let put = summarize(&mut tally.put_ns);
    let late = summarize(&mut tally.put_late_ns);
    let scan = summarize(&mut tally.scan_ns);
    let g = e.gets as f64;
    let wrong_replay = rp.wrong;
    let w = s.window_s;
    let mut m = vec![
        metric("served.get_p99_us", gets.p99 / 1e3, gets.n as u64),
        metric(
            "served.put_kops",
            tally.puts_acked_in_window as f64 / w / 1e3,
            put.n as u64,
        ),
        metric("served.put_p50_us", put.p50 / 1e3, put.n as u64),
        metric("served.put_p99_us", put.p99 / 1e3, put.n as u64),
        metric("served.put_late_p99_us", late.p99 / 1e3, late.n as u64),
        metric("served.scan_kops", scan.n as f64 / w / 1e3, scan.n as u64),
        metric("served.scan_p50_us", scan.p50 / 1e3, scan.n as u64),
        metric("served.scan_p99_us", scan.p99 / 1e3, scan.n as u64),
        metric(
            "served.fail_rate",
            ratio(tally.failed as f64, tally.attempted as f64),
            tally.attempted,
        ),
        metric("protocol.decode_ns", costs.protocol_decode, 1),
        metric("protocol.encode_ns", costs.protocol_encode, 1),
        metric(
            "protocol.resp_bytes",
            ratio(tally.resp_bytes as f64, tally.responses as f64),
            tally.responses,
        ),
        metric("router.route_ns", costs.router_route, 1),
        metric(
            "server.get_service_ns",
            ratio(sv.get_sum as f64, sv.get_count as f64),
            sv.get_count,
        ),
        metric(
            "server.put_service_ns",
            ratio(sv.put_sum as f64, sv.put_count as f64),
            sv.put_count,
        ),
        metric(
            "server.scan_service_ns",
            ratio(sv.scan_sum as f64, sv.scan_count as f64),
            sv.scan_count,
        ),
        metric(
            "server.wire_ns",
            gets.p50 - ratio(sv.get_sum as f64, sv.get_count as f64),
            gets.n as u64,
        ),
        metric(
            "server.sheds_per_kop",
            ratio(sv.sheds as f64, sv.requests as f64 / 1e3),
            sv.requests,
        ),
        metric("batcher.ops_per_batch", ops_per_batch, sv.batches),
        metric(
            "batcher.wal_appends_per_put",
            ratio(e.wal_appends as f64, puts),
            e.puts,
        ),
        metric("db.get_p50_ns", rp.get.p50, rp.get.n as u64),
        metric("db.get_p99_ns", rp.get.p99, rp.get.n as u64),
        metric("db.scan_p50_ns", rp.scan.p50, rp.scan.n as u64),
        metric(
            "db.write_batch_p50_ns",
            rp.write_batch.p50,
            rp.write_batch.n as u64,
        ),
        metric("db.runs_per_get", ratio(e.runs_probed as f64, g), e.gets),
        metric("memtable.insert_ns", costs.memtable_insert, 1),
        metric("memtable.get_ns", costs.memtable_get, 1),
        metric("wal.append_sync_ns", costs.wal_append_sync, 1),
        metric(
            "wal.blocks_per_put",
            ratio(e.written_wal as f64, puts),
            e.puts,
        ),
        metric("filters.build_ns", costs.filters_build, 1),
        metric("filters.probe_ns", costs.filters_probe, 1),
        metric(
            "filters.prunes_per_get",
            ratio(e.filter_prunes as f64, g),
            e.gets,
        ),
        metric(
            "filters.fp_per_absent_get",
            ratio(rp.absent_blocks as f64, rp.absent_gets as f64),
            rp.absent_gets,
        ),
        metric("index.locate_ns", costs.index_locate, 1),
        metric("sstable.block_open_ns", costs.block_open, 1),
        metric("sstable.block_seek_ns", costs.block_seek, 1),
        metric(
            "sstable.data_blocks_per_get",
            ratio(e.blocks_examined as f64, g),
            e.gets,
        ),
        metric(
            "cache.hit_rate",
            ratio(e.cache_hits as f64, (e.cache_hits + e.cache_misses) as f64),
            e.cache_hits + e.cache_misses,
        ),
        metric(
            "cache.evictions_per_get",
            ratio(e.cache_evictions as f64, g),
            e.gets,
        ),
        metric("cache.lookup_ns", costs.cache_lookup, 1),
        metric(
            "storage.read_blocks_per_get.data",
            ratio(e.read_data as f64, g),
            e.gets,
        ),
        metric(
            "storage.read_blocks_per_get.filter",
            ratio(e.read_filter as f64, g),
            e.gets,
        ),
        metric(
            "storage.read_blocks_per_get.index",
            ratio(e.read_index as f64, g),
            e.gets,
        ),
        metric("storage.read_ns", costs.storage_read, 1),
        metric(
            "storage.written_blocks_per_put.data",
            ratio(e.written_data as f64, puts),
            e.puts,
        ),
        metric(
            "compaction.flushes_per_kput",
            ratio(e.flushes as f64, kputs),
            e.puts,
        ),
        metric(
            "compaction.count_per_kput",
            ratio(e.compactions as f64, kputs),
            e.puts,
        ),
        metric(
            "compaction.entries_per_put",
            ratio(e.compaction_entries as f64, puts),
            e.puts,
        ),
        metric("compaction.max_entries", e.max_compaction_entries as f64, 1),
        metric(
            "background.slowdowns_per_kput",
            ratio(e.slowdowns as f64, kputs),
            e.puts,
        ),
        metric(
            "background.stalls_per_kput",
            ratio(e.stalls as f64, kputs),
            e.puts,
        ),
        metric("ledger.explained_ns", explained, rp.get.n as u64),
        metric("ledger.unexplained_ns", unexplained, rp.get.n as u64),
        metric(
            "ledger.unexplained_pct",
            100.0 * ratio(unexplained, rp.get.p50),
            rp.get.n as u64,
        ),
        metric(
            "trace.overhead_ns",
            rp.get_traced.p50 - rp.get_subset.p50,
            rp.get_traced.n as u64,
        ),
    ];
    for &(layer, name) in SELF_TIME_LAYERS {
        // the served layers per served request, the rest per replayed op
        let per = if matches!(layer, "wire" | "client") {
            served_roots
        } else {
            replayed
        };
        let total = by_layer.get(layer).copied().unwrap_or(0);
        m.push(metric(name, ratio(total as f64, per as f64), per));
    }
    let mut out = outcome(&tally, s.lost_writes, s.first_lost)?;
    if wrong_replay > 0 {
        out.correct = false;
        out.notes.push(format!(
            "{wrong_replay} wrong answers in the engine-only replay"
        ));
    }
    out.metrics = m;
    Ok(out)
}
