//! The per-layer cost ledger: each layer's public function timed in
//! isolation over the workload's own keys and values, an engine-only
//! replay of the measured op stream, and the closure check that weighs
//! stage costs by per-GET counts and compares their sum with the
//! engine's GET time.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lsm_cache::{CacheKey, CachePolicy, ShardedCache};
use lsm_core::memtable::Memtable;
use lsm_core::sstable::{BlockBuilder, BlockIter};
use lsm_core::wal::Wal;
use lsm_core::{Db, LsmConfig, ValueKind, WriteBatch};
use lsm_filters::{BloomFilter, PointFilter};
use lsm_index::{BlockLocator, FencePointers};
use lsm_server::protocol::{
    begin_entries_response, decode_request_ref, encode_response_into, encode_value_response_into,
};
use lsm_server::{encode_request, shard_of, Response, ShardSet};
use lsm_storage::{Block, DeviceProfile, FileId, IoCategory, MemDevice, StorageDevice};

use crate::data::{key, Keyspace};
use crate::drive::{LoggedOp, Op};
use crate::spec::SCAN_LIMIT;
use crate::stats::{ratio, summarize, Summary};
use crate::store::Totals;
use crate::trace::{Tracer, ROOT};

/// Most operations the traced replay records spans for.
pub const TRACED_REPLAY_OPS: usize = 5_000;
/// Calls per timed batch of a stage.
const PER_BATCH: usize = 64;
/// Timed batches per stage; a stage's cost is their median.
const BATCHES: usize = 200;

/// Per-call cost of each stage, ns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageCosts {
    pub memtable_insert: f64,
    pub memtable_get: f64,
    pub wal_append_sync: f64,
    /// Per key of a table-sized Bloom filter build.
    pub filters_build: f64,
    pub filters_probe: f64,
    pub index_locate: f64,
    pub cache_lookup: f64,
    pub block_open: f64,
    pub block_seek: f64,
    pub storage_read: f64,
    pub protocol_decode: f64,
    pub protocol_encode: f64,
    pub router_route: f64,
}

/// One table's worth of the workload's keys and values, laid out the
/// way the engine lays them out (4 KB blocks, fence pointers, a Bloom
/// filter, a block cache, a device file, a full memtable), plus the
/// wire frames of the logged op stream.
pub struct Fixture {
    shards: usize,
    wal_batch: usize,
    cfg: LsmConfig,
    lo_id: u64,
    span: u64,
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    blocks: Vec<Block>,
    fence: FencePointers,
    bloom: BloomFilter,
    cache: ShardedCache<Block>,
    device: Arc<dyn StorageDevice>,
    file: FileId,
    memtable: Memtable,
    wal: Wal,
    wal_appends: usize,
    ops: Vec<LoggedOp>,
    frames: Vec<Vec<u8>>,
}

impl Fixture {
    /// Builds the fixture from `ks` and the logged `ops` (the probe keys
    /// and requests); WAL appends carry `wal_batch` records each.
    pub fn build(
        ks: Keyspace,
        cfg: &LsmConfig,
        shards: usize,
        wal_batch: usize,
        ops: &[LoggedOp],
    ) -> Fixture {
        // one target-size table of consecutive preloaded keys
        let per_key = 16 + crate::data::VALUE_LEN + 8;
        let count = (cfg.target_table_bytes / per_key).clamp(1, ks.n as usize) as u64;
        let lo_id = ks.present(0);
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..count)
            .map(|i| {
                let id = ks.present(i);
                (key(id), ks.value(id, 0))
            })
            .collect();
        let mut blocks = Vec::new();
        let mut last_keys = Vec::new();
        let mut b = BlockBuilder::new(cfg.restart_interval, cfg.block_hash_index);
        for (i, (k, v)) in entries.iter().enumerate() {
            b.add(k, 1, ValueKind::Put, v);
            if b.estimated_size() >= cfg.block_size.saturating_sub(64) || i + 1 == entries.len() {
                last_keys.push(k.clone());
                blocks.push(Block::new(b.finish()));
            }
        }
        let fence = FencePointers::new(entries[0].0.clone(), last_keys);
        let refs: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        let bloom = BloomFilter::build(&refs, cfg.bits_per_key);
        let cache = ShardedCache::new(CachePolicy::Lru, cfg.cache_bytes, 8);
        for (i, blk) in blocks.iter().enumerate() {
            cache.insert(CacheKey::new(1, i as u64), blk.clone(), blk.charge());
        }
        let device: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
        let file = device.create().expect("fixture file");
        for blk in &blocks {
            let mut padded = blk.data().to_vec();
            padded.resize(cfg.block_size, 0);
            device
                .append(file, &padded, IoCategory::Data)
                .expect("fixture block");
        }
        let mut memtable = Memtable::new();
        for (k, v) in &entries {
            if memtable.bytes() >= cfg.buffer_bytes {
                break;
            }
            memtable.insert(k, 1, ValueKind::Put, v);
        }
        let wal = Wal::create(Arc::clone(&device)).expect("fixture wal");
        let ops: Vec<LoggedOp> = if ops.is_empty() {
            let at = Instant::now();
            (0..1024)
                .map(|i| LoggedOp {
                    at,
                    req: i,
                    op: Op::Get(ks.present(i % ks.n)),
                })
                .collect()
        } else {
            ops.iter().take(8192).copied().collect()
        };
        let frames = ops
            .iter()
            .map(|o| encode_request(o.req, &o.op.request(&ks)))
            .collect();
        Fixture {
            shards,
            wal_batch: wal_batch.max(1),
            cfg: cfg.clone(),
            lo_id,
            span: 2 * count,
            entries,
            blocks,
            fence,
            bloom,
            cache,
            device,
            file,
            memtable,
            wal,
            wal_appends: 0,
            ops,
            frames,
        }
    }

    /// A request's key folded into the fixture table's id range, keeping
    /// whether it is a present or an absent key.
    fn fold(&self, id: u64) -> Vec<u8> {
        key(self.lo_id + id % self.span)
    }

    fn op_key(&self, op: Op) -> u64 {
        match op {
            Op::Get(id) | Op::Scan(id) | Op::Put(id, _) => id,
        }
    }

    fn probe_key(&self, i: usize) -> Vec<u8> {
        self.fold(self.op_key(self.ops[i % self.ops.len()].op))
    }

    fn block_of(&self, k: &[u8]) -> usize {
        self.fence.locate(k).unwrap_or(0).min(self.blocks.len() - 1)
    }

    fn open(&self, b: usize) -> BlockIter<Block> {
        BlockIter::new(self.blocks[b].clone()).expect("fixture block verifies")
    }

    fn encode_response(&self, out: &mut Vec<u8>, i: usize) {
        let o = self.ops[i % self.ops.len()];
        match o.op {
            Op::Get(id) if id.is_multiple_of(2) => {
                let v = &self.entries[((id / 2) as usize) % self.entries.len()].1;
                encode_value_response_into(out, o.req, v);
            }
            Op::Get(_) => encode_response_into(out, o.req, &Response::NotFound),
            Op::Put(..) => encode_response_into(out, o.req, &Response::Ok),
            Op::Scan(id) => {
                let first = ((id / 2) as usize) % self.entries.len();
                let mut enc = begin_entries_response(out, o.req);
                for (k, v) in self
                    .entries
                    .iter()
                    .cycle()
                    .skip(first)
                    .take(SCAN_LIMIT as usize)
                {
                    enc.push(k, v);
                }
                enc.finish();
            }
        }
    }

    fn wal_records(&self, i: usize) -> Vec<(u64, ValueKind, Vec<u8>, Vec<u8>)> {
        (0..self.wal_batch)
            .map(|j| {
                let (k, v) = &self.entries[(i * self.wal_batch + j) % self.entries.len()];
                (1, ValueKind::Put, k.clone(), v.clone())
            })
            .collect()
    }

    /// Times every stage in isolation: the median over timed batches of
    /// the per-call time, with inputs prepared outside the timed part.
    pub fn time_stages(&self) -> StageCosts {
        let n = BATCHES * PER_BATCH;
        let probe_keys: Vec<Vec<u8>> = (0..n).map(|i| self.probe_key(i)).collect();
        let block_ids: Vec<usize> = probe_keys.iter().map(|k| self.block_of(k)).collect();
        let raw_keys: Vec<Vec<u8>> = (0..n)
            .map(|i| key(self.op_key(self.ops[i % self.ops.len()].op)))
            .collect();
        let mut c = StageCosts::default();

        let refs: Vec<&[u8]> = self.entries.iter().map(|(k, _)| k.as_slice()).collect();
        let builds: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                black_box(BloomFilter::build(&refs, self.cfg.bits_per_key));
                t.elapsed().as_nanos() as f64 / refs.len() as f64
            })
            .collect();
        c.filters_build = crate::stats::median(&builds);
        c.filters_probe = per_call(|i| black_box(self.bloom.may_contain(&probe_keys[i])));
        c.index_locate = per_call(|i| black_box(self.fence.locate(&probe_keys[i])));
        c.cache_lookup = per_call(|i| {
            black_box(
                self.cache
                    .get(&CacheKey::new(1, block_ids[i] as u64))
                    .is_some(),
            )
        });
        c.block_open = per_call(|i| black_box(self.open(block_ids[i]).valid()));
        let mut iters: Vec<BlockIter<Block>> = block_ids.iter().map(|&b| self.open(b)).collect();
        c.block_seek = per_call(|i| black_box(iters[i].seek(&probe_keys[i]).unwrap_or(false)));
        drop(iters);
        c.storage_read = per_call(|i| {
            let b = block_ids[i] as u64;
            black_box(
                self.device
                    .read(self.file, b, 1, IoCategory::Data)
                    .map(|v| v.len())
                    .ok(),
            )
        });
        c.memtable_get = per_call(|i| black_box(self.memtable.get_ref(&probe_keys[i]).is_some()));
        c.router_route = per_call(|i| black_box(shard_of(&raw_keys[i], self.shards)));
        c.protocol_decode = per_call(|i| {
            let f = &self.frames[i % self.frames.len()];
            black_box(decode_request_ref(&f[4..]).is_ok())
        });
        let mut out = Vec::with_capacity(64 << 10);
        c.protocol_encode = per_call(|i| {
            out.clear();
            self.encode_response(&mut out, i);
            black_box(out.len())
        });

        // memtable inserts into a memtable that restarts empty whenever
        // it reaches the flush size, as the engine's does
        let mut mem = Memtable::new();
        let mut samples = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES {
            if mem.bytes() >= self.cfg.buffer_bytes {
                mem = Memtable::new();
            }
            let t = Instant::now();
            for j in 0..PER_BATCH {
                let (k, v) = &self.entries[(b * PER_BATCH + j) % self.entries.len()];
                mem.insert(k, (b * PER_BATCH + j) as u64, ValueKind::Put, v);
            }
            samples.push(t.elapsed().as_nanos() as f64 / PER_BATCH as f64);
        }
        c.memtable_insert = crate::stats::median(&samples);

        // one WAL append of a group-commit batch plus its sync, on a log
        // that is replaced every few hundred batches to bound memory
        let records: Vec<_> = (0..PER_BATCH).map(|i| self.wal_records(i)).collect();
        let mut samples = Vec::with_capacity(BATCHES);
        let mut wal = Wal::create(Arc::clone(&self.device)).expect("fixture wal");
        for b in 0..BATCHES {
            if b % 16 == 0 {
                let old = wal.id();
                wal = Wal::create(Arc::clone(&self.device)).expect("fixture wal");
                let _ = self.device.delete(old);
            }
            let t = Instant::now();
            for r in &records {
                wal.append_batch(r).expect("wal append");
                wal.sync().expect("wal sync");
            }
            samples.push(t.elapsed().as_nanos() as f64 / records.len() as f64);
        }
        let _ = self.device.delete(wal.id());
        c.wal_append_sync = crate::stats::median(&samples);
        c
    }

    /// Calls every stage an operation passes through once, each inside
    /// its own span under `parent`.
    fn traced_stages(&mut self, t: &mut Tracer, op: Op, parent: u32, req: u64, i: usize) {
        let k = self.fold(self.op_key(op));
        match op {
            Op::Get(_) => {
                t.time("memtable.get", parent, req, || {
                    black_box(self.memtable.get_ref(&k).is_some())
                });
                t.time("filters.probe", parent, req, || {
                    black_box(self.bloom.may_contain(&k))
                });
                let b = t.time("index.locate", parent, req, || self.fence.locate(&k));
                let b = b.unwrap_or(0).min(self.blocks.len() - 1);
                t.time("cache.lookup", parent, req, || {
                    black_box(self.cache.get(&CacheKey::new(1, b as u64)).is_some())
                });
                let mut it = t.time("sstable.block_open", parent, req, || self.open(b));
                t.time("sstable.block_seek", parent, req, || {
                    black_box(it.seek(&k).unwrap_or(false))
                });
                t.time("storage.read", parent, req, || {
                    black_box(
                        self.device
                            .read(self.file, b as u64, 1, IoCategory::Data)
                            .is_ok(),
                    )
                });
            }
            Op::Scan(_) => {
                let b = self.block_of(&k);
                let mut it = t.time("sstable.block_open", parent, req, || self.open(b));
                t.time("sstable.block_seek", parent, req, || {
                    black_box(it.seek(&k).unwrap_or(false))
                });
            }
            Op::Put(..) => {
                if self.memtable.bytes() >= 2 * self.cfg.buffer_bytes {
                    self.memtable = Memtable::new();
                }
                if self.wal_appends % 256 == 255 {
                    let old = self.wal.id();
                    self.wal = Wal::create(Arc::clone(&self.device)).expect("fixture wal");
                    let _ = self.device.delete(old);
                }
                self.wal_appends += 1;
                let v = &self.entries[i % self.entries.len()].1;
                let records = self.wal_records(i);
                t.time("memtable.insert", parent, req, || {
                    self.memtable.insert(&k, i as u64 + 2, ValueKind::Put, v)
                });
                let wal = &mut self.wal;
                t.time("wal.append_sync", parent, req, || {
                    black_box(wal.append_batch(&records).and_then(|_| wal.sync()).is_ok())
                });
            }
        }
    }
}

/// Median per-call time of `f` over [`BATCHES`] batches of
/// [`PER_BATCH`] calls; `f` gets the call's index.
fn per_call<R>(mut f: impl FnMut(usize) -> R) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        for j in 0..PER_BATCH {
            black_box(f(b * PER_BATCH + j));
        }
        samples.push(t.elapsed().as_nanos() as f64 / PER_BATCH as f64);
    }
    crate::stats::median(&samples)
}

/// The engine-only replay of the measured op stream.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// `db.get` per call, untraced, ns.
    pub get: Summary,
    /// `db.get` over the traced subset, untraced pass, ns.
    pub get_subset: Summary,
    /// `db.get` over the traced subset, traced pass, ns.
    pub get_traced: Summary,
    /// Cross-shard `scan_with` per call, ns.
    pub scan: Summary,
    /// `write_batch` plus `sync` per batch, ns.
    pub write_batch: Summary,
    /// Engine counter deltas over the untraced GET pass.
    pub get_counters: Totals,
    /// Absent-key GETs replayed and the data blocks they examined.
    pub absent_gets: u64,
    pub absent_blocks: u64,
    /// Wrong engine answers.
    pub wrong: u64,
}

/// Replays `ops` straight against `dbs` (no server): GETs and SCANs
/// untraced, then the first [`TRACED_REPLAY_OPS`] again with spans for
/// every layer call, then PUTs in group-commit batches of `batch`.
/// `roots` maps request ids to their served root spans in `tracer`.
pub fn replay(
    dbs: &[Db],
    ks: &Keyspace,
    ops: &[LoggedOp],
    batch: usize,
    fixture: &mut Fixture,
    tracer: &mut Tracer,
    roots: &HashMap<u64, u32>,
) -> Replay {
    let set = ShardSet::new(dbs.to_vec());
    let limit = SCAN_LIMIT as usize;
    let issued = ops
        .iter()
        .filter_map(|o| match o.op {
            Op::Put(_, v) => Some(v),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut out = Replay::default();
    // a GET as the server issues it: the value is copied out of the
    // engine's borrowed view; the copy is checked outside the timing
    let fetch = |id: u64, value: &mut Vec<u8>| -> bool {
        let k = key(id);
        dbs[shard_of(&k, dbs.len())]
            .get_with(&k, |v| {
                value.clear();
                value.extend_from_slice(v);
            })
            .is_ok_and(|found| found.is_some())
    };
    let verify = |id: u64, found: bool, value: &[u8], wrong: &mut u64| {
        let ok = if found {
            ks.is_written(id, value, u64::MAX)
        } else {
            id % 2 == 1 && issued == 0
        };
        if !ok {
            *wrong += 1;
        }
    };
    let mut value = Vec::with_capacity(crate::data::VALUE_LEN);
    let gets: Vec<(usize, u64)> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o.op {
            Op::Get(id) => Some((i, id)),
            _ => None,
        })
        .collect();

    // a discarded pass first, so both measured passes find the cache as
    // the served run left it rather than as a reopen left it
    for &(_, id) in &gets {
        let found = fetch(id, &mut value);
        verify(id, found, &value, &mut out.wrong);
    }
    // untraced: GETs (with their counter deltas), absent GETs alone (for
    // blocks examined per absent key), then SCANs
    let before = Totals::of(dbs);
    let mut get_ns = Vec::new();
    let mut subset_ns = Vec::new();
    for &(i, id) in &gets {
        let t = Instant::now();
        let found = fetch(id, &mut value);
        let ns = t.elapsed().as_nanos() as u64;
        verify(id, found, &value, &mut out.wrong);
        get_ns.push(ns);
        if i < TRACED_REPLAY_OPS {
            subset_ns.push(ns);
        }
    }
    out.get_counters = Totals::of(dbs).since(&before);
    let before = Totals::of(dbs);
    for &(_, id) in gets.iter().filter(|(_, id)| id % 2 == 1) {
        let found = fetch(id, &mut value);
        verify(id, found, &value, &mut out.wrong);
        out.absent_gets += 1;
    }
    out.absent_blocks = Totals::of(dbs).since(&before).blocks_examined;
    let mut scan_ns = Vec::new();
    for o in ops {
        if let Op::Scan(start) = o.op {
            let t = Instant::now();
            let n = set.scan_with(&key(start), &key(ks.scan_end(start)), limit, |k, v| {
                black_box((k.len(), v.len()));
            });
            scan_ns.push(t.elapsed().as_nanos() as u64);
            if n.is_err() {
                out.wrong += 1;
            }
        }
    }

    // traced: the same first operations, each inside a bench.replay span
    // holding the layer calls a served request makes
    let mut traced_ns = Vec::new();
    let mut buf = Vec::with_capacity(64 << 10);
    for (i, o) in ops.iter().take(TRACED_REPLAY_OPS).enumerate() {
        let parent = roots.get(&o.req).copied().unwrap_or(ROOT);
        let frame = encode_request(o.req, &o.op.request(ks));
        let start = tracer.now();
        let node = tracer.push("bench.replay", start, start, parent, o.req);
        tracer.time("protocol.decode", node, o.req, || {
            black_box(decode_request_ref(&frame[4..]).is_ok())
        });
        let k = key(fixture.op_key(o.op));
        tracer.time("router.route", node, o.req, || {
            black_box(shard_of(&k, dbs.len()))
        });
        buf.clear();
        match o.op {
            Op::Get(id) => {
                let t0 = tracer.now();
                let found = fetch(id, &mut value);
                let t1 = tracer.now();
                tracer.push("db.get", t0, t1, node, o.req);
                traced_ns.push(t1 - t0);
                verify(id, found, &value, &mut out.wrong);
                tracer.time("protocol.encode", node, o.req, || {
                    if found {
                        encode_value_response_into(&mut buf, o.req, &value)
                    } else {
                        encode_response_into(&mut buf, o.req, &Response::NotFound)
                    }
                });
            }
            Op::Scan(start) => {
                let mut enc = begin_entries_response(&mut buf, o.req);
                tracer.time("db.scan", node, o.req, || {
                    set.scan_with(&key(start), &key(ks.scan_end(start)), limit, |k, v| {
                        enc.push(k, v)
                    })
                    .is_ok()
                });
                tracer.time("protocol.encode", node, o.req, || enc.finish());
            }
            Op::Put(..) => {
                tracer.time("protocol.encode", node, o.req, || {
                    encode_response_into(&mut buf, o.req, &Response::Ok)
                });
            }
        }
        fixture.traced_stages(tracer, o.op, node, o.req, i);
        let end_ns = tracer.now();
        tracer.spans[node as usize].end = end_ns;
    }

    // PUTs last, since they change the store: one write_batch + sync per
    // group-commit batch, as the server's committer issues them
    let puts: Vec<(u64, u64)> = ops
        .iter()
        .filter_map(|o| match o.op {
            Op::Put(id, v) => Some((id, v)),
            _ => None,
        })
        .collect();
    let mut batch_ns = Vec::new();
    let mut wbs: Vec<WriteBatch> = dbs.iter().map(|_| WriteBatch::new()).collect();
    for chunk in puts.chunks(batch.max(1)) {
        for &(id, v) in chunk {
            let k = key(id);
            let s = shard_of(&k, dbs.len());
            wbs[s].put(k, ks.value(id, v));
        }
        for (db, wb) in dbs.iter().zip(wbs.iter_mut()) {
            if wb.is_empty() {
                continue;
            }
            let t = Instant::now();
            let ok = db.write_batch_mut(wb).and_then(|_| db.sync()).is_ok();
            batch_ns.push(t.elapsed().as_nanos() as u64);
            if !ok {
                out.wrong += 1;
            }
            wb.clear();
        }
    }

    out.get = summarize(&mut get_ns);
    out.get_subset = summarize(&mut subset_ns);
    out.get_traced = summarize(&mut traced_ns);
    out.scan = summarize(&mut scan_ns);
    out.write_batch = summarize(&mut batch_ns);
    out
}

/// The ledger closure for a GET: stage costs weighted by the replay's
/// own per-GET counts, against the replay's median `db.get` time.
/// Returns `(explained_ns, unexplained_ns)`.
pub fn closure(c: &StageCosts, r: &Replay) -> (f64, f64) {
    let t = &r.get_counters;
    let gets = t.gets as f64;
    let runs = ratio(t.runs_probed as f64, gets);
    let located = ratio(t.runs_probed.saturating_sub(t.filter_prunes) as f64, gets);
    let blocks = ratio(t.blocks_examined as f64, gets);
    let reads = ratio(t.read_data as f64, gets);
    let explained = c.memtable_get
        + c.filters_probe * runs
        + c.index_locate * located
        + (c.cache_lookup + c.block_open + c.block_seek) * blocks
        + c.storage_read * reads;
    (explained, r.get.p50 - explained)
}
