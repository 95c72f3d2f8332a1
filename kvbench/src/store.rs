//! Setting a workload's shards up (load, settle, warm) and reading the
//! program's counters as deltas.

use std::sync::Arc;

use lsm_core::{Db, LsmConfig, WriteBatch};
use lsm_server::{reopen_shards, shard_of, ServerMetrics};
use lsm_storage::{DeviceProfile, IoCategory, MemDevice, StorageDevice};
use lsm_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{key, mix64, Keyspace};
use crate::spec::{Spec, Workload};

/// Draws the keys a workload's GETs (and SCAN starts) ask for.
pub struct Picker {
    ks: Keyspace,
    workload: Workload,
    zipf: ZipfSampler,
    rng: StdRng,
}

impl Picker {
    /// A picker for one stream (connection or warm-up pass) of `ks`.
    pub fn new(workload: Workload, ks: Keyspace, stream: u64) -> Picker {
        Picker {
            ks,
            workload,
            zipf: ZipfSampler::new(ks.n.max(1), 0.99),
            rng: StdRng::seed_from_u64(mix64(ks.seed ^ mix64(stream ^ 0x5049_434B))),
        }
    }

    /// Key id of the next GET. `get_cold` draws half its GETs from a
    /// Zipfian (θ = 0.99) over present keys with scrambled ranks, the
    /// other half uniformly from absent keys; the others draw present
    /// keys uniformly.
    pub fn next_get(&mut self) -> u64 {
        let n = self.ks.n;
        match self.workload {
            Workload::GetCold => {
                if self.rng.gen_bool(0.5) {
                    let rank = self.zipf.sample(&mut self.rng);
                    self.ks.present(mix64(rank ^ self.ks.seed) % n)
                } else {
                    self.ks.absent(self.rng.gen_range(0..n))
                }
            }
            Workload::GetHot | Workload::PutScan => self.ks.present(self.rng.gen_range(0..n)),
        }
    }

    /// Start id of the next SCAN: uniform over the whole id space.
    pub fn next_scan_start(&mut self) -> u64 {
        self.rng.gen_range(0..self.ks.end_id())
    }
}

/// A workload's shards and the devices they live on.
pub struct Store {
    /// Engine configuration of every shard.
    pub cfg: LsmConfig,
    /// The inputs' key space.
    pub ks: Keyspace,
    /// One zero-cost in-memory device per shard, kept for reopening.
    pub devices: Vec<Arc<dyn StorageDevice>>,
    /// One engine per shard, hash-routed by [`shard_of`].
    pub dbs: Vec<Db>,
}

impl Store {
    /// Opens fresh shards, loads every preloaded key in a seeded random
    /// order, flushes to quiescence, and warms the block cache with
    /// `spec.warm_gets` checked engine GETs from the workload's own key
    /// distribution.
    pub fn setup(spec: &Spec, ks: Keyspace) -> Result<Store, String> {
        let cfg = spec.config();
        let devices: Vec<Arc<dyn StorageDevice>> = (0..spec.shards)
            .map(|_| {
                Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()))
                    as Arc<dyn StorageDevice>
            })
            .collect();
        let dbs = reopen_shards(&devices, &cfg).map_err(|e| format!("open shards: {e}"))?;
        let store = Store {
            cfg,
            ks,
            devices,
            dbs,
        };
        store.load()?;
        for db in &store.dbs {
            db.flush_all().map_err(|e| format!("settle: {e}"))?;
        }
        store.warm(spec)?;
        Ok(store)
    }

    fn load(&self) -> Result<(), String> {
        let mut order: Vec<u64> = (0..self.ks.n).collect();
        let mut rng = StdRng::seed_from_u64(mix64(self.ks.seed ^ 0x4C4F_4144));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut batches: Vec<WriteBatch> = self.dbs.iter().map(|_| WriteBatch::new()).collect();
        for i in order {
            let id = self.ks.present(i);
            let k = key(id);
            let s = self.shard(&k);
            batches[s].put(k, self.ks.value(id, 0));
            if batches[s].len() >= 256 {
                self.dbs[s]
                    .write_batch_mut(&mut batches[s])
                    .map_err(|e| format!("load: {e}"))?;
                batches[s].clear();
            }
        }
        for (db, b) in self.dbs.iter().zip(batches.iter_mut()) {
            db.write_batch_mut(b).map_err(|e| format!("load: {e}"))?;
        }
        Ok(())
    }

    fn warm(&self, spec: &Spec) -> Result<(), String> {
        let mut picker = Picker::new(spec.workload, self.ks, u64::MAX);
        for _ in 0..spec.warm_gets {
            let id = picker.next_get();
            let k = key(id);
            let got = self.dbs[self.shard(&k)]
                .get_with(&k, |v| self.ks.is_written(id, v, 0))
                .map_err(|e| format!("warm get: {e}"))?;
            let ok = match got {
                Some(valid) => valid && id.is_multiple_of(2),
                None => id % 2 == 1,
            };
            if !ok {
                return Err(format!("warm-up GET of id {id} answered {got:?}"));
            }
        }
        Ok(())
    }

    /// Shard index of `k`.
    pub fn shard(&self, k: &[u8]) -> usize {
        shard_of(k, self.dbs.len())
    }
}

/// Bytes `devices` hold live (tables, logs and manifests).
pub fn live_bytes(devices: &[Arc<dyn StorageDevice>]) -> u64 {
    devices
        .iter()
        .map(|d| d.live_blocks() * d.block_size() as u64)
        .sum()
}

/// Engine and device counters summed over shards. Every field is a
/// monotone counter except `max_compaction_entries`, a high-water mark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub gets: u64,
    pub puts: u64,
    pub bytes_ingested: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub compaction_entries: u64,
    pub max_compaction_entries: u64,
    pub runs_probed: u64,
    pub filter_prunes: u64,
    pub blocks_examined: u64,
    pub wal_appends: u64,
    pub read_data: u64,
    pub read_filter: u64,
    pub read_index: u64,
    pub written_wal: u64,
    pub written_data: u64,
    pub written_bytes: u64,
    pub slowdowns: u64,
    pub stalls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

impl Totals {
    /// Reads every shard's `stats()`, `io_stats()` and cache counters.
    pub fn of(dbs: &[Db]) -> Totals {
        let mut t = Totals::default();
        for db in dbs {
            let s = db.stats().snapshot();
            let io = db.io_stats();
            t.gets += s.gets;
            t.puts += s.puts;
            t.bytes_ingested += s.bytes_ingested;
            t.flushes += s.flushes;
            t.compactions += s.compactions;
            t.compaction_entries += s.compaction_entries;
            t.max_compaction_entries = t.max_compaction_entries.max(s.largest_compaction_entries);
            t.runs_probed += s.runs_probed;
            t.filter_prunes += s.filter_prunes;
            t.blocks_examined += s.blocks_examined;
            t.wal_appends += s.wal_appends;
            t.read_data += io.category(IoCategory::Data).read_blocks;
            t.read_filter += io.category(IoCategory::Filter).read_blocks;
            t.read_index += io.category(IoCategory::Index).read_blocks;
            t.written_wal += io.category(IoCategory::Wal).written_blocks;
            t.written_data += io.category(IoCategory::Data).written_blocks;
            t.written_bytes += io.total_written_blocks() * db.config().block_size as u64;
            t.slowdowns += io.write_slowdowns;
            t.stalls += io.write_stalls;
            if let Some((hits, misses)) = db.cache_stats() {
                t.cache_hits += hits;
                t.cache_misses += misses;
            }
            t.cache_evictions += db
                .metrics()
                .counters
                .get("cache.evictions")
                .copied()
                .unwrap_or(0);
        }
        t
    }

    /// Counter deltas from `earlier` to `self`; the high-water mark keeps
    /// its later value.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Totals {
            gets: d(self.gets, earlier.gets),
            puts: d(self.puts, earlier.puts),
            bytes_ingested: d(self.bytes_ingested, earlier.bytes_ingested),
            flushes: d(self.flushes, earlier.flushes),
            compactions: d(self.compactions, earlier.compactions),
            compaction_entries: d(self.compaction_entries, earlier.compaction_entries),
            max_compaction_entries: self.max_compaction_entries,
            runs_probed: d(self.runs_probed, earlier.runs_probed),
            filter_prunes: d(self.filter_prunes, earlier.filter_prunes),
            blocks_examined: d(self.blocks_examined, earlier.blocks_examined),
            wal_appends: d(self.wal_appends, earlier.wal_appends),
            read_data: d(self.read_data, earlier.read_data),
            read_filter: d(self.read_filter, earlier.read_filter),
            read_index: d(self.read_index, earlier.read_index),
            written_wal: d(self.written_wal, earlier.written_wal),
            written_data: d(self.written_data, earlier.written_data),
            written_bytes: d(self.written_bytes, earlier.written_bytes),
            slowdowns: d(self.slowdowns, earlier.slowdowns),
            stalls: d(self.stalls, earlier.stalls),
            cache_hits: d(self.cache_hits, earlier.cache_hits),
            cache_misses: d(self.cache_misses, earlier.cache_misses),
            cache_evictions: d(self.cache_evictions, earlier.cache_evictions),
        }
    }
}

/// Server counters and the sum/count of its service-time histograms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerTotals {
    pub requests: u64,
    pub sheds: u64,
    pub batches: u64,
    pub get_sum: u64,
    pub get_count: u64,
    pub put_sum: u64,
    pub put_count: u64,
    pub scan_sum: u64,
    pub scan_count: u64,
}

impl ServerTotals {
    /// Reads `m`.
    pub fn of(m: &ServerMetrics) -> ServerTotals {
        let (g, p, s) = (
            m.get_ns.snapshot(),
            m.put_ns.snapshot(),
            m.scan_ns.snapshot(),
        );
        ServerTotals {
            requests: m.requests.get(),
            sheds: m.sheds.get(),
            batches: m.batches.get(),
            get_sum: g.sum,
            get_count: g.count,
            put_sum: p.sum,
            put_count: p.count,
            scan_sum: s.sum,
            scan_count: s.count,
        }
    }

    /// Adds the deltas `d` (from another server) to `self`.
    pub fn add(&mut self, d: &ServerTotals) {
        self.requests += d.requests;
        self.sheds += d.sheds;
        self.batches += d.batches;
        self.get_sum += d.get_sum;
        self.get_count += d.get_count;
        self.put_sum += d.put_sum;
        self.put_count += d.put_count;
        self.scan_sum += d.scan_sum;
        self.scan_count += d.scan_count;
    }

    /// Deltas from `earlier` to `self`.
    pub fn since(&self, earlier: &ServerTotals) -> ServerTotals {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        ServerTotals {
            requests: d(self.requests, earlier.requests),
            sheds: d(self.sheds, earlier.sheds),
            batches: d(self.batches, earlier.batches),
            get_sum: d(self.get_sum, earlier.get_sum),
            get_count: d(self.get_count, earlier.get_count),
            put_sum: d(self.put_sum, earlier.put_sum),
            put_count: d(self.put_count, earlier.put_count),
            scan_sum: d(self.scan_sum, earlier.scan_sum),
            scan_count: d(self.scan_count, earlier.scan_count),
        }
    }
}
