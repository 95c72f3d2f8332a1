//! The public engine facade: `open → put/get/scan/delete → stats`.
//!
//! [`Db`] is a cheaply-clonable, `Send + Sync` handle over a shared
//! [`DbCore`]. In [`BackgroundMode::Inline`] every maintenance step
//! (flush, compaction cascade, manifest rewrite, cache invalidation,
//! optional prefetch) runs synchronously inside the write that triggers
//! it, under one write lock — deterministic by design (see the crate
//! docs). In [`BackgroundMode::Threaded`] a full memtable is *frozen*
//! into an immutable slot and a worker pool drains flush and compaction
//! jobs; readers snapshot the copy-on-write [`Version`] and never block
//! on maintenance, while writers block only on L0 backpressure.
//!
//! Lock hierarchy (outermost first): `compaction_lock` → `inner` →
//! the background queue mutex inside [`crate::background::BgState`].

use std::ops::{Bound, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use lsm_cache::{plan_prefetch, HeatMap, PrefetchCandidate, ShardedCache};
use lsm_filters::monkey_allocation;
use lsm_storage::{
    Block, DeviceProfile, FileId, IoStatsSnapshot, MemDevice, StorageDevice, StorageError,
    StorageResult,
};

use crate::background::BgState;
use crate::compaction::scheduler::{CompactionScheduler, JobIoReport, JobPriority, JobSpec, TokenBucket};
use crate::compaction::subcompact::{self, ShardExec};
use crate::compaction::{self, exec::merge_tables, exec::MergeResult, picker::pick_file, CompactionTask};
use crate::config::{BackgroundMode, CompactionGranularity, FilterAllocation, LsmConfig};
use crate::dynamic::{DynamicConfig, DynamicSnapshot, DynamicUpdate};
use crate::entry::{InternalEntry, ValueKind};
use crate::iter::{read_merged, scan_sources};
use crate::kv_sep::{
    self, decode_value, encode_inline, encode_pointer, read_pointer_from_device, ValueLog,
    ValuePointer,
};
use crate::manifest::{find_manifest_candidates, write_manifest, ManifestState};
use crate::memtable::{get_buffered, Memtable};
use crate::obs::EngineMetrics;
use lsm_obs::{Event, EventKind, MetricsSnapshot, StallReason};
use lsm_storage::IoCategory;
use crate::sstable::{Table, TableBuilder};
use crate::snapshot::{Snapshot, SnapshotPin};
use crate::stats::DbStats;
use crate::txn::TxnPart;
use crate::version::{ProbeTally, SortedRun, Version};
use crate::wal::{self, Wal};

/// Monotone map from byte keys to the heat-map domain.
fn heat_key(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// An ordered batch of writes: the one write-set type every engine write
/// goes through ([`DbCore::write_batch_mut`], transaction commits,
/// replica applies, value-log GC). Operations apply in insertion order,
/// so a later op on the same key shadows an earlier one exactly as two
/// separate writes would. Each op is held as the WAL record it becomes;
/// the apply step assigns its sequence number.
#[derive(Debug, Default)]
pub struct WriteBatch {
    ops: Vec<(u64, ValueKind, Vec<u8>, Vec<u8>)>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues an insert/update.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.ops.push((0, ValueKind::Put, key, value));
    }

    /// Queues a tombstone.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.ops.push((0, ValueKind::Delete, key, Vec::new()));
    }

    /// Operations queued.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued ops in apply order: `(key, Some(value))` for a put,
    /// `(key, None)` for a delete.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        self.ops.iter().map(|(_, kind, key, value)| {
            (key.as_slice(), (*kind == ValueKind::Put).then_some(value.as_slice()))
        })
    }

    /// Empties the batch, keeping its allocation for reuse — pairs with
    /// [`DbCore::write_batch_mut`] so a long-lived committer recycles one
    /// batch instead of allocating a fresh `Vec` per group commit.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// How the apply step frames a batch in the WAL. Recovery reads the two
/// differently, so this is an on-disk format choice, not a tuning knob.
#[derive(Clone, Copy)]
enum WalFraming {
    /// Independent records sharing one append ([`Wal::append_batch`]):
    /// recovery keeps any intact prefix.
    Plain,
    /// One all-or-none group ([`Wal::append_atomic`]): a transaction's
    /// write-set.
    Atomic,
}

struct Inner {
    mem: Memtable,
    /// Frozen memtable awaiting a background flush (`Threaded` only). An
    /// `Arc` so the flush job can build its table outside the lock.
    imm: Option<Arc<Memtable>>,
    /// WAL covering `imm`; retired when the flush lands.
    imm_wal: Option<Wal>,
    version: Arc<Version>,
    wal: Option<Wal>,
    vlog: Option<ValueLog>,
    next_seqno: u64,
    /// Replication watermark: highest replication-log sequence applied
    /// through [`DbCore::write_batch_replicated`] (0 = never a replica).
    /// Persisted in the manifest on every manifest write; between
    /// manifests the applied batches are covered by the WAL, so a crash
    /// can only leave this *behind* the data — never ahead.
    applied_seq: u64,
    manifest: Option<FileId>,
    /// Round-robin partial-compaction cursors, one per level.
    rr_cursors: Vec<usize>,
    /// OCC bookkeeping: snapshot seqnos of live [`crate::Txn`] handles
    /// (value = handle count at that floor). Non-empty iff a transaction
    /// is active; write paths consult it to decide whether to maintain
    /// `txn_recent`, so the plain write path pays nothing when no
    /// transaction is running.
    txn_floors: std::collections::BTreeMap<u64, usize>,
    /// key → seqno of the last committed write to it, maintained only
    /// while `txn_floors` is non-empty. Commit validation checks each
    /// read-set key here: an entry newer than the transaction's snapshot
    /// floor means a first-committer already won. Pruned to the oldest
    /// live floor and cleared when the last transaction ends.
    txn_recent: std::collections::HashMap<Vec<u8>, u64>,
}

impl Inner {
    /// Records a committed write for OCC validation, iff any transaction
    /// is live. Split out (static, field-wise) so write paths can call it
    /// while other `Inner` fields are mutably borrowed.
    #[inline]
    fn txn_record(
        floors: &std::collections::BTreeMap<u64, usize>,
        recent: &mut std::collections::HashMap<Vec<u8>, u64>,
        key: &[u8],
        seqno: u64,
    ) {
        if floors.is_empty() {
            return;
        }
        match recent.get_mut(key) {
            Some(s) => *s = seqno,
            None => {
                recent.insert(key.to_vec(), seqno);
            }
        }
    }
}

/// Prune `Inner::txn_recent` on transaction end once it exceeds this
/// many keys (below the oldest live snapshot floor nothing can conflict).
const TXN_RECENT_PRUNE_LEN: usize = 1024;

/// Global commit-stamp source for transaction commits. The stamp is
/// fetched while every involved engine's write lock is held, so stamp
/// order is consistent with each engine's apply order — replaying
/// committed transactions in stamp order reproduces the exact final
/// state (the serializability oracle in
/// `crates/server/tests/transactions.rs` relies on this).
static TXN_STAMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Validates and applies a transaction atomically across its parts.
///
/// All involved engines' write locks are taken in one stable global
/// order (by engine address — two concurrent multi-engine commits can
/// never deadlock), every part's read-set is validated against
/// `Inner::txn_recent`, and only if **all** parts validate clean are the
/// write-sets applied — each through the shared apply step as one
/// [`Wal::append_atomic`] group, so a crash can never expose a partial
/// write-set on any single engine. The memtable-full tail runs after the
/// locks drop, so a multi-engine commit never flushes while holding
/// several engines' locks.
///
/// Returns `Ok(Err(conflict))` when validation fails (the transaction
/// must abort and retry) and `Ok(Ok(stamp))` with the global commit
/// stamp on success.
pub(crate) fn commit_txn_parts(
    parts: &mut [TxnPart],
) -> StorageResult<Result<u64, crate::txn::Conflict>> {
    // Backpressure and background-error checks happen before any lock is
    // taken, exactly like the plain write path.
    for p in parts.iter() {
        if p.db.threaded() {
            p.db.check_bg_error()?;
            p.db.backpressure();
        }
    }
    let dbs: Vec<Arc<DbCore>> = parts.iter().map(|p| Arc::clone(&p.db.core)).collect();
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&i| Arc::as_ptr(&dbs[i]) as usize);
    debug_assert!(
        order.windows(2).all(|w| !Arc::ptr_eq(&dbs[w[0]], &dbs[w[1]])),
        "txn parts must target distinct engines"
    );
    let mut guards: Vec<(usize, RwLockWriteGuard<'_, Inner>)> = Vec::with_capacity(order.len());
    for &i in &order {
        guards.push((i, dbs[i].inner.write()));
    }
    // First-committer-wins validation: every read key must be unchanged
    // since its sub-transaction's snapshot. All guards are held, so a
    // clean validation cannot be invalidated before the apply below.
    let conflict = guards.iter().find_map(|(i, guard)| {
        let p = &parts[*i];
        p.read_set.iter().find_map(|key| {
            let seqno = *guard.txn_recent.get(key)?;
            (seqno > p.snap_seqno).then(|| {
                (*i, crate::txn::Conflict {
                    key: key.clone(),
                    snap_seqno: p.snap_seqno,
                    conflict_seqno: seqno,
                })
            })
        })
    });
    if let Some((i, c)) = conflict {
        drop(guards);
        dbs[i].obs.txn_conflicts.inc();
        dbs[i].obs.event(EventKind::TxnConflict {
            snap_seqno: c.snap_seqno,
            conflict_seqno: c.conflict_seqno,
        });
        return Ok(Err(c));
    }
    // Validation clean on every engine: apply the write-sets. Per-part
    // sizes are captured first (apply drains the batch) for the events.
    let counts: Vec<(u64, u64)> = parts
        .iter()
        .map(|p| (p.batch.len() as u64, p.read_set.len() as u64))
        .collect();
    for (i, guard) in guards.iter_mut() {
        dbs[*i].apply_locked(guard, &mut parts[*i].batch, WalFraming::Atomic)?;
    }
    let stamp = TXN_STAMP.fetch_add(1, Ordering::AcqRel) + 1;
    drop(guards);
    for (db, (writes, reads)) in dbs.iter().zip(counts) {
        db.obs.txn_commits.inc();
        db.obs.event(EventKind::TxnCommit {
            stamp,
            writes,
            reads,
        });
    }
    for db in &dbs {
        db.maintain(db.inner.write())?;
    }
    Ok(Ok(stamp))
}

/// A configurable LSM-tree storage engine handle. Cloning is cheap (an
/// `Arc` bump); all clones share one engine. The last clone to drop
/// shuts the background workers down and syncs the logs.
pub struct Db {
    core: Arc<DbCore>,
}

impl Clone for Db {
    fn clone(&self) -> Db {
        self.core.user_handles.fetch_add(1, Ordering::AcqRel);
        Db {
            core: Arc::clone(&self.core),
        }
    }
}

impl Drop for Db {
    /// The *last user handle* drives shutdown, even though a worker may
    /// still hold a strong `Arc` for its in-flight job: without this, a
    /// caller could drop every handle and reopen the device while a
    /// background flush is still writing tables and manifests into it.
    fn drop(&mut self) {
        if self.core.user_handles.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.core.shutdown_and_join();
        }
    }
}

impl std::ops::Deref for Db {
    type Target = DbCore;

    fn deref(&self) -> &DbCore {
        &self.core
    }
}

/// The shared engine state behind every [`Db`] clone. All operations
/// take `&self`; the engine is internally synchronized.
pub struct DbCore {
    device: Arc<dyn StorageDevice>,
    cfg: LsmConfig,
    /// Online-retunable override overlay (see [`crate::dynamic`]):
    /// filter budget, merge layout, size ratio, and L0 thresholds can
    /// change on the running engine; everything else is boot-fixed.
    dynamic: DynamicConfig,
    cache: Option<Arc<ShardedCache<Block>>>,
    stats: DbStats,
    heat: Mutex<HeatMap>,
    inner: RwLock<Inner>,
    /// Background scheduler state; shared with the worker threads via its
    /// own `Arc` so idle workers do not keep the engine alive.
    bg: Arc<BgState>,
    /// Worker join handles, drained on drop.
    workers: std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Non-empty L0 run count, mirrored from the current version so the
    /// write path can check backpressure without taking `inner`.
    l0_runs: AtomicUsize,
    /// Serializes compaction cascades (background job vs. explicit
    /// `compact`/`major_compact`) in `Threaded` mode. Taken *before*
    /// `inner` per the lock hierarchy.
    compaction_lock: Mutex<()>,
    /// Live user-facing [`Db`] clones. The last one to drop joins the
    /// worker pool (see `Drop for Db`), regardless of the `Arc` count.
    user_handles: AtomicUsize,
    /// Outstanding [`crate::Snapshot`]s (blocks value-log GC).
    snapshot_count: Arc<AtomicUsize>,
    /// Metrics registry, latency histograms, and the structured event
    /// trace (see [`crate::obs`]).
    obs: EngineMetrics,
    /// Compaction job admission + accounting + I/O throttle (see
    /// [`crate::compaction::scheduler`]). Every merge the engine runs is
    /// submitted, admitted, and completed through it.
    sched: CompactionScheduler,
}

impl Db {
    /// Whether two handles refer to the same engine instance.
    pub fn same_engine(&self, other: &Db) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Opens (or recovers) an engine on `device`. The device's block size
    /// must match `cfg.block_size`.
    pub fn open(device: Arc<dyn StorageDevice>, cfg: LsmConfig) -> StorageResult<Db> {
        cfg.validate().map_err(StorageError::Corruption)?;
        if device.block_size() != cfg.block_size {
            return Err(StorageError::Corruption(format!(
                "device block size {} != configured {}",
                device.block_size(),
                cfg.block_size
            )));
        }
        let cache = (cfg.cache_bytes > 0)
            .then(|| Arc::new(ShardedCache::new(cfg.cache_policy, cfg.cache_bytes, 8)));
        // Inline mode times operations on the *simulated* device clock so
        // metrics are reproducible; Threaded mode uses wall time.
        let obs = match cfg.background {
            BackgroundMode::Inline => EngineMetrics::simulated(
                device.latency().clock().clone(),
                cfg.event_ring_capacity,
            ),
            BackgroundMode::Threaded => EngineMetrics::wall(cfg.event_ring_capacity),
        };
        let mut inner = Inner {
            mem: Memtable::with_front(cfg.buffer_front_bytes),
            imm: None,
            imm_wal: None,
            version: Arc::new(Version::new()),
            wal: None,
            vlog: None,
            next_seqno: 1,
            applied_seq: 0,
            manifest: None,
            rr_cursors: vec![0; 32],
            txn_floors: std::collections::BTreeMap::new(),
            txn_recent: std::collections::HashMap::new(),
        };
        // Recovery: try every manifest on the device, newest first. A crash
        // mid-rewrite can leave the newest manifest referencing files that
        // never made it to disk; an older manifest (plus its WALs) is then
        // the consistent state to restart from. Starting empty when
        // manifests exist but none is usable would silently drop data, so
        // that case is a typed error instead.
        let candidates = find_manifest_candidates(&device)?;
        let had_candidates = !candidates.is_empty();
        let mut recovered_ok = !had_candidates;
        let mut old_wals: Vec<FileId> = Vec::new();
        let mut last_reject: Option<StorageError> = None;
        for (mid, state) in candidates {
            match DbCore::recover_from_manifest(&device, &cfg, &state, &obs) {
                Ok((version, mem, next_seqno)) => {
                    obs.event(EventKind::RecoveryStep {
                        step: "manifest_loaded",
                        detail: format!("manifest {} levels {}", mid.0, state.levels.len()),
                    });
                    inner.manifest = Some(mid);
                    inner.next_seqno = next_seqno;
                    inner.applied_seq = state.applied_seq;
                    inner.version = Arc::new(version);
                    inner.mem = mem;
                    old_wals.extend(
                        [state.wal_prev, state.wal]
                            .into_iter()
                            .filter(|&w| w != 0)
                            .map(FileId),
                    );
                    recovered_ok = true;
                    break;
                }
                Err(
                    e @ (StorageError::Corruption(_)
                    | StorageError::UnknownFile(_)
                    | StorageError::OutOfBounds { .. }),
                ) => {
                    obs.event(EventKind::RecoveryStep {
                        step: "manifest_rejected",
                        detail: format!("manifest {}: {e}", mid.0),
                    });
                    device.stats().record_corruption();
                    last_reject = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        if !recovered_ok {
            let detail = last_reject
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown".into());
            return Err(StorageError::Corruption(format!(
                "recovery failed: no usable manifest (last candidate rejected: {detail})"
            )));
        }
        if cfg.wal {
            let mut new_wal = Wal::create(Arc::clone(&device))?;
            // re-log the replayed records so they stay durable
            let mem_snapshot: Vec<InternalEntry> = inner
                .mem
                .range(Bound::Unbounded, Bound::Unbounded)
                .collect();
            for e in mem_snapshot {
                new_wal.append_batch(&[(e.seqno, e.kind, e.key, e.value)])?;
            }
            new_wal.sync()?;
            inner.wal = Some(new_wal);
        }
        if cfg.kv_separation.is_some() {
            // Old value logs stay readable via the device; new separated
            // values go to a fresh log.
            inner.vlog = Some(ValueLog::create(Arc::clone(&device))?);
        }
        let threaded = cfg.background == BackgroundMode::Threaded;
        let workers = cfg.background_workers;
        let sched = CompactionScheduler::new(
            cfg.max_background_jobs,
            TokenBucket::new(
                cfg.compaction_throttle_bytes_per_sec,
                cfg.compaction_throttle_burst_bytes,
            ),
        );
        let db = Db {
            core: Arc::new(DbCore {
                device,
                cfg,
                dynamic: DynamicConfig::new(),
                cache,
                stats: DbStats::default(),
                heat: Mutex::new(HeatMap::new(1024, 100_000)),
                inner: RwLock::new(inner),
                bg: Arc::new(BgState::new()),
                workers: std::sync::Mutex::new(Vec::new()),
                l0_runs: AtomicUsize::new(0),
                compaction_lock: Mutex::new(()),
                user_handles: AtomicUsize::new(1),
                snapshot_count: Arc::new(AtomicUsize::new(0)),
                obs,
                sched,
            }),
        };
        {
            let mut inner = db.inner.write();
            let l0 = DbCore::count_l0_runs(&inner.version);
            db.l0_runs.store(l0, Ordering::Release);
            db.follow_band(l0);
            db.persist_manifest(&mut inner)?;
        }
        // The replayed WALs are retired only now that their records are
        // covered by the new WAL and the manifest referencing it is
        // durable; a crash anywhere above replays from the old WALs again
        // instead of losing the records.
        for w in old_wals {
            let _ = db.device.delete(w);
        }
        // A crash during a (possibly parallel) compaction can strand fully
        // written output tables that no manifest ever came to reference.
        // Now that the recovered state is durable, those orphans are dead
        // weight — delete them.
        db.cleanup_orphan_tables();
        if threaded {
            let mut handles = db
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for i in 0..workers {
                let bg = Arc::clone(&db.bg);
                let weak = Arc::downgrade(&db.core);
                let h = std::thread::Builder::new()
                    .name(format!("lsm-bg-{i}"))
                    .spawn(move || crate::background::worker_loop(bg, weak))
                    .map_err(|e| {
                        StorageError::Corruption(format!("failed to spawn background worker: {e}"))
                    })?;
                handles.push(h);
            }
        }
        Ok(db)
    }

    /// Opens on a fresh in-memory device with a free latency profile — the
    /// default substrate for tests and experiments.
    pub fn open_in_memory(cfg: LsmConfig) -> StorageResult<Db> {
        let device: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
        Db::open(device, cfg)
    }

    /// Opens on a fresh in-memory device with a latency profile, so
    /// experiments can report simulated time.
    pub fn open_simulated(cfg: LsmConfig, profile: DeviceProfile) -> StorageResult<Db> {
        let device: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(cfg.block_size, profile));
        Db::open(device, cfg)
    }
}

impl DbCore {
    /// Attempts a full recovery from one manifest: reopen every table it
    /// references and replay its WALs into a fresh memtable. Any missing
    /// or corrupt referenced file fails the whole attempt with a typed
    /// error, so [`Db::open`] can fall back to an older manifest.
    fn recover_from_manifest(
        device: &Arc<dyn StorageDevice>,
        cfg: &LsmConfig,
        state: &ManifestState,
        obs: &EngineMetrics,
    ) -> StorageResult<(Version, Memtable, u64)> {
        let mut version = Version::new();
        version.ensure_levels(state.levels.len());
        for (i, level) in state.levels.iter().enumerate() {
            for run_ids in level {
                let mut tables = Vec::with_capacity(run_ids.len());
                for &id in run_ids {
                    let file = lsm_storage::ImmutableFile::open(Arc::clone(device), FileId(id))?;
                    tables.push(Table::open(file, cfg.index)?);
                }
                version.levels[i].runs.push(SortedRun::from_tables(tables));
            }
        }
        let mut mem = Memtable::with_front(cfg.buffer_front_bytes);
        let mut next_seqno = state.next_seqno.max(1);
        // Replay the frozen memtable's WAL first: its records are strictly
        // older than the active WAL's, so later records overwrite them.
        for wal_id in [state.wal_prev, state.wal] {
            if wal_id == 0 {
                continue;
            }
            match wal::recover(Arc::clone(device), FileId(wal_id)) {
                Ok(records) => {
                    obs.event(EventKind::RecoveryStep {
                        step: "wal_replayed",
                        detail: format!("wal {} records {}", wal_id, records.len()),
                    });
                    for r in records {
                        next_seqno = next_seqno.max(r.seqno + 1);
                        mem.insert(&r.key, r.seqno, r.kind, &r.value);
                    }
                }
                // A missing WAL is consistent: rotation deletes the old WAL
                // only after the superseding manifest is durable, so if this
                // manifest's WAL is gone its records are already in a table
                // listed by a newer manifest.
                Err(StorageError::UnknownFile(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((version, mem, next_seqno))
    }

    /// The engine configuration as booted. Maintenance decisions run
    /// under [`DbCore::effective_config`], which layers the dynamic
    /// overrides on top.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }

    /// The boot configuration with every staged dynamic override applied
    /// — what compaction planning, filter sizing, and backpressure
    /// currently run under.
    pub fn effective_config(&self) -> LsmConfig {
        self.dynamic.effective(&self.cfg)
    }

    /// Currently staged dynamic overrides (`None` fields = boot value).
    pub fn dynamic_overrides(&self) -> DynamicSnapshot {
        self.dynamic.snapshot()
    }

    /// Stages a validated dynamic-config update. Changes take effect at
    /// the next decision point that reads the knob: filter budgets at the
    /// next table build, layout/size-ratio at the next compaction-planning
    /// pass, L0 thresholds at the next write. Existing data is never
    /// rewritten eagerly. Errors (an update whose merged config fails
    /// [`LsmConfig::validate`]) leave the overlay untouched.
    pub fn set_dynamic(&self, update: &DynamicUpdate) -> Result<(), String> {
        self.dynamic.apply(&self.cfg, update)?;
        // Let the threaded picker notice a newly-violated invariant
        // without waiting for the next write.
        if self.threaded() {
            self.bg.schedule_compact();
        }
        Ok(())
    }

    /// Appends an externally-generated event (e.g. a tuner decision) to
    /// the engine's trace ring, stamped with the engine clock.
    pub fn record_event(&self, kind: EventKind) {
        self.obs.event(kind);
    }

    /// The storage device (for I/O statistics and simulated time).
    pub fn device(&self) -> &Arc<dyn StorageDevice> {
        &self.device
    }

    /// Engine counters.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// Device I/O counters.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.device.stats().snapshot()
    }

    /// Block-cache counters, when caching is enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| (c.stats().hits(), c.stats().misses()))
    }

    /// Point-in-time snapshot of every engine metric: `db.*` engine
    /// counters, `io.*` per-category device counters, `cache.*`
    /// block-cache counters (global and per shard), `latency.*`
    /// histograms for get/put/scan/flush/compaction, and `engine.*`
    /// gauges. Byte-identical across repeated runs of the same workload
    /// under [`BackgroundMode::Inline`] (the histograms are driven by the
    /// simulated device clock).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.sync_registry();
        self.obs.snapshot()
    }

    /// Drains the structured event trace, oldest first. `seq` is globally
    /// monotone, so a consumer can detect ring overflow as a gap (see
    /// also [`DbCore::events_dropped`]).
    pub fn drain_events(&self) -> Vec<Event> {
        self.obs.drain_events()
    }

    /// Events evicted from the trace ring because it was full.
    pub fn events_dropped(&self) -> u64 {
        self.obs.dropped_events()
    }

    /// Engine observability state (hook for the background workers).
    pub(crate) fn obs(&self) -> &EngineMetrics {
        &self.obs
    }

    /// Mirrors the engine/device/cache counters into the metrics registry
    /// as absolute values. All sources are monotone, so registry counters
    /// only ever move forward (asserted by the regression tests).
    fn sync_registry(&self) {
        let reg = self.obs.registry();
        let sync = |name: &str, target: u64| {
            let c = reg.counter(name);
            let cur = c.get();
            if target > cur {
                c.add(target - cur);
            }
        };
        for (name, value) in self.stats.snapshot().fields() {
            sync(&format!("db.{name}"), value);
        }
        let io = self.device.stats().snapshot();
        for cat in IoCategory::ALL {
            let c = io.category(cat);
            let label = cat.label();
            sync(&format!("io.{label}.read_blocks"), c.read_blocks);
            sync(&format!("io.{label}.written_blocks"), c.written_blocks);
            sync(&format!("io.{label}.read_ops"), c.read_ops);
            sync(&format!("io.{label}.write_ops"), c.write_ops);
        }
        sync("io.retries", io.retries);
        sync("io.corruption_detected", io.corruption_detected);
        sync("io.write_slowdowns", io.write_slowdowns);
        sync("io.write_stalls", io.write_stalls);
        let sched = self.sched.totals();
        sync("sched.jobs_submitted", sched.submitted);
        sync("sched.jobs_admitted", sched.admitted);
        sync("sched.jobs_completed", sched.completed);
        sync("sched.jobs_failed", sched.failed);
        sync("sched.input_bytes", sched.input_bytes);
        sync("sched.output_bytes", sched.output_bytes);
        sync("sched.throttle_waits", sched.throttle_waits);
        sync("sched.throttle_wait_ns", sched.throttle_wait_ns);
        if let Some(cache) = &self.cache {
            let s = cache.stats();
            sync("cache.hits", s.hits());
            sync("cache.misses", s.misses());
            sync("cache.inserts", s.inserts());
            sync("cache.evictions", s.evictions());
            for (i, shard) in cache.shard_stats().iter().enumerate() {
                sync(&format!("cache.shard{i}.hits"), shard.hits);
                sync(&format!("cache.shard{i}.misses"), shard.misses);
                sync(&format!("cache.shard{i}.evictions"), shard.evictions);
            }
        }
    }

    fn threaded(&self) -> bool {
        self.cfg.background == BackgroundMode::Threaded
    }

    fn count_l0_runs(version: &Version) -> usize {
        version
            .levels
            .first()
            .map_or(0, |l| l.runs.iter().filter(|r| !r.is_empty()).count())
    }

    /// Installs `version` as current and mirrors its L0 run count into the
    /// lock-free backpressure gauge and the backpressure band. Every
    /// version swap goes through here.
    fn install_version(&self, inner: &mut Inner, version: Version) {
        let l0 = Self::count_l0_runs(&version);
        inner.version = Arc::new(version);
        self.l0_runs.store(l0, Ordering::Release);
        self.obs.l0_runs_gauge.set(l0 as i64);
        self.follow_band(l0);
    }

    /// The L0 `(slowdown, stall)` run counts in force: the dynamic
    /// overlay's, else the boot config's.
    fn l0_thresholds(&self) -> (usize, usize) {
        let (slowdown, stall) = self.dynamic.l0_thresholds();
        (
            slowdown.unwrap_or(self.cfg.l0_slowdown_runs),
            stall.unwrap_or(self.cfg.l0_stall_runs),
        )
    }

    /// Moves the traced backpressure band to match `l0` runs (`Threaded`
    /// only — Inline writes never meet backpressure). Called at every
    /// version install, so a band exit lands in the trace when compaction
    /// drains L0, not at some later write.
    fn follow_band(&self, l0: usize) {
        if self.threaded() {
            let (slowdown, stall) = self.l0_thresholds();
            self.obs.backpressure_band(l0, slowdown, stall);
        }
    }

    /// Surfaces the first background-job error on the calling thread.
    /// Cheap no-op in `Inline` mode.
    fn check_bg_error(&self) -> StorageResult<()> {
        if self.threaded() && self.bg.has_failed() {
            if let Some(e) = self.bg.take_error() {
                return Err(e);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Inserts or updates a key.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) -> StorageResult<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(|inner| self.apply_locked(inner, &mut batch, WalFraming::Plain))
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&self, key: Vec<u8>) -> StorageResult<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(|inner| self.apply_locked(inner, &mut batch, WalFraming::Plain))
    }

    /// L0 backpressure (`Threaded` only): checked *before* taking `inner`
    /// so delayed writers never hold any engine lock — readers proceed
    /// untouched while a writer sleeps or stalls.
    fn backpressure(&self) {
        let (slowdown, stall) = self.l0_thresholds();
        let l0 = self.l0_runs.load(Ordering::Acquire);
        if l0 >= stall {
            self.device.stats().record_write_stall();
            self.bg.schedule_compact();
            self.bg
                .wait_progress_until(|| self.l0_runs.load(Ordering::Acquire) < stall);
        } else if l0 >= slowdown {
            self.device.stats().record_write_slowdown();
            self.bg.schedule_compact();
            std::thread::sleep(std::time::Duration::from_micros(self.cfg.slowdown_micros));
        }
    }

    /// The write wrapper for everything but transaction commits: pays
    /// backpressure, runs `apply` under the write lock, then the
    /// memtable-full tail. Timed into the put histogram (a write's
    /// latency includes any backpressure delay and, under `Inline`, the
    /// flush/compaction cascade it triggers).
    fn write(&self, apply: impl FnOnce(&mut Inner) -> StorageResult<()>) -> StorageResult<()> {
        let start = self.obs.now_ns();
        let out = self.check_bg_error().and_then(|()| {
            if self.threaded() {
                self.backpressure();
            }
            let mut inner = self.inner.write();
            apply(&mut inner)?;
            self.maintain(inner)
        });
        self.obs
            .put_ns
            .record(self.obs.now_ns().saturating_sub(start));
        out
    }

    /// The one apply step every engine write goes through, under the held
    /// write lock: assigns consecutive seqnos, counts the ops, separates
    /// large values into the value log, appends the batch to the WAL in
    /// the requested framing, inserts into the memtable, records the keys
    /// for OCC validation, and updates the memtable gauge. Drains `batch`
    /// on success.
    fn apply_locked(
        &self,
        inner: &mut Inner,
        batch: &mut WriteBatch,
        framing: WalFraming,
    ) -> StorageResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for (seqno, kind, key, value) in batch.ops.iter_mut() {
            *seqno = inner.next_seqno;
            inner.next_seqno += 1;
            let ingested = match kind {
                ValueKind::Put => {
                    DbStats::bump(&self.stats.puts);
                    key.len() + value.len()
                }
                ValueKind::Delete => {
                    DbStats::bump(&self.stats.deletes);
                    key.len()
                }
            };
            self.stats.add(&self.stats.bytes_ingested, ingested as u64);
            // key-value separation: the stored value becomes a pointer or
            // an inline-tagged value (a tombstone stays empty)
            if let (Some(sep), ValueKind::Put) = (self.cfg.kv_separation, *kind) {
                *value = if value.len() >= sep.min_value_bytes {
                    let vlog = inner.vlog.as_mut().ok_or_else(|| {
                        StorageError::Corruption(
                            "kv separation enabled but no value log is open".into(),
                        )
                    })?;
                    let ptr = vlog.append(key, value)?;
                    DbStats::bump(&self.stats.vlog_values);
                    encode_pointer(ptr)
                } else {
                    encode_inline(value)
                };
            }
        }
        if let Some(wal) = &mut inner.wal {
            match framing {
                WalFraming::Plain => wal.append_batch(&batch.ops)?,
                WalFraming::Atomic => wal.append_atomic(&batch.ops)?,
            }
            DbStats::bump(&self.stats.wal_appends);
        }
        for (seqno, kind, key, stored) in batch.ops.drain(..) {
            inner.mem.insert(&key, seqno, kind, &stored);
            Inner::txn_record(&inner.txn_floors, &mut inner.txn_recent, &key, seqno);
        }
        self.obs.memtable_bytes_gauge.set(inner.mem.bytes() as i64);
        Ok(())
    }

    /// The memtable-full tail every write ends with, consuming the write
    /// guard: under `Threaded`, freeze the memtable (or wait for the
    /// in-flight flush); under `Inline`, flush it and run the compaction
    /// cascade on this thread.
    fn maintain(&self, mut inner: RwLockWriteGuard<'_, Inner>) -> StorageResult<()> {
        if inner.mem.bytes() < self.cfg.buffer_bytes {
            return Ok(());
        }
        if self.threaded() {
            return self.freeze_or_wait(inner);
        }
        self.flush_active_locked(&mut inner)?;
        self.maybe_compact_locked(&mut inner)
    }

    /// Applies a [`WriteBatch`] with **one** WAL append (group commit),
    /// draining it and leaving its capacity intact for reuse.
    ///
    /// All operations receive consecutive sequence numbers under a single
    /// acquisition of the write lock, their WAL frames are concatenated
    /// into one [`Wal::append_batch`] call, and backpressure is paid once
    /// per batch instead of once per operation. Recovery replays the
    /// batch exactly like the equivalent sequence of single writes. This
    /// is the entry point a serving layer's group-commit batcher uses to
    /// coalesce concurrent client writes per shard; a long-lived batch
    /// keeps the per-commit `Vec` allocation out of the steady state.
    pub fn write_batch_mut(&self, batch: &mut WriteBatch) -> StorageResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.count_batch(batch);
        let out = self.write(|inner| self.apply_locked(inner, batch, WalFraming::Plain));
        batch.clear(); // a failed write leaves nothing queued either
        out
    }

    /// Replica apply: [`DbCore::write_batch_mut`] plus an atomic advance
    /// of the replication watermark to `seq`, under the same write lock —
    /// so the engine state and the watermark can never disagree about
    /// which replication-log batches are reflected. Used by a replica
    /// applying a shipped `REPL_BATCH`; the watermark reaches the
    /// manifest at the next manifest write (see
    /// [`lsm_core::manifest::ManifestState::applied_seq`]).
    ///
    /// An empty batch still advances the watermark (a replicated batch
    /// whose ops all routed to other shards is applied "by omission").
    pub fn write_batch_replicated(&self, batch: &mut WriteBatch, seq: u64) -> StorageResult<()> {
        if batch.is_empty() {
            let mut inner = self.inner.write();
            inner.applied_seq = inner.applied_seq.max(seq);
            return Ok(());
        }
        self.count_batch(batch);
        let out = self.write(|inner| {
            self.apply_locked(inner, batch, WalFraming::Plain)?;
            inner.applied_seq = inner.applied_seq.max(seq);
            Ok(())
        });
        batch.clear();
        out
    }

    fn count_batch(&self, batch: &WriteBatch) {
        DbStats::bump(&self.stats.write_batches);
        self.stats
            .add(&self.stats.batched_writes, batch.len() as u64);
    }

    /// Current replication watermark: the highest replication-log
    /// sequence applied via [`DbCore::write_batch_replicated`] (0 if this
    /// engine never acted as a replica). After a crash this is recovered
    /// from the manifest and may lag the data (the WAL carries the
    /// batches applied since the last manifest write), so resubscribing
    /// from `applied_seq + 1` may re-deliver a suffix — which re-applies
    /// idempotently as long as delivery stays in sequence order.
    pub fn applied_seq(&self) -> u64 {
        self.inner.read().applied_seq
    }

    /// `Threaded` write path for a full memtable: freeze it into the
    /// immutable slot if free, else wait (counted as a stall) for the
    /// in-flight flush to drain it. Consumes the write guard so the wait
    /// holds no engine lock.
    fn freeze_or_wait<'a>(&'a self, mut inner: RwLockWriteGuard<'a, Inner>) -> StorageResult<()> {
        loop {
            if inner.imm.is_none() {
                self.freeze_memtable(&mut inner)?;
                return Ok(());
            }
            drop(inner);
            self.device.stats().record_write_stall();
            let l0 = self.l0_runs.load(Ordering::Acquire) as u64;
            self.obs.event(EventKind::StallEnter {
                reason: StallReason::MemtableRotation,
                l0_runs: l0,
            });
            self.bg.wait_flush_drained();
            self.obs.event(EventKind::StallExit {
                reason: StallReason::MemtableRotation,
                l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
            });
            self.check_bg_error()?;
            inner = self.inner.write();
            if inner.mem.bytes() < self.cfg.buffer_bytes {
                // another writer froze (or a flush drained) in the window
                return Ok(());
            }
        }
    }

    /// Freezes the active memtable into the immutable slot and queues its
    /// flush. Syncs both logs first so every record covered by the frozen
    /// memtable is durable before its WAL stops receiving writes.
    fn freeze_memtable(&self, inner: &mut Inner) -> StorageResult<()> {
        if inner.mem.is_empty() {
            return Ok(());
        }
        if let Some(vlog) = &mut inner.vlog {
            vlog.sync()?;
        }
        if let Some(wal) = &mut inner.wal {
            wal.sync()?;
        }
        let frozen = std::mem::replace(
            &mut inner.mem,
            Memtable::with_front(self.cfg.buffer_front_bytes),
        );
        inner.imm = Some(Arc::new(frozen));
        if let Err(e) = self.rotate_logs_for_frozen(inner) {
            // The frozen memtable's flush never got enqueued, so the
            // immutable slot stays occupied with nothing scheduled to
            // drain it. Without a sticky failure, `freeze_or_wait` (and
            // any stalled writer) would wait forever for that drain —
            // poison the engine so they bail with this error instead.
            let copy = StorageError::Io(std::io::Error::other(e.to_string()));
            self.bg.record_failure(e);
            return Err(copy);
        }
        self.bg.enqueue_flush();
        Ok(())
    }

    /// The fallible tail of a memtable freeze: WAL rotation and the
    /// manifest write that records it. Split out so `freeze_memtable`
    /// can turn any failure here into a sticky engine error — after the
    /// immutable slot is occupied, an unrecorded failure would strand
    /// every later writer.
    fn rotate_logs_for_frozen(&self, inner: &mut Inner) -> StorageResult<()> {
        if self.cfg.wal {
            inner.imm_wal = inner.wal.take();
            inner.wal = Some(Wal::create(Arc::clone(&self.device))?);
            if let (Some(old), Some(new)) = (&inner.imm_wal, &inner.wal) {
                self.obs.event(EventKind::WalRotation {
                    old_wal: old.id().0,
                    new_wal: new.id().0,
                    old_records: old.records(),
                });
            }
        }
        // the manifest names both WALs, so a crash here replays the frozen
        // records (wal_prev) before the new active WAL
        self.persist_manifest(inner)
    }

    /// Background flush job: persist the frozen memtable as an L0 table.
    /// The table is built *outside* the lock from the shared `Arc`; the
    /// install re-checks that the same memtable is still frozen (an
    /// explicit foreground flush may have won the race).
    pub(crate) fn run_flush(&self) -> StorageResult<()> {
        let (imm, version) = {
            let inner = self.inner.read();
            match &inner.imm {
                Some(m) => (Arc::clone(m), Arc::clone(&inner.version)),
                None => return Ok(()),
            }
        };
        let entries: Vec<InternalEntry> = imm.range(Bound::Unbounded, Bound::Unbounded).collect();
        let flush_id = self.obs.next_flush_id();
        let flush_start = self.obs.now_ns();
        self.obs.event(EventKind::FlushStart {
            id: flush_id,
            entries: entries.len() as u64,
        });
        let table = if entries.is_empty() {
            None
        } else {
            Some(self.build_l0_table(&version, &entries)?)
        };
        let output_bytes = table.as_ref().map_or(0, |t| t.data_bytes());
        let old_wal = {
            let mut inner = self.inner.write();
            let still_ours = matches!(&inner.imm, Some(cur) if Arc::ptr_eq(cur, &imm));
            if !still_ours {
                if let Some(t) = &table {
                    t.mark_obsolete();
                }
                // The foreground flush won the race and installed this
                // memtable itself; this job produced nothing.
                self.obs.event(EventKind::FlushEnd {
                    id: flush_id,
                    entries: entries.len() as u64,
                    output_bytes: 0,
                    l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
                });
                self.obs
                    .flush_ns
                    .record(self.obs.now_ns().saturating_sub(flush_start));
                return Ok(());
            }
            self.install_imm_flush(&mut inner, table)?
        };
        self.obs.event(EventKind::FlushEnd {
            id: flush_id,
            entries: entries.len() as u64,
            output_bytes,
            l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
        });
        self.obs
            .flush_ns
            .record(self.obs.now_ns().saturating_sub(flush_start));
        if let Some(old) = old_wal {
            let old_file = old.seal()?;
            old_file.delete()?;
        }
        self.bg.schedule_compact();
        Ok(())
    }

    /// Splices a flushed immutable memtable's table into L0, clears the
    /// slot, and persists the manifest. Returns the retired WAL; the
    /// caller deletes it only after the manifest is durable.
    fn install_imm_flush(
        &self,
        inner: &mut Inner,
        table: Option<Arc<Table>>,
    ) -> StorageResult<Option<Wal>> {
        if let Some(table) = table {
            let mut version = (*inner.version).clone();
            version.ensure_levels(1);
            version.levels[0].runs.insert(0, SortedRun::single(table));
            self.install_version(inner, version);
            DbStats::bump(&self.stats.flushes);
        }
        inner.imm = None;
        let old = inner.imm_wal.take();
        self.persist_manifest(inner)?;
        Ok(old)
    }

    /// Foreground flush of the immutable slot (explicit `flush` in
    /// `Threaded` mode). Runs under the held write guard; flushing the
    /// older frozen memtable *before* the active one keeps L0 runs
    /// youngest-first.
    fn flush_imm_locked(&self, inner: &mut Inner) -> StorageResult<()> {
        let Some(imm) = inner.imm.clone() else {
            return Ok(());
        };
        let entries: Vec<InternalEntry> = imm.range(Bound::Unbounded, Bound::Unbounded).collect();
        let flush_id = self.obs.next_flush_id();
        let flush_start = self.obs.now_ns();
        self.obs.event(EventKind::FlushStart {
            id: flush_id,
            entries: entries.len() as u64,
        });
        let version = Arc::clone(&inner.version);
        let table = if entries.is_empty() {
            None
        } else {
            Some(self.build_l0_table(&version, &entries)?)
        };
        let output_bytes = table.as_ref().map_or(0, |t| t.data_bytes());
        let old_wal = self.install_imm_flush(inner, table)?;
        self.obs.event(EventKind::FlushEnd {
            id: flush_id,
            entries: entries.len() as u64,
            output_bytes,
            l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
        });
        self.obs
            .flush_ns
            .record(self.obs.now_ns().saturating_sub(flush_start));
        if let Some(old) = old_wal {
            let old_file = old.seal()?;
            old_file.delete()?;
        }
        self.bg.flush_drained();
        Ok(())
    }

    /// Forces a memtable flush (and any resulting compaction cascade).
    pub fn flush(&self) -> StorageResult<()> {
        self.check_bg_error()?;
        if self.threaded() {
            {
                let mut inner = self.inner.write();
                self.flush_imm_locked(&mut inner)?;
                self.flush_active_locked(&mut inner)?;
            }
            return self.compact_to_quiescence(|| false);
        }
        let mut inner = self.inner.write();
        self.flush_active_locked(&mut inner)?;
        self.maybe_compact_locked(&mut inner)
    }

    /// Flushes the active *and* immutable memtables and waits until all
    /// background maintenance is quiescent. On return every acknowledged
    /// write sits in sorted runs (no memtable or queued job holds data),
    /// and any latched background error has been surfaced — the
    /// precondition a serving layer needs before a graceful shutdown
    /// hands the shard's device to a future `Db::open`.
    pub fn flush_all(&self) -> StorageResult<()> {
        self.flush()?;
        self.wait_background_idle();
        self.check_bg_error()
    }

    /// Current L0 run count from the lock-free backpressure gauge. This
    /// is the signal the engine's own slowdown/stall bands key off
    /// ([`LsmConfig::l0_slowdown_runs`] / [`LsmConfig::l0_stall_runs`]);
    /// it is exposed so admission control can shed load *before* a
    /// writer blocks inside the engine.
    pub fn l0_run_count(&self) -> usize {
        self.l0_runs.load(Ordering::Acquire)
    }

    /// Runs the compaction cascade to quiescence without flushing.
    pub fn compact(&self) -> StorageResult<()> {
        self.check_bg_error()?;
        if self.threaded() {
            return self.compact_to_quiescence(|| false);
        }
        let mut inner = self.inner.write();
        self.maybe_compact_locked(&mut inner)
    }

    /// Major compaction: flushes, then merges *everything* into a single
    /// run at the bottom level, garbage-collecting all tombstones and
    /// obsolete versions. The classic "full compaction" maintenance knob.
    pub fn major_compact(&self) -> StorageResult<()> {
        self.check_bg_error()?;
        let _c = self.threaded().then(|| self.compaction_lock.lock());
        let mut inner = self.inner.write();
        if self.threaded() {
            self.flush_imm_locked(&mut inner)?;
        }
        self.flush_active_locked(&mut inner)?;
        self.maybe_compact_locked(&mut inner)?;
        let version = (*inner.version).clone();
        let Some(last) = version.last_occupied_level() else {
            return Ok(());
        };
        let mut inputs: Vec<Arc<Table>> = Vec::new();
        for level in &version.levels {
            for run in &level.runs {
                inputs.extend(run.tables.iter().cloned());
            }
        }
        if inputs.len() <= 1 && version.total_runs() <= 1 {
            return Ok(());
        }
        let bits = self.bits_for_level(&version, last);
        let trace_id = self.obs.next_compaction_id();
        let input_entries: u64 = inputs.iter().map(|t| t.meta().num_entries).sum();
        let input_bytes: u64 = inputs.iter().map(|t| t.data_bytes()).sum();
        let started_ns = self.obs.now_ns();
        self.obs.event(EventKind::CompactionStart {
            id: trace_id,
            level: 0,
            target: last as u32,
            input_tables: inputs.len() as u64,
            input_entries,
            input_bytes,
        });
        let prep = PreparedCompaction {
            level: 0,
            target: last,
            bits,
            inputs: inputs.clone(),
            drop_tombstones: true,
            apply: CompactionApply::InPlace,
            trace_id,
            input_entries,
            input_bytes,
            started_ns,
        };
        let result = self.run_merge_scheduled(&prep)?;
        let mut new_version = Version::new();
        new_version.ensure_levels(last + 1);
        if !result.tables.is_empty() {
            new_version.levels[last].runs = vec![SortedRun::from_tables(result.tables.clone())];
        }
        DbStats::bump(&self.stats.compactions);
        self.stats
            .add(&self.stats.compaction_entries, result.entries_written);
        self.stats
            .add(&self.stats.tombstones_dropped, result.tombstones_dropped);
        self.stats
            .add(&self.stats.versions_dropped, result.versions_dropped);
        self.install_version(&mut inner, new_version);
        self.persist_manifest(&mut inner)?;
        self.obs.event(EventKind::CompactionEnd {
            id: trace_id,
            level: 0,
            target: last as u32,
            input_tables: inputs.len() as u64,
            input_entries,
            input_bytes,
            output_tables: result.tables.len() as u64,
            entries_written: result.entries_written,
            output_bytes: result.output_bytes,
            tombstones_dropped: result.tombstones_dropped,
            versions_dropped: result.versions_dropped,
        });
        self.obs
            .compaction_ns
            .record(self.obs.now_ns().saturating_sub(started_ns));
        for t in &inputs {
            if let Some(cache) = &self.cache {
                let max_block = t.meta().data_blocks.len().saturating_sub(1) as u64;
                cache.invalidate_file(t.id(), max_block);
            }
            t.mark_obsolete();
        }
        Ok(())
    }

    /// Forces the WAL tail to the device (group commit / `fsync`). Writes
    /// issued before `sync` returns survive a crash; unsynced tail records
    /// may be lost (standard torn-tail semantics).
    pub fn sync(&self) -> StorageResult<()> {
        let mut inner = self.inner.write();
        // Value log first: a WAL record referencing a separated value must
        // never become durable before the value bytes it points at —
        // otherwise a crash leaves an acknowledged pointer dangling past
        // the persisted end of the log.
        if let Some(vlog) = &mut inner.vlog {
            vlog.sync()?;
        }
        if let Some(wal) = &mut inner.wal {
            wal.sync()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Background coordination
    // ------------------------------------------------------------------

    /// Blocks until no background job is queued, running, or pending.
    /// No-op in `Inline` mode. A test/bench hook: after it returns, stats
    /// and level structure are quiescent (absent concurrent writers).
    pub fn wait_background_idle(&self) {
        if self.threaded() {
            self.bg.wait_idle();
        }
    }

    /// Holds queued background compactions (flushes still run). Paired
    /// with [`DbCore::resume_compaction`]; a test hook for building L0
    /// pressure deterministically.
    pub fn pause_compaction(&self) {
        self.bg.pause_compaction();
    }

    /// Releases [`DbCore::pause_compaction`].
    pub fn resume_compaction(&self) {
        self.bg.resume_compaction();
    }

    /// Whether the planner sees work to do (used by the background worker
    /// to close the quiesce-vs-new-flush race).
    pub(crate) fn compaction_needed(&self) -> bool {
        let cfg = self.effective_config();
        let inner = self.inner.read();
        compaction::plan(&inner.version, &cfg).is_some()
    }

    /// Runs the compaction cascade to quiescence, taking `inner` only
    /// briefly around planning and installs; the merges themselves run
    /// without any engine lock. `stop` is polled between steps so a
    /// pause/shutdown aborts promptly. Serialized by `compaction_lock`.
    pub(crate) fn compact_to_quiescence(&self, stop: impl Fn() -> bool) -> StorageResult<()> {
        let _c = self.compaction_lock.lock();
        for _ in 0..10_000 {
            if stop() {
                return Ok(());
            }
            let prep = {
                // re-read per step so a retune staged mid-cascade is
                // picked up by the next planning pass
                let cfg = self.effective_config();
                let mut inner = self.inner.write();
                let Some(task) = compaction::plan(&inner.version, &cfg) else {
                    return Ok(());
                };
                match self.prepare_compaction(&mut inner, task)? {
                    Some(p) => p,
                    None => return Ok(()),
                }
            };
            let result = self.run_merge_scheduled(&prep)?;
            {
                let mut inner = self.inner.write();
                self.install_compaction(&mut inner, &prep, result)?;
            }
            self.bg.notify_progress();
        }
        Err(StorageError::Corruption(
            "compaction cascade failed to converge".into(),
        ))
    }

    /// Runs one prepared compaction's merge through the scheduler:
    /// submit → admit → merge (serial or sharded per
    /// `max_subcompactions`) → throttle → complete with the job's I/O
    /// report. The engine runs one compaction at a time
    /// (`compaction_lock`), so admission always succeeds immediately; the
    /// scheduler still enforces and accounts the full policy so its
    /// invariants hold when tests drive it with N jobs.
    fn run_merge_scheduled(&self, prep: &PreparedCompaction) -> StorageResult<MergeResult> {
        let lo = prep
            .inputs
            .iter()
            .map(|t| t.meta().min_key.clone())
            .min()
            .unwrap_or_default();
        let hi = prep
            .inputs
            .iter()
            .map(|t| t.meta().max_key.clone())
            .max()
            .unwrap_or_default();
        let priority = if prep.level == 0 {
            JobPriority::L0Pressure
        } else {
            JobPriority::SizeTriggered
        };
        let job = self.sched.submit(JobSpec {
            level: prep.level,
            target: prep.target,
            lo,
            hi,
            priority,
        });
        let admitted = self.sched.try_dequeue();
        debug_assert!(
            admitted.as_ref().is_some_and(|(id, _)| *id == job),
            "single-compactor engine must admit its own job"
        );
        let result = self.execute_merge(prep);
        match &result {
            Ok(m) => {
                // The throttle paces *wall* bytes: debit input + output and
                // sleep the owed time. Inline mode accounts nothing and
                // never sleeps — its determinism (and the byte-identity
                // battery) must not depend on wall time.
                if self.threaded() {
                    let wait = self
                        .sched
                        .throttle_debit(prep.input_bytes + m.output_bytes);
                    if !wait.is_zero() {
                        std::thread::sleep(wait.min(std::time::Duration::from_secs(1)));
                    }
                }
                self.sched.complete(
                    job,
                    Ok(JobIoReport {
                        input_bytes: prep.input_bytes,
                        output_bytes: m.output_bytes,
                        input_entries: prep.input_entries,
                        entries_written: m.entries_written,
                    }),
                );
            }
            Err(e) => self.sched.complete(job, Err(e.to_string())),
        }
        result
    }

    /// The merge itself: serial `merge_tables` when `max_subcompactions`
    /// is 1 (or no boundary exists), otherwise the sharded path — fanned
    /// out across the worker pool under `Threaded`, executed serially
    /// under `Inline` (same shards, same bytes, no threads). Emits
    /// per-shard `SubcompactionStart`/`End` events around the fan-out.
    fn execute_merge(&self, prep: &PreparedCompaction) -> StorageResult<MergeResult> {
        let boundaries = if self.cfg.max_subcompactions > 1 {
            subcompact::shard_boundaries(&prep.inputs, self.cfg.max_subcompactions)
        } else {
            Vec::new()
        };
        if boundaries.is_empty() {
            // one shard ≡ the legacy serial path, I/O pattern included
            return merge_tables(
                &self.device,
                &self.cfg,
                self.cfg.index,
                prep.bits,
                &prep.inputs,
                prep.drop_tombstones,
            );
        }
        let shards = boundaries.len() + 1;
        let ids: Vec<u64> = (0..shards)
            .map(|_| self.obs.next_subcompaction_id())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            self.obs.event(EventKind::SubcompactionStart {
                id: *id,
                compaction: prep.trace_id,
                shard: i as u32,
                shards: shards as u32,
            });
        }
        let exec = if self.threaded() {
            ShardExec::Pool(&self.bg)
        } else {
            ShardExec::Serial
        };
        let sharded = subcompact::merge_tables_sharded_with(
            &self.device,
            &self.cfg,
            self.cfg.index,
            prep.bits,
            &prep.inputs,
            prep.drop_tombstones,
            &boundaries,
            exec,
        )?;
        for (i, (id, acc)) in ids.iter().zip(&sharded.shards).enumerate() {
            self.obs.event(EventKind::SubcompactionEnd {
                id: *id,
                compaction: prep.trace_id,
                shard: i as u32,
                input_entries: acc.entries_in,
                entries_written: acc.entries_written,
                tombstones_dropped: acc.tombstones_dropped,
                versions_dropped: acc.versions_dropped,
            });
        }
        Ok(sharded.merge)
    }

    /// Deletes files that carry a valid table footer but are referenced by
    /// nothing the engine knows — the stranded outputs of a compaction
    /// (serial or sharded) that crashed before its manifest rewrite.
    /// WAL/value-log/manifest files carry no table footer and are never
    /// touched; a torn table (footer unwritten) is left behind as inert
    /// garbage rather than misclassified. Returns the number deleted.
    fn cleanup_orphan_tables(&self) -> u64 {
        let referenced: std::collections::HashSet<u64> = {
            let inner = self.inner.read();
            let mut r: std::collections::HashSet<u64> =
                inner.version.all_table_ids().into_iter().collect();
            if let Some(w) = &inner.wal {
                r.insert(w.id().0);
            }
            if let Some(w) = &inner.imm_wal {
                r.insert(w.id().0);
            }
            if let Some(v) = &inner.vlog {
                r.insert(v.id().0);
            }
            if let Some(m) = inner.manifest {
                r.insert(m.0);
            }
            r
        };
        let mut files = self.device.live_files();
        files.sort_by_key(|f| f.0);
        let mut deleted = 0u64;
        for f in files {
            if referenced.contains(&f.0) {
                continue;
            }
            let Ok(n) = self.device.len_blocks(f) else { continue };
            if n == 0 {
                continue;
            }
            let Ok(block) = self.device.read(f, n - 1, 1, IoCategory::Misc) else {
                continue;
            };
            let Some((meta_start, meta_len)) = crate::sstable::meta::decode_footer(&block) else {
                continue;
            };
            // bounds sanity so a lucky bit pattern in a non-table file
            // (e.g. raw value bytes) cannot pass as a footer
            if meta_start >= n || meta_len == 0 {
                continue;
            }
            if self.device.delete(f).is_ok() {
                deleted += 1;
            }
        }
        if deleted > 0 {
            self.obs.event(EventKind::RecoveryStep {
                step: "orphans_deleted",
                detail: format!("{deleted} unreferenced table file(s)"),
            });
        }
        deleted
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Point lookup: the newest visible value for `key`. Takes a version
    /// snapshot and probes tables without holding any engine lock.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.get_with(key, |v| v.to_vec())
    }

    /// Point lookup into a caller-owned buffer: `buf` is cleared and
    /// filled with the value when the key is live. Returns whether the
    /// key was found. With a warm block cache this path performs no heap
    /// allocation at all (without key-value separation) — the value bytes
    /// are copied straight from the cached block into `buf`.
    pub fn get_into(&self, key: &[u8], buf: &mut Vec<u8>) -> StorageResult<bool> {
        Ok(self
            .get_with(key, |v| {
                buf.clear();
                buf.extend_from_slice(v);
            })?
            .is_some())
    }

    /// Point lookup through a borrowed view: `f` runs on the value bytes
    /// in place — in the memtable arena or the cached block — and its
    /// result is returned. This is the zero-copy primitive [`DbCore::get`]
    /// and [`DbCore::get_into`] are wrappers over. `f` is called at most
    /// once, and never for a tombstone.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<Option<R>> {
        let start = self.obs.now_ns();
        let out = self.get_with_inner(key, f);
        self.obs
            .get_ns
            .record(self.obs.now_ns().saturating_sub(start));
        out
    }

    fn get_with_inner<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<Option<R>> {
        DbStats::bump(&self.stats.gets);
        self.heat.lock().record(heat_key(key));
        let version = {
            let inner = self.inner.read();
            if let Some(e) = get_buffered(&inner.mem, inner.imm.as_deref(), key) {
                return self.found(e.kind, e.value, |ptr| self.read_pointer(&inner, ptr), f);
            }
            Arc::clone(&inner.version)
        };
        let mut tally = ProbeTally::default();
        let out = version.get_with(key, self.cache.as_deref(), &mut tally, |e| {
            self.found(e.kind, e.value, |ptr| self.read_pointer(&self.inner.read(), ptr), f)
        });
        self.stats.add(&self.stats.runs_probed, tally.runs_probed);
        self.stats.add(&self.stats.range_prunes, tally.range_prunes);
        self.stats.add(&self.stats.filter_prunes, tally.filter_prunes);
        self.stats.add(&self.stats.blocks_examined, tally.blocks_examined);
        out?.unwrap_or(Ok(None))
    }

    /// Serves a point lookup's newest entry: `None` for a tombstone,
    /// else `f` on the resolved value.
    fn found<R>(
        &self,
        kind: ValueKind,
        stored: &[u8],
        read_ptr: impl FnOnce(ValuePointer) -> StorageResult<Vec<u8>>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<Option<R>> {
        if kind == ValueKind::Delete {
            return Ok(None);
        }
        let v = kv_sep::resolve(stored, self.cfg.kv_separation.is_some(), read_ptr)?;
        DbStats::bump(&self.stats.gets_found);
        Ok(Some(f(&v)))
    }

    /// Reads a separated value: through the active value log when the
    /// pointer is into it (its tail may not be on the device yet), else
    /// straight off the device.
    fn read_pointer(&self, inner: &Inner, ptr: ValuePointer) -> StorageResult<Vec<u8>> {
        DbStats::bump(&self.stats.vlog_resolves);
        match &inner.vlog {
            Some(active) if active.id() == ptr.file => active.read(ptr),
            _ => read_pointer_from_device(&self.device, ptr),
        }
    }

    /// Range scan: up to `limit` live entries with `range.start ≤ key <
    /// range.end`, in key order, collected over [`DbCore::scan_with`].
    pub fn scan(&self, range: Range<Vec<u8>>, limit: usize) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(&range.start, Some(&range.end), limit, |k, v| {
            out.push((k.to_vec(), v.to_vec()))
        })?;
        Ok(out)
    }

    /// Streaming range scan through borrowed views, over a consistent
    /// snapshot: calls `f(key, value)` for each live entry with `start ≤
    /// key < end` (`end == None` = to the end of the keyspace), in key
    /// order, up to `limit` entries, and returns how many were visited.
    /// Sources are captured under a brief read lock; table I/O and the
    /// merge run lock-free. The bytes are borrowed from the merge cursor
    /// (cached blocks / memtable copies), so no per-entry `Vec` is built.
    pub fn scan_with(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        f: impl FnMut(&[u8], &[u8]),
    ) -> StorageResult<usize> {
        let t0 = self.obs.now_ns();
        let out = self.scan_with_inner(start, end, limit, f);
        self.obs
            .scan_ns
            .record(self.obs.now_ns().saturating_sub(t0));
        out
    }

    fn scan_with_inner(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        f: impl FnMut(&[u8], &[u8]),
    ) -> StorageResult<usize> {
        DbStats::bump(&self.stats.scans);
        let mut prunes = 0;
        let sources = {
            let inner = self.inner.read();
            scan_sources(
                &inner.mem,
                inner.imm.as_deref(),
                &inner.version,
                start,
                end,
                &self.cache,
                &mut prunes,
            )
        };
        self.stats.add(&self.stats.range_filter_prunes, prunes);
        let n = read_merged(
            sources,
            end,
            limit,
            self.cfg.kv_separation.is_some(),
            |ptr| self.read_pointer(&self.inner.read(), ptr),
            f,
        )?;
        self.stats.add(&self.stats.scan_entries, n as u64);
        Ok(n)
    }

    /// Takes a long-lived point-in-time snapshot. The snapshot holds no
    /// lock: writers and compactions proceed freely, and the snapshot's
    /// files stay alive (deletion is deferred to the last reference)
    /// until it is dropped.
    ///
    /// The memtable is copied (O(buffer size)); with key-value separation
    /// the value-log tail is synced first so pointer reads need no access
    /// to engine internals.
    pub fn snapshot(&self) -> StorageResult<Snapshot> {
        self.snapshot_locked(&mut self.inner.write())
    }

    fn snapshot_locked(&self, inner: &mut Inner) -> StorageResult<Snapshot> {
        if let Some(vlog) = &mut inner.vlog {
            vlog.sync()?;
        }
        Ok(Snapshot {
            mem: inner.mem.clone(),
            imm: inner.imm.clone(),
            version: Arc::clone(&inner.version),
            cache: self.cache.clone(),
            device: Arc::clone(&self.device),
            kv_separation: self.cfg.kv_separation.is_some(),
            pin: SnapshotPin::new(Arc::clone(&self.snapshot_count)),
        })
    }

    // ------------------------------------------------------------------
    // Optimistic transactions (see `crate::txn` for the handle API)
    // ------------------------------------------------------------------

    /// Begins an optimistic transaction on this engine: registers its
    /// snapshot floor in `txn_floors` and captures the snapshot **under
    /// the same lock acquisition**, so every write committed after the
    /// floor is guaranteed to be recorded in `txn_recent` (writers check
    /// `txn_floors` while holding the write lock).
    pub(crate) fn txn_begin(&self) -> StorageResult<(Snapshot, u64)> {
        let mut inner = self.inner.write();
        let snap = self.snapshot_locked(&mut inner)?;
        let snap_seqno = inner.next_seqno - 1;
        *inner.txn_floors.entry(snap_seqno).or_insert(0) += 1;
        drop(inner);
        self.obs.txn_begins.inc();
        self.obs.event(EventKind::TxnBegin { snap_seqno });
        Ok((snap, snap_seqno))
    }

    /// Deregisters a transaction's snapshot floor. When the last live
    /// transaction ends the OCC map is dropped wholesale; otherwise it is
    /// pruned below the oldest surviving floor (entries at or below every
    /// live floor can never produce a conflict), so `txn_recent` is
    /// bounded by the write traffic within the oldest live transaction's
    /// lifetime — not by total history.
    pub(crate) fn txn_end(&self, snap_seqno: u64) {
        let mut inner = self.inner.write();
        if let Some(c) = inner.txn_floors.get_mut(&snap_seqno) {
            *c -= 1;
            if *c == 0 {
                inner.txn_floors.remove(&snap_seqno);
            }
        }
        if inner.txn_floors.is_empty() {
            inner.txn_recent = std::collections::HashMap::new();
        } else if inner.txn_recent.len() > TXN_RECENT_PRUNE_LEN {
            let min = *inner
                .txn_floors
                .keys()
                .next()
                .expect("floors checked non-empty");
            inner.txn_recent.retain(|_, s| *s > min);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Per-level `(runs, bytes, entries)` summary.
    pub fn level_summary(&self) -> Vec<(usize, u64, u64)> {
        let inner = self.inner.read();
        inner
            .version
            .levels
            .iter()
            .map(|l| {
                (
                    l.runs.iter().filter(|r| !r.is_empty()).count(),
                    l.bytes(),
                    l.num_entries(),
                )
            })
            .collect()
    }

    /// Total sorted runs a lookup may probe.
    pub fn total_runs(&self) -> usize {
        self.inner.read().version.total_runs()
    }

    /// Total in-memory filter bits across live tables.
    pub fn total_filter_bits(&self) -> usize {
        let inner = self.inner.read();
        inner
            .version
            .levels
            .iter()
            .flat_map(|l| &l.runs)
            .flat_map(|r| &r.tables)
            .map(|t| t.filter_size_bits())
            .sum()
    }

    /// Total in-memory block-index bits across live tables.
    pub fn total_index_bits(&self) -> usize {
        let inner = self.inner.read();
        inner
            .version
            .levels
            .iter()
            .flat_map(|l| &l.runs)
            .flat_map(|r| &r.tables)
            .map(|t| t.index_size_bits())
            .sum()
    }

    /// Live entries visible to readers (excluding shadowed versions).
    pub fn approximate_entries(&self) -> u64 {
        let inner = self.inner.read();
        inner.version.total_entries()
            + inner.mem.len() as u64
            + inner.imm.as_ref().map_or(0, |m| m.len() as u64)
    }

    /// Suggests a key splitting the data in `(lo, hi)` into two roughly
    /// equal halves by entry count, without reading any data block: the
    /// candidates are table fence pointers (each weighted by its table's
    /// entries-per-block, since one fence stands for one block) plus
    /// memtable keys (weight 1), and the pick is the weighted median.
    /// `None` when the range holds no candidate strictly inside it — an
    /// empty or single-key range cannot be split.
    pub fn suggest_split_key(&self, lo: &[u8], hi: Option<&[u8]>) -> Option<Vec<u8>> {
        let inner = self.inner.read();
        let in_range = |k: &[u8]| k > lo && hi.is_none_or(|h| k < h);
        let mut keys: Vec<(Vec<u8>, u64)> = Vec::new();
        for level in &inner.version.levels {
            for run in &level.runs {
                for t in &run.tables {
                    let m = t.meta();
                    let w = (m.num_entries / m.fences.len().max(1) as u64).max(1);
                    for f in &m.fences {
                        if in_range(f) {
                            keys.push((f.clone(), w));
                        }
                    }
                }
            }
        }
        let hi_bound = match hi {
            Some(h) => Bound::Excluded(h),
            None => Bound::Unbounded,
        };
        for e in inner.mem.range(Bound::Excluded(lo), hi_bound) {
            keys.push((e.key, 1));
        }
        if let Some(imm) = &inner.imm {
            for e in imm.range(Bound::Excluded(lo), hi_bound) {
                keys.push((e.key, 1));
            }
        }
        drop(inner);
        if keys.is_empty() {
            return None;
        }
        keys.sort();
        // collapse duplicates (a key in several sources), summing weights
        let mut merged: Vec<(Vec<u8>, u64)> = Vec::with_capacity(keys.len());
        for (k, w) in keys {
            match merged.last_mut() {
                Some(last) if last.0 == k => last.1 += w,
                _ => merged.push((k, w)),
            }
        }
        let total: u64 = merged.iter().map(|(_, w)| w).sum();
        let mut cum = 0u64;
        for (k, w) in &merged {
            cum += w;
            if cum * 2 >= total {
                return Some(k.clone());
            }
        }
        merged.pop().map(|(k, _)| k)
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    fn bits_for_level(&self, version: &Version, level: usize) -> f64 {
        // Read through the dynamic overlay: a retuned filter budget or
        // allocation strategy applies to the next table build, here.
        let bits_per_key = self.dynamic.bits_per_key().unwrap_or(self.cfg.bits_per_key);
        let allocation = self
            .dynamic
            .filter_allocation()
            .unwrap_or(self.cfg.filter_allocation);
        let size_ratio = self.dynamic.size_ratio().unwrap_or(self.cfg.size_ratio);
        match allocation {
            FilterAllocation::Uniform => bits_per_key,
            FilterAllocation::Monkey => {
                let mut counts = version.entries_per_level();
                if counts.len() <= level {
                    counts.resize(level + 1, 0);
                }
                let total: u64 = counts.iter().sum();
                if total == 0 {
                    return bits_per_key;
                }
                // project sizes for currently-empty levels from the tree's
                // geometry, so a fresh L0 table still receives the high
                // bits/key Monkey assigns small levels
                let last = counts.iter().rposition(|&c| c > 0).unwrap_or(level);
                let bottom = counts[last].max(1);
                let t = size_ratio.max(2) as u64;
                for (i, c) in counts.iter_mut().enumerate() {
                    if *c == 0 {
                        let depth = last.abs_diff(i) as u32;
                        *c = (bottom / t.saturating_pow(depth)).max(1);
                    }
                }
                let budget = bits_per_key * total as f64;
                let alloc = monkey_allocation(&counts, budget);
                alloc
                    .bits_per_key
                    .get(level)
                    .copied()
                    .unwrap_or(bits_per_key)
            }
        }
    }

    /// Builds one L0 table from sorted memtable entries. `version` only
    /// informs the Monkey filter allocation.
    fn build_l0_table(&self, version: &Version, entries: &[InternalEntry]) -> StorageResult<Arc<Table>> {
        let bits = self.bits_for_level(version, 0);
        let mut builder = TableBuilder::new(Arc::clone(&self.device), &self.cfg, bits)?;
        for e in entries {
            builder.add(&e.key, e.seqno, e.kind, &e.value)?;
        }
        let (file, _meta) = builder.finish()?;
        Table::open(file, self.cfg.index)
    }

    /// Flushes the *active* memtable to L0 under the held write guard
    /// (the `Inline` flush, and the tail of an explicit `Threaded` flush).
    fn flush_active_locked(&self, inner: &mut Inner) -> StorageResult<()> {
        if inner.mem.is_empty() {
            return Ok(());
        }
        let entries = inner.mem.drain_sorted();
        debug_assert!(inner.mem.is_empty());
        self.obs.memtable_bytes_gauge.set(0);
        let flush_id = self.obs.next_flush_id();
        let flush_start = self.obs.now_ns();
        self.obs.event(EventKind::FlushStart {
            id: flush_id,
            entries: entries.len() as u64,
        });
        // Separated values referenced by these entries must be durable
        // before the table pointing at them is: once the flush lands, the
        // WAL that could replay the values is deleted.
        if let Some(vlog) = &mut inner.vlog {
            vlog.sync()?;
        }
        let version = Arc::clone(&inner.version);
        let table = self.build_l0_table(&version, &entries)?;
        let output_bytes = table.data_bytes();
        let mut new_version = (*inner.version).clone();
        new_version.ensure_levels(1);
        new_version.levels[0].runs.insert(0, SortedRun::single(table));
        self.install_version(inner, new_version);
        DbStats::bump(&self.stats.flushes);
        self.obs.event(EventKind::FlushEnd {
            id: flush_id,
            entries: entries.len() as u64,
            output_bytes,
            l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
        });
        // Rotate the WAL. Ordering matters for crash safety: the old WAL
        // may only be deleted after the manifest naming the new table (and
        // the new WAL) is durable. Deleting first opens a window where a
        // crash loses the flushed entries — the old manifest survives but
        // the WAL holding its unflushed records is gone.
        let old_wal = if self.cfg.wal {
            let old = inner.wal.take();
            inner.wal = Some(Wal::create(Arc::clone(&self.device))?);
            if let (Some(old), Some(new)) = (&old, &inner.wal) {
                self.obs.event(EventKind::WalRotation {
                    old_wal: old.id().0,
                    new_wal: new.id().0,
                    old_records: old.records(),
                });
            }
            old
        } else {
            None
        };
        self.persist_manifest(inner)?;
        if let Some(old) = old_wal {
            let old_file = old.seal()?;
            old_file.delete()?;
        }
        self.obs
            .flush_ns
            .record(self.obs.now_ns().saturating_sub(flush_start));
        Ok(())
    }

    /// Runs the compaction cascade to quiescence under the held write
    /// guard (the `Inline` path — merges included, deterministically).
    fn maybe_compact_locked(&self, inner: &mut Inner) -> StorageResult<()> {
        // a generous bound: each step strictly reduces pressure, so hitting
        // it means a planner bug, not a big workload
        for _ in 0..10_000 {
            let cfg = self.effective_config();
            let Some(task) = compaction::plan(&inner.version, &cfg) else {
                return Ok(());
            };
            let Some(prep) = self.prepare_compaction(inner, task)? else {
                return Ok(());
            };
            let result = self.run_merge_scheduled(&prep)?;
            self.install_compaction(inner, &prep, result)?;
        }
        Err(StorageError::Corruption(
            "compaction cascade failed to converge".into(),
        ))
    }

    /// Resolves a planned task into concrete inputs against the current
    /// version. Pure bookkeeping — no table I/O. Returns `None` when the
    /// task turns out to be vacuous.
    fn prepare_compaction(
        &self,
        inner: &mut Inner,
        task: CompactionTask,
    ) -> StorageResult<Option<PreparedCompaction>> {
        let version = Arc::clone(&inner.version);
        let level = task.level();
        let target = match task {
            CompactionTask::MergeInPlace { .. } => level,
            _ => level + 1,
        };
        let bits = self.bits_for_level(&version, target);
        let mut inputs: Vec<Arc<Table>> = Vec::new();
        let drop_tombstones;
        let apply;
        match task {
            CompactionTask::MergeIntoNext { .. } => {
                for run in &version.levels[level].runs {
                    inputs.extend(run.tables.iter().cloned());
                }
                let lo = inputs
                    .iter()
                    .map(|t| t.meta().min_key.clone())
                    .min()
                    .unwrap_or_default();
                let hi = inputs
                    .iter()
                    .map(|t| t.meta().max_key.clone())
                    .max()
                    .unwrap_or_default();
                let target_runs = version
                    .levels
                    .get(target)
                    .map(|l| l.runs.clone())
                    .unwrap_or_default();
                if target_runs.len() <= 1 {
                    // a single-run target keeps its non-overlapping tables
                    if let Some(run) = target_runs.first() {
                        for t in &run.tables {
                            if t.meta().max_key.as_slice() < lo.as_slice()
                                || t.meta().min_key.as_slice() > hi.as_slice()
                            {
                                continue;
                            }
                            inputs.push(Arc::clone(t));
                        }
                    }
                } else {
                    // transient multi-run target: fold everything in
                    for run in &target_runs {
                        inputs.extend(run.tables.iter().cloned());
                    }
                }
                drop_tombstones = compaction::may_drop_tombstones(&version, target, true);
                apply = CompactionApply::ReplaceTargetRun;
            }
            CompactionTask::AppendToNext { .. } => {
                for run in &version.levels[level].runs {
                    inputs.extend(run.tables.iter().cloned());
                }
                drop_tombstones = compaction::may_drop_tombstones(&version, target, false)
                    && version.levels.get(target).is_none_or(|l| l.is_empty());
                apply = CompactionApply::AppendRun;
            }
            CompactionTask::MergeInPlace { .. } => {
                for run in &version.levels[level].runs {
                    inputs.extend(run.tables.iter().cloned());
                }
                drop_tombstones = compaction::may_drop_tombstones(&version, level, true);
                apply = CompactionApply::InPlace;
            }
            CompactionTask::PartialIntoNext { .. } => {
                let CompactionGranularity::Partial(picker) = self.cfg.granularity else {
                    return Err(StorageError::Corruption(
                        "partial task without partial granularity".into(),
                    ));
                };
                let run = version.levels[level]
                    .runs
                    .first()
                    .cloned()
                    .unwrap_or_default();
                if run.tables.is_empty() {
                    return Ok(None);
                }
                if inner.rr_cursors.len() <= level {
                    inner.rr_cursors.resize(level + 1, 0);
                }
                let next_run = version
                    .levels
                    .get(target)
                    .and_then(|l| l.runs.first())
                    .cloned();
                let idx = pick_file(picker, &run, next_run.as_ref(), &mut inner.rr_cursors[level]);
                let victim = Arc::clone(&run.tables[idx]);
                let (lo, hi) = (victim.meta().min_key.clone(), victim.meta().max_key.clone());
                inputs.push(victim);
                if let Some(trun) = &next_run {
                    for t in &trun.tables {
                        if t.meta().max_key.as_slice() < lo.as_slice()
                            || t.meta().min_key.as_slice() > hi.as_slice()
                        {
                            continue;
                        }
                        inputs.push(Arc::clone(t));
                    }
                }
                drop_tombstones = compaction::may_drop_tombstones(&version, target, true);
                apply = CompactionApply::ReplaceTargetRun;
            }
        }
        let trace_id = self.obs.next_compaction_id();
        let input_entries: u64 = inputs.iter().map(|t| t.meta().num_entries).sum();
        let input_bytes: u64 = inputs.iter().map(|t| t.data_bytes()).sum();
        self.obs.event(EventKind::CompactionStart {
            id: trace_id,
            level: level as u32,
            target: target as u32,
            input_tables: inputs.len() as u64,
            input_entries,
            input_bytes,
        });
        Ok(Some(PreparedCompaction {
            level,
            target,
            bits,
            inputs,
            drop_tombstones,
            apply,
            trace_id,
            input_entries,
            input_bytes,
            started_ns: self.obs.now_ns(),
        }))
    }

    /// Installs a merge's outputs by *rebasing* onto the current version:
    /// every input table is filtered out wherever it sits, surviving runs
    /// are kept in order, and the outputs are spliced per the task shape.
    /// With no concurrent version changes (the `Inline` path) this is
    /// exactly the direct splice; under `Threaded`, runs flushed to L0
    /// during the merge survive untouched — the single-compactor
    /// invariant (`compaction_lock`) guarantees nothing else moved.
    fn install_compaction(
        &self,
        inner: &mut Inner,
        prep: &PreparedCompaction,
        result: MergeResult,
    ) -> StorageResult<()> {
        let input_ids: std::collections::HashSet<u64> =
            prep.inputs.iter().map(|t| t.id()).collect();
        let cur = &inner.version;
        let mut new_version = Version::new();
        new_version.ensure_levels(cur.levels.len().max(prep.target + 1));
        for (i, level) in cur.levels.iter().enumerate() {
            for run in &level.runs {
                let kept: Vec<Arc<Table>> = run
                    .tables
                    .iter()
                    .filter(|t| !input_ids.contains(&t.id()))
                    .cloned()
                    .collect();
                if !kept.is_empty() {
                    new_version.levels[i].runs.push(SortedRun::from_tables(kept));
                }
            }
        }
        match prep.apply {
            CompactionApply::ReplaceTargetRun => {
                let mut tables: Vec<Arc<Table>> = new_version.levels[prep.target]
                    .runs
                    .drain(..)
                    .flat_map(|r| r.tables)
                    .collect();
                tables.extend(result.tables.iter().cloned());
                tables.sort_by(|a, b| a.meta().min_key.cmp(&b.meta().min_key));
                new_version.levels[prep.target].runs = if tables.is_empty() {
                    Vec::new()
                } else {
                    vec![SortedRun::from_tables(tables)]
                };
            }
            CompactionApply::AppendRun => {
                if !result.tables.is_empty() {
                    new_version.levels[prep.target]
                        .runs
                        .insert(0, SortedRun::from_tables(result.tables.clone()));
                }
            }
            CompactionApply::InPlace => {
                // outputs merge the *oldest* runs of the level, so they go
                // after any runs flushed while the merge ran
                if !result.tables.is_empty() {
                    new_version.levels[prep.level]
                        .runs
                        .push(SortedRun::from_tables(result.tables.clone()));
                }
            }
        }

        // bookkeeping
        DbStats::bump(&self.stats.compactions);
        self.stats
            .add(&self.stats.compaction_entries, result.entries_written);
        self.stats
            .add(&self.stats.tombstones_dropped, result.tombstones_dropped);
        self.stats
            .add(&self.stats.versions_dropped, result.versions_dropped);
        DbStats::record_max(
            &self.stats.largest_compaction_entries,
            result.entries_written,
        );

        self.install_version(inner, new_version);
        self.persist_manifest(inner)?;
        self.obs.event(EventKind::CompactionEnd {
            id: prep.trace_id,
            level: prep.level as u32,
            target: prep.target as u32,
            input_tables: prep.inputs.len() as u64,
            input_entries: prep.input_entries,
            input_bytes: prep.input_bytes,
            output_tables: result.tables.len() as u64,
            entries_written: result.entries_written,
            output_bytes: result.output_bytes,
            tombstones_dropped: result.tombstones_dropped,
            versions_dropped: result.versions_dropped,
        });
        self.obs
            .compaction_ns
            .record(self.obs.now_ns().saturating_sub(prep.started_ns));

        // invalidate cached blocks of consumed tables and mark them
        // obsolete: their files are physically deleted when the last
        // reference (a snapshot or an in-flight iterator) drops
        for t in &prep.inputs {
            if let Some(cache) = &self.cache {
                let max_block = t.meta().data_blocks.len().saturating_sub(1) as u64;
                cache.invalidate_file(t.id(), max_block);
            }
            t.mark_obsolete();
        }

        // Leaper-style prefetch: re-admit hot blocks of the new tables
        if self.cfg.prefetch_after_compaction {
            if let Some(cache) = &self.cache {
                let mut candidates = Vec::new();
                for t in &result.tables {
                    let meta = t.meta();
                    let mut prev_fence: Option<&[u8]> = None;
                    for (i, fence) in meta.fences.iter().enumerate() {
                        let min_key = prev_fence.unwrap_or(meta.min_key.as_slice());
                        candidates.push(PrefetchCandidate {
                            file: t.id(),
                            block: i as u64,
                            min_key: heat_key(min_key),
                            max_key: heat_key(fence),
                        });
                        prev_fence = Some(fence.as_slice());
                    }
                }
                let plan = {
                    let heat = self.heat.lock();
                    plan_prefetch(&heat, &candidates, 0.90, 256)
                };
                for key in plan {
                    if let Some(t) = result.tables.iter().find(|t| t.id() == key.file) {
                        t.read_data_block(key.block as usize, Some(cache))?;
                        DbStats::bump(&self.stats.prefetched_blocks);
                    }
                }
            }
        }
        Ok(())
    }

    fn persist_manifest(&self, inner: &mut Inner) -> StorageResult<()> {
        let state = ManifestState {
            levels: inner
                .version
                .levels
                .iter()
                .map(|l| {
                    l.runs
                        .iter()
                        .map(|r| r.tables.iter().map(|t| t.id()).collect())
                        .collect()
                })
                .collect(),
            wal: inner.wal.as_ref().map_or(0, |w| w.id().0),
            wal_prev: inner.imm_wal.as_ref().map_or(0, |w| w.id().0),
            vlog: inner.vlog.as_ref().map_or(0, |v| v.id().0),
            next_seqno: inner.next_seqno,
            applied_seq: inner.applied_seq,
        };
        inner.manifest = Some(write_manifest(&self.device, &state, inner.manifest)?);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Value-log GC (key-value separation extension)
    // ------------------------------------------------------------------

    /// Garbage-collects the active value log: rewrites live values through
    /// the shared apply step, syncs, and destroys the old log. Returns
    /// `(live_rewritten, dead_dropped)`.
    ///
    /// Refuses to run while snapshots are outstanding: their pointers may
    /// reference the log this call would destroy.
    pub fn gc_value_log(&self) -> StorageResult<(u64, u64)> {
        if self.cfg.kv_separation.is_none() {
            return Ok((0, 0));
        }
        if self.snapshot_count.load(Ordering::Acquire) > 0 {
            return Err(StorageError::Corruption(
                "value-log GC refused: outstanding snapshots reference the log".into(),
            ));
        }
        // swap in a fresh log
        let old = {
            let mut inner = self.inner.write();
            let fresh = ValueLog::create(Arc::clone(&self.device))?;
            let old = inner.vlog.replace(fresh);
            self.persist_manifest(&mut inner)?;
            old
        };
        let Some(old) = old else { return Ok((0, 0)) };
        let mut batch = WriteBatch::new();
        let mut live = 0u64;
        let mut dead = 0u64;
        for (key, value, ptr) in old.scan_all()? {
            // The record is live iff the engine's current raw value still
            // points at it. The check and the rewrite share one hold of
            // the write lock, so a put racing the GC is never overwritten
            // by the stale value.
            let mut inner = self.inner.write();
            let is_live = self
                .raw_stored_value(&inner, &key)?
                .and_then(|raw| decode_value(&raw).and_then(|d| d.err()))
                .is_some_and(|p| p == ptr);
            if !is_live {
                dead += 1;
                continue;
            }
            batch.put(key, value);
            self.apply_locked(&mut inner, &mut batch, WalFraming::Plain)?;
            self.maintain(inner)?;
            live += 1;
        }
        // the rewritten values and the WAL records pointing at them must
        // be durable before the old log, their only other copy, goes
        self.sync()?;
        old.destroy()?;
        Ok((live, dead))
    }

    /// Newest raw (unresolved) engine value for `key`, if any and live.
    fn raw_stored_value(&self, inner: &Inner, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        let live = |kind, stored: &[u8]| (kind == ValueKind::Put).then(|| stored.to_vec());
        if let Some(e) = get_buffered(&inner.mem, inner.imm.as_deref(), key) {
            return Ok(live(e.kind, e.value));
        }
        let mut tally = ProbeTally::default();
        Ok(inner
            .version
            .get_with(key, self.cache.as_deref(), &mut tally, |e| live(e.kind, e.value))?
            .flatten())
    }
}

/// A compaction resolved to concrete inputs, ready to merge. Built under
/// the write lock; the merge itself runs without it.
struct PreparedCompaction {
    level: usize,
    target: usize,
    bits: f64,
    inputs: Vec<Arc<Table>>,
    drop_tombstones: bool,
    apply: CompactionApply,
    /// Trace pairing id (the `CompactionStart` was emitted at prepare
    /// time; `install_compaction` emits the matching end).
    trace_id: u64,
    /// Input accounting captured at prepare time, repeated in the end
    /// event so each event stands alone.
    input_entries: u64,
    input_bytes: u64,
    /// Engine clock at prepare time, for the compaction-latency histogram.
    started_ns: u64,
}

/// How a merge's outputs are spliced back into the version.
enum CompactionApply {
    /// Replace the target level with one run: surviving target tables +
    /// outputs, sorted by key.
    ReplaceTargetRun,
    /// Prepend the outputs as the target level's youngest run (tiering).
    AppendRun,
    /// The outputs replace the level's own merged runs (in-place merge).
    InPlace,
}

impl DbCore {
    /// Stops the worker pool and joins every worker thread (skipping the
    /// current thread, in case a worker itself holds the last reference).
    /// Idempotent: the second caller finds an empty handle list.
    ///
    /// The last user [`Db`] handle calls this from its `Drop` so that
    /// `drop(db)` on the caller's thread always waits for in-flight
    /// background jobs — even when a worker's per-job `Arc` keeps the
    /// `DbCore` itself alive a little longer. Without that wait, a caller
    /// could reopen the device while a background flush is still writing
    /// tables and manifests into it.
    fn shutdown_and_join(&self) {
        self.bg.begin_shutdown();
        let handles = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let me = std::thread::current().id();
        for h in handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

impl Drop for DbCore {
    /// Clean shutdown: stop the worker pool, then pad the WAL tails so
    /// every acknowledged write is on the device. Crash semantics (torn
    /// tails) are exercised by dropping the device instead of the `Db`.
    fn drop(&mut self) {
        self.shutdown_and_join();
        let inner = self.inner.get_mut();
        if let Some(vlog) = &mut inner.vlog {
            let _ = vlog.sync();
        }
        if let Some(wal) = &mut inner.wal {
            let _ = wal.sync();
        }
        if let Some(wal) = &mut inner.imm_wal {
            let _ = wal.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LsmConfig {
        LsmConfig::small_for_tests()
    }

    #[test]
    fn put_get_roundtrip() {
        let db = Db::open_in_memory(small()).unwrap();
        db.put(b"hello".to_vec(), b"world".to_vec()).unwrap();
        assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
        assert_eq!(db.get(b"missing").unwrap(), None);
    }

    #[test]
    fn overwrite_returns_newest() {
        let db = Db::open_in_memory(small()).unwrap();
        db.put(b"k".to_vec(), b"v1".to_vec()).unwrap();
        db.put(b"k".to_vec(), b"v2".to_vec()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn delete_hides_older_versions_across_flushes() {
        let db = Db::open_in_memory(small()).unwrap();
        db.put(b"k".to_vec(), b"v".to_vec()).unwrap();
        db.flush().unwrap();
        db.delete(b"k".to_vec()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
    }

    #[test]
    fn write_batch_is_one_wal_append_and_reads_like_singles() {
        let cfg = LsmConfig {
            wal: true,
            ..small()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        let mut batch = WriteBatch::new();
        for i in 0..20u32 {
            batch.put(format!("bk{i:03}").into_bytes(), format!("bv{i}").into_bytes());
        }
        batch.delete(b"bk003".to_vec());
        batch.put(b"bk004".to_vec(), b"rewritten".to_vec());
        assert_eq!(batch.len(), 22);
        db.write_batch_mut(&mut batch).unwrap();
        assert!(batch.is_empty(), "applying drains the batch");
        let s = db.stats().snapshot();
        assert_eq!(s.wal_appends, 1, "a batch must cost one WAL append");
        assert_eq!(s.write_batches, 1);
        assert_eq!(s.batched_writes, 22);
        assert_eq!(s.puts, 21);
        assert_eq!(s.deletes, 1);
        // in-order application: later ops shadow earlier ones
        assert_eq!(db.get(b"bk003").unwrap(), None);
        assert_eq!(db.get(b"bk004").unwrap(), Some(b"rewritten".to_vec()));
        assert_eq!(db.get(b"bk019").unwrap(), Some(b"bv19".to_vec()));
        // an empty batch is a no-op
        db.write_batch_mut(&mut batch).unwrap();
        assert_eq!(db.stats().snapshot().write_batches, 1);
    }

    #[test]
    fn write_batch_survives_crash_recovery() {
        let cfg = LsmConfig {
            wal: true,
            ..small()
        };
        let device: Arc<dyn StorageDevice> =
            Arc::new(lsm_storage::MemDevice::new(cfg.block_size, Default::default()));
        {
            let db = Db::open(Arc::clone(&device), cfg.clone()).unwrap();
            let mut batch = WriteBatch::new();
            for i in 0..50u32 {
                batch.put(format!("ck{i:03}").into_bytes(), format!("cv{i}").into_bytes());
            }
            db.write_batch_mut(&mut batch).unwrap();
            db.sync().unwrap();
            // drop without flush: recovery must come from the batched WAL
        }
        let db = Db::open(device, cfg).unwrap();
        for i in 0..50u32 {
            assert_eq!(
                db.get(format!("ck{i:03}").as_bytes()).unwrap(),
                Some(format!("cv{i}").into_bytes()),
                "ck{i:03}"
            );
        }
    }

    #[test]
    fn replicated_batches_advance_and_persist_the_watermark() {
        let cfg = LsmConfig {
            wal: true,
            ..small()
        };
        let device: Arc<dyn StorageDevice> =
            Arc::new(lsm_storage::MemDevice::new(cfg.block_size, Default::default()));
        {
            let db = Db::open(Arc::clone(&device), cfg.clone()).unwrap();
            assert_eq!(db.applied_seq(), 0, "fresh engine is not a replica");
            let mut batch = WriteBatch::new();
            batch.put(b"rk1".to_vec(), b"rv1".to_vec());
            db.write_batch_replicated(&mut batch, 1).unwrap();
            assert_eq!(db.applied_seq(), 1);
            // an empty batch (all ops routed to other shards) still moves it
            db.write_batch_replicated(&mut WriteBatch::new(), 2).unwrap();
            assert_eq!(db.applied_seq(), 2);
            // the watermark never regresses on out-of-order maxima
            let mut batch = WriteBatch::new();
            batch.put(b"rk2".to_vec(), b"rv2".to_vec());
            db.write_batch_replicated(&mut batch, 1).unwrap();
            assert_eq!(db.applied_seq(), 2);
            // flush writes a manifest carrying the watermark
            db.flush_all().unwrap();
        }
        let db = Db::open(device, cfg).unwrap();
        assert_eq!(db.applied_seq(), 2, "watermark must survive reopen");
        assert_eq!(db.get(b"rk1").unwrap(), Some(b"rv1".to_vec()));
        assert_eq!(db.get(b"rk2").unwrap(), Some(b"rv2".to_vec()));
    }

    #[test]
    fn write_batch_triggers_flush_when_memtable_fills() {
        let db = Db::open_in_memory(small()).unwrap();
        // several batches, together far past buffer_bytes (4 KiB)
        for b in 0..8u32 {
            let mut batch = WriteBatch::new();
            for i in 0..64u32 {
                let id = b * 64 + i;
                batch.put(format!("fk{id:05}").into_bytes(), vec![b as u8; 32]);
            }
            db.write_batch_mut(&mut batch).unwrap();
        }
        db.wait_background_idle();
        assert!(db.stats().snapshot().flushes > 0, "batches must rotate the memtable");
        assert_eq!(db.get(b"fk00000").unwrap(), Some(vec![0u8; 32]));
        assert_eq!(db.get(b"fk00511").unwrap(), Some(vec![7u8; 32]));
    }

    #[test]
    fn flush_all_quiesces_and_empties_memtables() {
        let db = Db::open_in_memory(small()).unwrap();
        for i in 0..800u32 {
            db.put(format!("q{i:05}").into_bytes(), vec![1u8; 16]).unwrap();
        }
        db.flush_all().unwrap();
        let inner = db.inner.read();
        assert_eq!(inner.mem.bytes(), 0, "active memtable must be empty");
        assert!(inner.imm.is_none(), "immutable slot must be drained");
        drop(inner);
        assert_eq!(db.get(b"q00799").unwrap(), Some(vec![1u8; 16]));
    }

    #[test]
    fn l0_run_count_tracks_gauge() {
        let db = Db::open_in_memory(small()).unwrap();
        assert_eq!(db.l0_run_count(), 0);
        for i in 0..3000u32 {
            db.put(format!("g{i:06}").into_bytes(), vec![0u8; 16]).unwrap();
        }
        db.wait_background_idle();
        // gauge mirrors the installed version's L0 run count
        let inner = db.inner.read();
        let expect = DbCore::count_l0_runs(&inner.version);
        drop(inner);
        assert_eq!(db.l0_run_count(), expect);
    }

    #[test]
    fn many_writes_trigger_flush_and_compaction() {
        let db = Db::open_in_memory(small()).unwrap();
        for i in 0..3000u32 {
            db.put(
                format!("key{i:06}").as_bytes().to_vec(),
                format!("value{i:06}").into_bytes(),
            )
            .unwrap();
        }
        db.wait_background_idle();
        let s = db.stats().snapshot();
        assert!(s.flushes > 0, "no flush happened");
        assert!(s.compactions > 0, "no compaction happened");
        // everything still readable
        for i in (0..3000u32).step_by(113) {
            let key = format!("key{i:06}");
            assert_eq!(
                db.get(key.as_bytes()).unwrap(),
                Some(format!("value{i:06}").into_bytes()),
                "{key}"
            );
        }
    }

    #[test]
    fn clones_share_one_engine() {
        let db = Db::open_in_memory(small()).unwrap();
        let db2 = db.clone();
        db.put(b"a".to_vec(), b"1".to_vec()).unwrap();
        db2.put(b"b".to_vec(), b"2".to_vec()).unwrap();
        assert_eq!(db2.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        drop(db);
        // the engine stays alive through the surviving clone
        assert_eq!(db2.get(b"a").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn handle_is_send_sync_clone() {
        fn assert_handle<T: Send + Sync + Clone>() {}
        assert_handle::<Db>();
    }

    #[test]
    fn threaded_mode_basic_workload() {
        let mut cfg = small();
        cfg.background = BackgroundMode::Threaded;
        let db = Db::open_in_memory(cfg).unwrap();
        for i in 0..3000u32 {
            db.put(
                format!("key{i:06}").as_bytes().to_vec(),
                format!("value{i:06}").into_bytes(),
            )
            .unwrap();
        }
        db.wait_background_idle();
        assert!(db.stats().snapshot().flushes > 0, "no flush happened");
        for i in (0..3000u32).step_by(113) {
            let key = format!("key{i:06}");
            assert_eq!(
                db.get(key.as_bytes()).unwrap(),
                Some(format!("value{i:06}").into_bytes()),
                "{key}"
            );
        }
        let got = db
            .scan(b"key000000".to_vec()..b"key003000".to_vec(), usize::MAX)
            .unwrap();
        assert_eq!(got.len(), 3000);
    }

    #[test]
    fn scan_merges_memtable_and_tables() {
        let db = Db::open_in_memory(small()).unwrap();
        for i in 0..500u32 {
            db.put(format!("key{i:04}").into_bytes(), format!("v{i}").into_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        // overwrite a few in the memtable
        db.put(b"key0100".to_vec(), b"NEW".to_vec()).unwrap();
        db.delete(b"key0101".to_vec()).unwrap();
        let got = db.scan(b"key0099".to_vec()..b"key0103".to_vec(), 100).unwrap();
        let keys: Vec<_> = got.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![b"key0099".to_vec(), b"key0100".to_vec(), b"key0102".to_vec()]
        );
        assert_eq!(got[1].1, b"NEW".to_vec());
    }

    /// Every entry `scan_with` visits over `[start, end)`, owned.
    fn scan_all(db: &Db, start: &[u8], end: Option<&[u8]>) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        let n = db
            .scan_with(start, end, usize::MAX, |k, v| out.push((k.to_vec(), v.to_vec())))
            .unwrap();
        assert_eq!(n, out.len(), "visit count must match the entries fed");
        out
    }

    #[test]
    fn bounded_scan_with_matches_scan() {
        let db = Db::open_in_memory(small()).unwrap();
        for i in 0..800u32 {
            db.put(format!("key{i:04}").into_bytes(), format!("v{i}").into_bytes())
                .unwrap();
        }
        db.delete(b"key0100".to_vec()).unwrap();
        let scanned = db.scan(b"key0050".to_vec()..b"key0150".to_vec(), usize::MAX).unwrap();
        let streamed = scan_all(&db, b"key0050", Some(b"key0150"));
        assert_eq!(scanned, streamed);
        assert_eq!(streamed.len(), 99, "100 keys minus one delete");
    }

    #[test]
    fn open_ended_scan_with_reaches_the_end() {
        let db = Db::open_in_memory(small()).unwrap();
        for i in 0..300u32 {
            db.put(format!("key{i:04}").into_bytes(), b"v".to_vec()).unwrap();
        }
        db.flush().unwrap();
        // keys past any fixed-width "maximum" must still be reached
        db.put(vec![0xFF; 65], b"top".to_vec()).unwrap();
        let got = scan_all(&db, b"key0250", None);
        assert_eq!(got.len(), 51);
        assert_eq!(got.last().unwrap(), &(vec![0xFF; 65], b"top".to_vec()));
        let snap = db.snapshot().unwrap();
        let mut n = 0;
        snap.scan_with(b"key0250", None, usize::MAX, |_, _| n += 1).unwrap();
        assert_eq!(n, 51, "snapshot open-ended scan");
    }

    #[test]
    fn inverted_and_empty_ranges_are_empty_not_panicking() {
        let db = Db::open_in_memory(small()).unwrap();
        for i in 0..100u32 {
            db.put(format!("k{i:03}").into_bytes(), b"v".to_vec()).unwrap();
        }
        db.flush().unwrap();
        assert!(db.scan(b"k050".to_vec()..b"k010".to_vec(), 10).unwrap().is_empty());
        assert!(db.scan(b"k050".to_vec()..b"k050".to_vec(), 10).unwrap().is_empty());
        assert!(scan_all(&db, b"k050", Some(b"k010")).is_empty());
        assert!(scan_all(&db, b"k050", Some(b"k050")).is_empty());
        assert!(scan_all(&db, b"z", None).is_empty(), "start past every key");
        assert_eq!(db.scan_with(b"k000", None, 0, |_, _| {}).unwrap(), 0, "zero limit");
        let snap = db.snapshot().unwrap();
        assert_eq!(snap.scan_with(b"z", Some(b"a"), 10, |_, _| {}).unwrap(), 0);
        assert_eq!(snap.scan_with(b"k050", Some(b"k050"), 10, |_, _| {}).unwrap(), 0);
    }

    #[test]
    fn scan_respects_limit_and_order() {
        let db = Db::open_in_memory(small()).unwrap();
        for i in (0..1000u32).rev() {
            db.put(format!("key{i:04}").into_bytes(), b"v".to_vec()).unwrap();
        }
        let got = db.scan(b"key0000".to_vec()..b"key9999".to_vec(), 17).unwrap();
        assert_eq!(got.len(), 17);
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert_eq!(got[0].0, b"key0000".to_vec());
    }
}
