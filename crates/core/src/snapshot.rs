//! Long-lived snapshots (tutorial Module I.1: "a scan operates over a
//! version (or snapshot) of the data — the collection of files that were
//! active and live at the time the scan began").
//!
//! A [`Snapshot`] pins a memtable copy and a [`Version`]; the `Arc`ed
//! tables keep their files alive even after compactions supersede them
//! (physical deletion happens when the last reference drops), so a
//! snapshot stays readable for as long as it is held, without blocking
//! writers. It reads through the engine's own level walk, merge-source
//! builder, read loop, and value resolver.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lsm_cache::ShardedCache;
use lsm_storage::{Block, StorageDevice, StorageResult};

use crate::entry::ValueKind;
use crate::iter::{read_merged, scan_sources};
use crate::kv_sep::{self, read_pointer_from_device};
use crate::memtable::{get_buffered, Memtable};
use crate::version::{ProbeTally, Version};

/// An immutable point-in-time view of the database.
pub struct Snapshot {
    pub(crate) mem: Memtable,
    /// Frozen memtable awaiting flush at snapshot time (`Threaded` mode);
    /// older than `mem`, younger than every sorted run.
    pub(crate) imm: Option<Arc<Memtable>>,
    pub(crate) version: Arc<Version>,
    pub(crate) cache: Option<Arc<ShardedCache<Block>>>,
    pub(crate) device: Arc<dyn StorageDevice>,
    pub(crate) kv_separation: bool,
    /// Keeps the engine's snapshot count accurate; value-log GC refuses to
    /// run while snapshots are outstanding (their pointers reference logs
    /// GC would destroy). Held purely for its `Drop`.
    #[allow(dead_code)]
    pub(crate) pin: SnapshotPin,
}

/// RAII pin on the engine's outstanding-snapshot counter.
pub(crate) struct SnapshotPin {
    pub(crate) counter: Arc<AtomicUsize>,
}

impl SnapshotPin {
    pub(crate) fn new(counter: Arc<AtomicUsize>) -> Self {
        counter.fetch_add(1, Ordering::AcqRel);
        SnapshotPin { counter }
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Snapshot {
    /// User bytes of a stored entry; `None` for a tombstone.
    fn value_of(&self, kind: ValueKind, stored: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        if kind == ValueKind::Delete {
            return Ok(None);
        }
        let v = kv_sep::resolve(stored, self.kv_separation, |ptr| {
            read_pointer_from_device(&self.device, ptr)
        })?;
        Ok(Some(v.into_owned()))
    }

    /// Point lookup against the snapshot.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        if let Some(e) = get_buffered(&self.mem, self.imm.as_deref(), key) {
            return self.value_of(e.kind, e.value);
        }
        let mut tally = ProbeTally::default();
        self.version
            .get_with(key, self.cache.as_deref(), &mut tally, |e| {
                self.value_of(e.kind, e.value)
            })?
            .unwrap_or(Ok(None))
    }

    /// Range scan against the snapshot through borrowed views: calls
    /// `f(key, value)` for each live entry with `start ≤ key < end`
    /// (`end == None` = to the end of the keyspace), in key order, up to
    /// `limit` entries, and returns how many were visited.
    pub fn scan_with(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        f: impl FnMut(&[u8], &[u8]),
    ) -> StorageResult<usize> {
        let sources = scan_sources(
            &self.mem,
            self.imm.as_deref(),
            &self.version,
            start,
            end,
            &self.cache,
            &mut 0,
        );
        read_merged(
            sources,
            end,
            limit,
            self.kv_separation,
            |ptr| read_pointer_from_device(&self.device, ptr),
            f,
        )
    }

    /// Number of entries visible to the snapshot (approximate: shadowed
    /// versions across runs counted once per run).
    pub fn approximate_entries(&self) -> u64 {
        self.version.total_entries()
            + self.mem.len() as u64
            + self.imm.as_ref().map_or(0, |m| m.len() as u64)
    }
}
