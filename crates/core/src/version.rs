//! Versions: immutable snapshots of the tree's storage layout.
//!
//! A [`Version`] is the list of levels; each level holds sorted runs
//! (youngest first); each [`SortedRun`] is a list of key-disjoint tables.
//! Leveled layouts keep one (partitioned) run per level; tiered layouts
//! accumulate up to `T-1`. Versions are copy-on-write: flush and
//! compaction build a new `Version` and swap it in atomically, so readers
//! and scans keep a consistent view — the "snapshot" the tutorial's scan
//! semantics require.

use std::sync::Arc;

use lsm_cache::ShardedCache;
use lsm_storage::{Block, StorageResult};

use crate::sstable::{EntryRef, Table};

/// A sorted run: tables with pairwise-disjoint key ranges, in key order.
#[derive(Clone, Default)]
pub struct SortedRun {
    /// The run's tables, ascending by key range.
    pub tables: Vec<Arc<Table>>,
}

impl SortedRun {
    /// A run of one table.
    pub fn single(table: Arc<Table>) -> Self {
        SortedRun {
            tables: vec![table],
        }
    }

    /// A run from key-ordered tables.
    pub fn from_tables(tables: Vec<Arc<Table>>) -> Self {
        debug_assert!(
            tables
                .windows(2)
                .all(|w| w[0].meta().max_key < w[1].meta().min_key),
            "run tables must be disjoint and ordered"
        );
        SortedRun { tables }
    }

    /// Smallest key in the run.
    pub fn min_key(&self) -> Option<&[u8]> {
        self.tables.first().map(|t| t.meta().min_key.as_slice())
    }

    /// Largest key in the run.
    pub fn max_key(&self) -> Option<&[u8]> {
        self.tables.last().map(|t| t.meta().max_key.as_slice())
    }

    /// Total entries across tables.
    pub fn num_entries(&self) -> u64 {
        self.tables.iter().map(|t| t.meta().num_entries).sum()
    }

    /// Approximate bytes across tables.
    pub fn bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.data_bytes()).sum()
    }

    /// The table that may contain `key` (tables are disjoint, so at most
    /// one).
    pub fn table_for(&self, key: &[u8]) -> Option<&Arc<Table>> {
        let idx = self
            .tables
            .partition_point(|t| t.meta().max_key.as_slice() < key);
        let t = self.tables.get(idx)?;
        t.meta().key_in_range(key).then_some(t)
    }

    /// Tables whose key range intersects `[lo, hi]` (inclusive; `None`
    /// = unbounded).
    pub fn overlapping(&self, lo: &[u8], hi: Option<&[u8]>) -> &[Arc<Table>] {
        let start = self
            .tables
            .partition_point(|t| t.meta().max_key.as_slice() < lo);
        let end = hi.map_or(self.tables.len(), |hi| {
            self.tables
                .partition_point(|t| t.meta().min_key.as_slice() <= hi)
        });
        &self.tables[start.min(end)..end]
    }

    /// Whether the run holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// One level of the tree.
#[derive(Clone, Default)]
pub struct Level {
    /// Sorted runs, youngest first.
    pub runs: Vec<SortedRun>,
}

impl Level {
    /// Total bytes across runs.
    pub fn bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.bytes()).sum()
    }

    /// Total entries across runs.
    pub fn num_entries(&self) -> u64 {
        self.runs.iter().map(|r| r.num_entries()).sum()
    }

    /// Whether the level holds no data.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(|r| r.is_empty())
    }
}

/// What one point lookup's level walk cost — the engine adds it to its
/// counters; a snapshot read drops it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeTally {
    /// Runs whose key range covered the key, so a table was probed.
    pub runs_probed: u64,
    /// Runs skipped because no table's key range covers the key.
    pub range_prunes: u64,
    /// Probed tables whose point filter answered "absent".
    pub filter_prunes: u64,
    /// Data blocks read (cache hits included).
    pub blocks_examined: u64,
}

/// An immutable snapshot of the storage layout.
#[derive(Clone, Default)]
pub struct Version {
    /// Levels, level 0 (youngest) first. May contain empty trailing levels.
    pub levels: Vec<Level>,
}

impl Version {
    /// Empty tree.
    pub fn new() -> Self {
        Version::default()
    }

    /// Index of the deepest non-empty level, if any.
    pub fn last_occupied_level(&self) -> Option<usize> {
        self.levels.iter().rposition(|l| !l.is_empty())
    }

    /// Number of levels with data.
    pub fn occupied_levels(&self) -> usize {
        self.last_occupied_level().map_or(0, |i| i + 1)
    }

    /// Total sorted runs (the quantity lookups probe).
    pub fn total_runs(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.runs.iter().filter(|r| !r.is_empty()).count())
            .sum()
    }

    /// Total entries stored.
    pub fn total_entries(&self) -> u64 {
        self.levels.iter().map(|l| l.num_entries()).sum()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.bytes()).sum()
    }

    /// Per-level entry counts (for Monkey allocation), level 0 first;
    /// empty levels report 0.
    pub fn entries_per_level(&self) -> Vec<u64> {
        self.levels.iter().map(|l| l.num_entries()).collect()
    }

    /// Every table id referenced by this version.
    pub fn all_table_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for l in &self.levels {
            for r in &l.runs {
                for t in &r.tables {
                    ids.push(t.id());
                }
            }
        }
        ids
    }

    /// The point-lookup level walk: probes every run youngest first (at
    /// most one table per run, by disjointness) and stops at the first
    /// that holds `key`. `f` runs at most once, on that newest entry —
    /// a tombstone included — while its block is pinned, and its result
    /// is returned. The walk's cost accumulates into `tally`, also when
    /// a probe fails.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        cache: Option<&ShardedCache<Block>>,
        tally: &mut ProbeTally,
        f: impl FnOnce(EntryRef<'_>) -> R,
    ) -> StorageResult<Option<R>> {
        let mut f = Some(f);
        for run in self.levels.iter().flat_map(|l| &l.runs) {
            let Some(table) = run.table_for(key) else {
                tally.range_prunes += 1;
                continue;
            };
            tally.runs_probed += 1;
            let (hit, probe) = table.get_with(key, cache, |e| (f.take().unwrap())(e))?;
            tally.filter_prunes += probe.filter_pruned as u64;
            tally.blocks_examined += probe.blocks_examined as u64;
            if hit.is_some() {
                return Ok(hit);
            }
        }
        Ok(None)
    }

    /// Ensures `levels` has at least `n` entries.
    pub fn ensure_levels(&mut self, n: usize) {
        while self.levels.len() < n {
            self.levels.push(Level::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::entry::ValueKind;
    use crate::sstable::TableBuilder;
    use lsm_index::IndexKind;
    use lsm_storage::{DeviceProfile, MemDevice, StorageDevice};

    fn table(range: std::ops::Range<usize>) -> Arc<Table> {
        let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let cfg = LsmConfig {
            block_size: 512,
            ..LsmConfig::small_for_tests()
        };
        let mut b = TableBuilder::new(dev, &cfg, 10.0).unwrap();
        for i in range {
            b.add(format!("key{i:06}").as_bytes(), i as u64, ValueKind::Put, b"v")
                .unwrap();
        }
        let (file, _) = b.finish().unwrap();
        Table::open(file, IndexKind::Fence).unwrap()
    }

    #[test]
    fn run_table_for_uses_disjointness() {
        let run = SortedRun::from_tables(vec![table(0..100), table(200..300), table(400..500)]);
        assert!(run.table_for(b"key000050").is_some());
        assert!(run.table_for(b"key000150").is_none(), "gap between tables");
        assert!(run.table_for(b"key000250").is_some());
        assert!(run.table_for(b"key999999").is_none());
        assert_eq!(run.min_key().unwrap(), b"key000000");
        assert_eq!(run.max_key().unwrap(), b"key000499");
    }

    #[test]
    fn run_overlapping_slices() {
        let run = SortedRun::from_tables(vec![table(0..100), table(200..300), table(400..500)]);
        assert_eq!(run.overlapping(b"key000050", Some(b"key000250")).len(), 2);
        assert_eq!(run.overlapping(b"key000100x", Some(b"key000150")).len(), 0);
        assert_eq!(run.overlapping(b"", Some(b"zzz")).len(), 3);
        assert_eq!(run.overlapping(b"key000400", Some(b"key000400")).len(), 1);
        assert_eq!(run.overlapping(b"key000250", None).len(), 2);
    }

    #[test]
    fn version_accounting() {
        let mut v = Version::new();
        v.ensure_levels(3);
        v.levels[0].runs.push(SortedRun::single(table(0..100)));
        v.levels[0].runs.push(SortedRun::single(table(100..200)));
        v.levels[2].runs.push(SortedRun::single(table(0..500)));
        assert_eq!(v.occupied_levels(), 3);
        assert_eq!(v.last_occupied_level(), Some(2));
        assert_eq!(v.total_runs(), 3);
        assert_eq!(v.total_entries(), 700);
        assert_eq!(v.entries_per_level(), vec![200, 0, 500]);
        assert_eq!(v.all_table_ids().len(), 3);
        assert!(v.levels[1].is_empty());
    }

    #[test]
    fn empty_version() {
        let v = Version::new();
        assert_eq!(v.occupied_levels(), 0);
        assert_eq!(v.last_occupied_level(), None);
        assert_eq!(v.total_runs(), 0);
        assert_eq!(v.total_bytes(), 0);
    }

    #[test]
    fn clone_is_cheap_snapshot() {
        let mut v = Version::new();
        v.ensure_levels(1);
        v.levels[0].runs.push(SortedRun::single(table(0..50)));
        let snap = v.clone();
        v.levels[0].runs.clear();
        assert_eq!(snap.total_entries(), 50, "snapshot unaffected by mutation");
        assert_eq!(v.total_entries(), 0);
    }
}
