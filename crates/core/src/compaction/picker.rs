//! File-picking policies for partial compaction (tutorial Module I.2:
//! "the design decision on which file(s) to compact affects ingestion
//! performance" — Sarkar et al.'s data-movement-policy primitive).

use crate::config::FilePicker;
use crate::version::SortedRun;

/// Picks the index of the table in `run` that the next partial compaction
/// should move into `next_run`.
///
/// * `RoundRobin` rotates `cursor` through the run (LevelDB's key cursor).
/// * `MinOverlap` minimizes bytes of `next_run` that must be rewritten.
/// * `Coldest` picks the least-recently-accessed table.
/// * `Oldest` picks the smallest table id (oldest data first).
/// * `MostTombstones` picks the most tombstone-dense table (Lethe-style
///   delete-aware compaction: deletes reach the last level sooner, so
///   tombstone GC reclaims their space earlier).
pub fn pick_file(
    picker: FilePicker,
    run: &SortedRun,
    next_run: Option<&SortedRun>,
    cursor: &mut usize,
) -> usize {
    debug_assert!(!run.tables.is_empty());
    match picker {
        FilePicker::RoundRobin => {
            let idx = *cursor % run.tables.len();
            *cursor = cursor.wrapping_add(1);
            idx
        }
        FilePicker::MinOverlap => (0..run.tables.len())
            .min_by_key(|&i| {
                let t = &run.tables[i];
                match next_run {
                    None => 0,
                    Some(next) => next
                        .overlapping(&t.meta().min_key, Some(&t.meta().max_key))
                        .iter()
                        .map(|o| o.data_bytes())
                        .sum::<u64>(),
                }
            })
            .unwrap_or(0),
        FilePicker::Coldest => (0..run.tables.len())
            .min_by_key(|&i| run.tables[i].accesses())
            .unwrap_or(0),
        FilePicker::Oldest => (0..run.tables.len())
            .min_by_key(|&i| run.tables[i].id())
            .unwrap_or(0),
        FilePicker::MostTombstones => (0..run.tables.len())
            .max_by_key(|&i| {
                let m = run.tables[i].meta();
                // tombstone density in parts-per-million, tie-broken by age
                let density = m.num_tombstones * 1_000_000 / m.num_entries.max(1);
                (density, u64::MAX - run.tables[i].id())
            })
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::entry::ValueKind;
    use crate::sstable::{Table, TableBuilder};
    use lsm_index::IndexKind;
    use lsm_storage::{DeviceProfile, MemDevice, StorageDevice};
    use std::sync::Arc;

    /// Tables share one device so ids are ordered by creation.
    fn tables_on(dev: &Arc<MemDevice>, ranges: &[std::ops::Range<usize>]) -> Vec<Arc<Table>> {
        let cfg = LsmConfig {
            block_size: 512,
            ..LsmConfig::small_for_tests()
        };
        ranges
            .iter()
            .map(|r| {
                let dyn_dev: Arc<dyn StorageDevice> = dev.clone();
                let mut b = TableBuilder::new(dyn_dev, &cfg, 10.0).unwrap();
                for i in r.clone() {
                    b.add(format!("key{i:06}").as_bytes(), i as u64, ValueKind::Put, &[0u8; 32])
                        .unwrap();
                }
                let (f, _) = b.finish().unwrap();
                Table::open(f, IndexKind::Fence).unwrap()
            })
            .collect()
    }

    fn dev() -> Arc<MemDevice> {
        Arc::new(MemDevice::new(512, DeviceProfile::free()))
    }

    #[test]
    fn round_robin_rotates() {
        let d = dev();
        let run = SortedRun::from_tables(tables_on(&d, &[0..10, 20..30, 40..50]));
        let mut cursor = 0;
        let picks: Vec<usize> = (0..6)
            .map(|_| pick_file(FilePicker::RoundRobin, &run, None, &mut cursor))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn min_overlap_prefers_gap_files() {
        let d = dev();
        let run = SortedRun::from_tables(tables_on(&d, &[0..100, 200..300]));
        // next level covers only keys 0..100 heavily
        let next = SortedRun::from_tables(tables_on(&d, std::slice::from_ref(&(0..150))));
        let mut cursor = 0;
        let pick = pick_file(FilePicker::MinOverlap, &run, Some(&next), &mut cursor);
        assert_eq!(pick, 1, "file 200..300 has zero overlap");
    }

    #[test]
    fn min_overlap_without_next_run_picks_first() {
        let d = dev();
        let run = SortedRun::from_tables(tables_on(&d, &[0..10, 20..30]));
        let mut cursor = 0;
        assert_eq!(pick_file(FilePicker::MinOverlap, &run, None, &mut cursor), 0);
    }

    #[test]
    fn coldest_picks_least_accessed() {
        let d = dev();
        let run = SortedRun::from_tables(tables_on(&d, &[0..10, 20..30, 40..50]));
        // heat tables 0 and 2
        run.tables[0].get_with(b"key000001", None, |_| ()).unwrap();
        run.tables[2].get_with(b"key000041", None, |_| ()).unwrap();
        run.tables[2].get_with(b"key000042", None, |_| ()).unwrap();
        let mut cursor = 0;
        assert_eq!(pick_file(FilePicker::Coldest, &run, None, &mut cursor), 1);
    }

    #[test]
    fn most_tombstones_picks_delete_dense_file() {
        let d = dev();
        let cfg = LsmConfig {
            block_size: 512,
            ..LsmConfig::small_for_tests()
        };
        // one ordinary table, one tombstone-dense table
        let mk = |range: std::ops::Range<usize>, tombstones: bool| {
            let dyn_dev: Arc<dyn StorageDevice> = d.clone();
            let mut b = TableBuilder::new(dyn_dev, &cfg, 10.0).unwrap();
            for i in range {
                let kind = if tombstones && i % 2 == 0 {
                    ValueKind::Delete
                } else {
                    ValueKind::Put
                };
                b.add(format!("key{i:06}").as_bytes(), i as u64, kind, &[0u8; 16])
                    .unwrap();
            }
            let (f, _) = b.finish().unwrap();
            Table::open(f, IndexKind::Fence).unwrap()
        };
        let run = SortedRun::from_tables(vec![mk(0..50, false), mk(100..150, true)]);
        let mut cursor = 0;
        assert_eq!(
            pick_file(FilePicker::MostTombstones, &run, None, &mut cursor),
            1
        );
    }

    #[test]
    fn oldest_picks_lowest_id() {
        let d = dev();
        let run = SortedRun::from_tables(tables_on(&d, &[0..10, 20..30]));
        let mut cursor = 0;
        let pick = pick_file(FilePicker::Oldest, &run, None, &mut cursor);
        assert_eq!(run.tables[pick].id(), run.tables.iter().map(|t| t.id()).min().unwrap());
    }
}
