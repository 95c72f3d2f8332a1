//! Engine-level operation statistics.
//!
//! Complements the storage layer's [`lsm_storage::IoStats`]: the device
//! counts blocks; these counters attribute them to engine behaviour
//! (filter prunes, runs probed per lookup, compaction work), which is what
//! the experiment tables report.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Atomic engine counters; cheap to share.
        #[derive(Debug, Default)]
        pub struct DbStats {
            $($(#[$doc])* pub(crate) $name: AtomicU64,)+
        }

        /// Point-in-time copy of [`DbStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct DbStatsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl DbStats {
            /// Snapshots every counter.
            pub fn snapshot(&self) -> DbStatsSnapshot {
                DbStatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Zeroes every counter.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        impl DbStatsSnapshot {
            /// Every counter as a `(name, value)` pair, in declaration
            /// order (the metrics exporter re-sorts by name).
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }

        // the workspace-wide saturating snapshot delta
        lsm_obs::impl_delta_since!(DbStatsSnapshot { $($name),+ });
    };
}

counters! {
    /// Put operations accepted.
    puts,
    /// Delete operations accepted.
    deletes,
    /// Get operations served.
    gets,
    /// Gets that found a live value.
    gets_found,
    /// Scan operations served.
    scans,
    /// Entries returned by scans.
    scan_entries,
    /// User bytes ingested (keys + values of puts).
    bytes_ingested,
    /// Memtable flushes.
    flushes,
    /// Compactions executed.
    compactions,
    /// Entries written by compactions (the write-amplification driver).
    compaction_entries,
    /// Tombstones dropped by last-level compaction GC.
    tombstones_dropped,
    /// Obsolete versions dropped during merges.
    versions_dropped,
    /// Sorted runs probed by point lookups.
    runs_probed,
    /// Probes answered negatively by a point filter (no data I/O).
    filter_prunes,
    /// Data blocks examined by point lookups.
    blocks_examined,
    /// Lookups pruned by table key ranges (no filter probe needed).
    range_prunes,
    /// Tables skipped by range filters during scans.
    range_filter_prunes,
    /// Blocks re-admitted by post-compaction prefetch.
    prefetched_blocks,
    /// Values written to the value log (key-value separation).
    vlog_values,
    /// Value-log pointer resolutions on reads.
    vlog_resolves,
    /// Entries moved by the single largest compaction (tail-latency proxy:
    /// synchronous maintenance stalls the write path for this long).
    largest_compaction_entries,
    /// Logical WAL appends issued (one per single write, one per
    /// group-commit batch — the denominator of the batching win).
    wal_appends,
    /// `write_batch_mut`/`write_batch_replicated` calls accepted.
    write_batches,
    /// Individual operations carried inside those calls.
    batched_writes,
}

impl DbStats {
    pub(crate) fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_max(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }
}

impl DbStatsSnapshot {
    /// Average sorted runs probed per get.
    pub fn runs_per_get(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.runs_probed as f64 / self.gets as f64
        }
    }

    /// Average data blocks examined per get.
    pub fn blocks_per_get(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.blocks_examined as f64 / self.gets as f64
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = DbStats::default();
        DbStats::bump(&s.puts);
        DbStats::bump(&s.puts);
        s.add(&s.bytes_ingested, 100);
        let snap = s.snapshot();
        assert_eq!(snap.puts, 2);
        assert_eq!(snap.bytes_ingested, 100);
        s.reset();
        assert_eq!(s.snapshot().puts, 0);
    }

    #[test]
    fn derived_rates() {
        let snap = DbStatsSnapshot {
            gets: 10,
            runs_probed: 25,
            blocks_examined: 12,
            ..Default::default()
        };
        assert!((snap.runs_per_get() - 2.5).abs() < 1e-12);
        assert!((snap.blocks_per_get() - 1.2).abs() < 1e-12);
        assert_eq!(DbStatsSnapshot::default().runs_per_get(), 0.0);
    }

    #[test]
    fn delta() {
        let a = DbStatsSnapshot {
            gets: 5,
            puts: 2,
            ..Default::default()
        };
        let b = DbStatsSnapshot {
            gets: 9,
            puts: 2,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.gets, 4);
        assert_eq!(d.puts, 0);
    }
}
