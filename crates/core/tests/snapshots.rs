//! Snapshot isolation: a snapshot's view never changes, no matter how
//! many writes, flushes, and compactions happen after it — including
//! compactions that physically supersede every file the snapshot reads.

use std::collections::BTreeMap;

use lsm_core::config::KvSeparation;
use lsm_core::{Db, LsmConfig, MergeLayout, RangeFilterKind, Snapshot};

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// Every entry a snapshot's `scan_with` visits, owned.
fn snap_scan(snap: &Snapshot, start: &[u8], end: Option<&[u8]>, limit: usize) -> Entries {
    let mut out = Vec::new();
    let n = snap
        .scan_with(start, end, limit, |k, v| out.push((k.to_vec(), v.to_vec())))
        .unwrap();
    assert_eq!(n, out.len());
    out
}

/// Every entry the live engine's `scan_with` visits, owned.
fn live_scan(db: &Db, start: &[u8], end: Option<&[u8]>, limit: usize) -> Entries {
    let mut out = Vec::new();
    let n = db
        .scan_with(start, end, limit, |k, v| out.push((k.to_vec(), v.to_vec())))
        .unwrap();
    assert_eq!(n, out.len());
    out
}

/// The oracle's answer to a `[start, end)` scan of at most `limit`.
fn oracle_scan(
    oracle: &BTreeMap<Vec<u8>, Vec<u8>>,
    start: &[u8],
    end: Option<&[u8]>,
    limit: usize,
) -> Entries {
    oracle
        .range(start.to_vec()..)
        .take_while(|(k, _)| end.is_none_or(|e| k.as_slice() < e))
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

#[test]
fn snapshot_is_isolated_from_later_writes() {
    let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
    for i in 0..500u32 {
        db.put(key(i), format!("v1-{i}").into_bytes()).unwrap();
    }
    let snap = db.snapshot().unwrap();
    // overwrite, delete, and add new keys afterwards
    for i in 0..500u32 {
        db.put(key(i), format!("v2-{i}").into_bytes()).unwrap();
    }
    for i in (0..500u32).step_by(3) {
        db.delete(key(i)).unwrap();
    }
    for i in 500..800u32 {
        db.put(key(i), b"new".to_vec()).unwrap();
    }
    // the snapshot still sees exactly the v1 state
    for i in (0..500u32).step_by(7) {
        assert_eq!(
            snap.get(&key(i)).unwrap(),
            Some(format!("v1-{i}").into_bytes()),
            "key {i}"
        );
    }
    assert_eq!(snap.get(&key(600)).unwrap(), None, "later insert visible");
    let scanned = snap_scan(&snap, &key(0), Some(&key(1000)), usize::MAX);
    assert_eq!(scanned.len(), 500);
    assert_eq!(scanned[0].1, b"v1-0".to_vec());
    // while the live view moved on
    assert_eq!(db.get(&key(1)).unwrap(), Some(b"v2-1".to_vec()));
    assert_eq!(db.get(&key(0)).unwrap(), None);
}

#[test]
fn snapshot_survives_full_compaction_of_its_files() {
    let db = Db::open_in_memory(LsmConfig {
        layout: MergeLayout::Leveled,
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    for i in 0..2000u32 {
        db.put(key(i), format!("old-{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    let snap = db.snapshot().unwrap();
    let files_before = db.device().live_files().len();
    // rewrite everything and major-compact: every file the snapshot uses
    // is superseded
    for i in 0..2000u32 {
        db.put(key(i), format!("new-{i}").into_bytes()).unwrap();
    }
    db.major_compact().unwrap();
    // snapshot reads still work, off the superseded (still-alive) files
    for i in (0..2000u32).step_by(97) {
        assert_eq!(
            snap.get(&key(i)).unwrap(),
            Some(format!("old-{i}").into_bytes()),
            "key {i} after compaction"
        );
    }
    let scanned = snap_scan(&snap, &key(100), Some(&key(120)), 100);
    assert_eq!(scanned.len(), 20);
    assert!(scanned.iter().all(|(_, v)| v.starts_with(b"old-")));
    // dropping the snapshot releases the superseded files
    drop(snap);
    let files_after = db.device().live_files().len();
    assert!(
        files_after < files_before,
        "superseded files not reclaimed: {files_after} vs {files_before}"
    );
    // live view unaffected
    assert_eq!(db.get(&key(5)).unwrap(), Some(b"new-5".to_vec()));
}

#[test]
fn snapshot_resolves_separated_values_without_the_engine() {
    let db = Db::open_in_memory(LsmConfig {
        kv_separation: Some(KvSeparation {
            min_value_bytes: 64,
        }),
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    let big = vec![0x5A; 300];
    for i in 0..100u32 {
        db.put(key(i), big.clone()).unwrap();
    }
    let snap = db.snapshot().unwrap();
    // churn the live engine
    for i in 0..100u32 {
        db.put(key(i), vec![0xB6; 300]).unwrap();
    }
    // value-log GC must refuse while the snapshot is alive…
    assert!(db.gc_value_log().is_err(), "GC must refuse with live snapshots");
    for i in (0..100u32).step_by(9) {
        assert_eq!(snap.get(&key(i)).unwrap(), Some(big.clone()), "key {i}");
    }
    // …and proceed once it drops
    drop(snap);
    let (live, dead) = db.gc_value_log().unwrap();
    assert!(live + dead > 0);
    assert_eq!(db.get(&key(3)).unwrap(), Some(vec![0xB6; 300]));
}

#[test]
fn txn_reads_consistently_across_rotation_and_compaction() {
    // small buffer: the churn below rotates the memtable many times
    let db = Db::open_in_memory(LsmConfig {
        buffer_bytes: 2 << 10,
        layout: MergeLayout::Leveled,
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    for i in 0..400u32 {
        db.put(key(i), format!("v1-{i}").into_bytes()).unwrap();
    }
    let mut txn = db.begin_txn().unwrap();
    for i in (0..400u32).step_by(11) {
        assert_eq!(
            txn.get(&key(i)).unwrap(),
            Some(format!("v1-{i}").into_bytes())
        );
    }
    // churn the live engine hard enough to flush and fully compact away
    // every file the transaction's snapshot reads
    for gen in 2..5u32 {
        for i in 0..400u32 {
            db.put(key(i), format!("v{gen}-{i}").into_bytes()).unwrap();
        }
    }
    db.flush().unwrap();
    db.major_compact().unwrap();
    // the transaction still reads its snapshot, not the churned state
    for i in (0..400u32).step_by(11) {
        assert_eq!(
            txn.get(&key(i)).unwrap(),
            Some(format!("v1-{i}").into_bytes()),
            "key {i} moved under the transaction"
        );
    }
    // …but first-committer-wins knows those reads are stale
    match txn.commit() {
        Err(lsm_core::TxnError::Conflict(_)) => {}
        other => panic!("stale txn must conflict, got {other:?}"),
    }
    assert_eq!(db.get(&key(0)).unwrap(), Some(b"v4-0".to_vec()));
}

#[test]
fn dropping_the_last_txn_releases_its_snapshot_pin() {
    let db = Db::open_in_memory(LsmConfig {
        kv_separation: Some(KvSeparation {
            min_value_bytes: 64,
        }),
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    let big = vec![0x5A; 300];
    for i in 0..100u32 {
        db.put(key(i), big.clone()).unwrap();
    }
    let mut a = db.begin_txn().unwrap();
    let mut b = db.begin_txn().unwrap();
    assert_eq!(a.get(&key(7)).unwrap(), Some(big.clone()));
    assert_eq!(b.get(&key(7)).unwrap(), Some(big.clone()));
    // rewrite everything: the old value-log slots are now garbage — but
    // pinned garbage while either transaction lives
    for i in 0..100u32 {
        db.put(key(i), vec![0xB6; 300]).unwrap();
    }
    assert!(db.gc_value_log().is_err(), "GC must refuse with live txns");
    drop(a);
    assert!(
        db.gc_value_log().is_err(),
        "one dropped txn is not enough — b still pins the snapshot"
    );
    b.abort();
    let (live, dead) = db.gc_value_log().unwrap();
    assert!(live + dead > 0, "GC must run once the last txn drops");
    assert_eq!(db.get(&key(3)).unwrap(), Some(vec![0xB6; 300]));
}

#[test]
fn committing_a_txn_releases_its_snapshot_pin() {
    let db = Db::open_in_memory(LsmConfig {
        kv_separation: Some(KvSeparation {
            min_value_bytes: 64,
        }),
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    for i in 0..50u32 {
        db.put(key(i), vec![0x11; 200]).unwrap();
    }
    let mut txn = db.begin_txn().unwrap();
    assert_eq!(txn.get(&key(9)).unwrap(), Some(vec![0x11; 200]));
    txn.put(key(9), vec![0x22; 200]);
    assert!(db.gc_value_log().is_err(), "GC must refuse mid-txn");
    txn.commit().expect("uncontended commit");
    for i in 0..50u32 {
        db.put(key(i), vec![0x33; 200]).unwrap();
    }
    db.gc_value_log()
        .expect("commit must release the snapshot pin");
    assert_eq!(db.get(&key(9)).unwrap(), Some(vec![0x33; 200]));
}

#[test]
fn many_concurrent_snapshots() {
    let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
    let mut snaps = Vec::new();
    for gen in 0..5u32 {
        for i in 0..300u32 {
            db.put(key(i), format!("g{gen}-{i}").into_bytes()).unwrap();
        }
        snaps.push((gen, db.snapshot().unwrap()));
    }
    db.major_compact().unwrap();
    for (gen, snap) in &snaps {
        for i in (0..300u32).step_by(41) {
            assert_eq!(
                snap.get(&key(i)).unwrap(),
                Some(format!("g{gen}-{i}").into_bytes()),
                "generation {gen}, key {i}"
            );
        }
    }
}

/// Live and snapshot reads at the same instant are one read path: for
/// every {kv separation} × {range filter} combination, a snapshot's
/// `get` and `scan_with` (bounded, open-ended, limited) equal the live
/// engine's and a `BTreeMap` oracle's — and, with the block cache off, a
/// snapshot scan reads no more device blocks than the same live scan
/// (both prune runs with the range filter).
#[test]
fn snapshot_reads_agree_with_live_reads_and_oracle() {
    let separations = [None, Some(KvSeparation { min_value_bytes: 24 })];
    let range_filters = [RangeFilterKind::None, RangeFilterKind::Surf { suffix_bits: 8 }];
    for kv_separation in separations {
        for range_filter in range_filters {
            let ctx = format!("kv_separation={kv_separation:?} range_filter={range_filter:?}");
            let db = Db::open_in_memory(LsmConfig {
                kv_separation,
                range_filter,
                layout: MergeLayout::Tiered, // many runs → many prune chances
                cache_bytes: 0,
                ..LsmConfig::small_for_tests()
            })
            .unwrap();
            let mut oracle = BTreeMap::new();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for round in 0..6u8 {
                for _ in 0..400 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = key((x % 2000) as u32);
                    if x % 5 == 0 {
                        db.delete(k.clone()).unwrap();
                        oracle.remove(&k);
                    } else {
                        // lengths straddle the separation threshold
                        let v = vec![round; (x % 48) as usize + 1];
                        db.put(k.clone(), v.clone()).unwrap();
                        oracle.insert(k, v);
                    }
                }
                // the last round stays in the memtable
                if round < 5 {
                    db.flush().unwrap();
                }
            }
            // quiesce background maintenance so the live tree stays the
            // snapshot's for the rest of the test
            db.wait_background_idle();
            let snap = db.snapshot().unwrap();
            for i in 0..2100u32 {
                let want = oracle.get(&key(i)).cloned();
                assert_eq!(db.get(&key(i)).unwrap(), want, "{ctx}: live get {i}");
                assert_eq!(snap.get(&key(i)).unwrap(), want, "{ctx}: snapshot get {i}");
            }
            let ranges: [(u32, Option<u32>, usize); 6] = [
                (0, Some(2000), usize::MAX),
                (150, Some(170), usize::MAX),
                (700, Some(1400), 33),
                (1900, None, usize::MAX),
                (0, None, usize::MAX),
                (500, Some(500), usize::MAX),
            ];
            for (lo, hi, limit) in ranges {
                let (lo, hi) = (key(lo), hi.map(key));
                let want = oracle_scan(&oracle, &lo, hi.as_deref(), limit);
                let live = live_scan(&db, &lo, hi.as_deref(), limit);
                let snapped = snap_scan(&snap, &lo, hi.as_deref(), limit);
                assert_eq!(live, want, "{ctx}: live scan {lo:?}..{hi:?}");
                assert_eq!(snapped, want, "{ctx}: snapshot scan {lo:?}..{hi:?}");
            }
            // short scans in the gaps between adjacent keys: every table
            // covering the gap holds no key in it, so only the range
            // filter can skip it
            let (mut live_blocks, mut snap_blocks) = (0, 0);
            for i in (0..2000u32).step_by(7) {
                let lo = [key(i), b"a".to_vec()].concat();
                let hi = [key(i), b"zz".to_vec()].concat();
                let t0 = db.io_stats().total_read_blocks();
                let live = live_scan(&db, &lo, Some(&hi), 10);
                let t1 = db.io_stats().total_read_blocks();
                let snapped = snap_scan(&snap, &lo, Some(&hi), 10);
                let t2 = db.io_stats().total_read_blocks();
                assert!(live.is_empty() && snapped.is_empty(), "{ctx}: gap {i} not empty");
                live_blocks += t1 - t0;
                snap_blocks += t2 - t1;
                assert!(
                    t2 - t1 <= t1 - t0,
                    "{ctx}: snapshot gap scan {i} read {} blocks, live read {}",
                    t2 - t1,
                    t1 - t0
                );
            }
            assert_eq!(snap_blocks, live_blocks, "{ctx}: gap-scan block reads");
            if range_filter != RangeFilterKind::None {
                assert!(db.stats().snapshot().range_filter_prunes > 0, "{ctx}: never pruned");
            }
        }
    }
}
