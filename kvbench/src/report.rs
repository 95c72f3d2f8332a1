//! Metric declarations and the run's output: one line per metric with
//! its unit and sample count, then the result as one JSON line.

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("get_kops", "kops/s"),
    ("get_p50_us", "us"),
    ("get_p90_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("served.get_p99_us", "us"),
    ("served.put_kops", "kops/s"),
    ("served.put_p50_us", "us"),
    ("served.put_p99_us", "us"),
    ("served.put_late_p99_us", "us"),
    ("served.scan_kops", "kops/s"),
    ("served.scan_p50_us", "us"),
    ("served.scan_p99_us", "us"),
    ("served.fail_rate", "ratio"),
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("protocol.resp_bytes", "bytes"),
    ("router.route_ns", "ns"),
    ("server.get_service_ns", "ns"),
    ("server.put_service_ns", "ns"),
    ("server.scan_service_ns", "ns"),
    ("server.wire_ns", "ns"),
    ("server.sheds_per_kop", "sheds/kop"),
    ("batcher.ops_per_batch", "ops/batch"),
    ("batcher.wal_appends_per_put", "appends/put"),
    ("db.get_p50_ns", "ns"),
    ("db.get_p99_ns", "ns"),
    ("db.scan_p50_ns", "ns"),
    ("db.write_batch_p50_ns", "ns"),
    ("db.runs_per_get", "runs/get"),
    ("memtable.insert_ns", "ns"),
    ("memtable.get_ns", "ns"),
    ("wal.append_sync_ns", "ns"),
    ("wal.blocks_per_put", "blocks/put"),
    ("filters.build_ns", "ns/key"),
    ("filters.probe_ns", "ns"),
    ("filters.prunes_per_get", "prunes/get"),
    ("filters.fp_per_absent_get", "blocks/get"),
    ("index.locate_ns", "ns"),
    ("sstable.block_open_ns", "ns"),
    ("sstable.block_seek_ns", "ns"),
    ("sstable.data_blocks_per_get", "blocks/get"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions_per_get", "evictions/get"),
    ("cache.lookup_ns", "ns"),
    ("storage.read_blocks_per_get.data", "blocks/get"),
    ("storage.read_blocks_per_get.filter", "blocks/get"),
    ("storage.read_blocks_per_get.index", "blocks/get"),
    ("storage.read_ns", "ns"),
    ("storage.written_blocks_per_put.data", "blocks/put"),
    ("compaction.flushes_per_kput", "count/kput"),
    ("compaction.count_per_kput", "count/kput"),
    ("compaction.entries_per_put", "entries/put"),
    ("compaction.max_entries", "entries"),
    ("background.slowdowns_per_kput", "count/kput"),
    ("background.stalls_per_kput", "count/kput"),
    ("ledger.explained_ns", "ns"),
    ("ledger.unexplained_ns", "ns"),
    ("ledger.unexplained_pct", "%"),
    ("trace.overhead_ns", "ns"),
    ("self.wire_ns", "ns/req"),
    ("self.client_ns", "ns/req"),
    ("self.bench_ns", "ns/req"),
    ("self.protocol_ns", "ns/req"),
    ("self.router_ns", "ns/req"),
    ("self.db_ns", "ns/req"),
    ("self.memtable_ns", "ns/req"),
    ("self.wal_ns", "ns/req"),
    ("self.filters_ns", "ns/req"),
    ("self.index_ns", "ns/req"),
    ("self.sstable_ns", "ns/req"),
    ("self.cache_ns", "ns/req"),
    ("self.storage_ns", "ns/req"),
];

/// The layers self time is reported for (span-name prefixes) and their
/// metrics.
pub const SELF_TIME_LAYERS: &[(&str, &str)] = &[
    ("wire", "self.wire_ns"),
    ("client", "self.client_ns"),
    ("bench", "self.bench_ns"),
    ("protocol", "self.protocol_ns"),
    ("router", "self.router_ns"),
    ("db", "self.db_ns"),
    ("memtable", "self.memtable_ns"),
    ("wal", "self.wal_ns"),
    ("filters", "self.filters_ns"),
    ("index", "self.index_ns"),
    ("sstable", "self.sstable_ns"),
    ("cache", "self.cache_ns"),
    ("storage", "self.storage_ns"),
];

/// One measured value and the number of samples or events behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Value in the declared unit.
    pub value: f64,
    /// Samples (or events) the value rests on.
    pub n: u64,
}

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finished run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every answer checked out and no acknowledged write was lost.
    pub correct: bool,
    /// Measured requests sent.
    pub attempted: u64,
    /// Measured requests refused or errored.
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Observations printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable lines: every metric with its unit and sample count.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.notes.iter().map(|n| format!("note: {n}")).collect();
        for m in &self.metrics {
            out.push(format!(
                "metric {:<38} {:>14.4} {:<14} n={}",
                m.name,
                m.value,
                unit_of(m.name).unwrap_or("?"),
                m.n
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name,
                    unit_of(m.name).unwrap_or("?")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
