//! The three workloads: sizes, engine configuration and traffic shape.

use lsm_core::{BackgroundMode, LsmConfig};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform GETs of present keys, all resident in the block cache.
    GetHot,
    /// Zipfian present-key GETs plus absent-key GETs behind a small cache.
    GetCold,
    /// Open-loop PUTs beside a closed loop of GETs and SCANs, 2 shards.
    PutScan,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::GetHot, Workload::GetCold, Workload::PutScan];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GetHot => "get_hot",
            Workload::GetCold => "get_cold",
            Workload::PutScan => "put_scan",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything a run of one workload needs besides its seed and length.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Preloaded keys (ids `0, 2, …`), each with a 100-byte value.
    pub keys: u64,
    /// Hash-routed shards, one engine each.
    pub shards: usize,
    /// Block cache bytes per shard.
    pub cache_bytes: usize,
    /// Maintenance scheduling, always set here rather than from the
    /// environment.
    pub background: BackgroundMode,
    /// Offered PUT rate, requests per second (`put_scan`).
    pub put_rate: f64,
    /// Engine GETs issued from the workload's own distribution to warm
    /// the cache during setup.
    pub warm_gets: u64,
}

/// Background workers per shard, pinned (used by `Threaded` only).
pub const WORKERS: usize = 1;
/// Closed-loop GET connections of `get_hot` and `get_cold`.
pub const GET_CONNS: u64 = 2;
/// Requests each GET connection keeps in flight.
pub const WINDOW: usize = 8;
/// Entries a SCAN asks for.
pub const SCAN_LIMIT: u32 = 50;
/// Setups per untraced run: `setup_s` is their median, and the first one
/// is served.
pub const SETUPS: u64 = 3;
/// Servers the GET workloads' window is split across.
pub const SERVER_RESTARTS: u64 = 3;
/// Served warm-up before the measured window, seconds.
pub const WARMUP_S: f64 = 0.3;

impl Spec {
    /// The full-size workload the benchmark reports.
    pub fn full(workload: Workload) -> Spec {
        let base = Spec {
            workload,
            keys: 0,
            shards: 1,
            cache_bytes: LsmConfig::default().cache_bytes,
            background: BackgroundMode::Inline,
            put_rate: 0.0,
            warm_gets: 0,
        };
        match workload {
            Workload::GetHot => Spec {
                keys: 50_000,
                warm_gets: 50_000,
                ..base
            },
            Workload::GetCold => Spec {
                keys: 400_000,
                cache_bytes: 4 << 20,
                warm_gets: 100_000,
                ..base
            },
            Workload::PutScan => Spec {
                keys: 100_000,
                shards: 2,
                background: BackgroundMode::Threaded,
                put_rate: 2_000.0,
                ..base
            },
        }
    }

    /// A small, fast variant with the same shape, for the benchmark's
    /// own tests.
    pub fn small(workload: Workload) -> Spec {
        let full = Spec::full(workload);
        Spec {
            keys: 4_000,
            warm_gets: full.warm_gets.min(4_000),
            put_rate: full.put_rate.min(2_000.0),
            ..full
        }
    }

    /// The engine configuration every shard opens with: the defaults,
    /// with only the fields this workload names changed.
    pub fn config(&self) -> LsmConfig {
        LsmConfig {
            cache_bytes: self.cache_bytes,
            background: self.background,
            background_workers: WORKERS,
            ..LsmConfig::default()
        }
    }
}
