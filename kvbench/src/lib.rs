//! A served key-value benchmark for `lsm-server`: three workloads driven
//! over loopback, every answer checked, end-to-end metrics from untraced
//! runs and a per-layer cost ledger from traced ones.
//!
//! - `get_hot` — uniform GETs of 50k cache-resident keys;
//! - `get_cold` — Zipfian present-key GETs and absent-key GETs over 400k
//!   keys behind a 4 MB block cache;
//! - `put_scan` — open-loop PUTs beside a closed loop of GETs and SCANs on
//!   two hash-routed shards, followed by a kill-and-reopen durability
//!   check.

pub mod conn;
pub mod data;
pub mod drive;
pub mod ledger;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod store;
pub mod trace;
