//! `lsm-server`: a dependency-free TCP serving layer over hash-sharded
//! LSM engines.
//!
//! The crate turns N independent [`lsm_core::Db`] instances into one
//! network-addressable store:
//!
//! - [`protocol`] — the length-prefixed binary wire format (GET / PUT /
//!   DELETE / SCAN / STATS), request-id'd so clients can pipeline;
//! - [`router`] — shard routing: FNV hash partitioning or a versioned
//!   range [`shardmap::ShardMap`], with cross-shard scan stitching;
//! - [`shardmap`] — the versioned, manifest-persisted cluster shard map
//!   (contiguous key ranges, split/merge edits, crash-safe recovery);
//! - [`migrate`] — online shard split/merge: snapshot copy plus a
//!   group-commit tap, with an atomic map flip under the topology lock;
//! - [`batcher`] — per-shard group commit: concurrent writes coalesce
//!   into one `Db::write_batch_mut` (one WAL append, one sync) per batch;
//! - [`server`] — the accept loop, per-connection reader/writer threads
//!   with bounded in-flight pipelining, admission control wired to the
//!   engine's L0 backpressure gauge, and graceful drain;
//! - [`client`] — a small blocking client library;
//! - [`replication`] — primary → replica shipping of committed
//!   group-commit batches, quorum acks, and the replica apply path;
//! - [`failover`] — promotion of a replica to primary via the
//!   crash-recovery path;
//! - [`metrics`] — serving-side histograms, gauges, and event trace;
//! - [`harness`] — an in-process loopback cluster for deterministic
//!   tests, including kill-the-server recovery and replicated clusters.
//!
//! Everything is `std`-only (`std::net` + threads), mirroring the thread
//! patterns of `lsm_core::background`.

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod failover;
pub mod harness;
pub mod metrics;
mod migrate;
pub mod protocol;
pub mod replication;
pub mod router;
pub mod server;
pub mod shardmap;

pub use batcher::{
    GroupCommitter, MigrationTap, TxnCommitReq, TxnOutcome, WriteOp, WriteOutcome, WriteReq,
};
pub use client::{Client, ShardMapEntries, TxnCommitStatus};
pub use failover::{promote_replica, Promotion};
pub use harness::{
    registry_factory, reopen_elastic, reopen_shards, start_cluster, start_elastic_cluster,
    start_replicated_cluster, ElasticCluster, ReplicatedCluster, ShardDeviceRegistry,
    TestCluster,
};
pub use metrics::ServerMetrics;
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, repl_ops, FrameError,
    FrameReader, ProtocolError, ReplOpRef, ReplOpsBuilder, ReplOpsIter, Request, Response,
    MAX_FRAME_BYTES,
};
pub use replication::{
    ApplyError, PrimaryReplication, ReplicaState, ReplicationRole, Replicator,
};
pub use router::{shard_of, Routing, ShardSet};
pub use server::{
    ElasticOptions, RebalancePolicy, Server, ServerConfig, ShardDeviceFactory,
};
pub use shardmap::{
    find_cluster_meta, write_cluster_meta, ShardMap, ShardRange, CLUSTER_META_MAGIC,
};
