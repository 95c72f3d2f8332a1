#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, and lint-clean
# clippy. CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (inline background)"
cargo test -q

echo "==> LSM_BACKGROUND=threaded cargo test -q"
LSM_BACKGROUND=threaded cargo test -q

echo "==> cargo test --workspace -q: every crate's own tests (both background modes)"
cargo test --workspace -q
LSM_BACKGROUND=threaded cargo test --workspace -q

echo "==> cargo test -q -p lsm-obs (both background modes)"
cargo test -q -p lsm-obs
LSM_BACKGROUND=threaded cargo test -q -p lsm-obs

echo "==> parallel-compaction differential battery (both background modes)"
cargo test -q -p lsm-core --test parallel_compaction
LSM_BACKGROUND=threaded cargo test -q -p lsm-core --test parallel_compaction

echo "==> server suite: protocol fuzz + differential + crash (both background modes)"
cargo test -q -p lsm-server
LSM_BACKGROUND=threaded cargo test -q -p lsm-server

echo "==> replication failover crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test replication_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test replication_crash -- --nocapture

echo "==> live-split migration crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test migration_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test migration_crash -- --nocapture

echo "==> transaction-commit crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test txn_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test txn_crash -- --nocapture

echo "==> self-tuner suite (both background modes)"
cargo test -q -p lsm-tuner
LSM_BACKGROUND=threaded cargo test -q -p lsm-tuner

echo "==> retune crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test retune_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test retune_crash -- --nocapture

echo "==> allocation-regression battery (counting allocator + borrowed-vs-owned differential)"
cargo test -q -p lsm-core --release --test alloc_regression
LSM_BACKGROUND=threaded cargo test -q -p lsm-core --release --test alloc_regression

echo "==> bench smoke run with metrics artifact (written and linted under target/smoke/)"
# the experiment binaries write results/<bin>.metrics.jsonl relative to
# their working directory; running them from target/smoke/ keeps the
# committed results/ artifacts untouched by smoke-scale runs
mkdir -p target/smoke
(
cd target/smoke
for bin in e18_write_stalls e19_parallel_compaction e20_server_throughput e21_hot_path \
    e22_replication e23_elastic e24_transactions; do
    LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin "$bin" -- --metrics
    cargo run -q -p lsm-bench --release --bin metrics_lint "results/$bin.metrics.jsonl"
done
# e25 floors its own scale at DEFAULT_N (it asserts adaptive-beats-static,
# which needs a real tree), so no LSM_BENCH_N shrink here
cargo run -q -p lsm-bench --release --bin e25_self_tuning -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e25_self_tuning.metrics.jsonl
)

echo "==> served benchmark builds and passes its tests against the crates"
cargo test --release --offline --manifest-path kvbench/Cargo.toml

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "OK: build, tests (both modes), workspace tests (both modes), obs + server suites, metrics artifacts, kvbench, clippy all clean"
