#!/usr/bin/env bash
# CI gate: formatting, clippy (workspace lint table), labcheck static
# analysis + SPSC model check, then the test suite. Each step must pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== labcheck (lints incl. lock discipline + interleaving model checks)"
cargo run -q -p labstor-labcheck -- --report lockcheck-report.json
test -s lockcheck-report.json

echo "== cargo test --workspace (every crate's unit and integration tests)"
cargo test -q --workspace

echo "== labbench tests (the benchmark keeps building against the library crates)"
cargo test -q --release --offline --manifest-path labbench/Cargo.toml

echo "== labtelem tests + sample Chrome trace"
cargo test -q -p labstor-telemetry
cargo run -q --release --example telemetry
test -s results/telemetry_trace.json

echo "== bench_ipc smoke (SPSC fast-path regression gate)"
cargo run -q --release -p labstor-bench --bin bench_ipc -- --smoke
test -s BENCH_ipc.json

echo "== bench_datapath smoke (zero-copy + shard-scaling regression gate)"
cargo run -q --release -p labstor-bench --bin bench_datapath -- --smoke
test -s BENCH_datapath.json

echo "== bench_tenants smoke (noisy-neighbor tenant isolation gate)"
cargo run -q --release -p labstor-bench --bin bench_tenants -- --smoke
test -s BENCH_tenants.json

echo "== bench_reactor smoke (idle-fleet doorbell vs polling gate)"
cargo run -q --release -p labstor-bench --bin bench_reactor -- --smoke
test -s BENCH_reactor.json

echo "== bench_pushdown smoke (bytes-over-IPC + modeled-speedup + zero-copy gate)"
cargo run -q --release -p labstor-bench --bin bench_pushdown -- --smoke
test -s BENCH_pushdown.json

echo "== crash_fuzz smoke (crash-recovery prefix-consistency campaign)"
cargo run -q --release -p labstor-bench --bin crash_fuzz -- --smoke
test -s BENCH_crash_fuzz.json
test -s results/crash_fuzz_failures.json

echo "ci: all gates passed"
