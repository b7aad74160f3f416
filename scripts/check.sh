#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails fastest.
# Works offline — all third-party dependencies are vendored in vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release ==" >&2
cargo build --release --workspace

echo "== cargo test ==" >&2
cargo test -q --workspace

echo "== failure-injection conformance (3 seeds) ==" >&2
RCUDA_FAULT_SEEDS=3 cargo test -q --test failure_injection

echo "== chaos soak (3 seeds) ==" >&2
RCUDA_FAULT_SEEDS=3 cargo test -q --test server_soak

echo "== broker chaos soak (${RCUDA_BROKER_SEEDS:-3} seeds) ==" >&2
RCUDA_BROKER_SEEDS="${RCUDA_BROKER_SEEDS:-3}" cargo test -q --test broker_chaos

echo "== observed MM run + trace schema check ==" >&2
trace_out="target/check_observed_trace.json"
observed=$(cargo run -q --release --example observed_matmul "$trace_out")
grep -q "trace schema OK" <<<"$observed"
test -s "$trace_out" || { echo "observed_matmul wrote no trace" >&2; exit 1; }

echo "== asserted paper ablations (codec gates + compression model; Nagle, pre-init, batching) ==" >&2
cargo bench -q -p rcuda-bench --bench compression --bench ablations >/dev/null

echo "== benchmark smoke (BENCHMARK.json harness, exit status only) ==" >&2
cargo run --release -q -p rcuda-perf -- --quick >/dev/null

echo "== cargo fmt --check ==" >&2
cargo fmt --all --check

echo "== cargo clippy -D warnings ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed." >&2
