#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints (warnings denied), full test suite.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ganopc-lint (workspace invariants)"
cargo run --release -p ganopc-lint

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test -q (GANOPC_THREADS=4: parallel dispatch through the crew)"
GANOPC_THREADS=4 cargo test -q --workspace

echo "==> allocation regression (steady-state train/infer must not allocate)"
cargo test -q -p ganopc-core --test alloc_regression

echo "==> fault soak (seeded fault plans: typed failures, reloadable artifacts)"
cargo test -q --features fault-inject -p ganopc-core --test fault_soak

echo "==> fault plane disarmed in default builds"
# The default dependency graph must not enable ganopc-fault's feature —
# production builds get the inlined no-op hooks, not the armed sink.
if cargo tree -f '{p} {f}' --prefix none | grep -q "fault-inject"; then
    echo "FAIL: fault-inject is enabled in the default feature graph"
    exit 1
fi
# Self-test of the check: the armed graph must show the feature, or the
# grep above is testing nothing.
if ! cargo tree -f '{p} {f}' --prefix none --features fault-inject | grep -q "fault-inject"; then
    echo "FAIL: --features fault-inject did not arm ganopc-fault"
    exit 1
fi
echo "fault-inject off by default, on under --features fault-inject"

echo "==> perfbench tests (the benchmark builds against the workspace API)"
# perfbench is its own workspace, so nothing above compiles it; a public-API
# change that breaks the benchmark must fail here, not in the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench --self-test (the BENCHMARK.json command, every workload)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> obs overhead budget (span enter/exit < 50 ns median per op)"
obs_out="$(cargo bench -q -p ganopc-bench --bench obs_overhead 2>&1)"
echo "$obs_out"
echo "$obs_out" | awk '
    /span_enter_exit_x1024/ {
        for (i = 1; i <= NF; i++)
            if ($i == "median") { v = $(i + 1); u = $(i + 2) }
    }
    END {
        if (u == "µs" || u == "us") v *= 1e3
        else if (u == "ms") v *= 1e6
        per_op = v / 1024
        if (per_op <= 0 || per_op >= 50) {
            printf "FAIL: span enter/exit %.1f ns/op breaks the 50 ns budget\n", per_op
            exit 1
        }
        printf "span enter/exit %.1f ns/op (budget 50 ns)\n", per_op
    }'

echo "==> resume smoke test (checkpoint/restore bit-identity)"
cargo run --release --example resume_training

echo "==> CLI smoke (train, then evaluate from the --out and from the --state file)"
# Generator snapshots and trainer states share the `g/params` section, so
# `--ckpt` must accept either file.
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
ganopc() { cargo run --release --quiet --bin ganopc -- "$@" >/dev/null; }
ganopc train --net 32 --count 4 --iters 5 --pretrain 3 \
    --out "$smoke/m.ckpt" --state "$smoke/s.ckpt"
ganopc evaluate --net 32 --ckpt "$smoke/m.ckpt"
ganopc evaluate --net 32 --ckpt "$smoke/s.ckpt"
echo "evaluate loads both the generator and the trainer checkpoint"

echo "All checks passed."
