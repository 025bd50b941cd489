#!/bin/bash
# Regenerate BENCH_kernels.json: the hot-kernel microbench snapshot
# (schema livo-bench-kernels-v1) comparing each kernel whose subject is
# still open — cull (one frustum, and an SFU cluster's 48-frustum union),
# forward/inverse DCT, SAD, the block coder (time and bits) — against the
# body it replaced (the test oracles in crates/*/tests/common/oracle.rs,
# or the old block coder written out in kernels_bench.rs), plus an ungated
# sliced-decode scaling point, two ungated pool-dispatch diagnostics and a
# host block (cores, SIMD tier, rustc, commit, profile).
# `--gate` makes the run fail if any gated kernel regressed below 1.0x or
# the block coder wrote more bits than its ceiling allows.
set -e
R="$(cd "$(dirname "$0")/.." && pwd)"
cd "$R"
OUT_JSON=${1:-$R/BENCH_kernels.json}

export LIVO_BENCH_RUSTC="$(rustc --version)"
export LIVO_BENCH_GIT_REV="$(git describe --always --dirty 2>/dev/null || echo unknown)"
LIVO_LOG=warn cargo run --release --bin repro -- --json "$OUT_JSON" --gate kernels
echo "wrote $OUT_JSON"
