#!/bin/bash
# Regenerate BENCH_kernels.json: the hot-kernel microbench snapshot
# (schema livo-bench-kernels-v1) comparing each optimised kernel — cull,
# forward/inverse DCT and SAD with their AVX2 tiers, sliced decode,
# receiver reconstruct and voxel downsample, one static-scene inter frame
# encoded and decoded, the raw-bit tail — against the implementation it
# replaced (retained in-tree, or written out in kernels_bench.rs). `--gate`
# makes the run fail if any gated kernel regressed below 1.0x.
set -e
R="$(cd "$(dirname "$0")/.." && pwd)"
cd "$R"
OUT_JSON=${1:-$R/BENCH_kernels.json}

LIVO_LOG=warn cargo run --release --bin repro -- --json "$OUT_JSON" --gate kernels
echo "wrote $OUT_JSON"
