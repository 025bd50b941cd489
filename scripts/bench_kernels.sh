#!/bin/bash
# Regenerate BENCH_kernels.json: the hot-kernel microbench snapshot
# (schema livo-bench-kernels-v1) comparing each optimised kernel — cull,
# forward/inverse DCT and SAD with their AVX2 tiers, sliced decode,
# receiver reconstruct and voxel downsample, one static-scene inter frame
# encoded and decoded, the raw-bit tail — against the implementation it
# replaced (retained in-tree, or written out in kernels_bench.rs). `--gate`
# makes the run fail if any gated kernel regressed below 1.0x.
#
# Uses cargo when the registry is reachable, otherwise the raw-rustc
# offline build (scripts/offline_build.sh must have produced the repro
# binary in $LIVO_OFFLINE_OUT, default /tmp/livo-offline-build).
set -e
R="$(cd "$(dirname "$0")/.." && pwd)"
cd "$R"
OUT_JSON=${1:-$R/BENCH_kernels.json}

if command -v cargo >/dev/null 2>&1 && cargo metadata --format-version 1 >/dev/null 2>&1; then
  LIVO_LOG=warn cargo run --release --bin repro -- \
    --json "$OUT_JSON" --gate kernels
else
  REPRO="${LIVO_OFFLINE_OUT:-/tmp/livo-offline-build}/repro"
  [ -x "$REPRO" ] || { echo "repro not built; run scripts/offline_build.sh first" >&2; exit 1; }
  LIVO_LOG=warn "$REPRO" --json "$OUT_JSON" --gate kernels
fi
echo "wrote $OUT_JSON"
