#!/bin/bash
# Build and run the whole-call benchmark (see benchmark/README.md).
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last stdout line is the result JSON
#   benchmark/run.sh --all [--seed N] [--seconds S] [--json FILE]
#       all four workloads, reps interleaved, both metric families
#   benchmark/run.sh --smoke
#       one short rep per workload with the correctness checks on
#   benchmark/run.sh --compare old.json new.json
#       per-metric deltas of two --json files against the bounds
#
# Run from the root of the checkout. Everything it writes goes under
# $CARGO_TARGET_DIR (default benchmark/target) and benchmark/out.
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(dirname "$HERE")"

if [ "${1:-}" = "--compare" ]; then
  exec python3 "$HERE/compare.py" "$ROOT/BENCHMARK.json" "${@:2}"
fi

TARGET="${CARGO_TARGET_DIR:-benchmark/target}"
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
BIN="$TARGET/livo-benchmark"
MODE_FILE="$TARGET/livo-benchmark.build"

build() {
  mkdir -p "$TARGET"
  # The workspace's dependencies resolve only where a crates.io registry is
  # reachable; elsewhere the repo's own raw-rustc build supplies the libs.
  if cargo build --release --offline --manifest-path "$HERE/Cargo.toml" \
      --target-dir "$TARGET" >"$TARGET/cargo.log" 2>&1; then
    cp "$TARGET/release/livo-benchmark" "$BIN"
    echo cargo >"$MODE_FILE"
    return
  fi
  local libs="$TARGET/offline"
  LIVO_OFFLINE_OUT="$libs" "$ROOT/scripts/offline_build.sh" libs-only >"$TARGET/offline.log" 2>&1 \
    || { tail -20 "$TARGET/offline.log" >&2; echo "benchmark: build failed" >&2; exit 1; }
  local ext=""
  for c in telemetry runtime math pointcloud capture codec2d transport bond core sfu; do
    ext="$ext --extern livo_$c=$libs/liblivo_$c.rlib"
  done
  rustc --edition 2021 -O -L "dependency=$libs" --crate-type bin --crate-name livo_benchmark \
    "$HERE/src/main.rs" -o "$BIN" $ext --extern "bytes=$libs/libbytes.rlib"
  echo offline >"$MODE_FILE"
}

# Rebuild when there is no binary or a source file is newer than it.
if [ ! -x "$BIN" ] || [ -n "$(find "$ROOT/crates" "$ROOT/scripts/stubs" "$HERE/src" "$HERE/Cargo.toml" \
    -newer "$BIN" -type f -print -quit)" ]; then
  build
fi

export LIVO_BENCH_BUILD="$(cat "$MODE_FILE")"
export LIVO_BENCH_RUSTC="$(rustc --version)"
export LIVO_BENCH_GIT_REV="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$ROOT"
exec "$BIN" "$@"
