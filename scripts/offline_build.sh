#!/bin/bash
# Raw-rustc build of the library crates for benchmark/run.sh, which links
# its binary against $LIVO_OFFLINE_OUT/lib{livo_*,bytes}.rlib when its own
# `cargo build` cannot resolve the registry `bytes`. Everything else builds
# with cargo. Deleted with scripts/stubs/ by ROADMAP item 3.
#
# Usage: scripts/offline_build.sh libs-only
set -e
R="$(cd "$(dirname "$0")/.." && pwd)"
OUT=${LIVO_OFFLINE_OUT:-/tmp/livo-offline-build}
mkdir -p "$OUT"

RUSTC="rustc --edition 2021 -O -L dependency=$OUT"

$RUSTC --crate-type lib --crate-name bytes "$R/scripts/stubs/bytes/src/lib.rs" --out-dir "$OUT"
EXT="--extern bytes=$OUT/libbytes.rlib"

# Dependency order matters.
CRATES="livo-telemetry livo-runtime livo-math livo-pointcloud livo-capture
        livo-codec2d livo-codec3d livo-mesh livo-transport livo-bond
        livo-core livo-sfu livo-baselines livo-eval"

for c in $CRATES; do
  name=${c//-/_}
  echo "=== lib $c ==="
  $RUSTC --crate-type lib --crate-name "$name" "$R/crates/$c/src/lib.rs" --out-dir "$OUT" $EXT
  EXT="$EXT --extern $name=$OUT/lib$name.rlib"
done
echo "LIBS OK"
