#!/bin/bash
# Offline clippy: lint every workspace lib (plus the facade, integration
# tests, examples and the repro bin) with clippy-driver against the stub
# dependencies, denying warnings. Requires a prior
# `scripts/offline_build.sh` (for the stub rlibs) in the same OUT dir.
set -e
R="$(cd "$(dirname "$0")/.." && pwd)"
OUT=${LIVO_OFFLINE_OUT:-/tmp/livo-offline-build}
[ -f "$OUT/libserde.rlib" ] || bash "$R/scripts/offline_build.sh" libs-only

CLIPPY="clippy-driver --edition 2021 -L dependency=$OUT -D warnings --emit=metadata"

EXT="--extern serde=$OUT/libserde.rlib --extern serde_json=$OUT/libserde_json.rlib
     --extern rand=$OUT/librand.rlib --extern rand_chacha=$OUT/librand_chacha.rlib
     --extern bytes=$OUT/libbytes.rlib --extern serde_derive=$OUT/libserde_derive.so"

CRATES="livo-telemetry livo-runtime livo-math livo-pointcloud livo-capture
        livo-codec2d livo-codec3d livo-mesh livo-transport livo-bond
        livo-core livo-sfu livo-baselines livo-eval"

for c in $CRATES; do
  name=${c//-/_}
  EXT="$EXT --extern $name=$OUT/lib$name.rlib"
done

LINTDIR=$OUT/clippy
mkdir -p "$LINTDIR"

for c in $CRATES; do
  name=${c//-/_}
  echo "=== clippy $c ==="
  $CLIPPY --crate-type lib --crate-name "$name" "$R/crates/$c/src/lib.rs" \
    --out-dir "$LINTDIR" $EXT
done

echo "=== clippy livo (root facade) ==="
$CLIPPY --crate-type lib --crate-name livo "$R/src/lib.rs" --out-dir "$LINTDIR" $EXT
EXT="$EXT --extern livo=$OUT/liblivo.rlib"

echo "=== clippy integration tests, examples, repro ==="
for t in "$R"/tests/*.rs; do
  case "$(basename "$t")" in proptest*) continue ;; esac
  $CLIPPY --test --crate-name "lint_$(basename "$t" .rs)" "$t" --out-dir "$LINTDIR" $EXT
done
for ex in "$R"/examples/*.rs; do
  $CLIPPY --crate-type bin --crate-name "lint_$(basename "$ex" .rs)" "$ex" \
    --out-dir "$LINTDIR" $EXT
done
$CLIPPY --crate-type bin --crate-name lint_repro "$R/crates/livo-bench/src/main.rs" \
  --out-dir "$LINTDIR" $EXT

echo "CLIPPY OK"
