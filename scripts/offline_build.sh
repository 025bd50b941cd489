#!/bin/bash
# Offline build + test of the livo workspace with raw rustc — no cargo, no
# network. External dependencies come from scripts/stubs (see its README).
# Builds every crate, runs unit tests and the non-proptest integration
# tests, and typechecks the examples and the repro binary.
#
# Usage:
#   scripts/offline_build.sh            # build + compile tests/examples
#   scripts/offline_build.sh libs-only  # stop after the libraries
#   scripts/offline_build.sh run-tests  # ...and execute every test binary
set -e
R="$(cd "$(dirname "$0")/.." && pwd)"
STUBS=$R/scripts/stubs
OUT=${LIVO_OFFLINE_OUT:-/tmp/livo-offline-build}
mkdir -p "$OUT"

RUSTC="rustc --edition 2021 -O -L dependency=$OUT"

echo "=== stubs ==="
rustc --edition 2021 --crate-type proc-macro --crate-name serde_derive \
  "$STUBS/serde_derive.rs" --out-dir "$OUT"
$RUSTC --crate-type lib --crate-name serde "$STUBS/serde.rs" --out-dir "$OUT" \
  --extern serde_derive="$OUT/libserde_derive.so"
$RUSTC --crate-type lib --crate-name serde_json "$STUBS/serde_json.rs" --out-dir "$OUT"
$RUSTC --crate-type lib --crate-name rand "$STUBS/rand.rs" --out-dir "$OUT"
$RUSTC --crate-type lib --crate-name rand_chacha "$STUBS/rand_chacha.rs" --out-dir "$OUT" \
  --extern rand="$OUT/librand.rlib"
$RUSTC --crate-type lib --crate-name bytes "$STUBS/bytes.rs" --out-dir "$OUT"

EXT="--extern serde=$OUT/libserde.rlib --extern serde_json=$OUT/libserde_json.rlib
     --extern rand=$OUT/librand.rlib --extern rand_chacha=$OUT/librand_chacha.rlib
     --extern bytes=$OUT/libbytes.rlib --extern serde_derive=$OUT/libserde_derive.so"

# Dependency order matters; livo-bench is the bin crate handled at the end.
CRATES="livo-telemetry livo-runtime livo-math livo-pointcloud livo-capture
        livo-codec2d livo-codec3d livo-mesh livo-transport livo-bond
        livo-core livo-sfu livo-baselines livo-eval"

for c in $CRATES; do
  name=${c//-/_}
  EXT="$EXT --extern $name=$OUT/lib$name.rlib"
done

for c in $CRATES; do
  name=${c//-/_}
  echo "=== lib $c ==="
  $RUSTC --crate-type lib --crate-name "$name" "$R/crates/$c/src/lib.rs" --out-dir "$OUT" $EXT
done

echo "=== lib livo (root facade) ==="
$RUSTC --crate-type lib --crate-name livo "$R/src/lib.rs" --out-dir "$OUT" $EXT
EXT="$EXT --extern livo=$OUT/liblivo.rlib"

if [ "$1" = "libs-only" ]; then echo "LIBS OK"; exit 0; fi

echo "=== unit test binaries ==="
for c in $CRATES; do
  name=${c//-/_}
  $RUSTC --test --crate-name "${name}_unit" "$R/crates/$c/src/lib.rs" -o "$OUT/${name}_unit" $EXT
done

echo "=== integration test binaries ==="
# Skipped: proptest suites (needs the real proptest crate) and
# profile_persistence (needs real serde_json).
ITESTS="livo-codec2d/tests/robustness.rs
        livo-math/tests/kalman_scenarios.rs
        livo-transport/tests/gcc_scenarios.rs"
for t in $ITESTS; do
  bn=$(basename "$t" .rs)_$(echo "$t" | cut -d/ -f1 | tr - _)
  $RUSTC --test --crate-name "$bn" "$R/crates/$t" -o "$OUT/$bn" $EXT
done
for t in end_to_end telemetry_timeline parallel_bitexact sfu_fanout kernel_differential \
         trace_events metric_names bond_failover; do
  $RUSTC --test --crate-name "$t" "$R/tests/$t.rs" -o "$OUT/$t" $EXT
done

echo "=== examples + repro bin (typecheck; multiparty built to run) ==="
for ex in "$R"/examples/*.rs; do
  $RUSTC --emit=metadata --crate-type bin --crate-name "ex_$(basename "$ex" .rs)" \
    "$ex" --out-dir "$OUT" $EXT
done
$RUSTC --crate-type bin --crate-name multiparty "$R/examples/multiparty.rs" \
  -o "$OUT/multiparty" $EXT
$RUSTC --crate-type bin --crate-name repro "$R/crates/livo-bench/src/main.rs" -o "$OUT/repro" $EXT

if [ "$1" = "run-tests" ]; then
  echo "=== running tests ==="
  fail=0
  for bin in "$OUT"/*_unit "$OUT"/robustness_livo_codec2d "$OUT"/kalman_scenarios_livo_math \
             "$OUT"/gcc_scenarios_livo_transport "$OUT"/end_to_end "$OUT"/telemetry_timeline \
             "$OUT"/parallel_bitexact "$OUT"/sfu_fanout "$OUT"/kernel_differential \
             "$OUT"/trace_events "$OUT"/metric_names "$OUT"/bond_failover; do
    name=$(basename "$bin")
    if ! out=$("$bin" 2>&1); then
      echo "FAILED: $name"; echo "$out" | tail -30; fail=1
    else
      echo "$name: $(echo "$out" | grep '^test result')"
    fi
  done
  echo "=== smoke: multiparty example (1 s) ==="
  if ! out=$("$OUT/multiparty" --seconds 1 2>&1); then
    echo "FAILED: multiparty"; echo "$out" | tail -30; fail=1
  else
    echo "$out" | grep 'encode passes'
  fi
  [ "$fail" = 0 ] || { echo "TESTS FAILED"; exit 1; }
  echo "ALL TESTS OK"
fi

echo "BUILD OK"
