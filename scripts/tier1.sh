#!/bin/bash
# Tier-1 gate: build, test, gates, format, lint. Run before every merge.
set -e
R="$(cd "$(dirname "$0")/.." && pwd)"
cd "$R"

repro() { LIVO_LOG=warn cargo run -q --release --bin repro -- "$@"; }

# Bitstream overhead gate: on the band2 pipeline run, the uncompressed
# frame headers and slice tables must cost at most 2% of each stream's
# total bits (hdr * 50 <= total), small one-slice frames included. Reads
# the --metrics JSON snapshot.
overhead_check() {
  json=$1
  for lane in color depth; do
    bits=$(grep -o "\"codec\.$lane\.bits_total\":[0-9]*" "$json" | grep -o '[0-9]*$')
    hdr=$(grep -o "\"codec\.$lane\.slice_header_bits\":[0-9]*" "$json" | grep -o '[0-9]*$')
    [ -n "$bits" ] && [ -n "$hdr" ] || { echo "missing codec.$lane counters in $json"; exit 1; }
    if [ $((hdr * 50)) -gt "$bits" ]; then
      echo "slice header overhead >2% on $lane: $hdr hdr bits vs $bits total"; exit 1
    fi
  done
  echo "slice header overhead <=2% of bits_total (color + depth)"
}

# Clock gate: the same snapshot is a lossless call on a link with ten times
# the rate it uses, so every display slot must show a new frame. A stall
# here is the call loop's schedule drifting (capture every 34 ms against
# display every 33.3 ms gave one phantom stall in 51 slots, 2 of its 86).
stall_check() {
  stalls=$(grep -o '"display\.stalls":[0-9]*' "$1" | grep -o '[0-9]*$')
  [ -n "$stalls" ] || { echo "missing display.stalls in $1"; exit 1; }
  [ "$stalls" = 0 ] || { echo "lossless call stalled $stalls display slots"; exit 1; }
  echo "lossless call: display.stalls 0"
}

# QoE sweep smoke: `repro --quick qoe --json` must write a snapshot with
# the stable schema tag and all four sweep points.
qoe_check() {
  json=$1
  grep -q '"schema":"livo-bench-qoe-v1"' "$json" || { echo "qoe snapshot missing schema tag"; exit 1; }
  pts=$(grep -o '"bandwidth_mbps"' "$json" | wc -l)
  [ "$pts" = 4 ] || { echo "qoe snapshot has $pts points, expected 4"; exit 1; }
  echo "qoe snapshot OK (schema livo-bench-qoe-v1, $pts points)"
}

# Bonded-transport gate: `repro --quick bond --gate` exits non-zero when
# bonding stops beating the best single link (delivered Mbps and stall
# rate on the degradation scenarios, >=90% of summed capacity on the
# lossless one). The snapshot must carry the stable schema tag and all
# four topology scenarios.
bond_check() {
  json=$1
  grep -q '"schema":"livo-bench-bond-v1"' "$json" || { echo "bond snapshot missing schema tag"; exit 1; }
  pts=$(grep -o '"scenario"' "$json" | wc -l)
  [ "$pts" = 4 ] || { echo "bond snapshot has $pts scenarios, expected 4"; exit 1; }
  echo "bond snapshot OK (schema livo-bench-bond-v1, $pts scenarios)"
}

echo "== tier1: build + test =="
cargo build --release && cargo test -q
# Every example runs, one call second each: the two-party replay, the
# two-way call with its frame path, the SFU fan-out.
for ex in quickstart conference_call multiparty; do
  cargo run -q --release --example "$ex" -- --seconds 1 >/dev/null
done
# One per-frame record, one chain per cluster: neither name comes back.
if grep -rn "FrameTimeline\|straggler_fraction" crates src tests examples; then
  echo "the frame timeline or the straggler option is back"; exit 1
fi
# SIMD dispatch: the kernel differential suite ran at the auto-detected
# tier above; it must also hold with the dispatcher forced to the scalar
# tier (LIVO_SIMD caps the level per process).
echo "== tier1: simd tier sweep =="
LIVO_SIMD=scalar cargo test -q --test kernel_differential
# Hot-kernel regression gate: every gated kernel must run at least as fast
# as the implementation it replaced.
echo "== tier1: kernel gate =="
repro --gate kernels >/dev/null
echo "== tier1: slice overhead + call clock gates =="
snap=$(mktemp)
repro --quick --metrics "$snap" >/dev/null
overhead_check "$snap"; stall_check "$snap"; rm -f "$snap"
# QoE sweep smoke: schema-stable snapshot over the band2 loss/bandwidth
# sweep.
echo "== tier1: qoe smoke =="
qsnap=$(mktemp)
repro --quick qoe --json "$qsnap" >/dev/null
qoe_check "$qsnap"; rm -f "$qsnap"
# Trace-overhead gate: tracing on must cost at most 5% encode
# wall-clock versus tracing off (median of interleaved A/B pairs).
echo "== tier1: trace overhead gate =="
repro --quick --gate traceoverhead >/dev/null
# SFU scaling gate: shared passes/frame must track the gaze-group
# count (not N), the sharded route must hold against the serial
# baseline at N=100, and churn intras stay one RTT apart.
echo "== tier1: sfu scaling gate =="
repro --quick --gate sfu >/dev/null
# Bonded-transport gate: bonded delivery must beat the best single
# link on every topology scenario and survive the mid-call kill.
echo "== tier1: bond gate =="
bsnap=$(mktemp)
repro --quick --gate bond --json "$bsnap" >/dev/null
bond_check "$bsnap"; rm -f "$bsnap"
echo "== tier1: fmt + clippy =="
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Whole-call benchmark smoke: one short rep per workload with its
# correctness checks on (builds benchmark/ against this checkout).
echo "== tier1: benchmark smoke =="
bash benchmark/run.sh --smoke >/dev/null

echo "TIER1 OK"
