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

# Virtual-time pin: regenerate one committed snapshot into $snaps and fail
# if any virtual-time leaf moved (`repro diff`: wall-clock leaves print as
# ratios, host leaves are ignored). Among what it pins: the lossless quick
# call shows every display slot (`display.stalls` 0), the qoe and bond
# snapshots keep their schema and all four points. A change that moves
# bytes regenerates the committed file, and the diff is what review reads.
snapshot_check() {
  name=$1; shift
  repro "$@" >/dev/null
  out=$(repro diff "BENCH_$name.json" "$snaps/$name.json") || {
    echo "$out" | grep -v '^  wall'
    echo "virtual-time leaves of BENCH_$name.json moved"; exit 1
  }
  echo "BENCH_$name.json: $(echo "$out" | tail -1)"
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
# Pacer credit is integer and subscriber ticks run only when due: the float
# budget, the sharded tick and the bench's coarse tick stride stay gone.
if grep -rn "pacer_budget_bits\|PARALLEL_TICK_MIN\|tick_stride" crates; then
  echo "the float pacer budget, the sharded tick or the tick stride is back"; exit 1
fi
# Replaced kernels are test oracles in crates/*/tests/common/oracle.rs; the
# product exports none of them, nor a bench-only tier.
if grep -rnE "pub fn \w*_(ref|reference|baseline)\b" crates/*/src; then
  echo "an oracle or a bench-only tier is public product API again"; exit 1
fi
# One clock and one record per pipeline step: the stages time and trace
# encode and decode, the codec counts only its bitstream. The codec's trace
# hooks and decode clock, the second timer helper, the copy of Table 6's
# means, the duplicate bond gauge and the ring-size knob stay gone.
if grep -rnE "set_trace_frame|TelemetrySpan|StageTimings|codec\.decode_ns|bond\.estimate_bps|\btrace_capacity\b" crates src tests examples; then
  echo "a second clock, trace record or timer helper is back"; exit 1
fi
if grep -rn "livo_telemetry::trace\|EventTrace" crates/livo-codec2d/src; then
  echo "the codec records into the event trace again"; exit 1
fi
# One receive buffer per stream owns reassembly, the playout deadline and
# give-up: the separate jitter buffer, the session's slack ratchet, the
# frontier hand-off and the always-true duplication flag stay gone.
if grep -rn "JitterBuffer\|playout_slack\|PLAYOUT_SLACK\|abandon_before\|DUPLICATE_KEYFRAMES" crates src tests examples; then
  echo "the jitter buffer, the playout slack, abandon_before or DUPLICATE_KEYFRAMES is back"; exit 1
fi
# One way to ask for a keyframe: a decode lane that lost its reference
# asks through RtcSession::request_keyframe. The transport's stuck-frame PLI
# timer stays gone.
if grep -rn "check_pli\|stuck_frames\|pli_deadline" crates src tests examples; then
  echo "the stuck-frame PLI timer (check_pli, stuck_frames, pli_deadline) is back"; exit 1
fi
# One drive loop and one display clock on the SFU: drivers call
# Router::run_until, and stage::DisplayClock decides shown vs stalled. The
# hand 1 ms tick loops and the link-class display stand-in stay gone.
if grep -rn "router\.tick(" examples tests crates/livo-bench || grep -rn "DISPLAY_AFTER" crates; then
  echo "a hand router tick loop or the DISPLAY_AFTER display stand-in is back"; exit 1
fi
# One answer per stalled slot: the display clock names each stall's cause,
# and the flight recorder freezes a bundle for a long one. The threshold
# detectors, their settings and their counters stay gone.
if grep -rnE "AnomalyConfig|pli_storm|gcc_collapse|pool_starvation|observe_gcc|observe_pli|trace\.anomalies" crates src tests examples; then
  echo "a flight-recorder detector, AnomalyConfig or a trace.anomalies counter is back"; exit 1
fi
# One level of parallelism per decision: the cull walks one row loop, an
# encoder and a decoder their slices in plain loops, and the two stages'
# colour ∥ depth joins (SenderStage::encode, ReceiverStage::ingest) are the
# only codec parallelism. The row bands, the unused index loop, the
# slice-parallel decode point and the encoder's row stripes and slice jobs
# stay gone: livo-codec2d/src names no WorkerPool and opens no scope outside
# the two inert `set_worker_pool` definitions. Nothing calls the inert
# stand-ins that benchmark/src/adapters.rs still names (`cull_views_on`,
# `Decoder::set_worker_pool`, `Encoder::set_worker_pool`) on a binding.
if grep -rnE "band_rows|for_each_index|decode_sliced" crates src tests examples \
  || grep -rn "cull_views_on(" crates src tests examples | grep -v "pub fn cull_views_on(" \
  || grep -rnE "\w*(dec|enc)\w*\.set_worker_pool\(" crates src tests examples \
  || grep -rnE "WorkerPool|\.scope\(" crates/livo-codec2d/src | grep -v "pub fn set_worker_pool("; then
  echo "the banded cull, for_each_index, decode_sliced, a pool in the 2D codec or a call of an inert pool stand-in is back"; exit 1
fi
# One fork/join path in the pool: a scope takes back the tasks no worker
# started, and `join` is a two-task scope. The join's own queue entry, the
# worker flag that ran nested scopes inline and a second lifetime erasure
# stay gone.
if grep -rnE "IS_WORKER|Handoff" crates/livo-runtime/src \
  || [ "$(grep -ro "transmute" crates/livo-runtime/src | wc -l)" -gt 1 ]; then
  echo "IS_WORKER, Handoff or a second transmute is back in livo-runtime"; exit 1
fi
# One value, one constant: the pose predictor's noise model, the clusterer's
# overlap threshold and sample count and the NACK retry schedule are
# constants, the conference takes no bond, and no caller rebuilds a
# subscriber id from its raw value. Their settings and livo-core's
# dependency on livo-bond stay gone.
if grep -rnE "PosePredictorConfig|ClusterParams|NackGenerator::with_defaults|from_raw" crates src tests examples \
  || grep -n "livo-bond" crates/livo-core/Cargo.toml; then
  echo "PosePredictorConfig, ClusterParams, NackGenerator::with_defaults, from_raw or livo-core's livo-bond dependency is back"; exit 1
fi
# What only tests read stays gone: the router's recluster cadence and
# subscriber cap are constants, the encoder's slice count follows the frame
# height, the splitter runs at the paper's constants (`SplitterConfig` is a
# field-less stand-in the benchmark names), and churn is counted and traced,
# not listed on each route summary.
if grep -rnE "recluster_every|fn max_subscribers|RouterEvent|pub slices|struct SplitterConfig *[{(]" crates src tests examples; then
  echo "recluster_every, a max_subscribers setter, RouterEvent, EncoderConfig::slices or a SplitterConfig field is back"; exit 1
fi
# The crate graph says what is used: every `livo-*` dependency a crate
# declares, normal or dev, is named as `livo_<name>` by some `.rs` file
# under that crate. An edge nothing names goes, rather than waiting here.
for toml in crates/*/Cargo.toml; do
  dir=$(dirname "$toml")
  for dep in $(grep -oE "^livo-[a-z0-9]+" "$toml"); do
    if ! grep -rqw --include='*.rs' "${dep//-/_}" "$dir"; then
      echo "$toml declares $dep, which no .rs file under $dir names"; exit 1
    fi
  done
done
# SIMD dispatch: the kernel differential suite and the renderer's oracle
# tests ran at the auto-detected tier above; they must also hold with the
# dispatcher forced to the scalar tier (LIVO_SIMD caps the level per
# process).
echo "== tier1: simd tier sweep =="
LIVO_SIMD=scalar cargo test -q --test kernel_differential
LIVO_SIMD=scalar cargo test -q -p livo-capture
# Hot-kernel regression gate: every gated kernel must run at least as fast
# as the implementation it replaced.
echo "== tier1: kernel gate =="
repro --gate kernels >/dev/null
# The four snapshots of deterministic runs: the quick pipeline (also read
# by the slice overhead gate), the quick qoe sweep, the standard bond sweep
# (the committed one; gated: bonded delivery beats the best single link and
# survives the mid-call kill) and the quick sfu sweep (gated: shared passes
# track the gaze-group count, the pooled route holds against the one-thread
# route at N=10 with ten full-resolution cameras, in one gaze group and in
# two, churn intras stay one RTT apart).
echo "== tier1: virtual-time snapshots + gates =="
snaps=$(mktemp -d)
snapshot_check pipeline --quick --metrics "$snaps/pipeline.json"
overhead_check "$snaps/pipeline.json"
snapshot_check qoe --quick qoe --json "$snaps/qoe.json"
snapshot_check bond --gate bond --json "$snaps/bond.json"
snapshot_check sfu --quick --gate sfu --json "$snaps/sfu.json"
rm -rf "$snaps"
# Trace-overhead gate: tracing on must cost at most 5% encode
# wall-clock versus tracing off (median of interleaved A/B pairs).
echo "== tier1: trace overhead gate =="
repro --quick --gate traceoverhead >/dev/null
echo "== tier1: fmt + clippy + doc =="
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Every intra-doc link resolves and no public doc links a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Whole-call benchmark smoke: one short rep per workload with its
# correctness checks on (builds benchmark/ against this checkout).
echo "== tier1: benchmark smoke =="
bash benchmark/run.sh --smoke >/dev/null

echo "TIER1 OK"
