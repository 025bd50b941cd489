//! `repro conference`: a traced 3-party SFU call, and the trace-overhead
//! A/B measurement (`repro traceoverhead`).
//!
//! The conference harness mirrors `examples/multiparty.rs` — one capture
//! rig feeding the SFU router, three subscribers on distinct emulated
//! links, the same drive loop — but wires a causal [`EventTrace`] through
//! every layer (each subscriber's display clock records its `display`
//! events). The per-subscriber outcomes are the example's table; this
//! report prints one frame's reconstructed capture→display path per
//! subscriber (the [`TraceQuery`] per-hop breakdown) and, with
//! `--trace <path>`, exports the whole run as Chrome trace-event JSON for
//! Perfetto.
//!
//! The overhead benchmark answers tier-1's gate: interleaved band2
//! replays with tracing on and off, comparing median encode wall-clock.
//! The record path is a couple of atomics plus a shard ring write, so
//! the ratio must stay within 1.05.

use livo_capture::usertrace::TraceStyle;
use livo_capture::{
    datasets::DatasetPreset, render::render_views_at, rig, BandwidthTrace, TraceId, UserTrace,
    VideoId,
};
use livo_core::conference::{ConferenceConfig, ConferenceRunner};
use livo_core::stage::{due, FPS};
use livo_eval::experiments::EvalProfile;
use livo_math::{CameraIntrinsics, Vec3};
use livo_sfu::{subscriber_party, Router, SubscriberConfig, SubscriberId};
use livo_telemetry::chrome_trace_json;
use livo_telemetry::trace::{kind, EventTrace, TraceQuery};
use livo_transport::Micros;
use std::sync::Arc;

/// The three fixed parties of the conference report.
const PARTIES: [(&str, TraceId, usize); 3] = [
    ("producer-desk", TraceId::Trace1, 0),
    ("director-home", TraceId::Trace2, 0),
    ("critic-train", TraceId::Trace2, 2),
];

/// Outcome of one traced conference run.
pub struct ConferenceReport {
    /// Human-readable report: one frame path per subscriber.
    pub text: String,
    /// The full run as Chrome trace-event JSON (Perfetto-loadable).
    pub chrome_json: String,
    /// Sequence numbers with a complete capture→display path, per
    /// subscriber id (used by the smoke assertions).
    pub reconstructed: Vec<Vec<u64>>,
}

/// Map a trace party id to its display name for this harness.
fn party_name(party: u16) -> String {
    match party {
        0 => "sender".into(),
        1 => "sfu".into(),
        p => PARTIES
            .get(p as usize - 2)
            .map(|(name, _, _)| format!("sub:{name}"))
            .unwrap_or_else(|| format!("party{p}")),
    }
}

/// Run the traced 3-party conference.
pub fn run(profile: &EvalProfile) -> ConferenceReport {
    let seconds = profile.duration_s.min(3.0);
    let cameras = rig::camera_ring(
        profile.n_cameras,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(profile.camera_scale),
    );
    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo_runtime::global();

    let trace = Arc::new(EventTrace::new(1 << 16));
    let mut router = Router::builder(cameras.clone())
        .trace(trace.clone())
        .build()
        .expect("valid router config");

    let subscribers: Vec<(SubscriberId, UserTrace)> = PARTIES
        .iter()
        .enumerate()
        .map(|(i, (name, link, style))| {
            let style = TraceStyle::ALL[style % TraceStyle::ALL.len()];
            let ut = UserTrace::generate(style, seconds + 5.0, 40 + i as u64);
            let id = router
                .add_subscriber(
                    SubscriberConfig::new(*name),
                    BandwidthTrace::generate(*link, seconds + 6.0, 90 + i as u64),
                )
                .expect("add subscriber");
            (id, ut)
        })
        .collect();

    let total_frames = (seconds * FPS as f32) as u64;
    let mut now: Micros = 0;
    for frame_idx in 0..total_frames {
        let t_s = frame_idx as f32 / FPS as f32;
        let snap = preset.scene.at(t_s);
        let views = render_views_at(pool, &cameras, &snap, frame_idx as u32);
        trace.record(now, frame_idx, 0, "pipeline", kind::CAPTURE, 0);

        for (id, ut) in &subscribers {
            let sub = router.subscriber(*id).expect("still subscribed");
            let owd_s = sub.session().one_way_delay_us() as f32 / 1e6;
            router
                .observe_pose(*id, &ut.pose_at_time((t_s - owd_s).max(0.0)))
                .expect("live id");
        }
        router.route_frame(now, &views);

        now = router.run_until(now, due(frame_idx + 1));
    }

    // Reconstruct: which frames have a full sender→SFU→subscriber path?
    let q = TraceQuery::from_trace(&trace);
    let mut reconstructed: Vec<Vec<u64>> = vec![Vec::new(); PARTIES.len()];
    for seq in q.frames() {
        if let Some(path) = q.frame(seq) {
            if !path.has(kind::CAPTURE, 0) {
                continue;
            }
            for ((id, _), seqs) in subscribers.iter().zip(reconstructed.iter_mut()) {
                if path.has(kind::DISPLAY, subscriber_party(*id)) {
                    seqs.push(seq);
                }
            }
        }
    }

    let mut text = format!(
        "conference: band2 through the SFU to {} subscribers, {} frames traced\n\n",
        PARTIES.len(),
        total_frames
    );
    // One reconstructed path per subscriber: the newest fully-traced frame.
    for seqs in &reconstructed {
        if let Some(&seq) = seqs.last() {
            if let Some(path) = q.frame(seq) {
                text.push_str(&path.describe(&party_name));
                text.push('\n');
            }
        }
    }
    text.push_str(&format!(
        "trace: {} events recorded, {} evicted\n",
        trace.recorded(),
        trace.evicted(),
    ));

    ConferenceReport {
        text,
        chrome_json: chrome_trace_json(&trace.snapshot(), &party_name),
        reconstructed,
    }
}

/// The trace-overhead A/B result.
pub struct OverheadResult {
    /// Per-rep total encode wall-clock, tracing off, milliseconds.
    pub off_ms: Vec<f64>,
    /// Same, tracing on (interleaved off/on, same rep index).
    pub on_ms: Vec<f64>,
    /// Median of the per-rep on/off ratios.
    pub ratio: f64,
}

/// The gate bound: tracing may cost at most 5% encode wall-clock.
pub const OVERHEAD_LIMIT: f64 = 1.05;

fn encode_ms(profile: &EvalProfile, seconds: f32, tracing: bool) -> f64 {
    let cfg = ConferenceConfig::builder(VideoId::Band2)
        .camera_scale(profile.camera_scale)
        .n_cameras(profile.n_cameras)
        .duration_s(seconds)
        .quality_every(u32::MAX)
        .user_trace(0, profile.seed)
        .trace(tracing)
        .build()
        .expect("overhead config is valid");
    let runner = ConferenceRunner::new(cfg);
    let s = runner.run(BandwidthTrace::constant(40.0, seconds + 5.0));
    let h = s
        .metrics
        .histogram("conference.encode_ms")
        .expect("encode histogram present");
    h.mean * h.count as f64
}

/// Interleaved A/B measurement of the tracing overhead on band2 encode.
pub fn run_overhead(profile: &EvalProfile) -> OverheadResult {
    const REPS: usize = 5;
    let seconds = profile.duration_s.min(2.0);
    let mut off_ms = Vec::with_capacity(REPS);
    let mut on_ms = Vec::with_capacity(REPS);
    // Warm-up rep: fault in scene assets and code paths outside the
    // measured pairs.
    let _ = encode_ms(profile, seconds, false);
    for _ in 0..REPS {
        off_ms.push(encode_ms(profile, seconds, false));
        on_ms.push(encode_ms(profile, seconds, true));
    }
    let mut ratios: Vec<f64> = off_ms
        .iter()
        .zip(&on_ms)
        .map(|(&off, &on)| if off > 0.0 { on / off } else { 1.0 })
        .collect();
    ratios.sort_by(f64::total_cmp);
    OverheadResult {
        off_ms,
        on_ms,
        ratio: ratios[ratios.len() / 2],
    }
}

/// Human-readable overhead report.
pub fn overhead_text(r: &OverheadResult) -> String {
    let mut s = String::from("trace overhead: band2 encode wall-clock, tracing on vs off\n\n");
    s.push_str(&format!(
        "{:>4} | {:>10} | {:>10}\n",
        "rep", "off ms", "on ms"
    ));
    s.push_str(&format!("{:->4}-+-{:->10}-+-{:->10}\n", "", "", ""));
    for (i, (off, on)) in r.off_ms.iter().zip(&r.on_ms).enumerate() {
        s.push_str(&format!("{i:>4} | {off:>10.2} | {on:>10.2}\n"));
    }
    s.push_str(&format!(
        "\nmedian on/off ratio: {:.3} (gate: <= {OVERHEAD_LIMIT})\n",
        r.ratio
    ));
    s
}
