//! QoE diagnostics sweep: what the *receiver* experienced, per link
//! condition.
//!
//! One instrumented band2 replay per sweep point (bandwidth × random
//! loss), reporting the three receiver-side QoE signals the transport
//! PRs gate against: stall rate, end-to-end frame age (capture→display,
//! p50/p99 from the trace's `display` events), and the delivered-vs-GCC-
//! estimate bitrate ratio (goodput over the mean estimate — how much of
//! what the estimator promised actually reached the display). Each point's
//! stalled slots are split by the cause the display clock gave them.

use livo_capture::{BandwidthTrace, VideoId};
use livo_core::conference::{ConferenceConfig, ConferenceRunner, RunSummary};
use livo_core::stage::StallCause;
use livo_eval::experiments::EvalProfile;
use livo_eval::stats::percentile;
use livo_telemetry::json::ObjectWriter;
use livo_telemetry::kind;
use livo_transport::SessionConfig;

/// The sweep: `(bandwidth_mbps, random_loss)` per point. A clean fat
/// link, the same link under loss, and a tight link with and without
/// loss — the four corners the transport work cares about.
pub const SWEEP: [(f64, f64); 4] = [(40.0, 0.0), (40.0, 0.02), (6.0, 0.0), (6.0, 0.02)];

/// One sweep point's receiver-side outcome.
pub struct QoePoint {
    pub bandwidth_mbps: f64,
    pub loss: f64,
    pub stall_rate: f64,
    /// End-to-end frame age (capture→display), milliseconds.
    pub frame_age_p50_ms: f64,
    pub frame_age_p99_ms: f64,
    /// Receiver goodput, Mbps.
    pub delivered_mbps: f64,
    /// Mean GCC estimate over the run, Mbps.
    pub estimate_mbps: f64,
    /// delivered / estimate (how much of the promised rate was realised).
    pub delivery_ratio: f64,
    /// Stalled slots per cause, indexed by `StallCause as usize`.
    pub stall_causes: [u64; StallCause::ALL.len()],
}

/// Capture→display ages of every displayed frame (the `display` event's
/// `arg`, µs), sorted, milliseconds.
fn frame_ages_ms(summary: &RunSummary) -> Vec<f64> {
    let mut ages: Vec<f64> = summary
        .trace
        .iter()
        .filter(|e| e.kind == kind::DISPLAY)
        .map(|e| e.arg as f64 / 1e3)
        .collect();
    ages.sort_by(f64::total_cmp);
    ages
}

fn run_point(profile: &EvalProfile, bandwidth_mbps: f64, loss: f64) -> QoePoint {
    let mut session = SessionConfig::default();
    session.link.random_loss = loss;
    session.link.seed = profile.seed;
    let cfg = ConferenceConfig::builder(VideoId::Band2)
        .camera_scale(profile.camera_scale)
        .n_cameras(profile.n_cameras)
        .duration_s(profile.duration_s)
        // The sweep measures delivery, not reconstruction quality.
        .quality_every(u32::MAX)
        .session(session)
        .user_trace(0, profile.seed)
        .build()
        .expect("qoe sweep config is valid");
    let runner = ConferenceRunner::new(cfg);
    let s = runner.run(BandwidthTrace::constant(
        bandwidth_mbps,
        profile.duration_s + 5.0,
    ));

    let ages = frame_ages_ms(&s);
    let est_sum = s
        .metrics
        .gauge("transport.gcc.estimate_sum_bps")
        .unwrap_or(0.0);
    let est_n = s
        .metrics
        .counter("transport.gcc.estimate_samples")
        .unwrap_or(0);
    let estimate_bps = if est_n > 0 {
        est_sum / est_n as f64
    } else {
        0.0
    };
    let delivered_bps = s.throughput_mbps * 1e6;
    QoePoint {
        bandwidth_mbps,
        loss,
        stall_rate: s.stall_rate,
        frame_age_p50_ms: percentile(&ages, 0.50),
        frame_age_p99_ms: percentile(&ages, 0.99),
        delivered_mbps: s.throughput_mbps,
        estimate_mbps: estimate_bps / 1e6,
        delivery_ratio: if estimate_bps > 0.0 {
            delivered_bps / estimate_bps
        } else {
            0.0
        },
        stall_causes: StallCause::ALL.map(|c| {
            let name = format!("display.stall_cause.{}", c.name());
            s.metrics.counter(&name).unwrap_or(0)
        }),
    }
}

/// Run the full sweep.
pub fn run_sweep(profile: &EvalProfile) -> Vec<QoePoint> {
    SWEEP
        .iter()
        .map(|&(bw, loss)| run_point(profile, bw, loss))
        .collect()
}

/// Human-readable table of the sweep.
pub fn text(points: &[QoePoint]) -> String {
    let mut s = String::from("QoE sweep: band2, receiver-side outcomes per link condition\n\n");
    s.push_str(&format!(
        "{:>7} | {:>5} | {:>7} | {:>9} | {:>9} | {:>9} | {:>8} | {:>6} | {}\n",
        "bw Mbps",
        "loss",
        "stalls",
        "age p50",
        "age p99",
        "delivered",
        "estimate",
        "ratio",
        crate::stall_cause_head(),
    ));
    for p in points {
        s.push_str(&format!(
            "{:>7.0} | {:>5.2} | {:>6.1}% | {:>6.1} ms | {:>6.1} ms | {:>9.2} | {:>8.2} | {:>6.2} | {}\n",
            p.bandwidth_mbps,
            p.loss,
            p.stall_rate * 100.0,
            p.frame_age_p50_ms,
            p.frame_age_p99_ms,
            p.delivered_mbps,
            p.estimate_mbps,
            p.delivery_ratio,
            crate::stall_cause_row(&p.stall_causes),
        ));
    }
    s.push_str(
        "\nage = capture→display; ratio = delivered / mean GCC estimate; the last\ncolumns count stalled slots by cause.\n",
    );
    s
}

/// The snapshot written to `BENCH_qoe.json`, schema `livo-bench-qoe-v1`.
pub fn json(points: &[QoePoint], profile: &EvalProfile) -> String {
    let mut out = String::new();
    let mut o = ObjectWriter::new(&mut out);
    o.field_str("schema", "livo-bench-qoe-v1");
    {
        let cfg = o.field_raw("config");
        let mut c = ObjectWriter::new(cfg);
        c.field_str("video", "band2");
        c.field_f64("camera_scale", profile.camera_scale as f64);
        c.field_u64("n_cameras", profile.n_cameras as u64);
        c.field_f64("duration_s", profile.duration_s as f64);
        c.field_u64("seed", profile.seed);
        c.finish();
    }
    crate::write_host(o.field_raw("host"));
    o.field_objects("points", points, |w, p| {
        w.field_f64("bandwidth_mbps", p.bandwidth_mbps);
        w.field_f64("loss", p.loss);
        w.field_f64("stall_rate", p.stall_rate);
        w.field_f64("frame_age_p50_ms", p.frame_age_p50_ms);
        w.field_f64("frame_age_p99_ms", p.frame_age_p99_ms);
        w.field_f64("delivered_mbps", p.delivered_mbps);
        w.field_f64("estimate_mbps", p.estimate_mbps);
        w.field_f64("delivery_ratio", p.delivery_ratio);
        crate::write_stall_causes(w.field_raw("stall_causes"), &p.stall_causes);
    });
    o.finish();
    out
}
