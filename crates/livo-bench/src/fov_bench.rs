//! FoV-utility sweep: PSSIM-in-frustum per bit, progressive vs
//! all-or-nothing, as the link collapses.
//!
//! One pair of band2 replays per bandwidth band: the all-or-nothing
//! baseline (every in-frustum tile ships at the same QP, a late frame
//! delivers nothing) against the progressive scheme (coarse base layer
//! sized to a fraction of the GCC budget, best-first fine-QP refinement
//! slices on the highest-utility tiles, refinement dropped first under
//! backpressure). The headline metric is displayed quality per megabit —
//! PSSIM culled to the viewer's frustum, stalls scored as zero, divided
//! by what the sender actually put on the wire — plus the center-of-gaze
//! PSSIM on a narrowed frustum, which is where the refinement purse goes.

use livo_capture::{BandwidthTrace, VideoId};
use livo_core::conference::{ConferenceConfig, ConferenceRunner};
use livo_eval::experiments::EvalProfile;
use livo_telemetry::json::ObjectWriter;

/// Constant-bandwidth bands of the sweep, Mbps, best first.
pub const BANDS: [f64; 3] = [12.0, 6.0, 3.0];

/// Gate floor: progressive PSSIM-in-frustum per bit over baseline, at
/// *every* band — progressive delivery may not lose to all-or-nothing
/// anywhere in the sweep.
pub const PER_BIT_FLOOR: f64 = 1.0;

/// Gate slack on the center-of-gaze monotonicity: walking the bands from
/// fat to collapsed, the progressive scheme's center PSSIM may not drop
/// below this fraction of the best seen so far.
pub const CENTER_SLACK: f64 = 0.90;

/// Narrowed-frustum factor for the center-of-gaze score (half the
/// horizontal FoV).
const CENTER_SCALE: f32 = 0.5;

/// One (band, scheme) outcome.
pub struct FovPoint {
    pub bandwidth_mbps: f64,
    /// `"baseline"` (all-or-nothing) or `"progressive"`.
    pub scheme: &'static str,
    /// Frustum-culled PSSIM averaged over *all* sampled display slots —
    /// a stalled slot scores zero, so fluidity counts.
    pub pssim_geometry: f64,
    pub pssim_color: f64,
    /// The same score on the narrowed center-of-gaze frustum.
    pub pssim_center: f64,
    pub stall_rate: f64,
    pub bits_sent: u64,
    /// PSSIM-in-frustum per megabit on the wire: `pssim_geometry`
    /// divided by sent megabits.
    pub per_mbit: f64,
    /// Refinement frames the pacer sacrificed to protect the base layer.
    pub refine_drops: u64,
    /// Refinement payloads the receiver applied onto displayed bases.
    pub refine_applied: u64,
}

fn run_point(profile: &EvalProfile, bandwidth_mbps: f64, progressive: bool) -> FovPoint {
    let cfg = ConferenceConfig::builder(VideoId::Band2)
        .camera_scale(profile.camera_scale)
        .n_cameras(profile.n_cameras)
        .duration_s(profile.duration_s)
        .quality_every(profile.quality_every)
        .user_trace(0, profile.seed)
        .progressive(progressive)
        // Both schemes score the same narrowed frustum, so the center
        // column is comparable across rows.
        .center_hfov_scale(CENTER_SCALE)
        .build()
        .expect("fov sweep config is valid");
    let s = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(
        bandwidth_mbps,
        profile.duration_s + 5.0,
    ));
    let mbits = (s.bits_sent as f64 / 1e6).max(1e-9);
    FovPoint {
        bandwidth_mbps,
        scheme: if progressive {
            "progressive"
        } else {
            "baseline"
        },
        pssim_geometry: s.pssim_geometry,
        pssim_color: s.pssim_color,
        pssim_center: s.pssim_center_geometry,
        stall_rate: s.stall_rate,
        bits_sent: s.bits_sent,
        per_mbit: s.pssim_geometry / mbits,
        refine_drops: s.refine_drops,
        refine_applied: s.metrics.counter("codec.refine.applied").unwrap_or(0),
    }
}

/// Run the sweep: per band, baseline then progressive.
pub fn run_sweep(profile: &EvalProfile) -> Vec<FovPoint> {
    let mut points = Vec::with_capacity(BANDS.len() * 2);
    for &bw in &BANDS {
        points.push(run_point(profile, bw, false));
        points.push(run_point(profile, bw, true));
    }
    points
}

/// The two rows of one band, `(baseline, progressive)`.
fn pairs(points: &[FovPoint]) -> Vec<(&FovPoint, &FovPoint)> {
    let mut out = Vec::new();
    for &bw in &BANDS {
        let base = points
            .iter()
            .find(|p| p.bandwidth_mbps == bw && p.scheme == "baseline");
        let prog = points
            .iter()
            .find(|p| p.bandwidth_mbps == bw && p.scheme == "progressive");
        if let (Some(b), Some(p)) = (base, prog) {
            out.push((b, p));
        }
    }
    out
}

/// The gate claims: per-bit floor at every band, the progressive
/// center-of-gaze score holding up as bandwidth collapses, and
/// refinement actually arriving.
pub fn gate_ok(points: &[FovPoint]) -> bool {
    let pairs = pairs(points);
    if pairs.len() != BANDS.len() {
        return false;
    }
    if pairs
        .iter()
        .any(|(base, prog)| prog.per_mbit < PER_BIT_FLOOR * base.per_mbit)
    {
        return false;
    }
    // Monotonicity with slack: the center score at each narrower band
    // must stay within CENTER_SLACK of the best seen on a fatter one.
    let mut best = 0.0f64;
    for (_, prog) in &pairs {
        if prog.pssim_center < CENTER_SLACK * best {
            return false;
        }
        best = best.max(prog.pssim_center);
    }
    // The base layer must never be sacrificed for refinement: drops land
    // exclusively on the refinement lane by construction, so all we can
    // see go wrong here is refinement never arriving at all.
    pairs.iter().any(|(_, p)| p.refine_applied > 0)
}

/// Human-readable table of the sweep.
pub fn text(points: &[FovPoint]) -> String {
    let mut s = String::from(
        "FoV-utility sweep: band2, PSSIM-in-frustum per megabit, \
         progressive vs all-or-nothing\n\n",
    );
    s.push_str(&format!(
        "{:>7} | {:>11} | {:>7} | {:>7} | {:>7} | {:>7} | {:>8} | {:>6} | {:>7}\n",
        "bw Mbps", "scheme", "pssim_g", "center", "stalls", "Mbit", "per Mbit", "drops", "applied"
    ));
    s.push_str(&format!(
        "{:->7}-+-{:->11}-+-{:->7}-+-{:->7}-+-{:->7}-+-{:->7}-+-{:->8}-+-{:->6}-+-{:->7}\n",
        "", "", "", "", "", "", "", "", ""
    ));
    for p in points {
        s.push_str(&format!(
            "{:>7.0} | {:>11} | {:>7.2} | {:>7.2} | {:>6.1}% | {:>7.1} | {:>8.2} | {:>6} | {:>7}\n",
            p.bandwidth_mbps,
            p.scheme,
            p.pssim_geometry,
            p.pssim_center,
            p.stall_rate * 100.0,
            p.bits_sent as f64 / 1e6,
            p.per_mbit,
            p.refine_drops,
            p.refine_applied,
        ));
    }
    for (base, prog) in pairs(points) {
        s.push_str(&format!(
            "\n{:>5.0} Mbps: progressive per-bit {:.2} vs baseline {:.2} ({:.2}x)",
            base.bandwidth_mbps,
            prog.per_mbit,
            base.per_mbit,
            prog.per_mbit / base.per_mbit.max(1e-9),
        ));
    }
    s.push_str(&format!(
        "\n\ngate: >= {PER_BIT_FLOOR:.1}x per-bit at every band, center PSSIM within \
         {CENTER_SLACK:.2} of its best as bandwidth collapses.\n"
    ));
    s
}

/// The snapshot written to `BENCH_fov.json`, schema `livo-bench-fov-v1`.
pub fn json(points: &[FovPoint], profile: &EvalProfile) -> String {
    let mut out = String::new();
    let mut o = ObjectWriter::new(&mut out);
    o.field_str("schema", "livo-bench-fov-v1");
    {
        let cfg = o.field_raw("config");
        let mut c = ObjectWriter::new(cfg);
        c.field_str("video", "band2");
        c.field_f64("camera_scale", profile.camera_scale as f64);
        c.field_u64("n_cameras", profile.n_cameras as u64);
        c.field_f64("duration_s", profile.duration_s as f64);
        c.field_u64("seed", profile.seed);
        c.field_f64("center_hfov_scale", CENTER_SCALE as f64);
        c.field_f64("per_bit_floor", PER_BIT_FLOOR);
        c.field_f64("center_slack", CENTER_SLACK);
        c.finish();
    }
    {
        let arr = o.field_raw("points");
        arr.push('[');
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            let mut w = ObjectWriter::new(arr);
            w.field_f64("bandwidth_mbps", p.bandwidth_mbps);
            w.field_str("scheme", p.scheme);
            w.field_f64("pssim_geometry", p.pssim_geometry);
            w.field_f64("pssim_color", p.pssim_color);
            w.field_f64("pssim_center", p.pssim_center);
            w.field_f64("stall_rate", p.stall_rate);
            w.field_u64("bits_sent", p.bits_sent);
            w.field_f64("per_mbit", p.per_mbit);
            w.field_u64("refine_drops", p.refine_drops);
            w.field_u64("refine_applied", p.refine_applied);
            w.finish();
        }
        arr.push(']');
    }
    o.finish();
    out
}
