//! The experiment grid and targeted sweeps behind every figure.
//!
//! The paper's evaluation crosses 4 schemes × 5 videos × 3 user traces × 2
//! network traces. `run_cell` executes one cell; [`run_grid`] sweeps a
//! set. The per-figure helpers (split sweep, guard-band table, depth
//! encodings, static-split comparison, bitrate saturation) run the reduced
//! workloads those figures need.

use crate::qoe::{self, QoeInputs};
use livo_baselines::{
    BaselineSummary, DracoOracle, DracoOracleConfig, MeshReduce, MeshReduceConfig,
};
use livo_capture::{BandwidthTrace, TraceId, VideoId};
use livo_core::conference::{ConferenceConfig, ConferenceRunner};
use livo_core::cull::cull_accuracy;
use livo_core::depth::DepthEncoding;
use livo_core::frustum_pred::FrustumPredictor;
use livo_math::{Frustum, FrustumParams};

/// The four schemes of the study plus the NoAdapt ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    Livo,
    LivoNoCull,
    LivoNoAdapt,
    DracoOracle,
    MeshReduce,
}

impl Scheme {
    pub const STUDY: [Scheme; 4] = [
        Scheme::DracoOracle,
        Scheme::MeshReduce,
        Scheme::LivoNoCull,
        Scheme::Livo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Livo => "LiVo",
            Scheme::LivoNoCull => "LiVo-NoCull",
            Scheme::LivoNoAdapt => "LiVo-NoAdapt",
            Scheme::DracoOracle => "Draco-Oracle",
            Scheme::MeshReduce => "MeshReduce",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scale knobs for the whole evaluation. The paper runs minutes-long
/// full-resolution replays on GPU testbeds; the profiles trade length and
/// resolution for CPU tractability while preserving every mechanism.
#[derive(Debug, Clone, Copy)]
pub struct EvalProfile {
    pub camera_scale: f32,
    pub n_cameras: usize,
    pub duration_s: f32,
    pub quality_every: u32,
    pub seed: u64,
}

impl EvalProfile {
    /// Fast CI-grade profile.
    pub fn quick() -> Self {
        EvalProfile {
            camera_scale: 0.08,
            n_cameras: 4,
            duration_s: 3.0,
            quality_every: 20,
            seed: 11,
        }
    }

    /// The default reproduction profile. Sized for a single CPU core —
    /// raise `camera_scale`/`n_cameras`/`duration_s` on bigger machines.
    pub fn standard() -> Self {
        EvalProfile {
            camera_scale: 0.08,
            n_cameras: 6,
            duration_s: 5.0,
            quality_every: 15,
            seed: 11,
        }
    }
}

/// One grid cell's outcome.
#[derive(Debug, Clone)]
pub struct GridResult {
    pub scheme: Scheme,
    pub video: VideoId,
    pub trace: TraceId,
    pub user_style: usize,
    pub pssim_geometry: f64,
    pub pssim_color: f64,
    pub pssim_geometry_no_stall: f64,
    pub pssim_color_no_stall: f64,
    pub stall_rate: f64,
    pub mean_fps: f64,
    pub throughput_mbps: f64,
    pub mean_capacity_mbps: f64,
    pub mos: f64,
}

impl GridResult {
    pub fn utilization(&self) -> f64 {
        if self.mean_capacity_mbps <= 0.0 {
            0.0
        } else {
            self.throughput_mbps / self.mean_capacity_mbps
        }
    }

    fn qoe_inputs(&self) -> QoeInputs {
        QoeInputs {
            pssim_geometry: self.pssim_geometry,
            pssim_color: self.pssim_color,
            stall_rate: self.stall_rate,
            fps: self.mean_fps,
        }
    }

    /// Simulated participant scores for this cell (Figs. 5–8).
    pub(crate) fn study_scores(&self, n: usize) -> Vec<u8> {
        qoe::study_scores(&self.qoe_inputs(), n, self.cell_seed())
    }

    fn cell_seed(&self) -> u64 {
        let v = self
            .video
            .name()
            .bytes()
            .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
        let t = if self.trace == TraceId::Trace1 { 1 } else { 2 };
        v ^ (self.user_style as u64) << 8 ^ t << 16 ^ (self.scheme as u64) << 24
    }
}

/// Seed the congestion controller near (half of) the trace mean: a session
/// that starts 60× above a scaled link spends the whole short replay
/// recovering from its own initial overshoot, which real WebRTC endpoints
/// avoid with probing.
fn tune_session(cfg: &mut ConferenceConfig, trace: &BandwidthTrace) {
    cfg.session.initial_estimate_bps = (trace.stats().mean * 1e6 * 0.5).max(2e5);
}

/// The full-scale LiVo sender's unconstrained appetite in Mbps — two 4K
/// streams at visually-lossless quality land in this region; the paper's
/// trace-2 (89 Mbps) is therefore a heavily constrained condition and
/// trace-1 (217 Mbps) a mild one.
const FULL_SCALE_APPETITE_MBPS: f64 = 300.0;

/// Measure this profile's unconstrained sender appetite (Mbps) once and
/// derive the factor that maps the paper's trace capacities onto the same
/// *relative* pressure. Pure area scaling under-budgets small canvases
/// because packet headers, the sequence strip and codec floors do not
/// shrink with resolution.
fn pressure_factor(profile: &EvalProfile) -> f64 {
    use std::collections::HashMap;
    use std::sync::Mutex;
    static CACHE: Mutex<Option<HashMap<(u32, usize), f64>>> = Mutex::new(None);
    let key = ((profile.camera_scale * 1000.0) as u32, profile.n_cameras);
    if let Some(f) = CACHE
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .get(&key)
    {
        return *f;
    }
    let mut cfg = ConferenceConfig::builder(VideoId::Band2)
        .cull(false)
        .camera_scale(profile.camera_scale)
        .n_cameras(profile.n_cameras)
        .duration_s(2.0)
        .quality_every(10_000) // skip quality scoring in the probe
        .build()
        .expect("probe config is valid");
    cfg.session.initial_estimate_bps = 50e6;
    let s = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(10_000.0, 8.0));
    let appetite_mbps = s.bits_sent as f64 / 2.0 / 1e6;
    let factor = (appetite_mbps / FULL_SCALE_APPETITE_MBPS).max(1e-3);
    CACHE
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .insert(key, factor);
    factor
}

fn livo_cfg(
    scheme: Scheme,
    video: VideoId,
    profile: &EvalProfile,
    style: usize,
) -> ConferenceConfig {
    let builder = match scheme {
        Scheme::Livo => ConferenceConfig::builder(video),
        Scheme::LivoNoCull => ConferenceConfig::builder(video).cull(false),
        Scheme::LivoNoAdapt => ConferenceConfig::builder(video).adapt(false).cull(false),
        _ => unreachable!("not a LiVo-family scheme"),
    };
    builder
        .camera_scale(profile.camera_scale)
        .n_cameras(profile.n_cameras)
        .duration_s(profile.duration_s)
        .quality_every(profile.quality_every)
        .user_trace(style, profile.seed + style as u64)
        .build()
        .expect("evaluation grid config is valid")
}

/// Run one (scheme, video, trace, user-style) cell.
pub(crate) fn run_cell(
    scheme: Scheme,
    video: VideoId,
    trace_id: TraceId,
    style: usize,
    profile: &EvalProfile,
) -> GridResult {
    let trace = BandwidthTrace::generate(trace_id, profile.duration_s + 5.0, profile.seed + 77);
    // Replays run at reduced capture resolution; scale the trace so the
    // bandwidth *pressure* (capacity relative to the sender's unconstrained
    // appetite) matches the paper's full-scale setup. Draco-Oracle
    // normalises internally instead, via its paper-scale point counts.
    let (g, c, gn, cn, stall, fps, tput, cap) = match scheme {
        Scheme::Livo | Scheme::LivoNoCull | Scheme::LivoNoAdapt => {
            let mut cfg = livo_cfg(scheme, video, profile, style);
            let trace = trace.scaled(pressure_factor(profile));
            tune_session(&mut cfg, &trace);
            let runner = ConferenceRunner::new(cfg);
            let s = runner.run(trace);
            (
                s.pssim_geometry,
                s.pssim_color,
                s.pssim_geometry_no_stall,
                s.pssim_color_no_stall,
                s.stall_rate,
                s.mean_fps,
                s.throughput_mbps,
                s.mean_capacity_mbps,
            )
        }
        Scheme::DracoOracle => {
            let mut cfg = DracoOracleConfig::new(video);
            cfg.camera_scale = profile.camera_scale;
            cfg.n_cameras = profile.n_cameras;
            cfg.duration_s = profile.duration_s;
            cfg.user_trace_seed = profile.seed + style as u64;
            cfg.user_trace_style = style;
            let s: BaselineSummary = DracoOracle::new(cfg).run(&trace);
            summary_tuple(&s)
        }
        Scheme::MeshReduce => {
            let mut cfg = MeshReduceConfig::new(video);
            cfg.camera_scale = profile.camera_scale;
            cfg.n_cameras = profile.n_cameras;
            cfg.duration_s = profile.duration_s;
            // Mesh sizes also scale with capture resolution; apply the same
            // pressure factor the LiVo cells use.
            let s = MeshReduce::new(cfg).run(&trace.scaled(pressure_factor(profile)));
            summary_tuple(&s)
        }
    };
    let mut r = GridResult {
        scheme,
        video,
        trace: trace_id,
        user_style: style,
        pssim_geometry: g,
        pssim_color: c,
        pssim_geometry_no_stall: gn,
        pssim_color_no_stall: cn,
        stall_rate: stall,
        mean_fps: fps,
        throughput_mbps: tput,
        mean_capacity_mbps: cap,
        mos: 0.0,
    };
    r.mos = qoe::mos(&r.qoe_inputs());
    r
}

fn summary_tuple(s: &BaselineSummary) -> (f64, f64, f64, f64, f64, f64, f64, f64) {
    (
        s.pssim_geometry,
        s.pssim_color,
        s.pssim_geometry_no_stall,
        s.pssim_color_no_stall,
        s.stall_rate,
        s.mean_fps,
        s.throughput_mbps,
        s.mean_capacity_mbps,
    )
}

/// Sweep a set of cells.
pub fn run_grid(
    schemes: &[Scheme],
    videos: &[VideoId],
    traces: &[TraceId],
    styles: &[usize],
    profile: &EvalProfile,
) -> Vec<GridResult> {
    let mut out = Vec::new();
    for &scheme in schemes {
        for &video in videos {
            for &trace in traces {
                for &style in styles {
                    out.push(run_cell(scheme, video, trace, style, profile));
                }
            }
        }
    }
    out
}

/// Fig. 4: colour and depth RMSE as a function of the split at a fixed
/// target bandwidth. Runs short LiVo replays pinned to each static split
/// and reports the sender-side tiled-frame RMSEs via the run's quality
/// proxy: we re-measure from the encode loop by a dedicated mini-run.
pub(crate) struct SplitSweepRow {
    pub split: f64,
    pub rmse_depth_mm: f64,
    pub rmse_color: f64,
}

pub(crate) fn fig4_split_sweep(
    video: VideoId,
    bandwidth_mbps: f64,
    splits: &[f64],
    profile: &EvalProfile,
) -> Vec<SplitSweepRow> {
    use livo_capture::rig;
    use livo_codec2d::{Encoder, EncoderConfig, PixelFormat};
    use livo_core::depth::{depth_mse_mm, DepthCodec};
    use livo_core::tile::{compose_color, compose_depth, TileLayout};

    let preset = livo_capture::datasets::DatasetPreset::load(video);
    let cameras = rig::panoptic_rig(profile.n_cameras, profile.camera_scale);
    let k = cameras[0].intrinsics;
    let layout = TileLayout::new(k.width as usize, k.height as usize, profile.n_cameras);
    let codec = DepthCodec::default();
    // The paper's Fig. 4 uses one video at one bandwidth; a few frames
    // suffice because the splitter isn't adapting here.
    let frames = 8u32;
    let mut rows = Vec::new();
    for &split in splits {
        let mut color_enc = Encoder::new(EncoderConfig::new(
            layout.canvas_w,
            layout.canvas_h,
            PixelFormat::Yuv420,
        ));
        let mut depth_enc = Encoder::new(EncoderConfig::new(
            layout.canvas_w,
            layout.canvas_h,
            PixelFormat::Y16,
        ));
        let mut rmse_d_acc = 0.0;
        let mut rmse_c_acc = 0.0;
        // Budget scaled by the measured pressure factor so "80 Mbps" means
        // the same degree of constraint it means at the paper's 4K scale.
        let per_frame = bandwidth_mbps * 1e6 / 30.0 * pressure_factor(profile);
        for i in 0..frames {
            let snap = preset.scene.at(i as f32 / 30.0);
            let views: Vec<_> = cameras
                .iter()
                .map(|c| livo_capture::render::render_rgbd_at(c, &snap, i))
                .collect();
            let color = compose_color(&views, &layout, i);
            let depth = compose_depth(&views, &layout, &codec, i);
            let c_out = color_enc.encode(&color, (per_frame * (1.0 - split)) as u64);
            let d_out = depth_enc.encode(&depth, (per_frame * split) as u64);
            rmse_c_acc += livo_codec2d::luma_rmse(&color, &c_out.reconstruction);
            // Depth RMSE in millimetres over valid pixels.
            let truth_mm: Vec<u16> = depth.planes[0]
                .data
                .iter()
                .map(|&s| codec.decode_sample(s))
                .collect();
            let got_mm: Vec<u16> = d_out.reconstruction.planes[0]
                .data
                .iter()
                .map(|&s| codec.decode_sample(s))
                .collect();
            rmse_d_acc += depth_mse_mm(&truth_mm, &got_mm).sqrt();
        }
        rows.push(SplitSweepRow {
            split,
            rmse_depth_mm: rmse_d_acc / frames as f64,
            rmse_color: rmse_c_acc / frames as f64,
        });
    }
    rows
}

/// Fig. 15: culling accuracy (and fraction of points sent) for guard bands
/// × prediction windows, using the Kalman predictor on a real user trace.
pub(crate) struct GuardRow {
    pub guard_cm: u32,
    pub window_frames: u32,
    pub accuracy_pct: f64,
    pub sent_fraction: f64,
}

pub(crate) fn fig15_guard_sweep(
    video: VideoId,
    guards_cm: &[u32],
    windows: &[u32],
    profile: &EvalProfile,
) -> Vec<GuardRow> {
    use livo_capture::{render_rgbd, rig, UserTrace};

    let preset = livo_capture::datasets::DatasetPreset::load(video);
    let cameras = rig::panoptic_rig(profile.n_cameras, profile.camera_scale);
    let trace = UserTrace::generate(
        livo_capture::usertrace::TraceStyle::Orbit,
        profile.duration_s + 3.0,
        profile.seed,
    );
    let fps = 30.0;
    let sample_every = 10usize;
    let max_w = windows.iter().copied().max().unwrap_or(0) as usize;
    let mut rows = Vec::new();
    for &w in windows {
        // Feed the predictor along the trace; at sampled instants compare
        // the predicted frustum (horizon = W frames) against the truth.
        // Every (guard, window) pair samples the *same* instants so the
        // table is comparable cell to cell.
        for &g in guards_cm {
            let mut predictor = FrustumPredictor::new(FrustumParams::default(), g as f32 / 100.0);
            let mut acc_sum = 0.0;
            let mut sent_sum = 0.0;
            let mut n = 0.0f64;
            for (i, pose) in trace.poses.iter().enumerate() {
                predictor.observe(pose);
                if i < 30 || i % sample_every != 0 || i + max_w >= trace.poses.len() {
                    continue;
                }
                let horizon = w as f64 / fps;
                let target_idx = i + w as usize;
                let t = i as f32 / fps as f32;
                let snap = preset.scene.at(t);
                let views: Vec<_> = cameras.iter().map(|c| render_rgbd(c, &snap)).collect();
                let predicted = predictor.predicted_frustum_at(horizon, g as f32 / 100.0);
                let truth =
                    Frustum::from_params(&trace.poses[target_idx], &FrustumParams::default());
                let a = cull_accuracy(&views, &cameras, &predicted, &truth);
                acc_sum += a.accuracy() * 100.0;
                sent_sum += a.sent_fraction();
                n += 1.0;
            }
            rows.push(GuardRow {
                guard_cm: g,
                window_frames: w,
                accuracy_pct: acc_sum / n.max(1.0),
                sent_fraction: sent_sum / n.max(1.0),
            });
        }
    }
    rows
}

/// Fig. 17 / Fig. A.1: end-to-end depth-encoding comparison.
pub(crate) struct DepthEncodingRow {
    pub encoding: DepthEncoding,
    pub pssim_geometry: f64,
    pub stall_rate: f64,
}

pub(crate) fn fig17_depth_encodings(
    video: VideoId,
    profile: &EvalProfile,
) -> Vec<DepthEncodingRow> {
    [
        DepthEncoding::ScaledY16,
        DepthEncoding::RawY16,
        DepthEncoding::RgbPacked,
    ]
    .into_iter()
    .map(|encoding| {
        let mut cfg = livo_cfg(Scheme::Livo, video, profile, 0);
        cfg.depth_encoding = encoding;
        let trace =
            BandwidthTrace::generate(TraceId::Trace2, profile.duration_s + 5.0, profile.seed)
                .scaled(pressure_factor(profile));
        tune_session(&mut cfg, &trace);
        let s = ConferenceRunner::new(cfg).run(trace);
        DepthEncodingRow {
            encoding,
            pssim_geometry: s.pssim_geometry_no_stall,
            stall_rate: s.stall_rate,
        }
    })
    .collect()
}

/// Figs. 18–19: static splits vs the dynamic splitter across bitrates.
pub(crate) struct StaticSplitRow {
    pub bitrate_mbps: f64,
    /// `None` = dynamic.
    pub split: Option<f64>,
    pub pssim_geometry: f64,
    pub pssim_color: f64,
}

pub(crate) fn fig18_19_static_vs_dynamic(
    video: VideoId,
    bitrates_mbps: &[f64],
    static_splits: &[f64],
    profile: &EvalProfile,
) -> Vec<StaticSplitRow> {
    let mut rows = Vec::new();
    for &rate in bitrates_mbps {
        // The paper scales its 4K target bitrates; our canvas is smaller,
        // so scale the constant trace by canvas area the same way the
        // split-sweep does (the runner's budget is estimate-driven).
        let mut configs: Vec<(Option<f64>, ConferenceConfig)> = Vec::new();
        for &s in static_splits {
            let mut cfg = livo_cfg(Scheme::Livo, video, profile, 0);
            cfg.static_split = Some(s);
            configs.push((Some(s), cfg));
        }
        configs.push((None, livo_cfg(Scheme::Livo, video, profile, 0)));
        for (split, mut cfg) in configs {
            let trace =
                BandwidthTrace::constant(rate * pressure_factor(profile), profile.duration_s + 5.0);
            tune_session(&mut cfg, &trace);
            let s = ConferenceRunner::new(cfg).run(trace);
            rows.push(StaticSplitRow {
                bitrate_mbps: rate,
                split,
                pssim_geometry: s.pssim_geometry_no_stall,
                pssim_color: s.pssim_color_no_stall,
            });
        }
    }
    rows
}

/// Fig. A.2: quality saturation as one stream's bitrate grows with the
/// other held fixed. Reported as (normalised bitrate per point, PSSIM).
pub(crate) struct SaturationRow {
    pub depth_bits_per_point: f64,
    pub pssim_geometry: f64,
    pub color_bits_per_point: f64,
    pub pssim_color: f64,
}

pub(crate) fn figa2_saturation(
    video: VideoId,
    profile: &EvalProfile,
    steps: &[f64],
) -> Vec<SaturationRow> {
    let mut rows = Vec::new();
    for &mult in steps {
        // Sweep the split indirectly: fix total, let depth take `mult` of a
        // reference share while colour keeps the remainder.
        let mut cfg = livo_cfg(Scheme::Livo, video, profile, 0);
        let split = (0.5 + 0.45 * mult).min(0.95);
        cfg.static_split = Some(split.min(0.9));
        let trace =
            BandwidthTrace::constant(90.0 * pressure_factor(profile), profile.duration_s + 5.0);
        tune_session(&mut cfg, &trace);
        let runner = ConferenceRunner::new(cfg);
        let s = runner.run(trace.clone());
        let canvas_points =
            (runner.layout().cam_w * runner.layout().cam_h * runner.layout().n) as f64;
        let per_frame_bits = trace.stats().mean * 1e6 / 30.0;
        rows.push(SaturationRow {
            depth_bits_per_point: per_frame_bits * s.mean_split / canvas_points,
            pssim_geometry: s.pssim_geometry_no_stall,
            color_bits_per_point: per_frame_bits * (1.0 - s.mean_split) / canvas_points,
            pssim_color: s.pssim_color_no_stall,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cell_livo_vs_draco_ordering() {
        let p = EvalProfile::quick();
        let livo = run_cell(Scheme::Livo, VideoId::Toddler4, TraceId::Trace2, 0, &p);
        let draco = run_cell(
            Scheme::DracoOracle,
            VideoId::Toddler4,
            TraceId::Trace2,
            0,
            &p,
        );
        assert!(
            livo.pssim_geometry > draco.pssim_geometry,
            "{} vs {}",
            livo.pssim_geometry,
            draco.pssim_geometry
        );
        assert!(livo.mos > draco.mos);
        assert!(livo.stall_rate < draco.stall_rate);
    }

    #[test]
    fn fig4_split_sweep_shows_depth_needs_more() {
        let p = EvalProfile::quick();
        let rows = fig4_split_sweep(VideoId::Toddler4, 80.0, &[0.5, 0.7, 0.9], &p);
        assert_eq!(rows.len(), 3);
        // Depth RMSE falls as its share grows; colour RMSE rises.
        assert!(rows[0].rmse_depth_mm > rows[2].rmse_depth_mm);
        assert!(rows[0].rmse_color <= rows[2].rmse_color + 1e-9);
    }

    #[test]
    fn fig15_guard_band_monotonicity() {
        let mut p = EvalProfile::quick();
        p.duration_s = 4.0;
        let rows = fig15_guard_sweep(VideoId::Toddler4, &[10, 50], &[5, 30], &p);
        assert_eq!(rows.len(), 4);
        let get = |g: u32, w: u32| {
            rows.iter()
                .find(|r| r.guard_cm == g && r.window_frames == w)
                .unwrap()
        };
        // Bigger guard → higher accuracy, more data (Fig. 15's table shape).
        assert!(get(50, 30).accuracy_pct >= get(10, 30).accuracy_pct);
        assert!(get(50, 5).sent_fraction >= get(10, 5).sent_fraction);
        // Longer window → lower accuracy at fixed guard.
        assert!(get(10, 5).accuracy_pct >= get(10, 30).accuracy_pct);
    }
}
