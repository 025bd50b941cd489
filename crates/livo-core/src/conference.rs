//! The end-to-end conference runner: scene → sender → network → receiver.
//!
//! This is the replay harness of §4.1 of the paper: RGB-D frames are
//! produced at 30 fps (here: rendered from a scene preset), fed through the
//! LiVo sender (cull → tile → depth-encode → rate-adaptive 2D encode),
//! transmitted over the emulated WebRTC session against a bandwidth trace,
//! decoded, reconstructed and "displayed" at the receiver, whose pose
//! follows a user trace. Config flags turn off culling (LiVo-NoCull),
//! adaptation (LiVo-NoAdapt), pin a static split (Figs. 18–19), switch the
//! depth encoding (Fig. 17), or use oracle frustums (§4.5).
//!
//! Everything runs in virtual time; wall-clock is only measured to report
//! per-component processing latency (Table 6).

use crate::cull::{CullContext, CullStats};
use crate::depth::{depth_mse_mm, DepthCodec, DepthEncoding};
use crate::frustum_pred::FrustumPredictor;
use crate::reconstruct::{prepare_for_render, reconstruct_point_cloud};
use crate::splitter::{BandwidthSplitter, SplitterConfig};
use crate::tile::{compose_color, compose_depth, read_seq, write_seq, TileLayout};
use bytes::Bytes;
use livo_bond::{BondConfig, BondScenario};
use livo_capture::{
    datasets::DatasetPreset, render::render_views_at, rig, BandwidthTrace, RgbdFrame, UserTrace,
    VideoId,
};
use livo_codec2d::{Decoder, Encoder, EncoderConfig, Frame, PixelFormat};
use livo_math::FrustumParams;
use livo_pointcloud::{pssim, PointCloud, PssimConfig, PssimScore};
use livo_runtime::WorkerPool;
use livo_telemetry::trace::{kind, EventTrace, TraceEvent, NO_FRAME};
use livo_telemetry::{
    log_event, stage, AnomalyConfig, FlightBundle, FlightRecorder, FrameTimeline,
    FrameTimelineRecord, Level, MetricsRegistry, RegistrySnapshot, TelemetrySpan,
};
use livo_transport::{Micros, RtcSession, SessionConfig, StreamId};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one conference replay.
#[derive(Debug, Clone)]
pub struct ConferenceConfig {
    pub video: VideoId,
    /// Camera resolution scale (1.0 = full Kinect 640×576; evaluation runs
    /// use ~0.1–0.2 to keep experiments tractable without GPUs).
    pub camera_scale: f32,
    pub n_cameras: usize,
    /// Replay length in seconds (a prefix of the video).
    pub duration_s: f32,
    pub fps: u32,
    /// Sender-side predictive culling (off = LiVo-NoCull).
    pub cull: bool,
    /// Direct rate adaptation (off = LiVo-NoAdapt, fixed QPs below).
    pub adapt: bool,
    pub fixed_color_qp: u8,
    pub fixed_depth_qp: u8,
    pub depth_encoding: DepthEncoding,
    /// Frustum guard band ε in metres.
    pub guard_m: f32,
    /// Use the receiver's *true* pose for culling (perfect-culling oracle).
    pub perfect_cull: bool,
    pub splitter: SplitterConfig,
    /// Pin the split to a constant (Figs. 18–19's static splits).
    pub static_split: Option<f64>,
    pub session: SessionConfig,
    /// Bonded multi-link transport: when set, the call's [`RtcSession`]
    /// runs over the legs of this topology scenario instead of the single
    /// link in `session.link` (which is then ignored). Jitter target and
    /// initial estimate still come from `session`.
    pub bond: Option<BondScenario>,
    /// Receiver render voxel size in metres.
    pub voxel_m: f32,
    /// Compute PSSIM on every n-th display slot (the expensive part; the
    /// paper logs clouds and scores offline).
    pub quality_every: u32,
    /// Fraction of the bandwidth estimate budgeted to media (headroom for
    /// packet headers and retransmissions).
    pub budget_fraction: f64,
    pub user_trace_seed: u64,
    pub user_trace_style: usize,
    /// Causal event tracing (capture→…→display ring buffer). On by
    /// default: the ring is fixed-capacity and the record path is a few
    /// atomics, so the overhead stays within the tier-1 budget (≤ 5%).
    pub trace: bool,
    /// Trace ring capacity in events (shared across all record sites).
    pub trace_capacity: usize,
    /// Flight-recorder detector thresholds (`AnomalyConfig::disarmed()`
    /// turns anomaly dumps off entirely).
    pub anomaly: AnomalyConfig,
}

impl ConferenceConfig {
    /// LiVo defaults at evaluation scale for a given video (what the old
    /// `livo` constructor produced).
    fn defaults(video: VideoId) -> Self {
        ConferenceConfig {
            video,
            camera_scale: 0.15,
            n_cameras: 10,
            duration_s: 10.0,
            fps: 30,
            cull: true,
            adapt: true,
            fixed_color_qp: 22,
            fixed_depth_qp: 14,
            depth_encoding: DepthEncoding::ScaledY16,
            guard_m: 0.2,
            perfect_cull: false,
            splitter: SplitterConfig::default(),
            static_split: None,
            session: SessionConfig::default(),
            bond: None,
            voxel_m: 0.03,
            quality_every: 15,
            budget_fraction: 0.80,
            user_trace_seed: 11,
            user_trace_style: 0,
            trace: true,
            trace_capacity: 65_536,
            anomaly: AnomalyConfig::default(),
        }
    }

    /// Start a validating builder from the LiVo defaults for `video`. The
    /// baseline schemes of §4.1 map as:
    ///
    /// - LiVo: `ConferenceConfig::builder(v).build()?`
    /// - LiVo-NoCull: `.cull(false)`
    /// - LiVo-NoAdapt: `.adapt(false).cull(false)`
    pub fn builder(video: VideoId) -> ConferenceConfigBuilder {
        ConferenceConfigBuilder {
            cfg: Self::defaults(video),
        }
    }
}

/// A [`ConferenceConfig`] field rejected by [`ConferenceConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig {
    /// Name of the offending field.
    pub field: &'static str,
    /// Human-readable constraint it violated.
    pub message: String,
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid ConferenceConfig.{}: {}",
            self.field, self.message
        )
    }
}

impl std::error::Error for InvalidConfig {}

/// Validating builder for [`ConferenceConfig`], started by
/// [`ConferenceConfig::builder`]. Every knob defaults to the LiVo
/// evaluation-scale configuration; [`build`](Self::build) rejects values the
/// runner cannot execute (zero fps, empty rigs, out-of-range fractions)
/// instead of letting them surface as divide-by-zero or empty-layout panics
/// mid-replay.
///
/// ```ignore
/// let cfg = ConferenceConfig::builder(VideoId::Band2)
///     .cull(false)
///     .adapt(true)
///     .duration_s(5.0)
///     .build()?;
/// ```
#[derive(Debug, Clone)]
pub struct ConferenceConfigBuilder {
    cfg: ConferenceConfig,
}

impl ConferenceConfigBuilder {
    /// Camera resolution scale, in `(0, 1]` of full Kinect 640×576.
    pub fn camera_scale(mut self, scale: f32) -> Self {
        self.cfg.camera_scale = scale;
        self
    }

    /// Number of cameras in the capture ring (≥ 1).
    pub fn n_cameras(mut self, n: usize) -> Self {
        self.cfg.n_cameras = n;
        self
    }

    /// Replay length in seconds (> 0).
    pub fn duration_s(mut self, s: f32) -> Self {
        self.cfg.duration_s = s;
        self
    }

    /// Capture and display rate (≥ 1).
    pub fn fps(mut self, fps: u32) -> Self {
        self.cfg.fps = fps;
        self
    }

    /// Sender-side predictive culling (off = LiVo-NoCull).
    pub fn cull(mut self, on: bool) -> Self {
        self.cfg.cull = on;
        self
    }

    /// Direct rate adaptation (off = LiVo-NoAdapt, fixed QPs).
    pub fn adapt(mut self, on: bool) -> Self {
        self.cfg.adapt = on;
        self
    }

    /// Fixed QPs used when adaptation is off.
    pub fn fixed_qps(mut self, color: u8, depth: u8) -> Self {
        self.cfg.fixed_color_qp = color;
        self.cfg.fixed_depth_qp = depth;
        self
    }

    pub fn depth_encoding(mut self, enc: DepthEncoding) -> Self {
        self.cfg.depth_encoding = enc;
        self
    }

    /// Frustum guard band ε in metres (≥ 0).
    pub fn guard_m(mut self, m: f32) -> Self {
        self.cfg.guard_m = m;
        self
    }

    /// Cull against the receiver's *true* pose (perfect-culling oracle).
    pub fn perfect_cull(mut self, on: bool) -> Self {
        self.cfg.perfect_cull = on;
        self
    }

    pub fn splitter(mut self, splitter: SplitterConfig) -> Self {
        self.cfg.splitter = splitter;
        self
    }

    /// Pin the bandwidth split to a constant in `[0, 1]` (Figs. 18–19).
    pub fn static_split(mut self, split: f64) -> Self {
        self.cfg.static_split = Some(split);
        self
    }

    pub fn session(mut self, session: SessionConfig) -> Self {
        self.cfg.session = session;
        self
    }

    /// Run the call over a bonded multi-link topology instead of the
    /// single emulated link in `session.link`.
    pub fn bond(mut self, scenario: BondScenario) -> Self {
        self.cfg.bond = Some(scenario);
        self
    }

    /// Receiver render voxel size in metres (> 0).
    pub fn voxel_m(mut self, m: f32) -> Self {
        self.cfg.voxel_m = m;
        self
    }

    /// Compute PSSIM on every n-th display slot (≥ 1).
    pub fn quality_every(mut self, n: u32) -> Self {
        self.cfg.quality_every = n;
        self
    }

    /// Fraction of the bandwidth estimate budgeted to media, in `(0, 1]`.
    pub fn budget_fraction(mut self, f: f64) -> Self {
        self.cfg.budget_fraction = f;
        self
    }

    pub fn user_trace(mut self, style: usize, seed: u64) -> Self {
        self.cfg.user_trace_style = style;
        self.cfg.user_trace_seed = seed;
        self
    }

    /// Causal event tracing on/off (the overhead-gate A/B knob).
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Trace ring capacity in events (≥ 1 when tracing is on).
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.cfg.trace_capacity = events;
        self
    }

    /// Flight-recorder detector thresholds.
    pub fn anomaly(mut self, cfg: AnomalyConfig) -> Self {
        self.cfg.anomaly = cfg;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ConferenceConfig, InvalidConfig> {
        let cfg = self.cfg;
        let err = |field: &'static str, message: String| Err(InvalidConfig { field, message });
        // NaN must fail every range check, so each test names it explicitly.
        if cfg.camera_scale.is_nan() || cfg.camera_scale <= 0.0 || cfg.camera_scale > 1.0 {
            return err(
                "camera_scale",
                format!("{} not in (0, 1]", cfg.camera_scale),
            );
        }
        if cfg.n_cameras == 0 {
            return err(
                "n_cameras",
                "a capture rig needs at least one camera".into(),
            );
        }
        if cfg.duration_s.is_nan() || cfg.duration_s <= 0.0 {
            return err("duration_s", format!("{} not > 0", cfg.duration_s));
        }
        if cfg.fps == 0 {
            return err("fps", "frame rate must be at least 1".into());
        }
        if cfg.guard_m.is_nan() || cfg.guard_m < 0.0 {
            return err("guard_m", format!("{} not >= 0", cfg.guard_m));
        }
        if let Some(s) = cfg.static_split {
            if !(0.0..=1.0).contains(&s) {
                return err("static_split", format!("{s} not in [0, 1]"));
            }
        }
        if cfg.voxel_m.is_nan() || cfg.voxel_m <= 0.0 {
            return err("voxel_m", format!("{} not > 0", cfg.voxel_m));
        }
        if cfg.quality_every == 0 {
            return err(
                "quality_every",
                "sampling interval must be at least 1".into(),
            );
        }
        if cfg.budget_fraction.is_nan() || cfg.budget_fraction <= 0.0 || cfg.budget_fraction > 1.0 {
            return err(
                "budget_fraction",
                format!("{} not in (0, 1]", cfg.budget_fraction),
            );
        }
        if cfg.trace && cfg.trace_capacity == 0 {
            return err(
                "trace_capacity",
                "tracing is on but the ring holds zero events".into(),
            );
        }
        if let Some(sc) = &cfg.bond {
            if let Err(msg) = sc.validate() {
                return err("bond", msg);
            }
        }
        Ok(cfg)
    }
}

/// One display-slot record.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Display slot index (30 per second).
    pub slot: u64,
    /// Sequence number of the new frame shown in this slot (`None` = the
    /// previous frame was re-shown: a stall).
    pub shown_seq: Option<u32>,
    /// Quality scores, when sampled this slot.
    pub pssim: Option<PssimScore>,
}

/// Per-component mean processing times (Table 6), in milliseconds of
/// wall-clock on *this* machine at the configured scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    pub capture_ms: f64,
    pub cull_ms: f64,
    pub tile_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub reconstruct_ms: f64,
    pub render_prep_ms: f64,
}

/// Summary of one replay.
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub records: Vec<FrameRecord>,
    /// Stall rate: slots with nothing new to show / total slots.
    pub stall_rate: f64,
    /// Delivered display rate in frames/second.
    pub mean_fps: f64,
    /// Mean PSSIM geometry/colour over sampled slots, stalls scored 0
    /// (§4.3: "we use a PSSIM of 0 for frames that experience stalls").
    pub pssim_geometry: f64,
    pub pssim_color: f64,
    /// Same, excluding stalled slots (Fig. 12's no-stall view).
    pub pssim_geometry_no_stall: f64,
    pub pssim_color_no_stall: f64,
    /// Receiver goodput in Mbps.
    pub throughput_mbps: f64,
    /// Mean capacity of the trace over the replay, Mbps.
    pub mean_capacity_mbps: f64,
    /// Mean transport latency (send→playout), ms.
    pub transport_latency_ms: f64,
    /// Mean split over the run.
    pub mean_split: f64,
    /// Mean fraction of valid pixels kept by the cull (1.0 without cull).
    pub mean_keep_fraction: f64,
    pub timings: StageTimings,
    /// Total wire bits offered by the sender (both streams).
    pub bits_sent: u64,
    /// Full metrics snapshot of the run: stage/codec histograms, transport
    /// gauges and counters (see DESIGN.md "Telemetry").
    pub metrics: RegistrySnapshot,
    /// Per-frame stage timeline (capture → … → display), keyed by sender
    /// sequence number, in virtual session time µs.
    pub timeline: Vec<FrameTimelineRecord>,
    /// Causal event-trace snapshot (empty when `cfg.trace` is off): the
    /// ring's surviving capture→…→display events in causal order. Feed
    /// to [`livo_telemetry::chrome_trace_json`] or
    /// [`livo_telemetry::TraceQuery`].
    pub trace: Vec<TraceEvent>,
    /// Flight-recorder bundles dumped by the anomaly detectors.
    pub flight: Vec<FlightBundle>,
}

impl RunSummary {
    /// Bandwidth utilisation (Table 1): goodput / mean capacity.
    pub fn utilization(&self) -> f64 {
        if self.mean_capacity_mbps <= 0.0 {
            0.0
        } else {
            self.throughput_mbps / self.mean_capacity_mbps
        }
    }
}

/// The runner.
pub struct ConferenceRunner {
    cfg: ConferenceConfig,
    preset: DatasetPreset,
    cameras: Vec<livo_math::RgbdCamera>,
    layout: TileLayout,
    user_trace: UserTrace,
    pool: Option<Arc<WorkerPool>>,
}

impl ConferenceRunner {
    pub fn new(cfg: ConferenceConfig) -> Self {
        let preset = DatasetPreset::load(cfg.video);
        let cameras = rig::camera_ring(
            cfg.n_cameras,
            2.5,
            1.4,
            livo_math::Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(cfg.camera_scale),
        );
        let k = cameras[0].intrinsics;
        let layout = TileLayout::new(k.width as usize, k.height as usize, cfg.n_cameras);
        let styles = livo_capture::usertrace::TraceStyle::ALL;
        let style = styles[cfg.user_trace_style % styles.len()];
        let user_trace = UserTrace::generate(style, cfg.duration_s + 5.0, cfg.user_trace_seed);
        ConferenceRunner {
            cfg,
            preset,
            cameras,
            layout,
            user_trace,
            pool: None,
        }
    }

    /// Run on a specific worker pool instead of the process-wide
    /// [`livo_runtime::global`] one — lets tests pin determinism across
    /// pool sizes without touching `LIVO_THREADS`.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    pub fn layout(&self) -> &TileLayout {
        &self.layout
    }

    pub fn config(&self) -> &ConferenceConfig {
        &self.cfg
    }

    /// Run the replay against the given bandwidth trace.
    pub fn run(&self, net_trace: BandwidthTrace) -> RunSummary {
        let cfg = &self.cfg;
        let frame_interval: Micros = 1_000_000 / cfg.fps as u64;
        let total_frames = (cfg.duration_s * cfg.fps as f32) as u64;
        let depth_codec = DepthCodec::new(6000, cfg.depth_encoding);

        // Encoders/decoders for the two streams. RGB-packed depth rides the
        // colour pixel format.
        let depth_format = match cfg.depth_encoding {
            DepthEncoding::RgbPacked => PixelFormat::Yuv420,
            _ => PixelFormat::Y16,
        };
        // Open-ended GOP: like the paper's deployment, intra frames are sent
        // only at start-up and on PLI/FIR (§A.1) — periodic keyframes would
        // burst above the rate target and cause rhythmic stalls.
        let mut color_cfg = EncoderConfig::new(
            self.layout.canvas_w,
            self.layout.canvas_h,
            PixelFormat::Yuv420,
        );
        color_cfg.gop_length = 0;
        let mut depth_cfg =
            EncoderConfig::new(self.layout.canvas_w, self.layout.canvas_h, depth_format);
        depth_cfg.gop_length = 0;
        let mut color_enc = Encoder::new(color_cfg);
        let mut depth_enc = Encoder::new(depth_cfg);
        let mut color_dec = Decoder::new();
        let mut depth_dec = Decoder::new();

        // Intra-frame parallelism (capture fan-out, cull rows, encoder
        // stripes) all runs on the process-wide pool: LIVO_THREADS sized,
        // serial when 1.
        let pool_arc = self
            .pool
            .clone()
            .unwrap_or_else(|| livo_runtime::global().clone());
        let pool = &pool_arc;
        color_enc.set_worker_pool(pool.clone());
        depth_enc.set_worker_pool(pool.clone());
        // Receive side: frames entropy-decode slice-parallel on
        // the same pool, and the colour/depth lanes decode concurrently.
        color_dec.set_worker_pool(pool.clone());
        depth_dec.set_worker_pool(pool.clone());

        let mut session = match &cfg.bond {
            Some(sc) => BondConfig::from_session(sc.clone(), &cfg.session).build(),
            None => RtcSession::new(net_trace.clone(), cfg.session.clone()),
        };
        let mut splitter = BandwidthSplitter::new(cfg.splitter);
        let mut predictor = FrustumPredictor::new(FrustumParams::default(), cfg.guard_m);

        // Per-run telemetry: a private registry (runs stay independent and
        // deterministic) and a frame timeline in virtual session time.
        let registry = Arc::new(MetricsRegistry::new());
        let timeline = Arc::new(FrameTimeline::new(total_frames as usize + 16));
        session.attach_telemetry(&registry, "transport", Some(timeline.clone()));
        color_enc.attach_telemetry(&registry, "codec.color");
        depth_enc.attach_telemetry(&registry, "codec.depth");
        color_dec.attach_telemetry(&registry);
        depth_dec.attach_telemetry(&registry);
        // Causal event trace: party 0 is the sender, party 1 the receiver.
        // The ring is always allocated (so the A/B overhead comparison
        // exercises the same code path) but records only when enabled.
        let trace = Arc::new(EventTrace::new(cfg.trace_capacity.max(1)));
        trace.set_enabled(cfg.trace);
        session.attach_trace(trace.clone(), 0, 1);
        color_enc.attach_trace(trace.clone(), 0, "codec.color");
        depth_enc.attach_trace(trace.clone(), 0, "codec.depth");
        color_dec.attach_trace(trace.clone(), 1, "codec.color");
        depth_dec.attach_trace(trace.clone(), 1, "codec.depth");
        // Flight recorder: armed per cfg.anomaly, fed the trace ring,
        // registry and timeline as evidence sources.
        let mut flight = FlightRecorder::new(cfg.anomaly.clone());
        flight.attach_trace(trace.clone());
        flight.attach_registry(&registry);
        flight.attach_timeline(timeline.clone());
        let flight = flight;
        // The worker pool reports its queue depth into this run's registry
        // so the starvation detector sees it.
        pool.attach_telemetry(&registry, "runtime.pool");
        let pool_queue = registry.gauge("runtime.pool.queue_depth");
        // Reusable cull state: per-camera ray tables live across frames, so
        // steady state shows zero `cull.lut_rebuilds` after the first pass.
        let mut cull_ctx = CullContext::new();
        cull_ctx.attach_telemetry(&registry);
        let capture_hist = registry.histogram("conference.capture_ms");
        let cull_hist = registry.histogram("conference.cull_ms");
        let tile_hist = registry.histogram("conference.tile_ms");
        let encode_hist = registry.histogram("conference.encode_ms");
        let decode_hist = registry.histogram("conference.decode_ms");
        let reconstruct_hist = registry.histogram("conference.reconstruct_ms");
        let render_prep_hist = registry.histogram("conference.render_prep_ms");
        let keep_hist = registry.histogram("cull.keep_fraction");
        let split_gauge = registry.gauge("splitter.split");
        let splitter_steps = registry.counter("splitter.steps");
        let stall_ctr = registry.counter("display.stalls");
        let shown_ctr = registry.counter("display.frames_shown");
        log_event!(
            Level::Info,
            "conference",
            "run start",
            "video" => format!("{:?}", cfg.video),
            "cameras" => cfg.n_cameras,
            "duration_s" => cfg.duration_s as f64,
            "cull" => cfg.cull,
            "adapt" => cfg.adapt
        );

        let mut timings = StageTimings::default();
        let mut keep_frac_sum = 0.0;
        let mut keep_frac_n = 0u64;
        let mut split_sum = 0.0;
        let mut quality_samples = 0u64;

        // Receiver state: a small reorder window per stream so colour and
        // depth frames are matched by embedded sequence number even when
        // the (larger) depth frames complete a beat later (§A.1's
        // synchronisation step).
        let mut last_color: std::collections::BTreeMap<u32, Frame> = Default::default();
        let mut last_depth: std::collections::BTreeMap<u32, Frame> = Default::default();
        let mut expected_frame: [u64; 2] = [0, 0];
        let mut need_key = [false, false];
        let mut displayed_seq: Option<u32> = None;
        let mut records: Vec<FrameRecord> = Vec::new();
        let mut force_key_next = false;

        // Display clock starts after the jitter target plus pipeline fill.
        let display_start: Micros = cfg.session.jitter_target + 3 * frame_interval;
        let mut next_display: Micros = display_start;
        let mut slot: u64 = 0;
        // Time the display last advanced; a stall's length is measured
        // from here (first slot counts from the nominal display start).
        let mut last_shown_us: Micros = display_start;

        let mut now: Micros = 0;
        for frame_idx in 0..total_frames {
            let t_s = frame_idx as f32 / cfg.fps as f32;

            // --- capture (render the camera array) ---
            let span = TelemetrySpan::start(&capture_hist);
            let snap = self.preset.scene.at(t_s);
            let mut views: Vec<RgbdFrame> =
                render_views_at(pool, &self.cameras, &snap, frame_idx as u32);
            let capture_elapsed = span.finish_ms();
            timings.capture_ms += capture_elapsed;
            timeline.mark_dur(frame_idx, stage::CAPTURE, now, capture_elapsed);
            trace.record(
                now,
                frame_idx,
                0,
                "pipeline",
                kind::CAPTURE,
                (capture_elapsed * 1e3) as i64,
            );

            // --- sender: pose feedback + frustum prediction + cull ---
            let owd_s = session.one_way_delay_us() / 1e6;
            // The sender sees receiver poses delayed by the feedback path.
            let feedback_pose = self.user_trace.pose_at_time((t_s - owd_s as f32).max(0.0));
            predictor.observe(&feedback_pose);
            predictor.observe_rtt(2.0 * owd_s + 0.03); // + processing slack
            let span = TelemetrySpan::start(&cull_hist);
            if cfg.cull {
                let frustum = if cfg.perfect_cull {
                    let display_pose = self
                        .user_trace
                        .pose_at_time(t_s + predictor.horizon_s() as f32);
                    predictor.exact_frustum(&display_pose, cfg.guard_m)
                } else {
                    predictor.predicted_frustum()
                };
                let stats: CullStats =
                    cull_ctx.cull_views_on(pool, &mut views, &self.cameras, &frustum);
                keep_frac_sum += stats.keep_fraction();
                keep_frac_n += 1;
                keep_hist.record(stats.keep_fraction());
                // arg: kept fraction in permille.
                trace.record(
                    now,
                    frame_idx,
                    0,
                    "pipeline",
                    kind::CULL,
                    (stats.keep_fraction() * 1e3) as i64,
                );
            }
            let cull_elapsed = span.finish_ms();
            timings.cull_ms += cull_elapsed;
            timeline.mark_dur(frame_idx, stage::CULL, now, cull_elapsed);

            // --- tile ---
            let span = TelemetrySpan::start(&tile_hist);
            let seq = frame_idx as u32;
            let color_canvas = compose_color(&views, &self.layout, seq);
            let depth_canvas = match cfg.depth_encoding {
                DepthEncoding::RgbPacked => {
                    let mut mm = vec![0u16; self.layout.canvas_w * self.layout.canvas_h];
                    for (i, v) in views.iter().enumerate() {
                        let (ox, oy) = self.layout.slot_origin(i);
                        for y in 0..v.height {
                            for x in 0..v.width {
                                mm[(oy + y) * self.layout.canvas_w + ox + x] =
                                    v.depth_mm[y * v.width + x];
                            }
                        }
                    }
                    let mut f =
                        depth_codec.pack_rgb(&mm, self.layout.canvas_w, self.layout.canvas_h);
                    write_seq(&mut f.planes[0], seq, 255);
                    f
                }
                _ => compose_depth(&views, &self.layout, &depth_codec, seq),
            };
            let tile_elapsed = span.finish_ms();
            timings.tile_ms += tile_elapsed;
            timeline.mark_dur(frame_idx, stage::TILE, now, tile_elapsed);
            trace.record(
                now,
                frame_idx,
                0,
                "pipeline",
                kind::TILE,
                (tile_elapsed * 1e3) as i64,
            );

            // --- bandwidth split + encode ---
            let estimate = session.estimate_bps();
            let media_budget = estimate * cfg.budget_fraction / cfg.fps as f64;
            let split = cfg.static_split.unwrap_or(splitter.split());
            split_sum += split;
            split_gauge.set(split);
            let depth_bits = (media_budget * split) as u64;
            let color_bits = (media_budget * (1.0 - split)) as u64;

            flight.observe_gcc(now, 0, estimate);
            flight.observe_pool_queue(now, pool_queue.get() as u64);

            if force_key_next {
                color_enc.force_keyframe();
                depth_enc.force_keyframe();
                force_key_next = false;
            }
            let span = TelemetrySpan::start(&encode_hist);
            color_enc.set_trace_frame(frame_idx, now);
            depth_enc.set_trace_frame(frame_idx, now);
            let color_out = if cfg.adapt {
                color_enc.encode(&color_canvas, color_bits.max(2_000))
            } else {
                color_enc.encode_fixed_qp(&color_canvas, cfg.fixed_color_qp)
            };
            let depth_out = if cfg.adapt {
                depth_enc.encode(&depth_canvas, depth_bits.max(2_000))
            } else {
                depth_enc.encode_fixed_qp(&depth_canvas, cfg.fixed_depth_qp)
            };
            let encode_elapsed = span.finish_ms();
            timings.encode_ms += encode_elapsed;
            timeline.mark_dur(frame_idx, stage::ENCODE, now, encode_elapsed);

            // --- splitter feedback (the sender's own-decode comes free from
            //     the codec's closed loop: reconstruction == decoder output) ---
            if cfg.static_split.is_none() && cfg.adapt && splitter.measurement_due() {
                let rmse_c = livo_codec2d::luma_rmse(&color_canvas, &color_out.reconstruction);
                let rmse_d = match cfg.depth_encoding {
                    DepthEncoding::RgbPacked => {
                        let truth = depth_codec.unpack_rgb(&depth_canvas);
                        let got = depth_codec.unpack_rgb(&depth_out.reconstruction);
                        depth_mse_mm(&truth, &got).sqrt()
                    }
                    _ => {
                        // Per-sample RMSE in millimetres on the Y16 canvas.
                        let a = &depth_canvas.planes[0].data;
                        let b = &depth_out.reconstruction.planes[0].data;
                        let scale = depth_codec.scale() as f64;
                        let mse = a
                            .iter()
                            .zip(b.iter())
                            .map(|(&x, &y)| {
                                let d = (x as f64 - y as f64) / scale;
                                d * d
                            })
                            .sum::<f64>()
                            / a.len() as f64;
                        mse.sqrt()
                    }
                };
                let steps_before = splitter.steps_taken();
                splitter.update(rmse_d, rmse_c);
                splitter_steps.add(splitter.steps_taken() - steps_before);
                log_event!(
                    Level::Trace,
                    "conference.splitter",
                    "split measurement",
                    "frame" => frame_idx,
                    "rmse_depth_mm" => rmse_d,
                    "rmse_color" => rmse_c,
                    "split" => splitter.split()
                );
            }

            log_event!(
                Level::Debug,
                "conference",
                "frame encoded",
                "frame" => frame_idx,
                "estimate_mbps" => estimate / 1e6,
                "color_budget_bits" => color_bits,
                "depth_budget_bits" => depth_bits,
                "color_bits" => color_out.data.len() as u64 * 8,
                "depth_bits" => depth_out.data.len() as u64 * 8,
                "keyframe" => color_out.frame_type == livo_codec2d::FrameType::Intra
            );
            // --- transmit ---
            session.send_frame(
                now,
                StreamId::Color,
                frame_idx,
                Bytes::from(color_out.data.clone()),
                color_out.frame_type == livo_codec2d::FrameType::Intra,
            );
            session.send_frame(
                now,
                StreamId::Depth,
                frame_idx,
                Bytes::from(depth_out.data.clone()),
                depth_out.frame_type == livo_codec2d::FrameType::Intra,
            );

            // --- advance virtual time one frame interval ---
            let frame_end = now + frame_interval;
            while now < frame_end {
                session.tick(now);
                if session.take_pli(now) {
                    force_key_next = true;
                    flight.observe_pli(now, 1);
                }
                // Split this tick's arrivals by stream and decode the two
                // lanes concurrently — each lane owns its decoder, reorder
                // window and P-chain state, so they only share the (atomic)
                // telemetry sinks. On a single-thread pool the join runs
                // inline and the arrival order within each lane is
                // preserved either way.
                let mut color_frames = Vec::new();
                let mut depth_frames = Vec::new();
                for af in session.recv_frames() {
                    match af.stream {
                        StreamId::Color => color_frames.push(af),
                        StreamId::Depth => depth_frames.push(af),
                        StreamId::Control => {}
                    }
                }
                if !color_frames.is_empty() || !depth_frames.is_empty() {
                    let [exp_color, exp_depth] = &mut expected_frame;
                    let [nk_color, nk_depth] = &mut need_key;
                    let (color_lane, depth_lane) = pool.join(
                        || {
                            decode_lane(
                                color_frames,
                                "color",
                                &mut color_dec,
                                &mut last_color,
                                exp_color,
                                nk_color,
                                &decode_hist,
                                &timeline,
                                &flight,
                                now,
                            )
                        },
                        || {
                            decode_lane(
                                depth_frames,
                                "depth",
                                &mut depth_dec,
                                &mut last_depth,
                                exp_depth,
                                nk_depth,
                                &decode_hist,
                                &timeline,
                                &flight,
                                now,
                            )
                        },
                    );
                    timings.decode_ms += color_lane.0 + depth_lane.0;
                    force_key_next |= color_lane.1 || depth_lane.1;
                }
                // Display clock: one slot per frame interval; a slot with no
                // *new* synchronised pair is a stall (§A.1: if both frames
                // have not been decoded in time, LiVo skips the frame).
                if now >= next_display {
                    // The newest sequence number present in *both* windows.
                    let have = last_color
                        .keys()
                        .rev()
                        .find(|s| last_depth.contains_key(s))
                        .copied();
                    let is_new = have.is_some() && have != displayed_seq;
                    if !is_new {
                        stall_ctr.inc();
                        let stall_ms = now.saturating_sub(last_shown_us) as f64 / 1e3;
                        trace.record(now, NO_FRAME, 1, "display", kind::STALL, stall_ms as i64);
                        flight.observe_stall(now, 1, stall_ms);
                        log_event!(
                            Level::Debug,
                            "conference.display",
                            "stall",
                            "slot" => slot,
                            "t_s" => now as f64 / 1e6,
                            "newest_color" => last_color.keys().next_back().copied().unwrap_or(0),
                            "newest_depth" => last_depth.keys().next_back().copied().unwrap_or(0),
                            "displayed" => displayed_seq.unwrap_or(0)
                        );
                    } else {
                        shown_ctr.inc();
                        last_shown_us = now;
                        if let Some(s) = have {
                            timeline.mark(s as u64, stage::DISPLAY, now);
                            // arg: end-to-end frame age µs (capture→display).
                            let age = now.saturating_sub(s as u64 * frame_interval);
                            trace.record(now, s as u64, 1, "display", kind::DISPLAY, age as i64);
                        }
                    }
                    let shown = if is_new { have } else { None };
                    let mut rec = FrameRecord {
                        slot,
                        shown_seq: shown,
                        pssim: None,
                    };
                    if is_new {
                        displayed_seq = have;
                        if slot.is_multiple_of(cfg.quality_every as u64) {
                            let cs = have.unwrap();
                            let color_frame = &last_color[&cs];
                            let depth_frame = &last_depth[&cs];
                            let score =
                                self.score_frame(cs, color_frame, depth_frame, &depth_codec, now);
                            rec.pssim = score.pssim;
                            timings.reconstruct_ms += score.reconstruct_ms;
                            timings.render_prep_ms += score.render_prep_ms;
                            reconstruct_hist.record(score.reconstruct_ms);
                            render_prep_hist.record(score.render_prep_ms);
                            quality_samples += 1;
                        }
                    }
                    records.push(rec);
                    slot += 1;
                    next_display += frame_interval;
                }
                now += 1_000;
            }
        }

        // Summarise.
        let displayed = records.iter().filter(|r| r.shown_seq.is_some()).count();
        let stall_rate = if records.is_empty() {
            0.0
        } else {
            1.0 - displayed as f64 / records.len() as f64
        };
        let sampled: Vec<&FrameRecord> = records
            .iter()
            .filter(|r| r.slot % cfg.quality_every as u64 == 0)
            .collect();
        let mut g_sum = 0.0;
        let mut c_sum = 0.0;
        let mut g_ok = 0.0;
        let mut c_ok = 0.0;
        let mut n_ok = 0u64;
        for r in &sampled {
            if let Some(s) = r.pssim {
                g_sum += s.geometry;
                c_sum += s.color;
                g_ok += s.geometry;
                c_ok += s.color;
                n_ok += 1;
            }
        }
        let n_sampled = sampled.len().max(1) as f64;
        let duration = cfg.duration_s as f64;
        let mean_fps = displayed as f64 / (records.len().max(1) as f64 / cfg.fps as f64);
        // Bonded runs ignore `net_trace` for the links; their capacity
        // ceiling is the scenario's sum of link means.
        let trace_mean = match &cfg.bond {
            Some(sc) => sc.sum_capacity_mbps(),
            None => net_trace.stats().mean,
        };

        let n = total_frames.max(1) as f64;
        timings.capture_ms /= n;
        timings.cull_ms /= n;
        timings.tile_ms /= n;
        timings.encode_ms /= n;
        let decoded = displayed.max(1) as f64;
        timings.decode_ms /= decoded;
        let q = quality_samples.max(1) as f64;
        timings.reconstruct_ms /= q;
        timings.render_prep_ms /= q;

        RunSummary {
            stall_rate,
            mean_fps,
            pssim_geometry: g_sum / n_sampled,
            pssim_color: c_sum / n_sampled,
            pssim_geometry_no_stall: if n_ok > 0 { g_ok / n_ok as f64 } else { 0.0 },
            pssim_color_no_stall: if n_ok > 0 { c_ok / n_ok as f64 } else { 0.0 },
            throughput_mbps: session.stats().throughput_mbps(duration),
            mean_capacity_mbps: trace_mean,
            transport_latency_ms: session.stats().mean_latency_ms(),
            mean_split: split_sum / total_frames.max(1) as f64,
            mean_keep_fraction: if keep_frac_n > 0 {
                keep_frac_sum / keep_frac_n as f64
            } else {
                1.0
            },
            timings,
            bits_sent: session.stats().bits_sent,
            records,
            metrics: registry.snapshot(),
            timeline: timeline.snapshot(),
            trace: trace.snapshot(),
            flight: flight.bundles(),
        }
    }

    /// Score a displayed frame against ground truth: reconstruct the
    /// received cloud, rebuild the pristine cloud for the same source
    /// frame, cull both to the viewer's current frustum, compare.
    fn score_frame(
        &self,
        seq: u32,
        color_frame: &Frame,
        depth_frame: &Frame,
        depth_codec: &DepthCodec,
        now: Micros,
    ) -> FrameScore {
        let cfg = &self.cfg;
        let t0 = Instant::now();
        let received = match cfg.depth_encoding {
            DepthEncoding::RgbPacked => {
                let mm = depth_codec.unpack_rgb(depth_frame);
                let y16 = Frame::from_y16(self.layout.canvas_w, self.layout.canvas_h, mm);
                let raw = DepthCodec::new(6000, DepthEncoding::RawY16);
                reconstruct_point_cloud(color_frame, &y16, &self.layout, &self.cameras, &raw)
            }
            _ => reconstruct_point_cloud(
                color_frame,
                depth_frame,
                &self.layout,
                &self.cameras,
                depth_codec,
            ),
        };
        let reconstruct_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Ground truth: re-render the source views for this seq.
        let t_s = seq as f32 / cfg.fps as f32;
        let snap = self.preset.scene.at(t_s);
        let mut truth = PointCloud::new();
        // Same time key as the capture of this seq: the "ground truth" is
        // what the sensor actually measured, noise included.
        let truth_views = render_views_at(livo_runtime::global(), &self.cameras, &snap, seq);
        for (cam, v) in self.cameras.iter().zip(&truth_views) {
            for y in 0..v.height {
                for x in 0..v.width {
                    let d = v.depth_mm[y * v.width + x];
                    if d == 0 {
                        continue;
                    }
                    if let Some(w) = cam.pixel_to_world(x as u32, y as u32, d) {
                        truth.push(livo_pointcloud::Point::new(w, v.rgb_at(x, y)));
                    }
                }
            }
        }

        // Current viewer frustum at display time.
        let display_t = now as f32 / 1e6;
        let viewer = self.user_trace.pose_at_time(display_t);
        let frustum = livo_math::Frustum::from_params(&viewer, &FrustumParams::default());
        let t0 = Instant::now();
        let shown = prepare_for_render(&received, cfg.voxel_m, &frustum);
        let reference = prepare_for_render(&truth, cfg.voxel_m, &frustum);
        let render_prep_ms = t0.elapsed().as_secs_f64() * 1e3;

        let pcfg = PssimConfig {
            neighbors: 6,
            cell_size: cfg.voxel_m * 3.0,
            curvature_weight: 0.3,
        };
        FrameScore {
            pssim: pssim(&reference, &shown, &pcfg),
            reconstruct_ms,
            render_prep_ms,
        }
    }
}

/// What [`ConferenceRunner::score_frame`] found for one displayed frame,
/// and what the two receiver stages it ran cost in wall-clock.
struct FrameScore {
    pssim: Option<PssimScore>,
    reconstruct_ms: f64,
    render_prep_ms: f64,
}

/// Drain one stream's arrived frames through its decoder: P-chain gap and
/// keyframe-wait handling, decode, sequence-stamped reorder-window insert,
/// and per-frame decode telemetry. Returns the summed decode wall-time in
/// milliseconds and whether a keyframe must be requested. One invocation
/// owns all of its lane's state, so the colour and depth lanes run
/// concurrently (the telemetry sinks they share are atomic).
#[allow(clippy::too_many_arguments)]
fn decode_lane(
    frames: Vec<livo_transport::AssembledFrame>,
    lane: &'static str,
    dec: &mut Decoder,
    window: &mut std::collections::BTreeMap<u32, Frame>,
    expected_frame: &mut u64,
    need_key: &mut bool,
    decode_hist: &Arc<livo_telemetry::Histogram>,
    timeline: &Arc<FrameTimeline>,
    flight: &FlightRecorder,
    now: Micros,
) -> (f64, bool) {
    let mut decode_ms = 0.0;
    let mut force_key = false;
    for af in frames {
        // Loss handling: a frame-id gap breaks the P chain.
        if af.frame_id != *expected_frame && !af.keyframe {
            dec.reset();
            *need_key = true;
            *expected_frame = af.frame_id + 1;
            force_key = true;
            continue;
        }
        if *need_key && !af.keyframe {
            *expected_frame = af.frame_id + 1;
            continue;
        }
        *expected_frame = af.frame_id + 1;
        *need_key = false;
        let span = TelemetrySpan::start(decode_hist);
        dec.set_trace_frame(af.frame_id, now);
        match dec.decode(&af.data) {
            Ok(frame) => {
                let peak = frame.format.peak_value();
                let got_seq = read_seq(&frame.planes[0], peak);
                window.insert(got_seq, frame);
                while window.len() > 6 {
                    let oldest = *window.keys().next().unwrap();
                    window.remove(&oldest);
                }
            }
            Err(_) => {
                dec.reset();
                *need_key = true;
                force_key = true;
                flight.observe_decode_error(now, 1, lane);
                // A corrupted P-chain fails every frame until the next
                // keyframe lands — rate-limit the warning to one per
                // second per lane instead of one per frame.
                livo_telemetry::log::warn_limited(
                    if lane == "color" {
                        "conference.decode.color"
                    } else {
                        "conference.decode.depth"
                    },
                    1_000,
                    "conference",
                    "decode failed, requesting keyframe",
                    &[("frame", af.frame_id.into()), ("stream", lane.into())],
                );
            }
        }
        let decode_elapsed = span.finish_ms();
        decode_ms += decode_elapsed;
        timeline.mark_lane_dur(af.frame_id, stage::DECODE, lane, now, decode_elapsed);
    }
    (decode_ms, force_key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ConferenceConfig {
        ConferenceConfig::builder(VideoId::Toddler4)
            .camera_scale(0.08)
            .n_cameras(4)
            .duration_s(3.0)
            .quality_every(30)
            .build()
            .expect("quick config is valid")
    }

    #[test]
    fn builder_defaults_are_the_livo_scheme() {
        // The plain builder output is the paper's LiVo configuration; the
        // §4.1 baselines are single-knob variations of it.
        let livo = ConferenceConfig::builder(VideoId::Band2).build().unwrap();
        assert!(livo.cull && livo.adapt);
        assert_eq!(livo.video, VideoId::Band2);
        assert_eq!((livo.fixed_color_qp, livo.fixed_depth_qp), (22, 14));

        let nocull = ConferenceConfig::builder(VideoId::Dance5)
            .cull(false)
            .build()
            .unwrap();
        assert!(!nocull.cull && nocull.adapt);

        let noadapt = ConferenceConfig::builder(VideoId::Office1)
            .adapt(false)
            .cull(false)
            .build()
            .unwrap();
        assert!(!noadapt.cull && !noadapt.adapt);
    }

    #[test]
    fn builder_rejects_unrunnable_configs() {
        let cases: Vec<(&str, ConferenceConfigBuilder)> = vec![
            (
                "camera_scale",
                ConferenceConfig::builder(VideoId::Band2).camera_scale(0.0),
            ),
            (
                "camera_scale",
                ConferenceConfig::builder(VideoId::Band2).camera_scale(1.5),
            ),
            (
                "n_cameras",
                ConferenceConfig::builder(VideoId::Band2).n_cameras(0),
            ),
            (
                "duration_s",
                ConferenceConfig::builder(VideoId::Band2).duration_s(-1.0),
            ),
            ("fps", ConferenceConfig::builder(VideoId::Band2).fps(0)),
            (
                "guard_m",
                ConferenceConfig::builder(VideoId::Band2).guard_m(-0.1),
            ),
            (
                "static_split",
                ConferenceConfig::builder(VideoId::Band2).static_split(1.2),
            ),
            (
                "voxel_m",
                ConferenceConfig::builder(VideoId::Band2).voxel_m(0.0),
            ),
            (
                "quality_every",
                ConferenceConfig::builder(VideoId::Band2).quality_every(0),
            ),
            (
                "budget_fraction",
                ConferenceConfig::builder(VideoId::Band2).budget_fraction(0.0),
            ),
        ];
        for (field, builder) in cases {
            let err = builder.build().expect_err(field);
            assert_eq!(err.field, field, "wrong field in {err}");
            assert!(err.to_string().contains(field));
        }
        // NaN is rejected, not silently accepted, by the positive-form checks.
        assert!(ConferenceConfig::builder(VideoId::Band2)
            .duration_s(f32::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn livo_runs_end_to_end_with_quality() {
        let runner = ConferenceRunner::new(quick_cfg());
        let trace = BandwidthTrace::constant(60.0, 10.0);
        let s = runner.run(trace);
        assert!(s.mean_fps > 20.0, "fps {}", s.mean_fps);
        assert!(s.stall_rate < 0.35, "stalls {}", s.stall_rate);
        assert!(
            s.pssim_geometry_no_stall > 50.0,
            "geometry {}",
            s.pssim_geometry_no_stall
        );
        assert!(s.bits_sent > 0);
        assert!(s.mean_split >= 0.5 && s.mean_split <= 0.9);
        assert!(s.mean_keep_fraction < 1.0, "culling engaged");
    }

    #[test]
    fn nocull_keeps_everything() {
        let mut cfg = quick_cfg();
        cfg.cull = false;
        let trace = BandwidthTrace::constant(60.0, 10.0);
        let s = ConferenceRunner::new(cfg).run(trace);
        assert_eq!(s.mean_keep_fraction, 1.0);
        assert!(s.mean_fps > 15.0);
    }

    #[test]
    fn noadapt_overruns_low_bandwidth() {
        // pizza1's motion keeps fixed-QP P-frames large; a link well below
        // their natural rate (~2 Mbps at this scale) forces stalls.
        let mut session = SessionConfig::default();
        session.initial_estimate_bps = 0.4e6;
        let cfg = ConferenceConfig::builder(VideoId::Pizza1)
            .camera_scale(0.08)
            .n_cameras(4)
            .duration_s(3.0)
            .quality_every(1000)
            .adapt(false)
            .session(session)
            .build()
            .unwrap();
        let runner = ConferenceRunner::new(cfg);
        let trace = BandwidthTrace::constant(0.8, 10.0);
        let s = runner.run(trace);
        assert!(
            s.stall_rate > 0.3,
            "fixed-QP over a tight link should stall, got {}",
            s.stall_rate
        );
    }

    #[test]
    fn static_split_is_respected() {
        let mut cfg = quick_cfg();
        cfg.static_split = Some(0.7);
        let trace = BandwidthTrace::constant(40.0, 10.0);
        let s = ConferenceRunner::new(cfg).run(trace);
        assert!((s.mean_split - 0.7).abs() < 1e-9);
    }

    #[test]
    fn run_summary_carries_metrics_and_timeline() {
        let runner = ConferenceRunner::new(quick_cfg());
        let trace = BandwidthTrace::constant(60.0, 10.0);
        let s = runner.run(trace);

        // Stage histograms saw every sender frame.
        let frames = s
            .metrics
            .histogram("conference.capture_ms")
            .map(|h| h.count);
        assert!(
            frames.unwrap_or(0) >= 80,
            "capture histogram count {frames:?}"
        );
        for name in [
            "conference.cull_ms",
            "conference.tile_ms",
            "conference.encode_ms",
        ] {
            let h = s
                .metrics
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(Some(h.count), frames, "{name} count");
            assert!(h.p95 >= h.p50 && h.max >= h.p95, "{name} quantile order");
        }

        // The histogram means back the legacy Table-6 accessors exactly.
        let enc = s.metrics.histogram("conference.encode_ms").unwrap();
        assert!((enc.mean - s.timings.encode_ms).abs() < 1e-9);

        // Transport + codec instrumentation attached to the same registry.
        assert!(s.metrics.counter("transport.frames_delivered").unwrap_or(0) > 0);
        assert!(s.metrics.counter("codec.color.bits_total").unwrap_or(0) > 0);
        assert!(s.metrics.gauge("transport.gcc.estimate_bps").unwrap_or(0.0) > 0.0);
        assert!(s.metrics.gauge("splitter.split").is_some());
        assert_eq!(
            s.metrics.counter("display.frames_shown").unwrap_or(0),
            s.records.iter().filter(|r| r.shown_seq.is_some()).count() as u64
        );

        // Every displayed frame has a complete, monotonic sender→receiver
        // trail stitched across pipeline, transport, and decode stages.
        let shown: std::collections::HashSet<u64> = s
            .records
            .iter()
            .filter_map(|r| r.shown_seq)
            .map(|q| q as u64)
            .collect();
        assert!(!shown.is_empty());
        let mut complete = 0;
        for rec in &s.timeline {
            if !shown.contains(&rec.seq) {
                continue;
            }
            assert!(
                rec.is_monotonic(&stage::ORDER),
                "frame {} out of order",
                rec.seq
            );
            let full = [
                stage::CAPTURE,
                stage::ENCODE,
                stage::PACKETIZE,
                stage::DECODE,
            ]
            .iter()
            .all(|st| rec.ts_of(st).is_some());
            if full {
                complete += 1;
            }
        }
        assert!(
            complete > 0,
            "no displayed frame has a full capture→decode trail"
        );
    }
}
