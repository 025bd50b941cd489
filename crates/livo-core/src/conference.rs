//! The end-to-end conference runner: scene → sender → network → receiver.
//!
//! This is the replay harness of §4.1 of the paper: RGB-D frames are
//! produced at 30 fps (here: rendered from a scene preset), fed through the
//! LiVo sender ([`SenderStage`]: cull → tile → depth-encode → rate-adaptive
//! 2D encode), transmitted over the emulated WebRTC session against a
//! bandwidth trace, decoded and paired ([`ReceiverStage`]), reconstructed
//! and "displayed" at the receiver, whose pose follows a user trace. Config
//! flags turn off culling (LiVo-NoCull), adaptation (LiVo-NoAdapt), pin a
//! static split (Figs. 18–19) or switch the depth encoding (Fig. 17).
//!
//! Everything runs in virtual time; wall-clock is only measured to report
//! per-component processing latency (Table 6).

use crate::depth::{DepthCodec, DepthEncoding};
use crate::frustum_pred::FrustumPredictor;
use crate::reconstruct::{back_project_views, prepare_for_render, reconstruct_point_cloud};
use crate::splitter::{BandwidthSplitter, SplitterConfig};
use crate::stage::{
    due, DisplayClock, FrameOutcome, Ingest, Rate, ReceiverStage, SenderStage, Slot, StallCause,
    FPS, GUARD_BAND_M, MEDIA_SHARE, NOADAPT_QPS, RENDER_VOXEL_M,
};
use crate::tile::TileLayout;
use bytes::Bytes;
use livo_bond::{BondConfig, BondScenario};
use livo_capture::{
    datasets::DatasetPreset, render::render_views_at, rig, BandwidthTrace, UserTrace, VideoId,
};
use livo_codec2d::{Frame, FrameType};
use livo_math::FrustumParams;
use livo_pointcloud::{pssim, PssimConfig, PssimScore};
use livo_runtime::WorkerPool;
use livo_telemetry::trace::{kind, EventTrace, TraceEvent};
use livo_telemetry::{
    log_event, Counter, FlightBundle, FlightRecorder, Gauge, Histogram, Level, MetricsRegistry,
    RegistrySnapshot,
};
use livo_transport::{Micros, RtcSession, SessionConfig, SessionStats, StreamId};
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
    /// Sender-side predictive culling (off = LiVo-NoCull).
    pub cull: bool,
    /// Direct rate adaptation (off = LiVo-NoAdapt, the fixed QPs of
    /// [`NOADAPT_QPS`]).
    pub adapt: bool,
    pub depth_encoding: DepthEncoding,
    /// Pin the split to a constant (Figs. 18–19's static splits).
    pub static_split: Option<f64>,
    pub session: SessionConfig,
    /// Bonded multi-link transport: when set, the call's [`RtcSession`]
    /// runs over the legs of this topology scenario instead of the single
    /// link in `session.link` (which is then ignored). Jitter target and
    /// initial estimate still come from `session`.
    pub bond: Option<BondScenario>,
    /// Compute PSSIM on every n-th display slot (the expensive part; the
    /// paper logs clouds and scores offline).
    pub quality_every: u32,
    pub user_trace_seed: u64,
    pub user_trace_style: usize,
    /// Causal event tracing (capture→…→display ring buffer). On by
    /// default: the ring is fixed-capacity and the record path is a few
    /// atomics, so the overhead stays within the tier-1 budget (≤ 5%).
    pub trace: bool,
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
            cull: true,
            adapt: true,
            depth_encoding: DepthEncoding::ScaledY16,
            static_split: None,
            session: SessionConfig::default(),
            bond: None,
            quality_every: 15,
            user_trace_seed: 11,
            user_trace_style: 0,
            trace: true,
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

    /// What a frame may spend at bandwidth estimate `estimate_bps`: the media
    /// share of one frame interval divided by `split` (depth's part), or
    /// LiVo-NoAdapt's constant quantisers.
    fn rate(&self, estimate_bps: f64, split: f64) -> Rate {
        if !self.adapt {
            let (color, depth) = NOADAPT_QPS;
            return Rate::FixedQp { color, depth };
        }
        let media_budget = estimate_bps * MEDIA_SHARE / FPS as f64;
        Rate::Budget {
            color_bits: (media_budget * (1.0 - split)) as u64,
            depth_bits: (media_budget * split) as u64,
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
/// runner cannot execute (empty rigs, an out-of-range split) instead of
/// letting them surface as empty-layout panics mid-replay.
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

    pub fn depth_encoding(mut self, enc: DepthEncoding) -> Self {
        self.cfg.depth_encoding = enc;
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

    /// Compute PSSIM on every n-th display slot (≥ 1).
    pub fn quality_every(mut self, n: u32) -> Self {
        self.cfg.quality_every = n;
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
        if let Some(s) = cfg.static_split {
            if !(0.0..=1.0).contains(&s) {
                return err("static_split", format!("{s} not in [0, 1]"));
            }
        }
        if cfg.quality_every == 0 {
            return err(
                "quality_every",
                "sampling interval must be at least 1".into(),
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
    /// Total wire bits offered by the sender (both streams).
    pub bits_sent: u64,
    /// Full metrics snapshot of the run: the `conference.<step>_ms`
    /// histograms Table 6 reads, codec counters, transport gauges and
    /// counters (see DESIGN.md "Telemetry").
    pub metrics: RegistrySnapshot,
    /// Causal event-trace snapshot (empty when `cfg.trace` is off): the
    /// ring's surviving capture→…→display events in causal order, virtual
    /// session time µs. [`livo_telemetry::TraceQuery::frame`] gives one
    /// frame's path by sender sequence number;
    /// [`livo_telemetry::chrome_trace_json`] exports the whole run.
    pub trace: Vec<TraceEvent>,
    /// Flight-recorder bundles, one per display stall over 150 ms outside
    /// a 2 s cooldown; each bundle's verdict is its stall's cause.
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

    fn pool(&self) -> Arc<WorkerPool> {
        let given = self.pool.clone();
        given.unwrap_or_else(|| livo_runtime::global().clone())
    }

    /// Run the replay against the given bandwidth trace: a driver of the
    /// two stages on an exact [`FPS`] schedule in virtual time.
    ///
    /// The clock is a uniform 1 ms tick. Frame `f` is captured at the first
    /// tick at or after [`due`]`(f)`, the [`DisplayClock`] decides each slot
    /// after the tick's arrivals, and the run ends at `due(total_frames)`.
    pub fn run(&self, net_trace: BandwidthTrace) -> RunSummary {
        let cfg = &self.cfg;
        let total_frames = (cfg.duration_s * FPS as f32) as u64;

        // Intra-frame parallelism (capture fan-out, cull rows, encoder
        // stripes, the two decode lanes) runs on the runner's pool.
        let pool = self.pool();
        let mut session = match &cfg.bond {
            Some(sc) => BondConfig::from_session(sc.clone(), &cfg.session).build(),
            None => RtcSession::new(net_trace.clone(), cfg.session.clone()),
        };
        let mut splitter = BandwidthSplitter::new(SplitterConfig::default());
        let mut predictor = FrustumPredictor::new(FrustumParams::default(), GUARD_BAND_M);
        let mut sender = SenderStage::new(self.layout, cfg.depth_encoding, 1);
        let mut receiver = ReceiverStage::new();
        sender.set_worker_pool(pool.clone());
        receiver.set_worker_pool(pool.clone());

        let mut tel = RunTelemetry::new(cfg);
        session.attach_telemetry(&tel.registry, "transport");
        session.attach_trace(tel.trace.clone(), 0, 1);
        sender.attach_cull_telemetry(&tel.registry);
        sender.attach_codec_telemetry(&tel.registry);
        sender.attach_trace(tel.trace.clone(), 0);
        receiver.attach_telemetry(&tel.registry);
        receiver.attach_trace(tel.trace.clone(), 1);
        // The pool reports its task times and queue depth into this run's
        // registry.
        pool.attach_telemetry(&tel.registry, "runtime.pool");

        let mut display = DisplayClock::new(cfg.session.jitter_target);
        display.attach_trace(tel.trace.clone(), 1);
        let mut records: Vec<FrameRecord> = Vec::new();
        let mut f = 0;
        let mut force_key = false;
        let mut split_sum = 0.0;
        let mut now: Micros = 0;
        while now < due(total_frames) {
            if now >= due(f) {
                // --- capture (render the camera array) ---
                let (seq, t_s) = (f as u32, f as f32 / FPS as f32);
                display.captured(seq, now);
                let mut views = tel.time(Step::Capture, f, now, || {
                    render_views_at(&pool, &self.cameras, &self.preset.scene.at(t_s), seq)
                });

                // --- sender: pose feedback + frustum prediction + cull + tile ---
                let owd_s = session.one_way_delay_us() / 1e6;
                // The sender sees receiver poses delayed by the feedback path.
                let feedback_t_s = (t_s - owd_s as f32).max(0.0);
                predictor.observe(&self.user_trace.pose_at_time(feedback_t_s));
                predictor.observe_rtt(2.0 * owd_s + 0.03); // + processing slack
                let frustum = cfg.cull.then(|| predictor.predicted_frustum());
                let kept = tel.time(Step::Cull, f, now, || {
                    sender.cull(&mut views, &self.cameras, frustum.as_slice())
                });
                if let Some(stats) = kept {
                    tel.keep_fraction.record(stats.keep_fraction());
                }
                let canvases = tel.time(Step::Tile, f, now, || sender.compose(&views, seq));

                // --- bandwidth split + encode ---
                let estimate = session.estimate_bps();
                let split = cfg.static_split.unwrap_or(splitter.split());
                split_sum += split;
                tel.split.set(split);
                let rate = cfg.rate(estimate, split);
                if std::mem::take(&mut force_key) {
                    sender.force_keyframe();
                }
                let (color_out, depth_out) = tel.time(Step::Encode, f, now, || {
                    sender.encode(&canvases, rate, f, now)
                });
                if cfg.static_split.is_none() && cfg.adapt && splitter.measurement_due() {
                    let (rmse_c, rmse_d) = sender.rmse(&canvases, &color_out, &depth_out);
                    tel.split_step(f, &mut splitter, rmse_d, rmse_c);
                }
                log_event!(Level::Debug, "conference", "frame encoded", "frame" => f,
                    "estimate_mbps" => estimate / 1e6, "rate" => format!("{rate:?}"),
                    "color_bits" => color_out.bits(), "depth_bits" => depth_out.bits(),
                    "keyframe" => color_out.frame_type == FrameType::Intra);

                // --- transmit ---
                for (stream, out) in [(StreamId::Color, color_out), (StreamId::Depth, depth_out)] {
                    let key = out.frame_type == FrameType::Intra;
                    session.send_frame(now, stream, f, Bytes::from(out.data), key);
                }
                f += 1;
            }

            // --- network ---
            session.tick(now);
            if session.take_pli(now) {
                force_key = true;
            }

            // --- receiver: decode this tick's arrivals ---
            for o in receiver.ingest(&session.recv_frames(), now) {
                if o.ingest.wants_key() {
                    session.request_keyframe(now, o.stream, o.frame_id);
                }
                tel.ingested(now, &o);
            }

            // --- display: the slot due at this tick, if any ---
            if let Some((slot, outcome)) = display.poll(now, || receiver.lanes()) {
                let shown_seq = match outcome {
                    Slot::Shown { seq, .. } => {
                        tel.frames_shown.inc();
                        Some(seq)
                    }
                    Slot::Stalled { since_us, cause } => {
                        tel.stalled(now, slot, since_us, cause);
                        None
                    }
                };
                let scored = shown_seq.filter(|_| slot.is_multiple_of(cfg.quality_every as u64));
                // A slot that shows a frame shows the newest pair.
                let pssim = scored.and_then(|_| {
                    let (seq, c, d) = receiver.newest_pair()?;
                    self.score_frame(&tel, seq, c, d, sender.depth_codec(), now)
                });
                records.push(FrameRecord {
                    slot,
                    shown_seq,
                    pssim,
                });
            }
            now += TICK_US;
        }

        let mean_split = split_sum / total_frames.max(1) as f64;
        summarise(cfg, &net_trace, records, session.stats(), mean_split, tel)
    }

    /// Score a displayed frame against ground truth: reconstruct the
    /// received cloud, rebuild the pristine cloud for the same source
    /// frame, cull both to the viewer's current frustum, compare.
    fn score_frame(
        &self,
        tel: &RunTelemetry,
        seq: u32,
        color_frame: &Frame,
        depth_frame: &Frame,
        depth_codec: &DepthCodec,
        now: Micros,
    ) -> Option<PssimScore> {
        let received = tel.time(Step::Reconstruct, seq as u64, now, || {
            reconstruct_point_cloud(
                color_frame,
                depth_frame,
                &self.layout,
                &self.cameras,
                depth_codec,
            )
        });

        // Ground truth: re-render the source views for this seq. Same time
        // key as the capture of this seq: the "ground truth" is what the
        // sensor actually measured, noise included.
        let snap = self.preset.scene.at(seq as f32 / FPS as f32);
        let truth_views = render_views_at(&self.pool(), &self.cameras, &snap, seq);
        let truth = back_project_views(&truth_views, &self.cameras);

        // Current viewer frustum at display time.
        let viewer = self.user_trace.pose_at_time(now as f32 / 1e6);
        let frustum = livo_math::Frustum::from_params(&viewer, &FrustumParams::default());
        let (shown, reference) = tel.time(Step::RenderPrep, seq as u64, now, || {
            (
                prepare_for_render(&received, RENDER_VOXEL_M, &frustum),
                prepare_for_render(&truth, RENDER_VOXEL_M, &frustum),
            )
        });
        let pcfg = PssimConfig {
            neighbors: 6,
            cell_size: RENDER_VOXEL_M * 3.0,
            curvature_weight: 0.3,
        };
        pssim(&reference, &shown, &pcfg)
    }
}

/// The virtual clock's tick.
const TICK_US: Micros = 1_000;

/// Trace ring capacity in events, shared across all record sites: a few
/// seconds of a call per writing thread (DESIGN.md "Telemetry").
const TRACE_CAPACITY: usize = 65_536;

/// The steps of a call that Table 6 budgets, in pipeline order.
#[derive(Debug, Clone, Copy)]
enum Step {
    Capture,
    Cull,
    Tile,
    Encode,
    Decode,
    Reconstruct,
    RenderPrep,
}

impl Step {
    const ALL: [Step; 7] = [
        Step::Capture,
        Step::Cull,
        Step::Tile,
        Step::Encode,
        Step::Decode,
        Step::Reconstruct,
        Step::RenderPrep,
    ];

    /// The step's trace kind, and the `<name>` of its
    /// `conference.<name>_ms` histogram.
    fn name(self) -> &'static str {
        match self {
            Step::Capture => kind::CAPTURE,
            Step::Cull => kind::CULL,
            Step::Tile => kind::TILE,
            Step::Encode => kind::ENCODE,
            Step::Decode => kind::DECODE,
            Step::Reconstruct => "reconstruct",
            Step::RenderPrep => "render_prep",
        }
    }

    /// The trace party the step runs at: 0 the sender, 1 the receiver.
    fn party(self) -> u16 {
        matches!(self, Step::Decode | Step::Reconstruct | Step::RenderPrep) as u16
    }
}

/// One run's private telemetry (runs stay independent and deterministic):
/// the metrics registry, the causal event trace in virtual session time —
/// party 0 is the sender, party 1 the receiver; the ring is always
/// allocated, so the A/B overhead comparison exercises the same code path,
/// but records only when enabled — and the flight recorder, which freezes
/// the other two when a long stall happens.
struct RunTelemetry {
    registry: Arc<MetricsRegistry>,
    trace: Arc<EventTrace>,
    flight: FlightRecorder,
    /// `conference.<step>_ms`, indexed by `Step as usize`.
    step_ms: [Arc<Histogram>; Step::ALL.len()],
    keep_fraction: Arc<Histogram>,
    split: Arc<Gauge>,
    splitter_steps: Arc<Counter>,
    stalls: Arc<Counter>,
    /// `display.stall_cause.<name>`, indexed by `StallCause as usize`.
    stall_causes: [Arc<Counter>; StallCause::ALL.len()],
    frames_shown: Arc<Counter>,
}

impl RunTelemetry {
    fn new(cfg: &ConferenceConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let trace = Arc::new(EventTrace::new(TRACE_CAPACITY));
        trace.set_enabled(cfg.trace);
        log_event!(Level::Info, "conference", "run start",
            "video" => format!("{:?}", cfg.video), "cameras" => cfg.n_cameras,
            "duration_s" => cfg.duration_s as f64, "cull" => cfg.cull, "adapt" => cfg.adapt);
        RunTelemetry {
            step_ms: Step::ALL.map(|s| registry.histogram(&format!("conference.{}_ms", s.name()))),
            keep_fraction: registry.histogram("cull.keep_fraction"),
            split: registry.gauge("splitter.split"),
            splitter_steps: registry.counter("splitter.steps"),
            stalls: registry.counter("display.stalls"),
            stall_causes: StallCause::ALL
                .map(|c| registry.counter(&format!("display.stall_cause.{}", c.name()))),
            frames_shown: registry.counter("display.frames_shown"),
            flight: FlightRecorder::new(trace.clone(), registry.clone()),
            registry,
            trace,
        }
    }

    /// A display slot had nothing new to show, `since_us` after the display
    /// last advanced, for `cause` (the clock traced it).
    fn stalled(&mut self, now: Micros, slot: u64, since_us: Micros, cause: StallCause) {
        self.stalls.inc();
        self.stall_causes[cause as usize].inc();
        let stall_ms = since_us as f64 / 1e3;
        self.flight.observe_stall(now, 1, stall_ms, cause.name());
        log_event!(Level::Debug, "conference.display", "stall", "slot" => slot,
            "t_s" => now as f64 / 1e6, "stall_ms" => stall_ms, "cause" => cause.name());
    }

    /// The receiver ran a delivered frame through its lane: the decode
    /// step's time where a decode was attempted, and a failure to the log. A corrupted P-chain fails every frame until the
    /// next keyframe lands, so the warning is limited to one per second.
    fn ingested(&self, now: Micros, o: &FrameOutcome) {
        if matches!(o.ingest, Ingest::Decoded | Ingest::DecodeError) {
            self.record(Step::Decode, o.frame_id, now, o.decode_ms);
        }
        if o.ingest == Ingest::DecodeError {
            livo_telemetry::log::warn_limited(
                "conference.decode",
                1_000,
                "conference",
                "decode failed, requesting keyframe",
                &[
                    ("frame", o.frame_id.into()),
                    ("stream", o.stream.name().into()),
                ],
            );
        }
    }

    /// One RMSE-balancing step of the splitter from frame `frame`'s
    /// sender-side errors, counted in `splitter.steps`.
    fn split_step(&self, frame: u64, splitter: &mut BandwidthSplitter, rmse_d: f64, rmse_c: f64) {
        let steps_before = splitter.steps_taken();
        splitter.update(rmse_d, rmse_c);
        self.splitter_steps
            .add(splitter.steps_taken() - steps_before);
        log_event!(Level::Trace, "conference.splitter", "split measurement", "frame" => frame,
            "rmse_depth_mm" => rmse_d, "rmse_color" => rmse_c, "split" => splitter.split());
    }

    /// The one place a step's wall time is reported: its histogram and,
    /// for the steps no stage traces, a `pipeline` trace event (arg:
    /// elapsed µs), stamped `now`. The stages trace encode and decode.
    fn record(&self, step: Step, frame: u64, now: Micros, ms: f64) {
        self.step_ms[step as usize].record(ms);
        if !matches!(step, Step::Encode | Step::Decode) {
            let us = (ms * 1e3) as i64;
            self.trace
                .record(now, frame, step.party(), "pipeline", step.name(), us);
        }
    }

    /// Run `f` as `step` of `frame` and [`record`](Self::record) its time.
    fn time<T>(&self, step: Step, frame: u64, now: Micros, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(step, frame, now, t0.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// Fold a finished run into its [`RunSummary`].
fn summarise(
    cfg: &ConferenceConfig,
    net_trace: &BandwidthTrace,
    records: Vec<FrameRecord>,
    transport: &SessionStats,
    mean_split: f64,
    tel: RunTelemetry,
) -> RunSummary {
    let displayed = records.iter().filter(|r| r.shown_seq.is_some()).count();
    let slots = records.len().max(1) as f64;
    // PSSIM over the sampled slots: a sampled slot that stalled scores 0.
    let sampled = records
        .iter()
        .filter(|r| r.slot % cfg.quality_every as u64 == 0);
    let n_sampled = sampled.clone().count().max(1) as f64;
    let scores: Vec<PssimScore> = sampled.filter_map(|r| r.pssim).collect();
    let geometry: f64 = scores.iter().map(|s| s.geometry).sum();
    let color: f64 = scores.iter().map(|s| s.color).sum();
    let n_scored = scores.len().max(1) as f64;

    let keep = &tel.keep_fraction;
    RunSummary {
        stall_rate: if records.is_empty() {
            0.0
        } else {
            1.0 - displayed as f64 / slots
        },
        mean_fps: displayed as f64 / (slots / FPS as f64),
        pssim_geometry: geometry / n_sampled,
        pssim_color: color / n_sampled,
        pssim_geometry_no_stall: geometry / n_scored,
        pssim_color_no_stall: color / n_scored,
        throughput_mbps: transport.throughput_mbps(cfg.duration_s as f64),
        // Bonded runs ignore `net_trace` for the links; their capacity
        // ceiling is the scenario's sum of link means.
        mean_capacity_mbps: match &cfg.bond {
            Some(sc) => sc.sum_capacity_mbps(),
            None => net_trace.stats().mean,
        },
        transport_latency_ms: transport.mean_latency_ms(),
        mean_split,
        mean_keep_fraction: if keep.count() > 0 { keep.mean() } else { 1.0 },
        bits_sent: transport.bits_sent,
        records,
        trace: tel.trace.snapshot(),
        flight: tel.flight.bundles().to_vec(),
        metrics: tel.registry.snapshot(),
    }
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
            (
                "static_split",
                ConferenceConfig::builder(VideoId::Band2).static_split(1.2),
            ),
            (
                "quality_every",
                ConferenceConfig::builder(VideoId::Band2).quality_every(0),
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
    fn clean_link_shows_every_slot() {
        // On the exact schedule a clean constant link never starves the
        // display: every slot shows the next frame, on all five presets.
        for video in VideoId::ALL {
            let cfg = ConferenceConfig::builder(video)
                .camera_scale(0.08)
                .n_cameras(4)
                .duration_s(3.0)
                .quality_every(u32::MAX)
                .build()
                .unwrap();
            let s = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(40.0, 8.0));
            // 90 frames end at 3.0 s; slots run from 0.2 s every 1/30 s.
            assert_eq!(s.records.len(), 84, "{video}: display slots");
            let shown: Vec<u32> = s.records.iter().filter_map(|r| r.shown_seq).collect();
            assert_eq!(s.metrics.counter("display.stalls"), Some(0), "{video}");
            assert_eq!(s.stall_rate, 0.0, "{video}");
            assert!(
                shown.windows(2).all(|w| w[1] == w[0] + 1),
                "{video}: {shown:?}"
            );
        }
    }

    #[test]
    fn scoring_renders_on_the_runner_pool() {
        // The truth views of a scored slot render one task a camera on the
        // pool the runner was given, so two runs that differ only in whether
        // they score differ by exactly those tasks on that pool's counter.
        let tasks = |quality_every: u32| {
            let mut cfg = quick_cfg();
            cfg.quality_every = quality_every;
            let mut runner = ConferenceRunner::new(cfg);
            runner.set_worker_pool(Arc::new(WorkerPool::new(2)));
            let s = runner.run(BandwidthTrace::constant(60.0, 10.0));
            let scored = s.records.iter().filter(|r| r.pssim.is_some()).count() as u64;
            (s.metrics.counter("runtime.pool.tasks").unwrap(), scored)
        };
        let (often, scored_often) = tasks(10);
        // Slot 0 is a multiple of every interval, so it is always scored.
        let (once, scored_once) = tasks(u32::MAX);
        assert!(
            scored_often >= 8 && scored_once == 1,
            "{scored_often}, {scored_once}"
        );
        assert_eq!(often - once, (scored_often - scored_once) * 4);
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
        let session = SessionConfig {
            initial_estimate_bps: 0.4e6,
            ..Default::default()
        };
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
    fn a_broken_lane_gets_its_intra_no_sooner_than_one_feedback_delay() {
        // A 30 ms jitter target leaves no time for a NACK round trip (≥ 40
        // ms on the 20 ms link), so a lost packet costs its frame and the
        // next frame breaks its decode lane, which asks for a keyframe.
        let mut cfg = quick_cfg();
        cfg.session.jitter_target = 30_000;
        cfg.session.link.random_loss = 0.02;
        cfg.session.link.seed = 5;
        let fb_delay = cfg.session.link.propagation;
        let s = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(20.0, 10.0));
        let q = livo_telemetry::TraceQuery::new(s.trace.clone());
        let on = |f: u64, k: &str, party: u16, comp: &str| q.frame(f)?.ts_on(k, party, comp);
        // The first break: a frame played out whose predecessor never was
        // (ChainBroken records no decode), on either lane, and when.
        let lanes = [
            ("transport.color", "codec.color"),
            ("transport.depth", "codec.depth"),
        ];
        let (t_req, f, (transport, codec)) = (1..q.frames().len() as u64)
            .flat_map(|f| lanes.map(|lane| (f, lane)))
            .filter(|&(f, (tr, _))| on(f - 1, kind::PLAYOUT, 1, tr).is_none())
            .filter_map(|(f, lane)| Some((on(f, kind::PLAYOUT, 1, lane.0)?, f, lane)))
            .min()
            .expect("the lossy call broke a decode lane");
        // The lane decodes nothing until a keyframe: its next decode is the
        // intra that answered the request.
        let intra = (f + 1..)
            .take_while(|&g| q.frame(g).is_some())
            .find(|&g| on(g, kind::DECODE, 1, codec).is_some())
            .expect("the lane recovered");
        let sent = on(intra, kind::SEND, 0, transport).unwrap();
        assert!(
            sent >= t_req + fb_delay,
            "frame {f} broke {codec} at {t_req} µs; intra {intra} sent at {sent} µs"
        );
        // The request is on the broken frame's path, on its lane.
        assert_eq!(on(f, kind::PLI, 1, transport), Some(t_req));
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

        // Transport + codec instrumentation attached to the same registry.
        assert!(s.metrics.counter("transport.frames_delivered").unwrap_or(0) > 0);
        assert!(s.metrics.counter("codec.color.bits_total").unwrap_or(0) > 0);
        assert!(s.metrics.gauge("transport.gcc.estimate_bps").unwrap_or(0.0) > 0.0);
        assert!(s.metrics.gauge("splitter.split").is_some());
        assert_eq!(
            s.metrics.counter("display.frames_shown").unwrap_or(0),
            s.records.iter().filter(|r| r.shown_seq.is_some()).count() as u64
        );

        // Every displayed frame's path runs capture → encode → packetize →
        // decode in causal order, stitched across pipeline, transport and
        // codec events.
        let q = livo_telemetry::TraceQuery::new(s.trace.clone());
        let mut complete = 0;
        for seq in s.records.iter().filter_map(|r| r.shown_seq) {
            let p = q.frame(seq as u64).expect("displayed frame left a path");
            let path = [
                p.ts_of(kind::CAPTURE, 0),
                p.ts_of(kind::ENCODE, 0),
                p.ts_of(kind::PACKETIZE, 0),
                p.ts_of(kind::DECODE, 1),
                p.ts_of(kind::DISPLAY, 1),
            ];
            assert!(
                path.iter().flatten().is_sorted(),
                "frame {seq} out of order: {path:?}"
            );
            if path.iter().all(Option::is_some) {
                complete += 1;
            }
        }
        assert!(
            complete > 0,
            "no displayed frame has a full capture→decode trail"
        );
    }
}
