//! The only file of the benchmark that names product items.
//!
//! One thin function per layer call; the loops in `call.rs` and `sfu.rs`
//! time these from outside. A refactor that moves or merges a product
//! entry point changes this file and nothing else of the benchmark (the
//! README lists the pinned surface).

use bytes::Bytes;
use livo_bond::{BondConfig, BondScenario, BondedSession};
use livo_capture::datasets::DatasetPreset;
use livo_capture::nettrace::TraceId;
use livo_capture::usertrace::TraceStyle;
use livo_capture::{render_views_at, rig, VideoId};
use livo_codec2d::{Decoder, Encoder, EncoderConfig, FrameType, PixelFormat};
use livo_core::conference::{ConferenceConfig, ConferenceRunner};
use livo_core::cull::CullContext;
use livo_core::frustum_pred::FrustumPredictor;
use livo_core::reconstruct::{prepare_for_render, reconstruct_point_cloud};
use livo_core::splitter::{BandwidthSplitter, SplitterConfig};
use livo_core::tile::{compose_color, compose_depth, read_seq, TileLayout};
use livo_core::{DepthCodec, DepthEncoding};
use livo_math::{CameraIntrinsics, FrustumParams, Vec3};
use livo_pointcloud::{pssim, Point, PssimConfig};
use livo_runtime::WorkerPool;
use livo_sfu::{Router, SubscriberConfig};
use livo_transport::{LinkConfig, RtcSession, SessionConfig};
use std::sync::Arc;

use livo_capture::BandwidthTrace;
use livo_math::{Pose, RgbdCamera};
use livo_sfu::RouteSummary;

pub use livo_capture::{RgbdFrame, UserTrace};
pub use livo_codec2d::{EncodedFrame, Frame};
pub use livo_math::Frustum;
pub use livo_pointcloud::PointCloud;
pub use livo_sfu::SubscriberId;
/// The repo's dependency-free JSON writer.
pub use livo_telemetry::json;
pub use livo_transport::{AssembledFrame, Micros, SessionStats, StreamId};

pub type Pool = Arc<WorkerPool>;

/// Capture and display rate of every workload.
pub const FPS: u64 = 30;
/// Receiver render voxel size in metres (the conference default).
const VOXEL_M: f32 = 0.03;
/// Media share of the bandwidth estimate (the conference default).
pub const BUDGET_FRACTION: f64 = 0.80;
/// Frustum guard band in metres (the conference default).
const GUARD_M: f32 = 0.2;
const JITTER_TARGET_US: Micros = 100_000;

pub fn new_pool(threads: usize) -> Pool {
    Arc::new(WorkerPool::new(threads))
}

pub fn simd_level() -> &'static str {
    livo_math::simd::level_name(livo_math::simd::level())
}

// ---------------------------------------------------------------- capture

/// The capture side every workload shares: scene `band2` seen by a camera
/// ring, with the tile layout and depth codec that ring implies.
pub struct Rig {
    scene: DatasetPreset,
    pub cameras: Vec<RgbdCamera>,
    pub layout: TileLayout,
    pub depth_codec: DepthCodec,
}

pub fn rig(n_cameras: usize, camera_scale: f32) -> Rig {
    let cameras = rig::camera_ring(
        n_cameras,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(camera_scale),
    );
    let k = cameras[0].intrinsics;
    Rig {
        scene: DatasetPreset::load(VideoId::Band2),
        layout: TileLayout::new(k.width as usize, k.height as usize, n_cameras),
        depth_codec: DepthCodec::new(6000, DepthEncoding::ScaledY16),
        cameras,
    }
}

/// The sensor stand-in: render clip frame `idx` from every camera.
pub fn render_views(pool: &Pool, rig: &Rig, idx: u32) -> Vec<RgbdFrame> {
    let snap = rig.scene.scene.at(idx as f32 / FPS as f32);
    render_views_at(pool, &rig.cameras, &snap, idx)
}

pub fn user_trace(duration_s: f32, seed: u64) -> UserTrace {
    UserTrace::generate(TraceStyle::Orbit, duration_s, seed)
}

pub fn trace_constant(mbps: f64, duration_s: f32) -> BandwidthTrace {
    BandwidthTrace::constant(mbps, duration_s)
}

/// The mall trace (`trace-2`) scaled to evaluation bandwidth.
pub fn trace_mall(scale: f64, duration_s: f32, seed: u64) -> BandwidthTrace {
    BandwidthTrace::generate(TraceId::Trace2, duration_s, seed).scaled(scale)
}

/// The viewer's frustum at display time (no guard band).
pub fn viewer_frustum(pose: &Pose) -> Frustum {
    Frustum::from_params(pose, &FrustumParams::default())
}

/// A pose standing at the SFU audience spot, looking along `yaw`.
pub fn audience_pose(yaw: f32) -> Pose {
    let eye = Vec3::new(0.0, 1.5, 2.0);
    let dir = Vec3::new(yaw.sin(), 0.0, -yaw.cos());
    Pose::look_at(eye, eye + dir, Vec3::Y)
}

// ----------------------------------------------------------------- sender

pub struct Predictor(FrustumPredictor);

pub fn new_predictor() -> Predictor {
    Predictor(FrustumPredictor::new(FrustumParams::default(), GUARD_M))
}

impl Predictor {
    /// Feed a feedback-delayed pose and the current round trip.
    pub fn observe(&mut self, pose: &Pose, owd_s: f64) {
        self.0.observe(pose);
        self.0.observe_rtt(2.0 * owd_s + 0.03);
    }

    pub fn frustum(&self) -> Frustum {
        self.0.predicted_frustum()
    }
}

pub struct Culler(CullContext);

pub fn new_culler() -> Culler {
    Culler(CullContext::new())
}

/// Cull in place; returns (kept, valid) pixel counts.
pub fn cull(
    c: &mut Culler,
    pool: &Pool,
    views: &mut [RgbdFrame],
    rig: &Rig,
    frustum: &Frustum,
) -> (usize, usize) {
    let s = c.0.cull_views_on(pool, views, &rig.cameras, frustum);
    (s.kept, s.total_valid)
}

pub fn tile_color(views: &[RgbdFrame], rig: &Rig, seq: u32) -> Frame {
    compose_color(views, &rig.layout, seq)
}

pub fn tile_depth(views: &[RgbdFrame], rig: &Rig, seq: u32) -> Frame {
    compose_depth(views, &rig.layout, &rig.depth_codec, seq)
}

pub struct Splitter(BandwidthSplitter);

pub fn new_splitter() -> Splitter {
    Splitter(BandwidthSplitter::new(SplitterConfig::default()))
}

impl Splitter {
    pub fn split(&self) -> f64 {
        self.0.split()
    }

    pub fn steps(&self) -> u64 {
        self.0.steps_taken()
    }

    pub fn measurement_due(&mut self) -> bool {
        self.0.measurement_due()
    }

    /// One RMSE-balancing step from the encoders' own reconstructions.
    pub fn update(
        &mut self,
        rig: &Rig,
        color: &Frame,
        color_out: &EncodedFrame,
        depth: &Frame,
        depth_out: &EncodedFrame,
    ) {
        let rmse_c = livo_codec2d::luma_rmse(color, &color_out.reconstruction);
        let a = &depth.planes[0].data;
        let b = &depth_out.reconstruction.planes[0].data;
        let scale = rig.depth_codec.scale() as f64;
        let mse = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| {
                let d = (x as f64 - y as f64) / scale;
                d * d
            })
            .sum::<f64>()
            / a.len() as f64;
        self.0.update(mse.sqrt(), rmse_c);
    }
}

pub struct VideoEncoder(Encoder);

/// Open-GOP encoder for one canvas stream (intra only at start and on PLI).
pub fn new_encoder(rig: &Rig, depth: bool, pool: &Pool) -> VideoEncoder {
    let format = if depth {
        PixelFormat::Y16
    } else {
        PixelFormat::Yuv420
    };
    let mut cfg = EncoderConfig::new(rig.layout.canvas_w, rig.layout.canvas_h, format);
    cfg.gop_length = 0;
    let mut enc = Encoder::new(cfg);
    enc.set_worker_pool(pool.clone());
    VideoEncoder(enc)
}

pub fn force_keyframe(enc: &mut VideoEncoder) {
    enc.0.force_keyframe();
}

pub fn encode(enc: &mut VideoEncoder, frame: &Frame, target_bits: u64) -> EncodedFrame {
    enc.0.encode(frame, target_bits.max(2_000))
}

pub fn is_intra(out: &EncodedFrame) -> bool {
    out.frame_type == FrameType::Intra
}

// -------------------------------------------------------------- transport

/// How a two-party call reaches the other side.
pub enum LinkPlan {
    Single {
        trace: BandwidthTrace,
        random_loss: f64,
        seed: u64,
    },
    Bonded(BondScenario),
}

/// WiFi (20 Mbps, 20 ms) killed halfway, LTE (7 Mbps, 45 ms) carries on.
pub fn bond_wifi_to_lte(duration_s: f64, seed: u64) -> LinkPlan {
    let mut sc = BondScenario::wifi_to_lte(duration_s);
    for (i, l) in sc.links.iter_mut().enumerate() {
        l.link.seed = seed.wrapping_add(i as u64);
    }
    LinkPlan::Bonded(sc)
}

fn session_config(link: LinkConfig) -> SessionConfig {
    SessionConfig {
        link,
        jitter_target: JITTER_TARGET_US,
        ..SessionConfig::default()
    }
}

/// Display starts after the jitter target plus three frames of pipeline
/// fill, as in the product's call loop.
pub fn display_start_us() -> Micros {
    JITTER_TARGET_US + 3 * 1_000_000 / FPS
}

/// The transport-agnostic session surface (the product's own switch is
/// private to its call loop).
pub enum Session {
    Single(Box<RtcSession>),
    Bonded(Box<BondedSession>),
}

pub fn new_session(plan: &LinkPlan) -> Session {
    match plan {
        LinkPlan::Single {
            trace,
            random_loss,
            seed,
        } => {
            let link = LinkConfig {
                random_loss: *random_loss,
                seed: *seed,
                ..LinkConfig::default()
            };
            Session::Single(Box::new(RtcSession::new(
                trace.clone(),
                session_config(link),
            )))
        }
        LinkPlan::Bonded(sc) => Session::Bonded(Box::new(BondedSession::new(
            BondConfig::from_session(sc.clone(), &session_config(LinkConfig::default())),
        ))),
    }
}

impl Session {
    pub fn estimate_bps(&self) -> f64 {
        match self {
            Session::Single(s) => s.estimate_bps(),
            Session::Bonded(s) => s.estimate_bps(),
        }
    }

    pub fn one_way_delay_s(&self) -> f64 {
        match self {
            Session::Single(s) => s.one_way_delay_us() / 1e6,
            Session::Bonded(s) => s.one_way_delay_us() / 1e6,
        }
    }

    pub fn capacity_bps(&self, now: Micros) -> f64 {
        match self {
            Session::Single(s) => s.capacity_bps(now),
            Session::Bonded(s) => s.capacity_bps(now),
        }
    }

    pub fn send_frame(&mut self, now: Micros, stream: StreamId, id: u64, out: &EncodedFrame) {
        let data = Bytes::from(out.data.clone());
        let key = is_intra(out);
        match self {
            Session::Single(s) => s.send_frame(now, stream, id, data, key),
            Session::Bonded(s) => s.send_frame(now, stream, id, data, key),
        }
    }

    pub fn tick(&mut self, now: Micros) {
        match self {
            Session::Single(s) => s.tick(now),
            Session::Bonded(s) => s.tick(now),
        }
    }

    pub fn take_pli(&mut self, now: Micros) -> bool {
        match self {
            Session::Single(s) => s.take_pli(now),
            Session::Bonded(s) => s.take_pli(now),
        }
    }

    pub fn recv_frames(&mut self) -> Vec<AssembledFrame> {
        match self {
            Session::Single(s) => s.recv_frames(),
            Session::Bonded(s) => s.recv_frames(),
        }
    }

    pub fn stats(&self) -> &SessionStats {
        match self {
            Session::Single(s) => s.stats(),
            Session::Bonded(s) => s.stats(),
        }
    }

    /// (failovers, links up, delivered bits per named leg); nothing on one
    /// link.
    pub fn bond_report(&self) -> (u64, usize, Vec<(String, u64)>) {
        match self {
            Session::Single(_) => (0, 0, Vec::new()),
            Session::Bonded(s) => (
                s.failovers(),
                s.links_up(),
                s.link_reports()
                    .into_iter()
                    .map(|r| (r.name, r.stats.delivered_bits))
                    .collect(),
            ),
        }
    }
}

// --------------------------------------------------------------- receiver

pub struct VideoDecoder(Decoder);

pub fn new_decoder(pool: &Pool) -> VideoDecoder {
    let mut dec = Decoder::new();
    dec.set_worker_pool(pool.clone());
    VideoDecoder(dec)
}

pub fn reset_decoder(dec: &mut VideoDecoder) {
    dec.0.reset();
}

/// Decode one delivered frame; `Some((embedded sequence number, canvas))`.
pub fn decode(dec: &mut VideoDecoder, data: &[u8]) -> Option<(u32, Frame)> {
    let frame = dec.0.decode(data).ok()?;
    let seq = read_seq(&frame.planes[0], frame.format.peak_value());
    Some((seq, frame))
}

pub fn reconstruct(color: &Frame, depth: &Frame, rig: &Rig) -> PointCloud {
    reconstruct_point_cloud(color, depth, &rig.layout, &rig.cameras, &rig.depth_codec)
}

pub fn render_prep(cloud: &PointCloud, frustum: &Frustum) -> PointCloud {
    prepare_for_render(cloud, VOXEL_M, frustum)
}

// ---------------------------------------------------------------- quality

/// What the sensor measured: the un-culled captured views, back-projected.
pub fn truth_cloud(views: &[RgbdFrame], rig: &Rig) -> PointCloud {
    let mut truth = PointCloud::new();
    for (cam, v) in rig.cameras.iter().zip(views) {
        for y in 0..v.height {
            for x in 0..v.width {
                let d = v.depth_mm[y * v.width + x];
                if let Some(w) = cam.pixel_to_world(x as u32, y as u32, d) {
                    truth.push(Point::new(w, v.rgb_at(x, y)));
                }
            }
        }
    }
    truth
}

/// PSSIM (geometry, colour) of a displayed cloud against its reference.
pub fn score(reference: &PointCloud, shown: &PointCloud) -> Option<(f64, f64)> {
    let cfg = PssimConfig {
        neighbors: 6,
        cell_size: VOXEL_M * 3.0,
        curvature_weight: 0.3,
    };
    pssim(reference, shown, &cfg).map(|s| (s.geometry, s.color))
}

// -------------------------------------------------------------------- sfu

pub struct Sfu(Router);

pub fn new_router(rig: &Rig, pool: &Pool) -> Sfu {
    Sfu(Router::builder(rig.cameras.clone())
        .worker_pool(pool.clone())
        .build()
        .expect("default router config is valid"))
}

/// What the harness reads from one subscriber at a display slot or at the
/// end of a call.
pub struct SubscriberView<'a> {
    pub latest_synced_seq: Option<u32>,
    pub stats: &'a SessionStats,
    pub frames_forwarded: u64,
    pub frames_decoded: u64,
    pub decode_failures: u64,
    sub: &'a livo_sfu::Subscriber,
}

impl SubscriberView<'_> {
    pub fn decoded(&self, seq: u32) -> Option<(&Frame, &Frame)> {
        Some((self.sub.decoded_color(seq)?, self.sub.decoded_depth(seq)?))
    }

    pub fn capacity_bps(&self, now: Micros) -> f64 {
        self.sub.session().capacity_bps(now)
    }

    pub fn estimate_bps(&self) -> f64 {
        self.sub.estimate_bps()
    }
}

impl Sfu {
    pub fn add_subscriber(
        &mut self,
        name: String,
        link_mbps: f64,
        duration_s: f32,
        seed: u64,
        standin: bool,
    ) -> SubscriberId {
        let mut cfg = SubscriberConfig::new(name);
        cfg.session = session_config(LinkConfig {
            seed,
            ..LinkConfig::default()
        });
        if !standin {
            cfg = cfg.without_standin();
        }
        self.0
            .add_subscriber(cfg, BandwidthTrace::constant(link_mbps, duration_s))
            .expect("subscriber names are unique and under capacity")
    }

    pub fn observe_pose(&mut self, id: SubscriberId, pose: &Pose) {
        self.0.observe_pose(id, pose).expect("subscriber is live");
    }

    pub fn route_frame(&mut self, now: Micros, views: &[RgbdFrame]) -> RouteSummary {
        self.0.route_frame(now, views)
    }

    pub fn tick(&mut self, now: Micros) {
        self.0.tick(now);
    }

    pub fn subscriber(&self, id: SubscriberId) -> SubscriberView<'_> {
        let sub = self.0.subscriber(id).expect("subscriber is live");
        SubscriberView {
            latest_synced_seq: sub.latest_synced_seq(),
            stats: sub.session().stats(),
            frames_forwarded: sub.stats().frames_forwarded,
            frames_decoded: sub.stats().frames_decoded,
            decode_failures: sub.stats().decode_failures,
            sub,
        }
    }
}

// ------------------------------------------------------- the product loop

/// `ConferenceRunner::run` timed as a whole (inline capture included):
/// wall milliseconds per frame on a clean 40 Mbps link, quality off.
pub fn conference_run_ms_per_frame(camera_scale: f32, duration_s: f32, pool: &Pool) -> f64 {
    let cfg = ConferenceConfig::builder(VideoId::Band2)
        .camera_scale(camera_scale)
        .n_cameras(4)
        .duration_s(duration_s)
        .quality_every(u32::MAX)
        .trace(false)
        .build()
        .expect("guard config is valid");
    let frames = (duration_s * FPS as f32) as u64;
    let mut runner = ConferenceRunner::new(cfg);
    runner.set_worker_pool(pool.clone());
    let t0 = std::time::Instant::now();
    let summary = runner.run(BandwidthTrace::constant(40.0, duration_s + 2.0));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(summary.stall_rate);
    ms / frames.max(1) as f64
}
