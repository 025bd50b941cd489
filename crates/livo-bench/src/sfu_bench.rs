//! SFU scaling benchmark: encode passes and route time vs subscriber count.
//!
//! The claim under test is the SFU's whole reason to exist: with
//! frustum-clustered encode sharing, the number of cull+encode passes per
//! frame grows with the number of *distinct viewing regions* (clusters),
//! not the number of subscribers — while naive fan-out pays one pass per
//! subscriber. Subscribers alternate between two gaze groups (stage and
//! crowd), so the shared passes saturate at two regardless of N.
//!
//! v2 extends the sweep to conference scale (N ∈ {10, 100, 500}) and to
//! the sharded router:
//!
//! - Every run drives the router on the two-party call's exact 30 fps
//!   schedule: frame `f` is routed at the first 1 ms tick at or after
//!   `due(f)`, then `Router::run_until` steps the downlinks and display
//!   clocks to `due(f + 1)`.
//! - Route wall-clock is measured directly per frame and reported as
//!   exact p50/p99 percentiles (the registry's log-bucket histogram is
//!   too coarse to gate on), and so is the frame's `run_until`, with how
//!   many subscriber session ticks it ran.
//! - At N = 100 the same workload also runs on a single-thread pool; the
//!   gate requires the sharded route time to stay at or below that serial
//!   baseline (within noise) whenever more than one worker is available.
//! - Naive fan-out is only measured up to [`NAIVE_CAP`] subscribers — at
//!   N = 500 it would encode 15 000 passes to prove a point made at 10.
//! - A Poisson churn run per N (exponential inter-arrival joins/leaves
//!   from a fixed-seed LCG) checks that mid-call membership churn
//!   completes without panics and that shared intras stay rate-limited
//!   to one per RTT per cluster ([`ChurnPoint::min_intra_gap_us`]).
//!
//! Large-N runs sample the decode stand-in (1 in [`STANDIN_SAMPLE`]
//! subscribers) — every downlink still runs the full transport
//! simulation, but decode cost is paid on a sample, as a real harness
//! would.

use livo_capture::{
    datasets::DatasetPreset, render::render_views_at, rig, BandwidthTrace, RgbdFrame, VideoId,
};
use livo_core::stage::{due, StallCause, FPS};
use livo_eval::experiments::EvalProfile;
use livo_eval::stats::percentile;
use livo_math::{CameraIntrinsics, Pose, RgbdCamera, Vec3};
use livo_runtime::WorkerPool;
use livo_sfu::{RouteSummary, Router, RouterEvent, SubscriberConfig, SubscriberId};
use livo_telemetry::json::ObjectWriter;
use livo_transport::Micros;
use std::sync::Arc;

/// Subscriber counts of the full scaling sweep.
pub const SUBSCRIBER_COUNTS: [usize; 3] = [10, 100, 500];
/// Counts used by `--quick` (CI): drops the N=500 point.
pub const QUICK_COUNTS: [usize; 2] = [10, 100];

/// Naive fan-out is measured only up to this N.
pub const NAIVE_CAP: usize = 10;
/// The sharded-vs-serial comparison runs at this N.
pub const SERIAL_BASELINE_N: usize = 100;
/// With more than this many subscribers, 1 in `STANDIN_SAMPLE` runs the
/// decode stand-in; the rest skip decode (transport still simulated).
const STANDIN_SAMPLE: usize = 25;

/// Frames per measured run (one virtual second per run keeps the full
/// sweep CI-friendly).
const FRAMES: u64 = 30;

/// Sharded route p50 must be <= serial p50 * this (noise allowance).
const SERIAL_TOLERANCE: f64 = 1.15;
/// One RTT on the default emulated link (20 ms each way), with 0.8 slack
/// for the measured-RTT cooldown: intras on one chain must be at least
/// this far apart.
const MIN_INTRA_GAP_US: u64 = 32_000;

/// One point of the sweep: N subscribers, shared vs naive.
pub struct ScalingPoint {
    pub subscribers: usize,
    /// Frustum clusters the shared router settled on.
    pub clusters: usize,
    pub shared_passes_per_frame: f64,
    /// `None` above [`NAIVE_CAP`] (not measured).
    pub naive_passes_per_frame: Option<f64>,
    /// Wall-clock of one routed frame (cull+tile+encode+fan-out, all
    /// clusters), milliseconds.
    pub shared_route_ms_p50: f64,
    pub shared_route_ms_p99: f64,
    pub naive_route_ms_p50: Option<f64>,
    /// Same workload on a 1-thread pool; only measured at
    /// [`SERIAL_BASELINE_N`].
    pub serial_route_ms_p50: Option<f64>,
    /// Wall-clock of one frame interval's router ticks, milliseconds.
    pub tick_ms_p50: f64,
    /// Subscriber session ticks that ran per frame (`sfu.session_ticks`).
    pub session_ticks_per_frame: f64,
}

/// One Poisson churn run: joins and leaves arriving mid-call.
pub struct ChurnPoint {
    /// Subscribers at the start of the run.
    pub subscribers: usize,
    pub joins: u64,
    pub leaves: u64,
    pub regroups: u64,
    pub shared_intras: u64,
    /// Smallest observed gap between two intras on the same shared
    /// chain; `None` when no chain fired twice.
    pub min_intra_gap_us: Option<u64>,
    pub route_ms_p99: f64,
}

/// The link-class run: the whole-call benchmark's fast, mid and slow
/// downlinks (Mbit/s), 120 frames; each subscriber's display clock counts
/// its slots from 200 ms after its first frame (the 100 ms jitter target
/// and three frames of fill).
pub const LINK_CLASSES_MBPS: [f64; 3] = [50.0, 6.0, 1.5];
const CLASS_FRAMES: u64 = 120;

/// What the stage group's member on one link class displayed: new frames
/// a second, the share of slots with none and why, and the T1s not
/// forwarded.
pub struct ClassPoint {
    pub link_mbps: f64,
    pub shown_fps: f64,
    pub stall_rate: f64,
    /// Stalled slots per cause, indexed by `StallCause as usize`.
    pub stall_causes: [u64; StallCause::ALL.len()],
    pub t1_dropped: u64,
}

/// The full v2 sweep, plus the worker count it ran with (the serial
/// comparison is only meaningful with >= 2 workers).
pub struct SfuSweep {
    pub points: Vec<ScalingPoint>,
    pub churn: Vec<ChurnPoint>,
    pub classes: Vec<ClassPoint>,
    pub threads: usize,
}

fn looking(yaw: f32) -> Pose {
    let eye = Vec3::new(0.0, 1.5, 2.0);
    let dir = Vec3::new(yaw.sin(), 0.0, -yaw.cos());
    Pose::look_at(eye, eye + dir, Vec3::new(0.0, 1.0, 0.0))
}

/// Two gaze groups, interleaved over subscriber indices.
fn yaw_of(i: usize) -> f32 {
    let jitter = 0.02 * ((i / 2) % 4) as f32;
    if i.is_multiple_of(2) {
        jitter
    } else {
        std::f32::consts::PI + jitter
    }
}

fn subscriber_cfg(i: usize, n: usize) -> SubscriberConfig {
    let cfg = SubscriberConfig::new(format!("sub{i}"));
    if n > NAIVE_CAP && !i.is_multiple_of(STANDIN_SAMPLE) {
        cfg.without_standin()
    } else {
        cfg
    }
}

/// Frame `f`'s interval: each `(subscriber, slot)` observes its gaze
/// group's pose, the router routes `views` at `now`, then runs to the next
/// frame's due instant. Returns the summary and the route and run wall
/// times, milliseconds.
fn step(
    router: &mut Router,
    subs: &[(SubscriberId, usize)],
    views: &[RgbdFrame],
    f: u64,
    now: &mut Micros,
) -> (RouteSummary, f64, f64) {
    for &(id, slot) in subs {
        router
            .observe_pose(id, &looking(yaw_of(slot)))
            .expect("live");
    }
    let t0 = std::time::Instant::now();
    let out = router.route_frame(*now, views);
    let route_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = std::time::Instant::now();
    *now = router.run_until(*now, due(f + 1));
    (out, route_ms, t0.elapsed().as_secs_f64() * 1e3)
}

struct RunStats {
    passes_per_frame: f64,
    clusters: usize,
    route_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    session_ticks_per_frame: f64,
}

fn run_one(
    cameras: &[RgbdCamera],
    frames: &[Vec<RgbdFrame>],
    n: usize,
    sharing: bool,
    pool: Option<Arc<WorkerPool>>,
) -> RunStats {
    let mut b = Router::builder(cameras.to_vec()).sharing(sharing);
    if let Some(pool) = pool {
        b = b.worker_pool(pool);
    }
    let mut router = b.build().expect("valid router config");
    let subs: Vec<(SubscriberId, usize)> = (0..n)
        .map(|i| {
            let link = BandwidthTrace::constant(40.0, FRAMES as f32 / FPS as f32 + 2.0);
            let id = router.add_subscriber(subscriber_cfg(i, n), link);
            (id.expect("add subscriber"), i)
        })
        .collect();
    let mut now: Micros = 0;
    let (mut route_ms, mut tick_ms) = (Vec::new(), Vec::new());
    for (f, views) in (0..).zip(frames) {
        let (_, route, tick) = step(&mut router, &subs, views, f, &mut now);
        route_ms.push(route);
        tick_ms.push(tick);
    }
    let snap = router.registry().snapshot();
    let per_frame = |name| snap.counter(name).unwrap_or(0) as f64 / frames.len() as f64;
    RunStats {
        passes_per_frame: per_frame("sfu.encode_passes"),
        clusters: router.cluster_membership().len(),
        route_ms,
        tick_ms,
        session_ticks_per_frame: per_frame("sfu.session_ticks"),
    }
}

/// Minimal fixed-increment LCG (MMIX constants) — the churn schedule must
/// be deterministic across runs and machines.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// Exponential inter-arrival (Poisson process), in frames.
    fn exp_frames(&mut self, mean_frames: f64) -> u64 {
        let u = self.next_f64().max(1e-12);
        (-u.ln() * mean_frames).ceil().max(1.0) as u64
    }
}

/// Mean inter-arrival of churn joins and leaves, in frames (~6 events/s
/// each at 30 fps).
const CHURN_MEAN_FRAMES: f64 = 5.0;

fn run_churn(cameras: &[RgbdCamera], frames: &[Vec<RgbdFrame>], n: usize) -> ChurnPoint {
    let mut router = Router::builder(cameras.to_vec())
        .build()
        .expect("valid router config");
    let duration_s = FRAMES as f32 / FPS as f32 + 2.0;
    let mut subs: Vec<(SubscriberId, usize)> = (0..n)
        .map(|i| {
            let id = router
                .add_subscriber(
                    subscriber_cfg(i, n),
                    BandwidthTrace::constant(40.0, duration_s),
                )
                .expect("add subscriber");
            (id, i)
        })
        .collect();
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15 ^ n as u64);
    let mut next_join = rng.exp_frames(CHURN_MEAN_FRAMES);
    let mut next_leave = rng.exp_frames(CHURN_MEAN_FRAMES);
    let mut next_slot = n;

    let mut now: Micros = 0;
    let mut route_ms = Vec::with_capacity(frames.len());
    let (mut joins, mut leaves, mut regroups) = (0u64, 0u64, 0u64);
    let mut min_gap_us = u64::MAX;
    for (frame_idx, views) in frames.iter().enumerate() {
        let frame_idx = frame_idx as u64;
        while frame_idx >= next_join {
            let slot = next_slot;
            next_slot += 1;
            let id = router
                .add_subscriber(
                    subscriber_cfg(slot, n),
                    BandwidthTrace::constant(40.0, duration_s),
                )
                .expect("under capacity");
            subs.push((id, slot));
            next_join += rng.exp_frames(CHURN_MEAN_FRAMES);
        }
        while frame_idx >= next_leave {
            // Never drain below half the starting population.
            if subs.len() > n / 2 {
                let victim = rng.below(subs.len());
                let (id, _) = subs.swap_remove(victim);
                router.remove_subscriber(id).expect("still subscribed");
            }
            next_leave += rng.exp_frames(CHURN_MEAN_FRAMES);
        }
        let (out, route, _) = step(&mut router, &subs, views, frame_idx, &mut now);
        route_ms.push(route);
        for ev in &out.events {
            match ev {
                // Frame 0 drains the N initial adds — not churn.
                RouterEvent::SubscriberJoined { .. } if frame_idx > 0 => joins += 1,
                RouterEvent::SubscriberJoined { .. } => {}
                RouterEvent::SubscriberLeft { .. } => leaves += 1,
                RouterEvent::Regrouped { .. } => regroups += 1,
            }
        }
        for cluster in &out.clusters {
            if let Some(gap) = cluster.shared_intra_gap_us {
                min_gap_us = min_gap_us.min(gap);
            }
        }
    }
    let shared_intras = router
        .registry()
        .snapshot()
        .counter("sfu.shared_intras")
        .unwrap_or(0);
    ChurnPoint {
        subscribers: n,
        joins,
        leaves,
        regroups,
        shared_intras,
        min_intra_gap_us: (min_gap_us != u64::MAX).then_some(min_gap_us),
        route_ms_p99: percentile(&route_ms, 0.99),
    }
}

/// Two gaze groups with one member per link class; the clip plays forward
/// then backward, and each member's display clock counts its slots.
fn run_classes(cameras: &[RgbdCamera], frames: &[Vec<RgbdFrame>]) -> Vec<ClassPoint> {
    let mut router = Router::builder(cameras.to_vec())
        .build()
        .expect("valid router config");
    // Subscriber i is in gaze group i % 2 on link class i / 2.
    let subs: Vec<(SubscriberId, usize)> = (0..2 * LINK_CLASSES_MBPS.len())
        .map(|i| {
            let link = BandwidthTrace::constant(LINK_CLASSES_MBPS[i / 2], 6.0);
            let id = router.add_subscriber(SubscriberConfig::new(format!("sub{i}")), link);
            (id.expect("add subscriber"), i)
        })
        .collect();
    let (mut now, period) = (0, 2 * (frames.len() - 1));
    for f in 0..CLASS_FRAMES {
        let at = f as usize % period;
        let views = &frames[at.min(period - at)];
        step(&mut router, &subs, views, f, &mut now);
    }
    let snap = router.registry().snapshot();
    subs.iter()
        .step_by(2)
        .map(|&(id, i)| {
            let stats = router.subscriber(id).expect("subscribed").stats();
            let slots = (stats.slots_shown + stats.slots_stalled()) as f64;
            ClassPoint {
                link_mbps: LINK_CLASSES_MBPS[i / 2],
                shown_fps: stats.slots_shown as f64 * FPS as f64 / slots,
                stall_rate: stats.slots_stalled() as f64 / slots,
                stall_causes: stats.stalled,
                t1_dropped: snap
                    .counter(&format!("sfu.sub.sub{i}.t1_dropped"))
                    .unwrap_or(0),
            }
        })
        .collect()
}

/// Run the sweep. The rendered capture is shared across all runs — the
/// benchmark measures routing, not rendering.
pub fn run_scaling(profile: &EvalProfile, quick: bool) -> SfuSweep {
    let cameras = rig::camera_ring(
        profile.n_cameras,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        CameraIntrinsics::kinect_depth(profile.camera_scale),
    );
    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo_runtime::global();
    let frames: Vec<Vec<RgbdFrame>> = (0..FRAMES)
        .map(|i| {
            let snap = preset.scene.at(i as f32 / FPS as f32);
            render_views_at(pool, &cameras, &snap, i as u32)
        })
        .collect();

    let counts: &[usize] = if quick {
        &QUICK_COUNTS
    } else {
        &SUBSCRIBER_COUNTS
    };
    let points = counts
        .iter()
        .map(|&n| {
            let shared = run_one(&cameras, &frames, n, true, None);
            let naive = (n <= NAIVE_CAP).then(|| run_one(&cameras, &frames, n, false, None));
            let serial = (n == SERIAL_BASELINE_N).then(|| {
                run_one(
                    &cameras,
                    &frames,
                    n,
                    true,
                    Some(Arc::new(WorkerPool::new(1))),
                )
            });
            ScalingPoint {
                subscribers: n,
                clusters: shared.clusters,
                shared_passes_per_frame: shared.passes_per_frame,
                naive_passes_per_frame: naive.as_ref().map(|r| r.passes_per_frame),
                shared_route_ms_p50: percentile(&shared.route_ms, 0.5),
                shared_route_ms_p99: percentile(&shared.route_ms, 0.99),
                naive_route_ms_p50: naive.map(|r| percentile(&r.route_ms, 0.5)),
                serial_route_ms_p50: serial.map(|r| percentile(&r.route_ms, 0.5)),
                tick_ms_p50: percentile(&shared.tick_ms, 0.5),
                session_ticks_per_frame: shared.session_ticks_per_frame,
            }
        })
        .collect();
    let churn = counts
        .iter()
        .map(|&n| run_churn(&cameras, &frames, n))
        .collect();
    SfuSweep {
        points,
        churn,
        classes: run_classes(&cameras, &frames),
        threads: pool.threads(),
    }
}

/// `--gate`: the structural claims every run must hold.
///
/// - Shared passes per frame track the cluster count, not N (the whole
///   point of encode sharing).
/// - Clustering actually shares: above the naive cap there are far fewer
///   clusters than subscribers.
/// - At [`SERIAL_BASELINE_N`] the sharded route is no slower than the
///   1-thread baseline (only checked with >= 2 workers).
/// - Churn runs complete (they panic otherwise) with shared intras no
///   closer than one RTT apart.
pub fn gate_ok(sweep: &SfuSweep) -> bool {
    for p in &sweep.points {
        if p.clusters == 0 || p.shared_passes_per_frame > p.clusters as f64 + 0.5 {
            return false;
        }
        if p.subscribers > NAIVE_CAP && p.clusters * 4 > p.subscribers {
            return false;
        }
        if let (Some(serial), true) = (p.serial_route_ms_p50, sweep.threads >= 2) {
            if p.shared_route_ms_p50 > serial * SERIAL_TOLERANCE {
                return false;
            }
        }
    }
    sweep
        .churn
        .iter()
        .all(|c| c.min_intra_gap_us.is_none_or(|gap| gap >= MIN_INTRA_GAP_US))
}

/// Human-readable table of the sweep.
pub fn text(sweep: &SfuSweep) -> String {
    let mut s = String::from(
        "SFU scaling: encode passes per frame, shared (frustum clusters) vs naive\n\n",
    );
    s.push_str(&format!(
        "{:>11} | {:>8} | {:>12} | {:>11} | {:>9} | {:>9} | {:>9} | {:>9} | {:>9} | {:>9}\n",
        "subscribers",
        "clusters",
        "shared p/f",
        "naive p/f",
        "p50 ms",
        "p99 ms",
        "naive p50",
        "serial p50",
        "tick ms",
        "ticks/f"
    ));
    s.push_str(&format!(
        "{:->11}-+-{:->8}-+-{:->12}-+-{:->11}-+-{:->9}-+-{:->9}-+-{:->9}-+-{:->9}-+-{:->9}-+-{:->9}\n",
        "", "", "", "", "", "", "", "", "", ""
    ));
    let opt = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.2}"));
    for p in &sweep.points {
        s.push_str(&format!(
            "{:>11} | {:>8} | {:>12.2} | {:>11} | {:>9.2} | {:>9.2} | {:>9} | {:>9} | {:>9.2} | {:>9.1}\n",
            p.subscribers,
            p.clusters,
            p.shared_passes_per_frame,
            opt(p.naive_passes_per_frame),
            p.shared_route_ms_p50,
            p.shared_route_ms_p99,
            opt(p.naive_route_ms_p50),
            opt(p.serial_route_ms_p50),
            p.tick_ms_p50,
            p.session_ticks_per_frame,
        ));
    }
    s.push_str(&format!(
        "\nPoisson churn (~{:.0} joins + leaves/s each):\n\n",
        FPS as f64 / CHURN_MEAN_FRAMES
    ));
    s.push_str(&format!(
        "{:>11} | {:>5} | {:>6} | {:>8} | {:>6} | {:>11} | {:>9}\n",
        "subscribers", "joins", "leaves", "regroups", "intras", "min gap ms", "p99 ms"
    ));
    s.push_str(&format!(
        "{:->11}-+-{:->5}-+-{:->6}-+-{:->8}-+-{:->6}-+-{:->11}-+-{:->9}\n",
        "", "", "", "", "", "", ""
    ));
    for c in &sweep.churn {
        s.push_str(&format!(
            "{:>11} | {:>5} | {:>6} | {:>8} | {:>6} | {:>11} | {:>9.2}\n",
            c.subscribers,
            c.joins,
            c.leaves,
            c.regroups,
            c.shared_intras,
            c.min_intra_gap_us
                .map_or("-".into(), |g| format!("{:.1}", g as f64 / 1e3)),
            c.route_ms_p99,
        ));
    }
    s.push_str(&format!(
        "\nLink classes (stage group; stalled slots by cause):\n\nlink Mbps | shown fps | stall rate | T1 dropped | {}\n",
        crate::stall_cause_head()
    ));
    for c in &sweep.classes {
        s.push_str(&format!(
            "{:>9.1} | {:>9.1} | {:>10.3} | {:>10} | {}\n",
            c.link_mbps,
            c.shown_fps,
            c.stall_rate,
            c.t1_dropped,
            crate::stall_cause_row(&c.stall_causes)
        ));
    }
    s.push_str(
        "\nShared passes track the gaze groups, not the subscriber count; churn\nintras stay at least one RTT apart per cluster; a slow link drops T1.\n",
    );
    s
}

/// The snapshot written to `BENCH_sfu.json`, schema `livo-bench-sfu-v2`.
pub fn json(sweep: &SfuSweep, profile: &EvalProfile) -> String {
    let mut out = String::new();
    let mut o = ObjectWriter::new(&mut out);
    o.field_str("schema", "livo-bench-sfu-v2");
    {
        let cfg = o.field_raw("config");
        let mut c = ObjectWriter::new(cfg);
        c.field_str("video", "band2");
        c.field_f64("camera_scale", profile.camera_scale as f64);
        c.field_u64("n_cameras", profile.n_cameras as u64);
        c.field_u64("frames", FRAMES);
        c.field_u64("fps", FPS as u64);
        c.field_str("gaze_groups", "two, interleaved");
        c.field_u64("threads", sweep.threads as u64);
        c.finish();
    }
    crate::write_host(o.field_raw("host"));
    o.field_objects("points", &sweep.points, |w, p| {
        w.field_u64("subscribers", p.subscribers as u64);
        w.field_u64("clusters", p.clusters as u64);
        w.field_f64("shared_passes_per_frame", p.shared_passes_per_frame);
        if let Some(v) = p.naive_passes_per_frame {
            w.field_f64("naive_passes_per_frame", v);
        }
        w.field_f64("shared_route_ms_p50", p.shared_route_ms_p50);
        w.field_f64("shared_route_ms_p99", p.shared_route_ms_p99);
        if let Some(v) = p.naive_route_ms_p50 {
            w.field_f64("naive_route_ms_p50", v);
        }
        if let Some(v) = p.serial_route_ms_p50 {
            w.field_f64("serial_route_ms_p50", v);
        }
        w.field_f64("tick_ms_p50", p.tick_ms_p50);
        w.field_f64("session_ticks_per_frame", p.session_ticks_per_frame);
    });
    o.field_objects("churn", &sweep.churn, |w, c| {
        w.field_u64("subscribers", c.subscribers as u64);
        w.field_u64("joins", c.joins);
        w.field_u64("leaves", c.leaves);
        w.field_u64("regroups", c.regroups);
        w.field_u64("shared_intras", c.shared_intras);
        if let Some(gap) = c.min_intra_gap_us {
            w.field_u64("min_intra_gap_us", gap);
        }
        w.field_f64("route_ms_p99", c.route_ms_p99);
    });
    o.field_objects("link_classes", &sweep.classes, |w, c| {
        w.field_f64("link_mbps", c.link_mbps);
        w.field_f64("shown_fps", c.shown_fps);
        w.field_f64("stall_rate", c.stall_rate);
        w.field_u64("t1_dropped", c.t1_dropped);
        crate::write_stall_causes(w.field_raw("stall_causes"), &c.stall_causes);
    });
    o.finish();
    out
}
