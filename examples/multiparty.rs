//! Multi-way conferencing through the SFU: one capture rig, N subscribers.
//!
//! ```text
//! cargo run --release --example multiparty [-- --seconds 4]
//! ```
//!
//! A single sender feeds the `livo-sfu` router, which clusters subscribers
//! by predicted-frustum overlap and runs **one** union-cull + tile +
//! encode pass per cluster instead of one per subscriber. Every
//! subscriber still gets its own emulated downlink (trace-driven link,
//! GCC estimate, jitter buffer, NACK/PLI) and its own RMSE-balancing
//! split; PLIs fan in to a single shared intra per cluster.
//!
//! Between frames `Router::run_until` steps every downlink and every
//! subscriber's display clock to the next frame's due instant. The run ends
//! with a table of per-subscriber outcomes (display slots shown and
//! stalled among them) and the encode passes the frustum clustering saved
//! against naive per-subscriber fan-out.

use livo::capture::usertrace::TraceStyle;
use livo::capture::{datasets::DatasetPreset, render::render_views_at, rig, UserTrace};
use livo::core::stage::{due, FPS};
use livo::prelude::*;
use livo::transport::Micros;

struct Party {
    name: &'static str,
    trace: TraceId,
    style: usize,
}

fn main() {
    let mut seconds = 4.0f32;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--seconds") {
        seconds = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--seconds takes a number");
    }

    let parties = [
        Party {
            name: "producer-desk",
            trace: TraceId::Trace1,
            style: 0,
        },
        Party {
            name: "director-home",
            trace: TraceId::Trace2,
            style: 0,
        },
        Party {
            name: "critic-train",
            trace: TraceId::Trace2,
            style: 2,
        },
    ];

    let n_cameras = 6usize;
    let cameras = rig::camera_ring(
        n_cameras,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        livo::math::CameraIntrinsics::kinect_depth(0.1),
    );
    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo::runtime::global();

    let mut router = Router::builder(cameras.clone())
        .build()
        .expect("valid router config");
    let subscribers: Vec<(SubscriberId, UserTrace)> = parties
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let style = TraceStyle::ALL[p.style % TraceStyle::ALL.len()];
            let trace = UserTrace::generate(style, seconds + 5.0, 40 + i as u64);
            let id = router
                .add_subscriber(
                    SubscriberConfig::new(p.name),
                    BandwidthTrace::generate(p.trace, seconds + 6.0, 90 + i as u64),
                )
                .expect("add subscriber");
            (id, trace)
        })
        .collect();

    println!(
        "multiparty: band2 rehearsal through the SFU to {} subscribers\n",
        parties.len()
    );

    let total_frames = (seconds * FPS as f32) as u64;
    let mut now: Micros = 0;
    let mut encode_passes = 0u64;
    let mut keep_sum = 0.0f64;
    for frame_idx in 0..total_frames {
        let t_s = frame_idx as f32 / FPS as f32;
        let snap = preset.scene.at(t_s);
        let views = render_views_at(pool, &cameras, &snap, frame_idx as u32);

        // The SFU sees each subscriber's pose delayed by its feedback path.
        for (id, ut) in &subscribers {
            let sub = router.subscriber(*id).expect("still subscribed");
            let owd_s = sub.session().one_way_delay_us() as f32 / 1e6;
            let pose = ut.pose_at_time((t_s - owd_s).max(0.0));
            router.observe_pose(*id, &pose).expect("live id");
        }

        let out = router.route_frame(now, &views);
        encode_passes += out.encode_passes;
        keep_sum +=
            out.clusters.iter().map(|c| c.keep_fraction).sum::<f64>() / out.clusters.len() as f64;

        now = router.run_until(now, due(frame_idx + 1));
    }

    let naive_passes = total_frames * parties.len() as u64;
    println!(
        "{:<14} | {:>9} | {:>8} | {:>6} | {:>6} | {:>7}",
        "subscriber", "est Mbps", "decoded", "PLIs", "shown", "stalled"
    );
    println!(
        "{:-<14}-+-{:->9}-+-{:->8}-+-{:->6}-+-{:->6}-+-{:->7}",
        "", "", "", "", "", ""
    );
    for ((id, _), p) in subscribers.iter().zip(&parties) {
        let sub = router.subscriber(*id).expect("still subscribed");
        let stats = sub.stats();
        println!(
            "{:<14} | {:>9.1} | {:>8} | {:>6} | {:>6} | {:>7}",
            p.name,
            sub.estimate_bps() / 1e6,
            stats.frames_decoded,
            sub.session().stats().plis,
            stats.slots_shown,
            stats.slots_stalled,
        );
    }

    let membership = router.cluster_membership();
    let groups: Vec<String> = membership
        .iter()
        .map(|(_, members)| {
            let names: Vec<&str> = members
                .iter()
                .map(|&m| router.subscriber(m).map_or("?", |s| s.name()))
                .collect();
            format!("{{{}}}", names.join(", "))
        })
        .collect();
    println!("\nfinal clusters: {}", groups.join("  "));
    println!(
        "encode passes: {encode_passes} shared vs {naive_passes} naive ({:.0}% saved), \
         mean keep fraction {:.2}",
        100.0 * (1.0 - encode_passes as f64 / naive_passes as f64),
        keep_sum / total_frames.max(1) as f64,
    );
}
