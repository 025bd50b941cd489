//! Metric naming-convention audit across live pipelines.
//!
//! Dashboards and the committed BENCH_*.json baselines key on metric
//! names, so names are API. [`livo_telemetry::name_follows_convention`]
//! pins the rules (dot-separated lowercase segments, no unit tokens as
//! whole segments, no `latency_latency`-style stutter); this test runs
//! the two richest publishers — a point-to-point conference and an SFU
//! route — and audits every name they actually register.

use livo::capture::{datasets::DatasetPreset, render::render_views_at, rig};
use livo::prelude::*;
use livo::telemetry::name_follows_convention;

/// Names the enhancement lane deleted in PR 16 used to register. Dashboards
/// dropped them with the feature; a publisher that registers one again is a
/// regression.
fn is_retired(name: &str) -> bool {
    name.starts_with("codec.refine.")
        || name.starts_with("tile.utility.")
        || [
            "transport.refine_drops",
            "transport.bits_sent.refine",
            "sfu.cluster_utility",
        ]
        .contains(&name)
}

fn audit<'a>(names: impl Iterator<Item = &'a String>, what: &str) {
    let mut bad: Vec<&String> = names
        .filter(|n| !name_follows_convention(n) || is_retired(n))
        .collect();
    bad.sort();
    assert!(
        bad.is_empty(),
        "{what} publishes retired names or names violating the convention: {bad:?}"
    );
}

#[test]
fn conference_metric_names_follow_convention() {
    let cfg = ConferenceConfig::builder(VideoId::Band2)
        .camera_scale(0.05)
        .n_cameras(2)
        .duration_s(1.0)
        .quality_every(u32::MAX)
        .build()
        .expect("valid config");
    let summary = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(40.0, 8.0));
    let snap = &summary.metrics;
    assert!(
        snap.counters.len() + snap.gauges.len() + snap.histograms.len() > 10,
        "the conference should publish a rich registry"
    );
    audit(snap.counters.keys(), "conference counters");
    audit(snap.gauges.keys(), "conference gauges");
    audit(snap.histograms.keys(), "conference histograms");
}

#[test]
fn bonded_session_metric_names_follow_convention() {
    use livo::bond::BondConfig;
    use livo::telemetry::MetricsRegistry;
    use livo::transport::StreamId;
    use std::sync::Arc;

    // Hostile link names must sanitise into metric-safe segments.
    let sc = BondScenario::new("audit")
        .link(LinkScenario::new("WiFi-5G", 8.0, 3.0))
        .link(LinkScenario::new("caf\u{e9} lte", 4.0, 3.0).propagation_ms(45.0));
    let mut s = BondedSession::new(BondConfig::new(sc));
    let registry = Arc::new(MetricsRegistry::new());
    s.attach_telemetry(&registry, "transport");
    // Drive briefly so gauges/counters get touched.
    let mut t = 0u64;
    for frame in 0..30u64 {
        s.send_frame(
            t,
            StreamId::Color,
            frame,
            bytes::Bytes::from(vec![0u8; 4_000]),
            frame == 0,
        );
        for _ in 0..33 {
            s.tick(t);
            s.recv_frames();
            t += 1_000;
        }
    }
    let snap = registry.snapshot();
    audit(snap.counters.keys(), "bonded session counters");
    audit(snap.gauges.keys(), "bonded session gauges");
    audit(snap.histograms.keys(), "bonded session histograms");
    // The per-link family must actually be present, under sanitised names.
    for name in [
        "transport.link.wifi_5g.estimate_bps",
        "transport.link.caf__lte.tx_packets",
        "transport.bond.failovers",
        "transport.gcc.estimate_bps",
    ] {
        let present = snap.counters.contains_key(name) || snap.gauges.contains_key(name);
        assert!(present, "expected metric {name} missing");
    }
}

#[test]
fn sfu_metric_names_follow_convention() {
    let cameras = rig::camera_ring(
        2,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        livo::math::CameraIntrinsics::kinect_depth(0.05),
    );
    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo::runtime::global();
    let mut router = Router::builder(cameras.clone()).build().expect("valid");
    // Names with hostile characters, or without a leading letter, must be
    // sanitised into the prefix.
    let ids: Vec<SubscriberId> = ["alice", "Bob's iPad", "caf\u{e9}.42", "2nd-row"]
        .into_iter()
        .map(|name| {
            router
                .add_subscriber(
                    SubscriberConfig::new(name),
                    BandwidthTrace::constant(30.0, 10.0),
                )
                .expect("add subscriber")
        })
        .collect();
    let eye = Vec3::new(0.0, 1.5, 2.0);
    let pose = Pose::look_at(
        eye,
        eye + Vec3::new(0.0, 0.0, -1.0),
        Vec3::new(0.0, 1.0, 0.0),
    );
    for frame_idx in 0..5u64 {
        let snap = preset.scene.at(frame_idx as f32 / 30.0);
        let views = render_views_at(pool, &cameras, &snap, frame_idx as u32);
        for &id in &ids {
            router.observe_pose(id, &pose).expect("live id");
        }
        router.route_frame(frame_idx * 33_333, &views);
        router.tick(frame_idx * 33_333 + 1_000);
    }
    let names = router.registry().names();
    assert!(!names.is_empty());
    audit(names.iter(), "sfu registry");
}
