//! Causal event-trace integration: cross-layer frame reconstruction and
//! anomaly-triggered flight dumps on live pipelines.
//!
//! The `livo-telemetry` unit tests cover the ring mechanics (wraparound
//! eviction, concurrent writers, tie-breaking). These tests assert the
//! cross-crate wiring: (a) a point-to-point conference leaves a
//! reconstructible capture→encode→send→recv→decode→display path for
//! delivered frames, (b) the same holds across the SFU fan-out with one
//! sender track, one SFU track, and per-subscriber receiver tracks,
//! (c) tracing off records nothing, and (d) an injected display stall
//! produces exactly one flight bundle with the stall verdict while the
//! detection counters keep counting. The ring's bound is `trace.rs`'s
//! `capacity_is_bounded_and_evicts_oldest`.

use livo::capture::{datasets::DatasetPreset, render::render_views_at, rig};
use livo::core::stage::due;
use livo::prelude::*;
use livo::sfu::subscriber_party;
use livo::telemetry::trace::{kind, EventTrace, TraceQuery, NO_FRAME};
use livo::telemetry::{chrome_trace_json, verdict, AnomalyConfig};
use livo::transport::Micros;
use std::sync::Arc;

const FPS: u32 = 30;

fn quick_conference() -> ConferenceConfigBuilder {
    ConferenceConfig::builder(VideoId::Band2)
        .camera_scale(0.05)
        .n_cameras(2)
        .duration_s(1.5)
        .quality_every(u32::MAX)
}

#[test]
fn conference_trace_reconstructs_capture_to_display() {
    let cfg = quick_conference().build().expect("valid config");
    let summary = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(40.0, 8.0));
    assert!(!summary.trace.is_empty(), "tracing is on by default");

    let q = TraceQuery::new(summary.trace.clone());
    // At least one delivered frame must carry the full sender→receiver
    // path: captured and encoded at party 0, received, decoded and
    // displayed at party 1.
    let full: Vec<u64> = q
        .frames()
        .into_iter()
        .filter(|&seq| {
            let p = q.frame(seq).unwrap();
            p.has(kind::CAPTURE, 0)
                && p.has(kind::ENCODE, 0)
                && p.has(kind::SEND, 0)
                && p.has(kind::RECV, 1)
                && p.has(kind::DECODE, 1)
                && p.has(kind::DISPLAY, 1)
        })
        .collect();
    assert!(
        !full.is_empty(),
        "no frame with a complete capture→display path in {} traced frames",
        q.frames().len()
    );
    // The path is causally ordered: capture first, display last, and the
    // display cannot precede the receive.
    let p = q.frame(full[0]).unwrap();
    assert!(p.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    assert_eq!(p.events.first().unwrap().kind, kind::CAPTURE);
    assert!(p.ts_of(kind::RECV, 1) <= p.ts_of(kind::DISPLAY, 1));

    // The same snapshot exports as non-empty Chrome trace JSON.
    let json = chrome_trace_json(&summary.trace, &|p| format!("party{p}"));
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"f\""), "flow arrows missing");
}

#[test]
fn trace_ring_stays_bounded_and_can_be_disabled() {
    // Tracing off: the run records nothing, no stage and no flight bundle.
    let cfg = quick_conference()
        .trace(false)
        .build()
        .expect("valid config");
    let summary = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(40.0, 8.0));
    assert!(summary.trace.is_empty());
    assert!(summary.flight.is_empty());
}

#[test]
fn injected_stall_dumps_exactly_one_flight_bundle() {
    // Arm only the stall detector, with a cooldown longer than the run:
    // the starved link below stalls the display repeatedly, but exactly
    // one bundle may be dumped.
    let anomaly = AnomalyConfig {
        stall_ms: Some(120.0),
        cooldown_us: u64::MAX / 2,
        ..AnomalyConfig::disarmed()
    };
    let cfg = quick_conference()
        .anomaly(anomaly)
        .build()
        .expect("valid config");
    let summary = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(0.3, 8.0));
    assert!(
        summary.stall_rate > 0.0,
        "a 0.3 Mbps link must stall the display"
    );
    assert_eq!(summary.flight.len(), 1, "cooldown allows exactly one dump");
    let b = &summary.flight[0];
    assert_eq!(b.verdict, verdict::STALL);
    assert_eq!(b.party, 1, "stalls are a receiver-side signal");
    assert!(b.detail.contains("stall"));
    // The bundle froze real evidence: trace events and a registry
    // snapshot including the anomaly counters themselves.
    assert!(!b.events.is_empty());
    let frozen = b.metrics.as_ref().expect("registry attached");
    assert!(frozen.counter("trace.anomalies.stall").unwrap_or(0) >= 1);
    // Detections keep counting after the dump is rate-limited.
    let stalls = summary.metrics.counter("trace.anomalies.stall").unwrap();
    assert!(stalls >= 1);
    assert_eq!(summary.metrics.counter("trace.anomalies.dumps"), Some(1));
    // Stall events land on the trace under the display component.
    assert!(summary
        .trace
        .iter()
        .any(|e| e.kind == kind::STALL && e.frame_seq == NO_FRAME && e.party == 1));
}

fn looking(yaw: f32) -> Pose {
    let eye = Vec3::new(0.0, 1.5, 2.0);
    let dir = Vec3::new(yaw.sin(), 0.0, -yaw.cos());
    Pose::look_at(eye, eye + dir, Vec3::new(0.0, 1.0, 0.0))
}

#[test]
fn sfu_fanout_reconstructs_per_subscriber_paths() {
    let cameras = rig::camera_ring(
        2,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        livo::math::CameraIntrinsics::kinect_depth(0.05),
    );
    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo::runtime::global();

    let trace = Arc::new(EventTrace::new(1 << 14));
    let mut router = Router::builder(cameras.clone())
        .trace(Arc::clone(&trace))
        .build()
        .expect("valid config");
    // Three subscribers on 30 Mbps links, and a fourth in the first one's
    // gaze group on a 0.3 Mbps link, too slow for even the T0s.
    let links = [(0.0f32, 30.0), (0.1, 30.0), (1.4, 30.0), (0.05, 0.3)];
    let ids: Vec<SubscriberId> = (0..links.len())
        .map(|i| {
            router
                .add_subscriber(
                    SubscriberConfig::new(format!("sub{i}")),
                    BandwidthTrace::constant(links[i].1, 10.0),
                )
                .expect("add subscriber")
        })
        .collect();

    // Drive 30 frames; the harness plays the capture clock (party 0), the
    // router every subscriber's downlink and display clock (party 2+),
    // exactly like the `repro conference` report.
    let mut now: Micros = 0;
    for frame_idx in 0..30u64 {
        let t_s = frame_idx as f32 / FPS as f32;
        let snap = preset.scene.at(t_s);
        let views = render_views_at(pool, &cameras, &snap, frame_idx as u32);
        trace.record(now, frame_idx, 0, "pipeline", kind::CAPTURE, 0);
        for (&id, &(yaw, _)) in ids.iter().zip(&links) {
            router.observe_pose(id, &looking(yaw)).expect("live id");
        }
        router.route_frame(now, &views);
        now = router.run_until(now, due(frame_idx + 1));
    }

    let q = TraceQuery::from_trace(&trace);
    for &id in &ids[..3] {
        let party = subscriber_party(id);
        // At least one frame per subscriber crosses all three tracks:
        // captured at the sender, encoded at the SFU (party 1), received,
        // decoded and displayed at this subscriber's party.
        let full = q.frames().into_iter().any(|seq| {
            let p = q.frame(seq).unwrap();
            p.has(kind::CAPTURE, 0)
                && p.has(kind::ENCODE, 1)
                && p.has(kind::RECV, party)
                && p.has(kind::DECODE, party)
                && p.has(kind::DISPLAY, party)
        });
        assert!(full, "subscriber {id} has no fully-traced frame");
    }
    // The SFU's encode events carry the cluster component names.
    let events = trace.snapshot();
    assert!(events
        .iter()
        .any(|e| e.party == 1 && e.kind == kind::ENCODE && e.component.starts_with("sfu.cluster")));

    // Every stand-in decided each display slot due before the run's end
    // exactly once: slot s falls due 200 ms (jitter target + three frames)
    // plus due(s) after the first routed frame, at 0, and the last tick ran
    // 1 ms before `now`.
    let start = SessionConfig::default().jitter_target + due(3);
    let due_slots = (0..).take_while(|&s| start + due(s) <= now - 1_000).count() as u64;
    for &id in &ids {
        let stats = *router.subscriber(id).expect("subscribed").stats();
        assert_eq!(stats.slots_shown + stats.slots_stalled, due_slots, "{id}");
    }
    // The slow subscriber stalls, and says so on its own party's track.
    let slow = ids[3];
    let stalled = router.subscriber(slow).unwrap().stats().slots_stalled;
    assert!(stalled > 0, "a 0.3 Mbps downlink must stall");
    let stall_events = events
        .iter()
        .filter(|e| e.kind == kind::STALL && e.party == subscriber_party(slow))
        .count() as u64;
    assert_eq!(stall_events, stalled);
}
