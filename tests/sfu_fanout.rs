//! SFU fan-out integration: 1 sender, N subscribers through `livo-sfu`.
//!
//! Asserts the properties the SFU is for: (a) frustum-clustered encode
//! sharing performs strictly fewer encode passes than naive
//! per-subscriber fan-out, (b) what each subscriber decodes is bit-exact
//! with its cluster's encode (forwarding adds no generation loss),
//! (c) per-subscriber adaptation survives sharing — GCC estimates diverge
//! when link capacities diverge — and (d) the sharded hot path and
//! mid-call churn change nothing they shouldn't: forwarded streams are
//! bit-exact across worker-pool sizes, join/leave churn leaves other
//! clusters' streams byte-identical, and a regroup wave is rate-limited
//! to one shared intra per RTT per cluster. Plus the scaling checks: six
//! subscribers in two frustum clusters cost at most two cull+encode
//! passes per frame, and a 100-subscriber conference stays at the
//! gaze-group pass count.

use livo::capture::{datasets::DatasetPreset, render::render_views_at, rig};
use livo::prelude::*;
use livo::sfu::RouteSummary;
use livo::transport::Micros;
use std::collections::BTreeMap;
use std::sync::Arc;

const FPS: u32 = 30;
const FRAME_INTERVAL: Micros = 1_000_000 / FPS as u64;

fn tiny_rig() -> Vec<livo::math::RgbdCamera> {
    rig::camera_ring(
        2,
        2.5,
        1.4,
        Vec3::new(0.0, 1.0, 0.0),
        livo::math::CameraIntrinsics::kinect_depth(0.05),
    )
}

fn looking(yaw: f32) -> Pose {
    let eye = Vec3::new(0.0, 1.5, 2.0);
    let dir = Vec3::new(yaw.sin(), 0.0, -yaw.cos());
    Pose::look_at(eye, eye + dir, Vec3::new(0.0, 1.0, 0.0))
}

/// Record which reconstruction each member was forwarded this frame.
fn record_forwarded(out: &RouteSummary, sent: &mut BTreeMap<SubscriberId, BTreeMap<u32, Frame>>) {
    // The two fields the benchmark still names stay inert.
    assert!(out.low_variant_passes == 0 && out.clusters.iter().all(|c| c.low.is_none()));
    for cluster in &out.clusters {
        for &member in &cluster.members {
            sent.entry(member)
                .or_default()
                .insert(out.seq, cluster.color.reconstruction.clone());
        }
    }
}

/// Drive `frames` frames through the router: fixed per-subscriber gaze,
/// virtual-time ticks between frames, and a final drain so in-flight
/// packets arrive. Returns, per subscriber, the reconstruction of every
/// frame its cluster encoded for it, keyed by sequence number.
fn drive(
    router: &mut Router,
    cameras: &[livo::math::RgbdCamera],
    subs: &[(SubscriberId, f32)],
    frames: u64,
) -> BTreeMap<SubscriberId, BTreeMap<u32, Frame>> {
    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo::runtime::global();
    let mut sent: BTreeMap<SubscriberId, BTreeMap<u32, Frame>> = BTreeMap::new();
    let mut now: Micros = 0;
    for frame_idx in 0..frames {
        let t_s = frame_idx as f32 / FPS as f32;
        let snap = preset.scene.at(t_s);
        let views = render_views_at(pool, cameras, &snap, frame_idx as u32);
        for &(id, yaw) in subs {
            router.observe_pose(id, &looking(yaw)).expect("live id");
        }
        let out = router.route_frame(now, &views);
        record_forwarded(&out, &mut sent);
        let frame_end = now + FRAME_INTERVAL;
        while now < frame_end {
            router.tick(now);
            now += 1_000;
        }
    }
    // Drain: let queued packets land and the jitter buffers release.
    let drain_end = now + 500_000;
    while now < drain_end {
        router.tick(now);
        now += 1_000;
    }
    sent
}

fn fanout_router(sharing: bool) -> (Router, Vec<livo::math::RgbdCamera>, Vec<SubscriberId>) {
    let cameras = tiny_rig();
    let mut router = Router::builder(cameras.clone())
        .sharing(sharing)
        .build()
        .expect("valid config");
    // Three subscribers: a fast fibre path and two DSL-class paths, as in
    // the paper's trace set.
    let ids = vec![
        router
            .add_subscriber(
                SubscriberConfig::new("fibre"),
                BandwidthTrace::generate(TraceId::Trace1, 12.0, 7),
            )
            .expect("add fibre"),
        router
            .add_subscriber(
                SubscriberConfig::new("dsl-a"),
                BandwidthTrace::generate(TraceId::Trace2, 12.0, 8),
            )
            .expect("add dsl-a"),
        router
            .add_subscriber(
                SubscriberConfig::new("dsl-b"),
                BandwidthTrace::generate(TraceId::Trace2, 12.0, 9),
            )
            .expect("add dsl-b"),
    ];
    (router, cameras, ids)
}

fn zip_yaws(ids: &[SubscriberId], yaws: &[f32]) -> Vec<(SubscriberId, f32)> {
    ids.iter().copied().zip(yaws.iter().copied()).collect()
}

#[test]
fn shared_clusters_encode_strictly_less_than_naive() {
    let frames = 20u64;
    // All three subscribers watch the band from the same side: one
    // cluster, one pass per frame.
    let yaws = [0.0f32, 0.04, -0.04];

    let (mut shared, cameras, ids) = fanout_router(true);
    drive(&mut shared, &cameras, &zip_yaws(&ids, &yaws), frames);
    let shared_passes = shared
        .registry()
        .snapshot()
        .counter("sfu.encode_passes")
        .expect("counter exists");

    let (mut naive, cameras, ids) = fanout_router(false);
    drive(&mut naive, &cameras, &zip_yaws(&ids, &yaws), frames);
    let naive_passes = naive
        .registry()
        .snapshot()
        .counter("sfu.encode_passes")
        .expect("counter exists");

    assert_eq!(
        naive_passes,
        frames * 3,
        "naive: one pass per subscriber per frame"
    );
    assert_eq!(shared_passes, frames, "aligned frusta: one pass per frame");
    assert!(shared_passes < naive_passes);
}

#[test]
fn forwarded_streams_decode_bit_exact_to_cluster_encode() {
    let frames = 15u64;
    let yaws = [0.0f32, 0.04, -0.04];
    let (mut router, cameras, ids) = fanout_router(true);
    let sent = drive(&mut router, &cameras, &zip_yaws(&ids, &yaws), frames);

    for (&id, per_seq) in &sent {
        let sub = router.subscriber(id).expect("still subscribed");
        assert!(
            sub.stats().frames_decoded > 0,
            "{id} decoded nothing ({:?})",
            sub.stats()
        );
        // Every colour frame still in the receive window must be
        // byte-identical to the cluster encoder's own reconstruction:
        // the codec's closed loop guarantees decoder output ==
        // reconstruction, so any mismatch means the SFU corrupted or
        // cross-wired a stream.
        let mut checked = 0usize;
        for seq in 0..frames as u32 {
            let Some(decoded) = sub.decoded_color(seq) else {
                continue;
            };
            let encoded = &per_seq[&seq];
            assert_eq!(decoded.planes.len(), encoded.planes.len());
            for (dp, ep) in decoded.planes.iter().zip(&encoded.planes) {
                assert!(dp.data == ep.data, "{id} seq {seq}: stream not bit-exact");
            }
            checked += 1;
        }
        assert!(checked >= 3, "{id}: only {checked} frames left to compare");
    }
}

#[test]
fn gcc_estimates_diverge_with_link_capacity() {
    let frames = 90u64; // 3 s of virtual time: enough for AIMD to separate
    let yaws = [0.0f32, 0.0, 0.0];
    let cameras = tiny_rig();
    let mut router = Router::builder(cameras.clone()).build().expect("valid");
    // At this test's tiny canvas the media stream is only a few hundred
    // kbit/s, so the slow links must sit *below* that to actually congest.
    let ids = vec![
        router
            .add_subscriber(
                SubscriberConfig::new("fast"),
                BandwidthTrace::constant(50.0, 12.0),
            )
            .expect("add fast"),
        router
            .add_subscriber(
                SubscriberConfig::new("slow"),
                BandwidthTrace::constant(0.5, 12.0),
            )
            .expect("add slow"),
        router
            .add_subscriber(
                SubscriberConfig::new("slower"),
                BandwidthTrace::constant(0.25, 12.0),
            )
            .expect("add slower"),
    ];
    drive(&mut router, &cameras, &zip_yaws(&ids, &yaws), frames);

    let fast = router.subscriber(ids[0]).unwrap().estimate_bps();
    let slow = router.subscriber(ids[1]).unwrap().estimate_bps();
    let slower = router.subscriber(ids[2]).unwrap().estimate_bps();
    // Shared encode, private congestion control: each estimate tracks its
    // own bottleneck.
    assert!(fast > 5.0 * slow, "fast {fast:.0} vs slow {slow:.0}");
    assert!(
        fast > 10e6,
        "uncongested estimate should keep growing, got {fast:.0}"
    );
    assert!(
        slow < 3e6,
        "slow estimate should cap near its 0.5 Mbps link, got {slow:.0}"
    );
    assert!(
        slower < 3e6,
        "slower estimate should cap near its 0.25 Mbps link, got {slower:.0}"
    );
}

#[test]
fn six_subscribers_in_two_clusters_cost_at_most_two_passes_per_frame() {
    let frames = 20u64;
    // Two gaze groups, interleaved so clustering cannot ride on insertion
    // order: evens watch the stage, odds watch the crowd behind them.
    let yaws = [
        0.0f32,
        std::f32::consts::PI,
        0.03,
        std::f32::consts::PI + 0.03,
        -0.03,
        std::f32::consts::PI - 0.03,
    ];
    let cameras = tiny_rig();
    let mut router = Router::builder(cameras.clone()).build().expect("valid");
    let ids: Vec<SubscriberId> = (0..6)
        .map(|i| {
            router
                .add_subscriber(
                    SubscriberConfig::new(format!("sub{i}")),
                    BandwidthTrace::constant(40.0, 12.0),
                )
                .expect("add subscriber")
        })
        .collect();
    drive(&mut router, &cameras, &zip_yaws(&ids, &yaws), frames);

    let passes = router
        .registry()
        .snapshot()
        .counter("sfu.encode_passes")
        .expect("counter");
    assert!(
        passes <= 2 * frames,
        "6 subscribers in 2 frustum clusters must cost <= 2 passes/frame: {passes} passes over {frames} frames"
    );
    assert!(passes >= frames, "at least one pass per frame: {passes}");
    let membership = router.cluster_membership();
    assert_eq!(membership.len(), 2, "two frustum clusters: {membership:?}");
    assert_eq!(membership[0].1, vec![ids[0], ids[2], ids[4]]);
    assert_eq!(membership[1].1, vec![ids[1], ids[3], ids[5]]);
    // Every subscriber still got every frame forwarded.
    for &id in &ids {
        assert_eq!(
            router.subscriber(id).unwrap().stats().frames_forwarded,
            frames
        );
    }
}

/// Join/leave churn against one cluster must leave the *other* cluster's
/// forwarded streams byte-identical to a churn-free run: the joiner arms
/// only its own cluster's chain, and the leaver is patched out in place.
#[test]
fn churn_keeps_unaffected_subscribers_bit_exact() {
    let cameras = tiny_rig();
    let frames = 12u64;
    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo::runtime::global();

    let run = |churn: bool| {
        let mut router = Router::builder(cameras.clone()).build().expect("valid");
        let add = |r: &mut Router, name: &str| {
            r.add_subscriber(
                SubscriberConfig::new(name),
                BandwidthTrace::constant(40.0, 12.0),
            )
            .expect("add subscriber")
        };
        let a0 = add(&mut router, "a0");
        let a1 = add(&mut router, "a1");
        let b0 = add(&mut router, "b0");
        let pi = std::f32::consts::PI;
        let mut subs = vec![(a0, 0.0f32), (a1, 0.03), (b0, pi)];
        let mut joiner = None;
        let mut events = Vec::new();
        let mut sent: BTreeMap<SubscriberId, BTreeMap<u32, Frame>> = BTreeMap::new();
        let mut now: Micros = 0;
        for frame_idx in 0..frames {
            if churn && frame_idx == 4 {
                let j = add(&mut router, "joiner");
                subs.push((j, pi + 0.03));
                joiner = Some(j);
            }
            if churn && frame_idx == 8 {
                let j = joiner.take().expect("joined at frame 4");
                router.remove_subscriber(j).expect("still subscribed");
                subs.retain(|&(id, _)| id != j);
            }
            let t_s = frame_idx as f32 / FPS as f32;
            let snap = preset.scene.at(t_s);
            let views = render_views_at(pool, &cameras, &snap, frame_idx as u32);
            for &(id, yaw) in &subs {
                router.observe_pose(id, &looking(yaw)).expect("live id");
            }
            let out = router.route_frame(now, &views);
            events.extend(out.events.iter().copied());
            record_forwarded(&out, &mut sent);
            let frame_end = now + FRAME_INTERVAL;
            while now < frame_end {
                router.tick(now);
                now += 1_000;
            }
        }
        (sent, [a0, a1, b0], events)
    };

    let (clean, ids, _) = run(false);
    let (churned, ids2, events) = run(true);
    assert_eq!(ids, ids2, "fixed subscribers get the same ids in both runs");

    // The a-cluster never saw the churn: every forwarded frame is
    // byte-identical to the churn-free run.
    for id in [ids[0], ids[1]] {
        let (c, d) = (&clean[&id], &churned[&id]);
        assert_eq!(c.len(), d.len(), "{id}: forwarded frame count differs");
        for (seq, cf) in c {
            let df = &d[seq];
            for (cp, dp) in cf.planes.iter().zip(&df.planes) {
                assert!(
                    cp.data == dp.data,
                    "{id} seq {seq}: churn leaked into an unaffected cluster"
                );
            }
        }
    }
    // The churn itself surfaced as typed events.
    assert!(events
        .iter()
        .any(|e| matches!(e, RouterEvent::SubscriberJoined { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, RouterEvent::SubscriberLeft { .. })));
}

/// A regroup wave (two subscribers migrating into the same cluster on
/// consecutive frames) may cost at most one shared intra per RTT: the
/// second migration's intra is deferred past the chain cooldown.
#[test]
fn regroup_wave_rate_limits_shared_intras() {
    let cameras = tiny_rig();
    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo::runtime::global();
    // Recluster every frame so the gaze flips take effect back-to-back —
    // the worst case for an intra storm.
    let mut router = Router::builder(cameras.clone())
        .recluster_every(1)
        .build()
        .expect("valid");
    let ids: Vec<SubscriberId> = (0..4)
        .map(|i| {
            router
                .add_subscriber(
                    SubscriberConfig::new(format!("s{i}")),
                    BandwidthTrace::constant(40.0, 12.0),
                )
                .expect("add subscriber")
        })
        .collect();
    let pi = std::f32::consts::PI;
    let yaw_at = |i: usize, frame_idx: u64| -> f32 {
        match i {
            0 => 0.0,
            1 => 0.03,
            // s2 and s3 start opposed, then join the stage-watchers on
            // consecutive frames (33 ms apart — well inside one RTT).
            2 => {
                if frame_idx >= 8 {
                    -0.03
                } else {
                    pi
                }
            }
            _ => {
                if frame_idx >= 9 {
                    0.06
                } else {
                    pi + 0.03
                }
            }
        }
    };

    let mut events = Vec::new();
    let mut min_gap_us = u64::MAX;
    let mut now: Micros = 0;
    for frame_idx in 0..20u64 {
        let t_s = frame_idx as f32 / FPS as f32;
        let snap = preset.scene.at(t_s);
        let views = render_views_at(pool, &cameras, &snap, frame_idx as u32);
        for (i, &id) in ids.iter().enumerate() {
            router
                .observe_pose(id, &looking(yaw_at(i, frame_idx)))
                .expect("live id");
        }
        let out = router.route_frame(now, &views);
        events.extend(out.events.iter().copied());
        for cluster in &out.clusters {
            if let Some(gap) = cluster.shared_intra_gap_us {
                min_gap_us = min_gap_us.min(gap);
            }
        }
        let frame_end = now + FRAME_INTERVAL;
        while now < frame_end {
            router.tick(now);
            now += 1_000;
        }
    }

    let regroups: Vec<&RouterEvent> = events
        .iter()
        .filter(|e| matches!(e, RouterEvent::Regrouped { .. }))
        .collect();
    assert!(
        regroups.len() >= 2,
        "both gaze flips must surface as Regrouped events: {events:?}"
    );
    // The default link is 20 ms each way, so one RTT is ~40 ms; any two
    // intras on the same chain must be at least that far apart (0.8
    // slack for the measured-RTT cooldown being the guard, not exactly
    // the propagation delay).
    assert!(
        min_gap_us >= 32_000,
        "shared intras closer than one RTT: {min_gap_us} us"
    );
    // The wave actually collided with the guard: at least one intra
    // request was deferred past the cooldown window.
    let deferred = router
        .registry()
        .snapshot()
        .counter("sfu.deferred_intras")
        .unwrap_or(0);
    assert!(deferred >= 1, "second migration should defer its intra");
}

/// 100 subscribers in two gaze groups: passes stay at the group count,
/// everyone gets every frame, and the run completes without panics. The
/// decode stand-in runs on a sampled subset — the other 90 downlinks
/// still run the full transport simulation.
#[test]
fn hundred_subscriber_smoke_stays_at_group_count_passes() {
    let cameras = tiny_rig();
    let frames = 5u64;
    let n = 100usize;
    let mut router = Router::builder(cameras.clone()).build().expect("valid");
    let pi = std::f32::consts::PI;
    let subs: Vec<(SubscriberId, f32)> = (0..n)
        .map(|i| {
            let mut cfg = SubscriberConfig::new(format!("s{i}"));
            if i % 10 != 0 {
                cfg = cfg.without_standin();
            }
            let id = router
                .add_subscriber(cfg, BandwidthTrace::constant(40.0, 12.0))
                .expect("under capacity");
            let base = if i % 2 == 0 { 0.0 } else { pi };
            (id, base + 0.01 * (i % 5) as f32)
        })
        .collect();

    let preset = DatasetPreset::load(VideoId::Band2);
    let pool = livo::runtime::global();
    let mut now: Micros = 0;
    for frame_idx in 0..frames {
        let t_s = frame_idx as f32 / FPS as f32;
        let snap = preset.scene.at(t_s);
        let views = render_views_at(pool, &cameras, &snap, frame_idx as u32);
        for &(id, yaw) in &subs {
            router.observe_pose(id, &looking(yaw)).expect("live id");
        }
        let out = router.route_frame(now, &views);
        assert_eq!(
            out.encode_passes, 2,
            "frame {frame_idx}: passes must track the 2 gaze groups, not N=100"
        );
        let frame_end = now + FRAME_INTERVAL;
        while now < frame_end {
            router.tick(now);
            now += 1_000;
        }
    }
    let drain_end = now + 500_000;
    while now < drain_end {
        router.tick(now);
        now += 1_000;
    }

    for &(id, _) in &subs {
        let sub = router.subscriber(id).expect("still subscribed");
        assert_eq!(sub.stats().frames_forwarded, frames, "{id}");
    }
    // The sampled stand-ins actually decoded what the fan-out shipped.
    for (i, &(id, _)) in subs.iter().enumerate() {
        if i % 10 == 0 {
            let sub = router.subscriber(id).unwrap();
            assert!(sub.stats().frames_decoded > 0, "{id} decoded nothing");
        }
    }
}

/// The sharded router is bit-exact with the serial one: pool sizes 1, 2
/// and 4 forward byte-identical streams, decode identically, and leave
/// identical GCC estimates. Each member's state is owned by exactly one
/// shard, and the simulation runs in virtual time, so the pool size must
/// be unobservable.
#[test]
fn sharded_routing_bit_exact_across_pool_sizes() {
    let cameras = tiny_rig();
    let frames = 8u64;
    let yaws = [
        0.0f32,
        std::f32::consts::PI,
        0.03,
        std::f32::consts::PI + 0.03,
    ];

    // Per-subscriber digest: forwarded reconstructions, decoded bytes,
    // decode count and final estimate.
    type Planes = BTreeMap<u32, Vec<u16>>;
    type Digest = BTreeMap<SubscriberId, (Planes, Planes, u64, f64)>;
    let run = |threads: usize| -> Digest {
        let pool = Arc::new(livo::runtime::WorkerPool::new(threads));
        let mut router = Router::builder(cameras.clone())
            .worker_pool(pool)
            .build()
            .expect("valid");
        let ids: Vec<SubscriberId> = (0..yaws.len())
            .map(|i| {
                router
                    .add_subscriber(
                        SubscriberConfig::new(format!("s{i}")),
                        BandwidthTrace::constant(40.0, 12.0),
                    )
                    .expect("add subscriber")
            })
            .collect();
        let sent = drive(&mut router, &cameras, &zip_yaws(&ids, &yaws), frames);
        ids.iter()
            .map(|&id| {
                let sub = router.subscriber(id).expect("still subscribed");
                let forwarded: Planes = sent[&id]
                    .iter()
                    .map(|(&seq, f)| (seq, f.planes[0].data.clone()))
                    .collect();
                let decoded: Planes = (0..frames as u32)
                    .filter_map(|seq| {
                        sub.decoded_color(seq)
                            .map(|f| (seq, f.planes[0].data.clone()))
                    })
                    .collect();
                (
                    id,
                    (
                        forwarded,
                        decoded,
                        sub.stats().frames_decoded,
                        sub.estimate_bps(),
                    ),
                )
            })
            .collect()
    };

    let serial = run(1);
    for threads in [2usize, 4] {
        let sharded = run(threads);
        assert_eq!(
            serial, sharded,
            "pool size {threads} changed an observable output"
        );
    }
}
