//! The SFU fan-out loop: one capture source, one router, many downlinks.
//!
//! Same clock as the two-party loop (uniform 1 ms ticks, exact 30 fps
//! capture schedule). Two gaze groups interleaved over subscriber indices,
//! downlinks cycling fast / mid / slow inside each group; three sampled
//! subscribers of group 0 (one per link class) run the decode stand-in and
//! are the receivers whose display slots are counted.

use crate::adapters::{self as product, Micros, Pool, RgbdFrame, Rig, SubscriberId};
use crate::call::count_encode;
use crate::rep::{capture_us, Recorder, Rep, RepOptions};

const TICK_US: Micros = 1_000;
/// Downlink capacity of the fast / mid / slow class, Mbps.
pub const LINK_CLASSES_MBPS: [f64; 3] = [50.0, 6.0, 1.5];
/// Subscribers that decode and display: one per link class.
pub const SAMPLED: usize = LINK_CLASSES_MBPS.len();

pub struct SfuInputs {
    pub rig: Rig,
    pub clip: Vec<Vec<RgbdFrame>>,
    pub subscribers: usize,
    /// Audience-wide gaze offset in radians, from the seed.
    pub yaw_offset: f32,
    pub seed: u64,
    pub frames: u64,
}

/// Up to ±0.3 rad, from one multiplicative hash of the seed.
pub fn yaw_offset(seed: u64) -> f32 {
    let unit = (seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f32
        / (1u64 << 24) as f32;
    0.6 * unit - 0.3
}

fn link_class(i: usize) -> usize {
    (i / 2) % LINK_CLASSES_MBPS.len()
}

/// Two gaze groups (stage and crowd) interleaved over subscriber indices.
fn yaw_of(i: usize, offset: f32) -> f32 {
    let jitter = 0.02 * ((i / 2) % 4) as f32;
    let group = if i.is_multiple_of(2) {
        0.0
    } else {
        std::f32::consts::PI
    };
    group + jitter + offset
}

/// Receiver state the harness keeps for a sampled subscriber.
struct Sampled {
    id: SubscriberId,
    index: usize,
    class: usize,
    displayed: Option<u32>,
}

pub fn run(inputs: &SfuInputs, pool: &Pool, threads: usize, opts: RepOptions) -> Rep {
    let rig = &inputs.rig;
    let frames = inputs.frames;
    let mut rec = Recorder::new(rig, &inputs.clip, frames, opts);
    let duration_s = capture_us(frames) as f32 / 1e6 + 2.0;
    let mut router = product::new_router(rig, pool);
    let mut sampled: Vec<Sampled> = Vec::new();
    let ids: Vec<SubscriberId> = (0..inputs.subscribers)
        .map(|i| {
            let class = link_class(i);
            // Group 0's first subscriber of each link class decodes.
            let standin = i % 2 == 0 && i / 2 < SAMPLED;
            let id = router.add_subscriber(
                format!("sub{i}"),
                LINK_CLASSES_MBPS[class],
                duration_s,
                inputs.seed.wrapping_add(i as u64),
                standin,
            );
            if standin {
                sampled.push(Sampled {
                    id,
                    index: i,
                    class,
                    displayed: None,
                });
            }
            id
        })
        .collect();
    let display_start = product::display_start_us();
    let mut slot = 0u64;

    rec.start();
    let mut now: Micros = 0;
    while now < rec.counts.virtual_us {
        if let Some((f, views)) = rec.capture(now) {
            let iv = f as u32;
            let sender = rec.spans.begin("call.sender", iv);
            for (i, &id) in ids.iter().enumerate() {
                router.observe_pose(id, &product::audience_pose(yaw_of(i, inputs.yaw_offset)));
            }
            let summary = rec
                .spans
                .leaf("sfu.route", iv, || router.route_frame(now, views));
            rec.spans.end(sender);

            rec.counts.sfu_encode_passes += summary.encode_passes;
            rec.counts.sfu_low_passes += summary.low_variant_passes;
            rec.counts.sfu_clusters = summary.clusters.len() as u64;
            if summary.seq != iv {
                rec.failures
                    .push(format!("router stamped seq {} on frame {iv}", summary.seq));
            }
            for c in summary.clusters {
                let target = (c.target_bps / product::FPS as f64) as u64;
                count_encode(&mut rec.counts, &c.color, target, &c.depth, 0);
                rec.sent(iv, c.color.reconstruction, c.depth.reconstruction);
                if let Some((lc, ld)) = c.low {
                    rec.sent(iv, lc.reconstruction, ld.reconstruction);
                }
            }
            // Estimate and capacity, one sample per downlink, off the clock.
            let counts = &mut rec.counts;
            rec.clock.exclude(|| {
                for &id in &ids {
                    let sub = router.subscriber(id);
                    counts.estimate_sum_bps += sub.estimate_bps();
                    counts.capacity_sum_bps += sub.capacity_bps(now);
                }
                counts.link_samples += ids.len() as u64;
            });
        }
        let iv = rec.interval();

        rec.spans.leaf("sfu.tick", iv, || router.tick(now));

        if now >= display_start + capture_us(slot) {
            let receiver = rec.spans.begin("call.receiver", iv);
            for s in sampled.iter_mut() {
                let sub = router.subscriber(s.id);
                rec.counts.sfu_class[s.class].0 += 1;
                let fresh = sub.latest_synced_seq.filter(|&q| Some(q) != s.displayed);
                let Some((seq, (color, depth))) = fresh.and_then(|q| Some((q, sub.decoded(q)?)))
                else {
                    rec.counts.sfu_class[s.class].1 += 1;
                    rec.stall();
                    continue;
                };
                s.displayed = Some(seq);
                let viewer = product::audience_pose(yaw_of(s.index, inputs.yaw_offset));
                rec.show(
                    now,
                    slot,
                    seq,
                    color,
                    depth,
                    &product::viewer_frustum(&viewer),
                );
            }
            slot += 1;
            rec.spans.end(receiver);
            if let Some(oldest) = sampled.iter().map(|s| s.displayed).min().flatten() {
                rec.forget_sent_below(oldest);
            }
        }
        now += TICK_US;
    }

    for &id in &ids {
        let sub = router.subscriber(id);
        rec.counts.transport.add(sub.stats);
        rec.counts.sfu_forwarded += sub.frames_forwarded;
        rec.counts.decode_errors += sub.decode_failures;
        if sampled.iter().any(|s| s.id == id) {
            rec.counts.decode_delivered += sub.stats.frames_delivered;
            rec.counts.decoded += sub.frames_decoded;
        }
        // Frame accounting closes per downlink: nothing delivered that was
        // not sent, and every forwarded pair was sent as two frames.
        if sub.stats.frames_delivered > sub.stats.frames_sent
            || sub.stats.frames_sent != 2 * sub.frames_forwarded
        {
            rec.failures.push(format!(
                "downlink {id:?}: {} sent, {} delivered, {} pairs forwarded",
                sub.stats.frames_sent, sub.stats.frames_delivered, sub.frames_forwarded
            ));
        }
    }
    rec.finish(threads)
}
