//! The two-party call loop, owned by the benchmark.
//!
//! cull → tile → split → encode → send / tick / recv → decode → pair →
//! reconstruct → render-prep → display, on a uniform 1 ms virtual clock.
//! Frame `f` is captured at the first tick at or after `f·10⁶/30` µs and
//! its age is taken from that recorded stamp, so the schedule neither
//! drifts nor produces phantom stalls. Wall-clock is closed loop (the next
//! tick starts when this one is done); virtual time is open loop (frames
//! and display slots are due on schedule whatever happened before).

use crate::adapters::{
    self as product, AssembledFrame, EncodedFrame, Frame, LinkPlan, Micros, Pool, RgbdFrame, Rig,
    Session, StreamId, UserTrace, VideoDecoder,
};
use crate::rep::{capture_us, Counts, Recorder, Rep, RepOptions};
use std::collections::BTreeMap;
use std::time::Instant;

const TICK_US: Micros = 1_000;
/// Decoded frames kept per stream for colour/depth pairing.
const PAIR_WINDOW: usize = 6;

/// Inputs of one call, made from the seed in set-up.
pub struct CallInputs {
    pub rig: Rig,
    pub clip: Vec<Vec<RgbdFrame>>,
    pub user: UserTrace,
    pub link: LinkPlan,
    pub frames: u64,
}

/// One stream's decode stage: P-chain gap and keyframe-wait handling,
/// decode, and the pairing window keyed by embedded sequence number.
struct Lane {
    dec: VideoDecoder,
    window: BTreeMap<u32, Frame>,
    expected: u64,
    need_key: bool,
}

#[derive(Default)]
struct LaneOut {
    force_key: bool,
    delivered: u64,
    decoded: u64,
    errors: u64,
    timed: Vec<(Instant, Instant)>,
}

impl Lane {
    fn new(pool: &Pool) -> Self {
        Lane {
            dec: product::new_decoder(pool),
            window: BTreeMap::new(),
            expected: 0,
            need_key: false,
        }
    }

    fn ingest(&mut self, frames: Vec<AssembledFrame>, timed: bool) -> LaneOut {
        let mut out = LaneOut::default();
        for af in frames {
            out.delivered += 1;
            let gap = af.frame_id != self.expected && !af.keyframe;
            self.expected = af.frame_id + 1;
            if gap {
                product::reset_decoder(&mut self.dec);
                self.need_key = true;
                out.force_key = true;
                continue;
            }
            if self.need_key && !af.keyframe {
                continue;
            }
            self.need_key = false;
            let t0 = timed.then(Instant::now);
            match product::decode(&mut self.dec, &af.data) {
                Some((seq, frame)) => {
                    out.decoded += 1;
                    self.window.insert(seq, frame);
                    while self.window.len() > PAIR_WINDOW {
                        self.window.pop_first();
                    }
                }
                None => {
                    product::reset_decoder(&mut self.dec);
                    self.need_key = true;
                    out.force_key = true;
                    out.errors += 1;
                }
            }
            if let Some(t0) = t0 {
                out.timed.push((t0, Instant::now()));
            }
        }
        out
    }
}

/// Delivered frame ids of one stream must be sent ids, each at most once.
fn check_delivery(
    last: &mut Option<u64>,
    af: &AssembledFrame,
    frames: u64,
    failures: &mut Vec<String>,
) {
    if af.frame_id >= frames || last.is_some_and(|l| af.frame_id <= l) {
        failures.push(format!(
            "{:?} frame {} delivered out of order, twice, or never sent",
            af.stream, af.frame_id
        ));
    }
    *last = Some(af.frame_id);
}

pub fn run(inputs: &CallInputs, pool: &Pool, threads: usize, opts: RepOptions) -> Rep {
    let rig = &inputs.rig;
    let frames = inputs.frames;
    let mut rec = Recorder::new(rig, &inputs.clip, frames, opts);
    let mut session: Session = product::new_session(&inputs.link);
    let mut color_enc = product::new_encoder(rig, false, pool);
    let mut depth_enc = product::new_encoder(rig, true, pool);
    let mut color_lane = Lane::new(pool);
    let mut depth_lane = Lane::new(pool);
    let mut predictor = product::new_predictor();
    let mut culler = product::new_culler();
    let mut splitter = product::new_splitter();

    let mut force_key_next = false;
    let mut displayed: Option<u32> = None;
    let mut last_delivered: [Option<u64>; 2] = [None, None];
    let mut received = 0u64;
    let display_start = product::display_start_us();
    let mut slot = 0u64;

    rec.start();
    let mut now: Micros = 0;
    while now < rec.counts.virtual_us {
        if let Some((f, captured)) = rec.capture(now) {
            let iv = f as u32;

            // --- sender ---
            let sender = rec.spans.begin("call.sender", iv);
            let owd_s = session.one_way_delay_s();
            let t_s = now as f64 / 1e6;
            let feedback_pose = inputs.user.pose_at_time((t_s - owd_s).max(0.0) as f32);
            predictor.observe(&feedback_pose, owd_s);
            let mut views = captured.to_vec();
            let frustum = predictor.frustum();
            let (kept, valid) = rec.spans.leaf("core.cull", iv, || {
                product::cull(&mut culler, pool, &mut views, rig, &frustum)
            });
            rec.counts.cull_kept += kept as u64;
            rec.counts.cull_valid += valid as u64;

            let (color, depth) = rec.spans.leaf("core.tile", iv, || {
                (
                    product::tile_color(&views, rig, iv),
                    product::tile_depth(&views, rig, iv),
                )
            });

            let estimate = session.estimate_bps();
            rec.counts.estimate_sum_bps += estimate;
            rec.counts.capacity_sum_bps += session.capacity_bps(now);
            rec.counts.link_samples += 1;
            let budget = estimate * product::BUDGET_FRACTION / product::FPS as f64;
            let split = splitter.split();
            rec.counts.split_sum += split;
            let depth_bits = (budget * split) as u64;
            let color_bits = (budget * (1.0 - split)) as u64;
            if force_key_next {
                product::force_keyframe(&mut color_enc);
                product::force_keyframe(&mut depth_enc);
                force_key_next = false;
            }
            let color_out = rec.spans.leaf("codec2d.encode_color", iv, || {
                product::encode(&mut color_enc, &color, color_bits)
            });
            let depth_out = rec.spans.leaf("codec2d.encode_depth", iv, || {
                product::encode(&mut depth_enc, &depth, depth_bits)
            });
            count_encode(
                &mut rec.counts,
                &color_out,
                color_bits,
                &depth_out,
                depth_bits,
            );

            if splitter.measurement_due() {
                rec.spans.leaf("core.splitter", iv, || {
                    splitter.update(rig, &color, &color_out, &depth, &depth_out)
                });
                rec.counts.splitter_measurements += 1;
            }

            rec.spans.leaf("transport.send", iv, || {
                session.send_frame(now, StreamId::Color, f, &color_out);
                session.send_frame(now, StreamId::Depth, f, &depth_out);
            });
            rec.spans.end(sender);
            rec.sent(iv, color_out.reconstruction, depth_out.reconstruction);
        }
        let iv = rec.interval();

        // --- network ---
        let arrivals = rec.spans.leaf("transport.tick", iv, || {
            session.tick(now);
            force_key_next |= session.take_pli(now);
            session.recv_frames()
        });

        // --- receiver ---
        let display_due = now >= display_start + capture_us(slot);
        if !arrivals.is_empty() || display_due {
            let receiver = rec.spans.begin("call.receiver", iv);
            if !arrivals.is_empty() {
                let mut color_frames = Vec::new();
                let mut depth_frames = Vec::new();
                for af in arrivals {
                    received += 1;
                    match af.stream {
                        StreamId::Color => {
                            check_delivery(&mut last_delivered[0], &af, frames, &mut rec.failures);
                            color_frames.push(af);
                        }
                        StreamId::Depth => {
                            check_delivery(&mut last_delivered[1], &af, frames, &mut rec.failures);
                            depth_frames.push(af);
                        }
                        _ => {}
                    }
                }
                // The two lanes share nothing, so they decode side by side.
                let timed = rec.spans.on();
                let (c, d) = pool.join(
                    || color_lane.ingest(color_frames, timed),
                    || depth_lane.ingest(depth_frames, timed),
                );
                for (name, lane) in [("codec2d.decode_color", &c), ("codec2d.decode_depth", &d)] {
                    for &(t0, t1) in &lane.timed {
                        rec.spans.add(name, iv, t0, t1);
                    }
                    rec.counts.decode_delivered += lane.delivered;
                    rec.counts.decoded += lane.decoded;
                    rec.counts.decode_errors += lane.errors;
                    force_key_next |= lane.force_key;
                }
            }

            if display_due {
                // The newest sequence number decoded on both streams.
                let have = color_lane
                    .window
                    .keys()
                    .rev()
                    .find(|s| depth_lane.window.contains_key(s))
                    .copied();
                match have.filter(|&s| Some(s) != displayed) {
                    Some(seq) => {
                        displayed = Some(seq);
                        let viewer = inputs.user.pose_at_time(now as f32 / 1e6);
                        rec.show(
                            now,
                            slot,
                            seq,
                            &color_lane.window[&seq],
                            &depth_lane.window[&seq],
                            &product::viewer_frustum(&viewer),
                        );
                        rec.forget_sent_below(seq);
                    }
                    None => rec.stall(),
                }
                slot += 1;
            }
            rec.spans.end(receiver);
        }
        now += TICK_US;
    }

    let stats = session.stats();
    rec.counts.transport.add(stats);
    rec.counts.splitter_steps = splitter.steps();
    let (failovers, links_up, legs) = session.bond_report();
    rec.counts.bond_failovers = failovers;
    rec.counts.bond_links_up = links_up as u64;
    for (name, delivered_bits) in legs {
        match name.as_str() {
            "wifi" => rec.counts.bond_wifi_bits = delivered_bits,
            "lte" => rec.counts.bond_lte_bits = delivered_bits,
            _ => {}
        }
    }
    // Frame accounting closes: sent = delivered + never completed.
    if stats.frames_sent != 2 * frames {
        rec.failures.push(format!(
            "session counted {} frames sent, the loop sent {}",
            stats.frames_sent,
            2 * frames
        ));
    }
    if stats.frames_delivered != received || received > stats.frames_sent {
        rec.failures.push(format!(
            "session counted {} frames delivered of {} sent, the loop received {received}",
            stats.frames_delivered, stats.frames_sent
        ));
    }
    rec.finish(threads)
}

/// Bits, QP, intra and over-budget counters of one encoded pair.
pub fn count_encode(
    counts: &mut Counts,
    color: &EncodedFrame,
    color_target: u64,
    depth: &EncodedFrame,
    depth_target: u64,
) {
    counts.encodes += 1;
    counts.color_bits += color.bits();
    counts.depth_bits += depth.bits();
    counts.color_qp_sum += color.qp as u64;
    counts.depth_qp_sum += depth.qp as u64;
    if product::is_intra(color) {
        counts.intra_frames += 1;
    }
    if (color.bits() + depth.bits()) as f64 > 1.1 * (color_target + depth_target) as f64 {
        counts.over_budget += 1;
    }
}
