//! From reps to named metrics: the estimators, and one row per metric of
//! BENCHMARK.json with its unit, per-rep values and sample counts.

use crate::rep::{Counts, Rep};
use crate::stats::{mean, median, percentile, ratio, sum};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// One value per rep, next to a fastest-rep figure.
    pub reps: Vec<f64>,
    /// Sample count, next to a percentile.
    pub samples: Option<usize>,
}

fn plain(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        reps: Vec::new(),
        samples: None,
    }
}

fn sampled(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
    Metric {
        samples: Some(n),
        ..plain(name, unit, value)
    }
}

/// Everything measured for one workload.
pub struct Measured {
    /// Wall seconds of each set-up (clip render and seeded inputs).
    pub prepare_s: Vec<f64>,
    /// Mean wall milliseconds to render one clip frame.
    pub render_ms_mean: f64,
    /// Untraced reps at the workload's thread count; the first is verified.
    pub reps: Vec<Rep>,
    pub traced: Option<Rep>,
    /// One untraced rep on the workload's parallel pool.
    pub parallel: Option<Rep>,
    pub conference_ms_per_frame: f64,
    pub peak_rss_mib: f64,
    pub canvas_pixels: usize,
    pub subscribers: usize,
    /// Receivers whose display slots are counted.
    pub receivers: usize,
}

impl Measured {
    pub fn counts(&self) -> &Counts {
        &self.reps[0].counts
    }

    /// Interference on a shared box only ever adds time, and the reps do
    /// identical work, so the fastest time a frame interval took in any
    /// rep is the estimate of its cost.
    fn fastest_frame_ms(&self) -> Vec<f64> {
        let mut best = self.reps[0].frame_ms.clone();
        for rep in &self.reps[1..] {
            for (b, &x) in best.iter_mut().zip(&rep.frame_ms) {
                *b = b.min(x);
            }
        }
        best
    }
}

pub fn stall_rate(c: &Counts) -> f64 {
    ratio(c.stalls as f64, c.slots as f64)
}

fn ages_ms(c: &Counts) -> Vec<f64> {
    c.ages_us.iter().map(|&a| a as f64 / 1e3).collect()
}

/// The cost of the frame intervals that did a whole frame's work: sender
/// work for one frame, the interval's ticks, and a receiver decoding and
/// displaying one. On a lossy link most intervals display nothing and cost
/// a third as much, and the share of those moves with the seed: a median
/// over all intervals sits on the cliff between the two kinds (3.5 … 4.0 ms
/// across seeds of `call_lossy` where this reads 6.6 ms for every seed).
fn full_frame_ms(c: &Counts, frame_ms: &[f64]) -> Vec<f64> {
    let mut intervals = c.shown_in.clone();
    intervals.dedup();
    intervals.iter().map(|&i| frame_ms[i as usize]).collect()
}

/// Capture→display latency of every displayed frame as the paper's Table 6
/// sums it: the virtual-time age at its display slot (pacing, link, jitter
/// buffer, wait for the slot) plus the wall compute of its frame interval
/// (its sender work and one frame's receiver work). One list per receiver:
/// every slot appends one `shown` entry per receiver, in receiver order.
fn latency_ms(c: &Counts, frame_ms: &[f64], receivers: usize) -> Vec<Vec<f64>> {
    let mut per_receiver = vec![Vec::new(); receivers];
    let mut ages = c.ages_us.iter();
    for (i, &seq) in c.shown.iter().enumerate() {
        if seq != u32::MAX {
            let age = *ages.next().expect("one age per displayed frame");
            per_receiver[i % receivers].push(age as f64 / 1e3 + frame_ms[seq as usize]);
        }
    }
    per_receiver
}

/// A statistic at each receiver, then the median receiver: pooling a
/// starved subscriber's few, very old frames with the others' puts any
/// pooled tail figure on the cliff between the two populations.
fn median_receiver(per_receiver: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    median(&per_receiver.iter().map(|l| stat(l)).collect::<Vec<_>>())
}

/// Mean of the slowest tenth. Display ages sit on the 33.3 ms slot lattice,
/// so a percentile jumps a whole slot when the share of late frames crosses
/// it; this moves with that share instead.
fn tail10(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.partial_cmp(a).expect("samples are finite"));
    v.truncate(samples.len().div_ceil(10));
    mean(&v)
}

pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let c = m.counts();
    let best = m.fastest_frame_ms();
    let rate = |frame_ms: &[f64]| ratio(frame_ms.len() as f64, sum(frame_ms) / 1e3);
    let full = full_frame_ms(c, &best);
    let per_rep = |q: f64| {
        let of_rep = |r: &Rep| percentile(&full_frame_ms(c, &r.frame_ms), q);
        m.reps.iter().map(of_rep).collect()
    };
    let latency = latency_ms(c, &best, m.receivers);
    let displayed = (c.slots - c.stalls) as usize;
    let scored = &m.reps[0].pssim;
    let construct: Vec<f64> = m.reps.iter().map(|r| r.construct_s).collect();
    vec![
        Metric {
            reps: m.reps.iter().map(|r| rate(&r.frame_ms)).collect(),
            ..sampled("frames_per_s", "frames/s", rate(&best), best.len())
        },
        Metric {
            reps: per_rep(0.5),
            ..sampled("frame_ms_p50", "ms", percentile(&full, 0.5), full.len())
        },
        Metric {
            reps: per_rep(0.95),
            ..sampled("frame_ms_p95", "ms", percentile(&full, 0.95), full.len())
        },
        sampled(
            "shown_share",
            "share",
            1.0 - stall_rate(c),
            c.slots as usize,
        ),
        sampled(
            "latency_ms_p50",
            "ms",
            median_receiver(&latency, median),
            displayed,
        ),
        sampled(
            "latency_ms_tail10",
            "ms",
            median_receiver(&latency, tail10),
            displayed,
        ),
        plain(
            "goodput_mbps",
            "Mbit/s",
            ratio(c.transport.bits_delivered as f64, c.virtual_us as f64),
        ),
        sampled(
            "pssim_geometry",
            "score",
            mean(&scored.iter().map(|s| s.0).collect::<Vec<_>>()),
            scored.len(),
        ),
        sampled(
            "pssim_color",
            "score",
            mean(&scored.iter().map(|s| s.1).collect::<Vec<_>>()),
            scored.len(),
        ),
        Metric {
            reps: m.prepare_s.clone(),
            ..plain("setup_s", "s", median(&m.prepare_s) + median(&construct))
        },
    ]
}

pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let c = m.counts();
    let t = &c.transport;
    let traced = m
        .traced
        .as_ref()
        .expect("per-layer metrics need a traced rep");
    let sp = &traced.spans;
    let p50 = |name: &str| median(&sp.per_frame_ms(name));
    let frames = c.frames as f64;
    let encodes = c.encodes as f64;
    let displayed = (c.slots - c.stalls) as f64;
    let sfu = m.subscribers > 0;

    let encode_ms =
        sum(&sp.each_ms("codec2d.encode_color")) + sum(&sp.each_ms("codec2d.encode_depth"));
    // One router tick drains every downlink; per session it is 1/N of it.
    let tick_us = if sfu {
        mean(&sp.each_ms("sfu.tick")) * 1e3 / m.subscribers as f64
    } else {
        mean(&sp.each_ms("transport.tick")) * 1e3
    };
    let leg_bits = (c.bond_wifi_bits + c.bond_lte_bits) as f64;
    let class_rate = |i: usize| ratio(c.sfu_class[i].1 as f64, c.sfu_class[i].0 as f64);
    let untraced_p50 = m
        .reps
        .iter()
        .map(|r| median(&full_frame_ms(c, &r.frame_ms)))
        .fold(f64::INFINITY, f64::min);
    let fps: Vec<f64> = m.reps.iter().map(Rep::frames_per_s).collect();
    let fastest = fps.iter().copied().fold(0.0, f64::max);
    let slowest = fps.iter().copied().fold(f64::INFINITY, f64::min);
    let route = sp.per_frame_ms("sfu.route");
    let ages = ages_ms(c);

    vec![
        plain("capture.render_ms_mean", "ms", m.render_ms_mean),
        plain("core.cull.ms", "ms", p50("core.cull")),
        plain(
            "core.cull.keep_fraction",
            "share",
            ratio(c.cull_kept as f64, c.cull_valid as f64),
        ),
        plain("core.tile.compose_ms", "ms", p50("core.tile")),
        plain(
            "core.splitter.ms_mean",
            "ms",
            mean(&sp.each_ms("core.splitter")),
        ),
        plain(
            "core.splitter.split_mean",
            "share",
            ratio(c.split_sum, frames),
        ),
        plain("core.splitter.steps", "count", c.splitter_steps as f64),
        plain("codec2d.encode_color.ms", "ms", p50("codec2d.encode_color")),
        plain("codec2d.encode_depth.ms", "ms", p50("codec2d.encode_depth")),
        plain(
            "codec2d.encode.ns_per_px",
            "ns/px",
            ratio(encode_ms * 1e6, encodes * 2.0 * m.canvas_pixels as f64),
        ),
        plain(
            "codec2d.encode_color.bits_mean",
            "bit",
            ratio(c.color_bits as f64, encodes),
        ),
        plain(
            "codec2d.encode_depth.bits_mean",
            "bit",
            ratio(c.depth_bits as f64, encodes),
        ),
        plain(
            "codec2d.encode_color.qp_mean",
            "qp",
            ratio(c.color_qp_sum as f64, encodes),
        ),
        plain(
            "codec2d.encode_depth.qp_mean",
            "qp",
            ratio(c.depth_qp_sum as f64, encodes),
        ),
        plain(
            "codec2d.encode.intra_frames",
            "count",
            c.intra_frames as f64,
        ),
        plain(
            "codec2d.encode.over_budget_share",
            "share",
            ratio(c.over_budget as f64, encodes),
        ),
        plain("codec2d.decode_color.ms", "ms", p50("codec2d.decode_color")),
        plain("codec2d.decode_depth.ms", "ms", p50("codec2d.decode_depth")),
        plain("codec2d.decode.errors", "count", c.decode_errors as f64),
        plain(
            "codec2d.decode.useful_share",
            "share",
            ratio(c.decoded as f64, c.decode_delivered as f64),
        ),
        plain(
            "transport.send_ms_mean",
            "ms",
            mean(&sp.each_ms("transport.send")),
        ),
        plain("transport.tick_us_mean", "us", tick_us),
        plain("transport.frames_sent", "count", t.frames_sent as f64),
        plain(
            "transport.frames_delivered",
            "count",
            t.frames_delivered as f64,
        ),
        plain(
            "transport.delivery_share",
            "share",
            ratio(t.frames_delivered as f64, t.frames_sent as f64),
        ),
        plain("transport.nacks_sent", "count", t.nacks_sent as f64),
        plain("transport.retransmits", "count", t.retransmits as f64),
        plain("transport.plis", "count", t.plis as f64),
        plain("transport.late_drops", "count", t.late_drops as f64),
        plain(
            "transport.latency_ms_mean",
            "ms",
            ratio(t.latency_sum_us as f64 / 1e3, t.latency_count as f64),
        ),
        plain(
            "transport.estimate_mbps_mean",
            "Mbit/s",
            ratio(c.estimate_sum_bps / 1e6, c.link_samples as f64),
        ),
        plain(
            "transport.utilization",
            "share",
            ratio(
                t.bits_delivered as f64 / (c.virtual_us as f64 / 1e6),
                ratio(c.capacity_sum_bps, c.link_samples as f64) * m.subscribers.max(1) as f64,
            ),
        ),
        plain(
            "transport.overhead_ratio",
            "ratio",
            ratio(t.bits_sent as f64, t.bits_delivered as f64),
        ),
        plain("bond.failovers", "count", c.bond_failovers as f64),
        plain("bond.links_up_end", "count", c.bond_links_up as f64),
        plain(
            "bond.leg_share.wifi",
            "share",
            ratio(c.bond_wifi_bits as f64, leg_bits),
        ),
        plain(
            "bond.leg_share.lte",
            "share",
            ratio(c.bond_lte_bits as f64, leg_bits),
        ),
        plain("core.reconstruct.ms", "ms", p50("core.reconstruct")),
        plain(
            "core.reconstruct.points_mean",
            "count",
            ratio(c.recon_points as f64, displayed),
        ),
        plain("core.render_prep.ms", "ms", p50("core.render_prep")),
        plain(
            "core.render_prep.points_mean",
            "count",
            ratio(c.prep_points as f64, displayed),
        ),
        plain("pointcloud.pssim.ms_mean", "ms", mean(&m.reps[0].pssim_ms)),
        sampled("sfu.route.ms", "ms", median(&route), route.len()),
        sampled(
            "sfu.route.ms_p95",
            "ms",
            percentile(&route, 0.95),
            route.len(),
        ),
        plain("sfu.tick.ms", "ms", p50("sfu.tick")),
        plain(
            "sfu.encode_passes_per_frame",
            "count",
            ratio(c.sfu_encode_passes as f64, frames),
        ),
        plain(
            "sfu.low_variant_passes_per_frame",
            "count",
            ratio(c.sfu_low_passes as f64, frames),
        ),
        plain("sfu.clusters", "count", c.sfu_clusters as f64),
        plain("sfu.forwarded_frames", "count", c.sfu_forwarded as f64),
        plain("sfu.stall_rate.fast", "share", class_rate(0)),
        plain("sfu.stall_rate.mid", "share", class_rate(1)),
        plain("sfu.stall_rate.slow", "share", class_rate(2)),
        plain("call.sender_ms", "ms", p50("call.sender")),
        plain("call.receiver_ms", "ms", p50("call.receiver")),
        plain(
            "call.sender_self_ms",
            "ms",
            median(&sp.per_frame_self_ms("call.sender")),
        ),
        plain(
            "call.receiver_self_ms",
            "ms",
            median(&sp.per_frame_self_ms("call.receiver")),
        ),
        sampled("call.stall_rate", "share", stall_rate(c), c.slots as usize),
        sampled(
            "call.frame_age_ms_p50",
            "ms",
            percentile(&ages, 0.5),
            ages.len(),
        ),
        sampled(
            "call.frame_age_ms_p95",
            "ms",
            percentile(&ages, 0.95),
            ages.len(),
        ),
        plain("runtime.threads", "count", m.reps[0].threads as f64),
        plain(
            "runtime.pool.speedup",
            "ratio",
            m.parallel
                .as_ref()
                .map_or(1.0, |p| ratio(p.frames_per_s(), fastest)),
        ),
        plain(
            "core.conference.run_ms_per_frame",
            "ms",
            m.conference_ms_per_frame,
        ),
        plain(
            "bench.trace_overhead_ratio",
            "ratio",
            ratio(median(&full_frame_ms(c, &traced.frame_ms)), untraced_p50),
        ),
        Metric {
            reps: fps,
            ..plain("bench.rep_spread", "ratio", ratio(fastest, slowest))
        },
        plain("process.peak_rss_mib", "MiB", m.peak_rss_mib),
    ]
}
