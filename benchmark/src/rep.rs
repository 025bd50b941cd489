//! What one rep (one whole call, start to hang-up) measured, and the
//! receiver-side steps the two loops share.

use crate::adapters::{self as product, Frame, Frustum, RgbdFrame, Rig, SessionStats};
use crate::spans::Spans;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Display slots between two scored frames.
const SCORE_EVERY: u64 = 15;

/// Everything that happens in virtual time or is counted, never timed:
/// identical in every rep of one workload and seed, at any pool size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub frames: u64,
    pub virtual_us: u64,
    /// Display slots over all receivers, and those that showed nothing new.
    pub slots: u64,
    pub stalls: u64,
    /// Capture→display age of every displayed frame, µs.
    pub ages_us: Vec<u64>,
    /// Frame interval in which each displayed frame was shown.
    pub shown_in: Vec<u32>,
    /// Sequence shown per slot (`u32::MAX` = stall), receivers pooled.
    pub shown: Vec<u32>,

    pub transport: Transport,
    pub estimate_sum_bps: f64,
    pub capacity_sum_bps: f64,
    pub link_samples: u64,

    pub cull_kept: u64,
    pub cull_valid: u64,
    pub split_sum: f64,
    pub splitter_measurements: u64,
    pub splitter_steps: u64,

    pub encodes: u64,
    pub color_bits: u64,
    pub depth_bits: u64,
    pub color_qp_sum: u64,
    pub depth_qp_sum: u64,
    pub intra_frames: u64,
    pub over_budget: u64,

    /// Frames the transport handed to the decode stage, those decoded, and
    /// those the decoder rejected.
    pub decode_delivered: u64,
    pub decoded: u64,
    pub decode_errors: u64,

    pub recon_points: u64,
    pub prep_points: u64,

    pub bond_failovers: u64,
    pub bond_links_up: u64,
    pub bond_wifi_bits: u64,
    pub bond_lte_bits: u64,

    pub sfu_encode_passes: u64,
    pub sfu_low_passes: u64,
    pub sfu_clusters: u64,
    pub sfu_forwarded: u64,
    /// (slots, stalls) of the sampled fast / mid / slow subscriber.
    pub sfu_class: [(u64, u64); 3],
}

/// Session counters, summed over sessions where there are several.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transport {
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub bits_sent: u64,
    pub bits_delivered: u64,
    pub late_drops: u64,
    pub plis: u64,
    pub nacks_sent: u64,
    pub retransmits: u64,
    pub latency_sum_us: u128,
    pub latency_count: u64,
}

impl Transport {
    pub fn add(&mut self, s: &SessionStats) {
        self.frames_sent += s.frames_sent;
        self.frames_delivered += s.frames_delivered;
        self.bits_sent += s.bits_sent;
        self.bits_delivered += s.bits_delivered;
        self.late_drops += s.late_drops;
        self.plis += s.plis;
        self.nacks_sent += s.nacks_sent;
        self.retransmits += s.retransmits;
        self.latency_sum_us += s.latency_sum_us;
        self.latency_count += s.latency_count;
    }
}

pub struct Rep {
    pub threads: usize,
    /// Wall seconds from entering the rep to the first frame: encoder,
    /// session or router construction.
    pub construct_s: f64,
    /// Wall compute per frame interval, ms (clip lookup, scoring and
    /// checks excluded).
    pub frame_ms: Vec<f64>,
    pub counts: Counts,
    /// (geometry, colour) of every scored frame; empty unless scored.
    pub pssim: Vec<(f64, f64)>,
    pub pssim_ms: Vec<f64>,
    pub spans: Spans,
    /// Correctness checks that failed, in words.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn frames_per_s(&self) -> f64 {
        self.frame_ms.len() as f64 / (self.frame_ms.iter().sum::<f64>() / 1e3)
    }
}

#[derive(Clone, Copy)]
pub struct RepOptions {
    pub traced: bool,
    /// Score PSSIM and run the byte-equality check (outside timed regions).
    pub verify: bool,
}

/// Times frame intervals, leaving out what the harness does for itself.
pub struct IntervalClock {
    mark: Instant,
    excluded: Duration,
}

impl IntervalClock {
    pub fn start() -> Self {
        IntervalClock {
            mark: Instant::now(),
            excluded: Duration::ZERO,
        }
    }

    /// Run harness-only work (scoring, checks) off the clock.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.excluded += t0.elapsed();
        r
    }

    /// Close the current interval; milliseconds of product work in it.
    pub fn lap_ms(&mut self) -> f64 {
        let now = Instant::now();
        let ms = (now.duration_since(self.mark).saturating_sub(self.excluded)).as_secs_f64() * 1e3;
        self.mark = now;
        self.excluded = Duration::ZERO;
        ms
    }
}

/// Capture time of frame `f` on the exact 30 fps schedule, µs.
pub fn capture_us(f: u64) -> u64 {
    f * 1_000_000 / product::FPS
}

/// The clip is played forward then backward so motion stays continuous.
fn clip_index(f: u64, clip_len: usize) -> usize {
    if clip_len < 2 {
        return 0;
    }
    let period = 2 * (clip_len as u64 - 1);
    let i = f % period;
    (if i < clip_len as u64 { i } else { period - i }) as usize
}

/// Reconstructions the sending encoders produced, by sequence number; a
/// frame may have several when variants of it were sent (SFU low variant).
#[derive(Default)]
struct SentFrames(BTreeMap<u32, Vec<(Frame, Frame)>>);

impl SentFrames {
    fn push(&mut self, seq: u32, color: Frame, depth: Frame) {
        self.0.entry(seq).or_default().push((color, depth));
    }

    /// Display order is monotonic per receiver, so nothing below the
    /// oldest sequence number any receiver has on screen is shown again.
    fn forget_below(&mut self, seq: u32) {
        self.0 = self.0.split_off(&seq);
    }

    /// The displayed canvases must be byte-equal to what an encoder
    /// reconstructed for that sequence number.
    fn check(&self, seq: u32, color: &Frame, depth: &Frame, failures: &mut Vec<String>) {
        let same = |a: &Frame, b: &Frame| {
            a.planes.len() == b.planes.len()
                && a.planes
                    .iter()
                    .zip(&b.planes)
                    .all(|(p, q)| p.data == q.data)
        };
        let sent = self.0.get(&seq);
        let color_ok = sent.is_some_and(|v| v.iter().any(|(c, _)| same(c, color)));
        let depth_ok = sent.is_some_and(|v| v.iter().any(|(_, d)| same(d, depth)));
        if !(color_ok && depth_ok) {
            failures.push(format!(
                "displayed frame {seq} is not byte-equal to an encoder reconstruction \
                 (colour {color_ok}, depth {depth_ok}, {} sent variants)",
                sent.map_or(0, Vec::len)
            ));
        }
    }
}

/// What a loop records while a rep runs: the state the two-party and the
/// SFU loop would otherwise both carry, and the steps they share.
pub struct Recorder<'a> {
    rig: &'a Rig,
    clip: &'a [Vec<RgbdFrame>],
    verify: bool,
    entered: Instant,
    pub counts: Counts,
    pub spans: Spans,
    pub failures: Vec<String>,
    pub clock: IntervalClock,
    /// Tick at which each frame was captured.
    stamps: Vec<u64>,
    frame_ms: Vec<f64>,
    pssim: Vec<(f64, f64)>,
    pssim_ms: Vec<f64>,
    sent: SentFrames,
    construct_s: f64,
}

impl<'a> Recorder<'a> {
    /// Call on entering the rep, before constructing any product state.
    pub fn new(rig: &'a Rig, clip: &'a [Vec<RgbdFrame>], frames: u64, opts: RepOptions) -> Self {
        Recorder {
            rig,
            clip,
            verify: opts.verify,
            entered: Instant::now(),
            counts: Counts {
                frames,
                virtual_us: capture_us(frames),
                ..Counts::default()
            },
            spans: Spans::new(opts.traced),
            failures: Vec::new(),
            clock: IntervalClock::start(),
            stamps: Vec::with_capacity(frames as usize),
            frame_ms: Vec::with_capacity(frames as usize),
            pssim: Vec::new(),
            pssim_ms: Vec::new(),
            sent: SentFrames::default(),
            construct_s: 0.0,
        }
    }

    /// Call when construction is done and the first tick is next.
    pub fn start(&mut self) {
        self.construct_s = self.entered.elapsed().as_secs_f64();
        self.clock = IntervalClock::start();
    }

    /// If the next frame is due at `now`, close the running interval, stamp
    /// the capture and hand out the frame's number and captured views.
    pub fn capture(&mut self, now: u64) -> Option<(u64, &'a [RgbdFrame])> {
        let f = self.stamps.len() as u64;
        if f >= self.counts.frames || now < capture_us(f) {
            return None;
        }
        if f > 0 {
            self.frame_ms.push(self.clock.lap_ms());
        }
        self.stamps.push(now);
        Some((f, self.captured(f)))
    }

    fn captured(&self, f: u64) -> &'a [RgbdFrame] {
        &self.clip[clip_index(f, self.clip.len())]
    }

    /// The frame interval `now` falls in: the identifier its spans share.
    pub fn interval(&self) -> u32 {
        self.stamps.len() as u32 - 1
    }

    /// Keep what an encoder reconstructed for the byte-equality check.
    pub fn sent(&mut self, seq: u32, color: Frame, depth: Frame) {
        if self.verify {
            self.clock.exclude(|| self.sent.push(seq, color, depth));
        }
    }

    /// Nothing below `seq` will be displayed by any receiver again.
    pub fn forget_sent_below(&mut self, seq: u32) {
        self.clock.exclude(|| self.sent.forget_below(seq));
    }

    /// A display slot with nothing new to show.
    pub fn stall(&mut self) {
        self.counts.slots += 1;
        self.counts.stalls += 1;
        self.counts.shown.push(u32::MAX);
    }

    /// A display slot showing frame `seq`: the receiver reconstructs the
    /// cloud and prepares it for rendering in the viewer's frustum. Off the
    /// clock, a verified rep checks the canvases and scores every 15th slot.
    pub fn show(
        &mut self,
        now: u64,
        slot: u64,
        seq: u32,
        color: &Frame,
        depth: &Frame,
        frustum: &Frustum,
    ) {
        let iv = self.interval();
        let rig = self.rig;
        self.counts.slots += 1;
        self.counts.shown.push(seq);
        self.counts.ages_us.push(now - self.stamps[seq as usize]);
        self.counts.shown_in.push(iv);
        let cloud = self.spans.leaf("core.reconstruct", iv, || {
            product::reconstruct(color, depth, rig)
        });
        let shown = self.spans.leaf("core.render_prep", iv, || {
            product::render_prep(&cloud, frustum)
        });
        self.counts.recon_points += cloud.len() as u64;
        self.counts.prep_points += shown.len() as u64;
        if !self.verify {
            return;
        }
        let captured = self.captured(seq as u64);
        self.clock.exclude(|| {
            self.sent.check(seq, color, depth, &mut self.failures);
            if slot.is_multiple_of(SCORE_EVERY) {
                let reference = product::render_prep(&product::truth_cloud(captured, rig), frustum);
                let t0 = Instant::now();
                if let Some(s) = product::score(&reference, &shown) {
                    self.pssim_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    self.pssim.push(s);
                }
            }
        });
    }

    pub fn finish(mut self, threads: usize) -> Rep {
        self.frame_ms.push(self.clock.lap_ms());
        Rep {
            threads,
            construct_s: self.construct_s,
            frame_ms: self.frame_ms,
            counts: self.counts,
            pssim: self.pssim,
            pssim_ms: self.pssim_ms,
            spans: self.spans,
            failures: self.failures,
        }
    }
}
