//! The two halves of a call (§A.1 of the paper), each defined once.
//!
//! [`SenderStage`] is cull → tile → encode for one outgoing canvas pair;
//! [`ReceiverStage`] is the per-stream P-chain guard → decode → pairing
//! window for one incoming pair; [`DisplayClock`] decides, once per display
//! slot, whether the receiver showed a new pair or stalled. The conference
//! loop ([`crate::conference`]), the SFU's per-cluster encode task and its
//! per-subscriber stand-in (`livo_sfu`) all drive these, so a stage has one
//! definition whoever's clock it runs on.
//!
//! Both types are `Send` and hold no thread of their own. §A.1's
//! frame-level overlap (capture and cull of frame *n + 1* beside the encode
//! of frame *n*) is therefore a property of the driver: a threaded driver
//! is a loop around a stage on each thread. Intra-frame parallelism comes
//! from the worker pool the owner hands in with `set_worker_pool`; a stage
//! that was given none (one inside an SFU cluster task, which is already a
//! pool task) runs serially. Output is identical either way.

use crate::cull::{CullContext, CullStats};
use crate::depth::{DepthCodec, DepthEncoding};
use crate::tile::{compose_color, compose_depth, header_rows_for, read_seq, TileLayout};
use livo_capture::RgbdFrame;
use livo_codec2d::{
    luma_rmse, Decoder, EncodedFrame, Encoder, EncoderConfig, Frame, FrameType, PixelFormat,
};
use livo_math::{Frustum, RgbdCamera};
use livo_runtime::WorkerPool;
use livo_telemetry::trace::{kind, EventTrace, NO_FRAME};
use livo_telemetry::MetricsRegistry;
use livo_transport::{AssembledFrame, Micros, StreamId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Frustum guard band ε in metres (§3.4).
pub const GUARD_BAND_M: f32 = 0.2;
/// Receiver render voxel size in metres.
pub const RENDER_VOXEL_M: f32 = 0.03;
/// Capture, forward and display rate of every call, frames per second.
pub const FPS: u32 = 30;
/// Share of the bandwidth estimate budgeted to media; the rest is headroom
/// for packet headers and retransmissions.
pub const MEDIA_SHARE: f64 = 0.80;
/// Floor on a stream's per-frame bit budget.
pub const MIN_FRAME_BITS: u64 = 2_000;
/// LiVo-NoAdapt's constant quantisers, (colour, depth) (Figs. 20–21).
pub const NOADAPT_QPS: (u8, u8) = (22, 14);
/// Decoded frames kept per stream for colour/depth pairing: the (larger)
/// depth frames may complete a beat after their colour frames.
pub const PAIR_WINDOW: usize = 8;

/// The colour and depth canvases of one frame.
pub struct Canvases {
    pub color: Frame,
    pub depth: Frame,
}

/// How the encoder pair spends bits on a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rate {
    /// Direct rate adaptation: a bit budget per stream, floored at
    /// [`MIN_FRAME_BITS`].
    Budget { color_bits: u64, depth_bits: u64 },
    /// Constant quantisers (LiVo-NoAdapt).
    FixedQp { color: u8, depth: u8 },
}

/// The sender half: one [`CullContext`] and the open-GOP colour/depth
/// encoder pair over a fixed tile layout.
pub struct SenderStage {
    layout: TileLayout,
    depth_codec: DepthCodec,
    cull: CullContext,
    color_enc: Encoder,
    depth_enc: Encoder,
    pool: Option<Arc<WorkerPool>>,
    /// Where each encoded frame is recorded, and as which party.
    trace: Option<(Arc<EventTrace>, u16)>,
}

impl SenderStage {
    /// `temporal_layers` is the encoders' (1 | 2): a two-party call sends
    /// one, an SFU cluster two, so each downlink can drop T1.
    pub fn new(layout: TileLayout, depth_encoding: DepthEncoding, temporal_layers: u8) -> Self {
        let depth_codec = DepthCodec {
            encoding: depth_encoding,
            ..DepthCodec::default()
        };
        // Open-ended GOP: like the paper's deployment, intra frames are sent
        // only at start-up and on request (§A.1) — periodic keyframes would
        // burst above the rate target and cause rhythmic stalls.
        let encoder = |format| {
            let mut cfg = EncoderConfig::new(layout.canvas_w, layout.canvas_h, format);
            cfg.gop_length = 0;
            cfg.temporal_layers = temporal_layers;
            Encoder::new(cfg)
        };
        SenderStage {
            layout,
            depth_codec,
            cull: CullContext::new(),
            color_enc: encoder(PixelFormat::Yuv420),
            depth_enc: encoder(depth_codec.pixel_format()),
            pool: None,
            trace: None,
        }
    }

    /// Spread cull rows and encoder stripes over `pool`.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.color_enc.set_worker_pool(pool.clone());
        self.depth_enc.set_worker_pool(pool.clone());
        self.pool = Some(pool);
    }

    /// Publish the cull context's `cull.lut_rebuilds` and `kernel.*` metrics
    /// into `registry`.
    pub fn attach_cull_telemetry(&mut self, registry: &MetricsRegistry) {
        self.cull.attach_telemetry(registry);
    }

    /// Publish the encoders' `codec.color.*` / `codec.depth.*` families into
    /// `registry`.
    pub fn attach_codec_telemetry(&mut self, registry: &Arc<MetricsRegistry>) {
        self.color_enc.attach_telemetry(registry, "codec.color");
        self.depth_enc.attach_telemetry(registry, "codec.depth");
    }

    /// Record one `encode` event per stream and frame as `party`, on
    /// `codec.color` / `codec.depth` (arg: bits).
    pub fn attach_trace(&mut self, trace: Arc<EventTrace>, party: u16) {
        self.trace = Some((trace, party));
    }

    pub fn depth_codec(&self) -> &DepthCodec {
        &self.depth_codec
    }

    /// The temporal id of the next encoded pair (both encoders keep one
    /// pattern: they see the same frames and keyframe requests).
    pub fn next_temporal_id(&self) -> u8 {
        self.color_enc.next_temporal_id()
    }

    /// Make the next encoded pair intra frames (PLI, new receiver).
    pub fn force_keyframe(&mut self) {
        self.color_enc.force_keyframe();
        self.depth_enc.force_keyframe();
    }

    /// Cull `views` in place against the union of `frusta`; none keeps
    /// every pixel (LiVo-NoCull) and reports no statistics.
    pub fn cull(
        &mut self,
        views: &mut [RgbdFrame],
        cameras: &[RgbdCamera],
        frusta: &[Frustum],
    ) -> Option<CullStats> {
        (!frusta.is_empty()).then(|| self.cull.cull(self.pool.as_deref(), views, cameras, frusta))
    }

    /// Tile the views into the two canvases, stamped with `seq`.
    pub fn compose(&self, views: &[RgbdFrame], seq: u32) -> Canvases {
        Canvases {
            color: compose_color(views, &self.layout, seq),
            depth: compose_depth(views, &self.layout, &self.depth_codec, seq),
        }
    }

    /// Encode the pair, (colour, depth). `frame` and `now` stamp its trace
    /// events.
    pub fn encode(
        &mut self,
        canvases: &Canvases,
        rate: Rate,
        frame: u64,
        now: Micros,
    ) -> (EncodedFrame, EncodedFrame) {
        let (color, depth) = match rate {
            Rate::Budget {
                color_bits,
                depth_bits,
            } => (
                self.color_enc
                    .encode(&canvases.color, color_bits.max(MIN_FRAME_BITS)),
                self.depth_enc
                    .encode(&canvases.depth, depth_bits.max(MIN_FRAME_BITS)),
            ),
            Rate::FixedQp { color, depth } => (
                self.color_enc.encode_fixed_qp(&canvases.color, color),
                self.depth_enc.encode_fixed_qp(&canvases.depth, depth),
            ),
        };
        if let Some((trace, party)) = &self.trace {
            for (track, out) in [("codec.color", &color), ("codec.depth", &depth)] {
                trace.record(now, frame, *party, track, kind::ENCODE, out.bits() as i64);
            }
        }
        (color, depth)
    }

    /// What the splitter balances (§3.3): colour luma RMSE and depth RMSE in
    /// millimetres of an encoded pair against its canvases. The codec's
    /// closed loop makes `reconstruction` the decoder's output, so the
    /// sender's own decode comes free.
    pub fn rmse(
        &self,
        canvases: &Canvases,
        color: &EncodedFrame,
        depth: &EncodedFrame,
    ) -> (f64, f64) {
        (
            luma_rmse(&canvases.color, &color.reconstruction),
            self.depth_codec
                .rmse_mm(&canvases.depth, &depth.reconstruction),
        )
    }
}

/// What [`ReceiverStage::ingest`] did with one delivered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Decoded into the pairing window.
    Decoded,
    /// The payload failed to decode: decoder reset, keyframe needed.
    DecodeError,
    /// The frame this one predicts from never arrived: decoder reset,
    /// keyframe needed.
    ChainBroken,
    /// Skipped: the lane is waiting for a keyframe and this is not one.
    AwaitingKey,
}

impl Ingest {
    /// Whether the sender must be asked for a keyframe.
    pub fn wants_key(self) -> bool {
        matches!(self, Ingest::DecodeError | Ingest::ChainBroken)
    }
}

/// One delivered frame's way through its decode lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameOutcome {
    /// The lane: colour or depth.
    pub stream: StreamId,
    pub frame_id: u64,
    pub ingest: Ingest,
    /// Wall time of the decode attempt, milliseconds; 0 where none was made.
    pub decode_ms: f64,
}

/// One stream's decoder, P-chain state and sequence-stamped window.
struct DecodeLane {
    /// The lane's trace component, `codec.color` or `codec.depth`.
    track: &'static str,
    dec: Decoder,
    window: BTreeMap<u32, Frame>,
    /// Id of the last frame seen that later frames predict from.
    last_ref: Option<u64>,
    /// Whether a T1 or a two-layer intra has been seen.
    layered: bool,
    need_key: bool,
    /// Where each decode attempt is recorded, and as which party.
    trace: Option<(Arc<EventTrace>, u16)>,
}

impl DecodeLane {
    fn new(track: &'static str) -> Self {
        DecodeLane {
            track,
            dec: Decoder::new(),
            window: BTreeMap::new(),
            last_ref: None,
            layered: false,
            need_key: false,
            trace: None,
        }
    }

    fn ingest(&mut self, af: &AssembledFrame, now: Micros) -> FrameOutcome {
        // The frame this one predicts from must be the last reference seen:
        // a T1 and a one-layer P frame name the frame before them, a T0 of a
        // two-layer stream the one two back. A missing T1 costs nothing.
        let layer =
            livo_codec2d::slice::peek_layer(&af.data).map(|(t, l)| (t == FrameType::Intra, l));
        self.layered |= layer.is_some_and(|(intra, l)| !l.is_t0() || (intra && l.tag));
        let reference = layer.is_none_or(|(_, l)| l.is_t0());
        let back = if reference && self.layered { 2 } else { 1 };
        let gap = !af.keyframe && af.frame_id.checked_sub(back) != self.last_ref;
        // Later frames predict from this one, or from the T0 this T1 named.
        self.last_ref = af.frame_id.checked_sub(u64::from(!reference));
        let mut decode_ms = 0.0;
        let ingest = if gap {
            self.dec.reset();
            self.need_key = true;
            Ingest::ChainBroken
        } else if self.need_key && !af.keyframe {
            Ingest::AwaitingKey
        } else {
            self.need_key = false;
            let t0 = Instant::now();
            // A well-formed frame too small to hold the sequence strip is
            // no canvas of ours: an error like any other, not a frame 0.
            let canvas = self.dec.decode(&af.data).ok();
            let ingest = match canvas.filter(|f| header_rows_for(f.width) <= f.height) {
                Some(frame) => {
                    let seq = read_seq(&frame.planes[0], frame.format.peak_value());
                    self.window.insert(seq, frame);
                    while self.window.len() > PAIR_WINDOW {
                        self.window.pop_first();
                    }
                    Ingest::Decoded
                }
                None => {
                    self.dec.reset();
                    self.need_key = true;
                    Ingest::DecodeError
                }
            };
            decode_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some((trace, party)) = &self.trace {
                let (k, arg) = match ingest {
                    Ingest::Decoded => (kind::DECODE, (decode_ms * 1e3) as i64),
                    _ => (kind::DECODE_ERROR, 0),
                };
                trace.record(now, af.frame_id, *party, self.track, k, arg);
            }
            ingest
        };
        FrameOutcome {
            stream: af.stream,
            frame_id: af.frame_id,
            ingest,
            decode_ms,
        }
    }
}

/// The receiver half: a colour and a depth decode lane, paired by the
/// sequence number embedded in the canvases (§A.1's synchronisation step).
pub struct ReceiverStage {
    color: DecodeLane,
    depth: DecodeLane,
    pool: Option<Arc<WorkerPool>>,
}

impl Default for ReceiverStage {
    fn default() -> Self {
        Self::new()
    }
}

impl ReceiverStage {
    pub fn new() -> Self {
        ReceiverStage {
            color: DecodeLane::new("codec.color"),
            depth: DecodeLane::new("codec.depth"),
            pool: None,
        }
    }

    /// Decode the two lanes side by side, and each frame's slices in
    /// parallel, on `pool`.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.color.dec.set_worker_pool(pool.clone());
        self.depth.dec.set_worker_pool(pool.clone());
        self.pool = Some(pool);
    }

    /// Publish the decoders' `codec.decode_*` bitstream counters into
    /// `registry`.
    pub fn attach_telemetry(&mut self, registry: &Arc<MetricsRegistry>) {
        self.color.dec.attach_telemetry(registry);
        self.depth.dec.attach_telemetry(registry);
    }

    /// Record one `decode` (arg: elapsed µs) or `decode_error` event per
    /// decode attempt as `party`, on the lane's `codec.color` /
    /// `codec.depth` component. A frame that never reaches the decoder
    /// records nothing.
    pub fn attach_trace(&mut self, trace: Arc<EventTrace>, party: u16) {
        self.color.trace = Some((trace.clone(), party));
        self.depth.trace = Some((trace, party));
    }

    /// Run one tick's delivered frames through their lanes, each lane in
    /// arrival order. `Control` frames are not media and are ignored. The
    /// outcomes, colour lane first, are the caller's to count.
    pub fn ingest(&mut self, frames: &[AssembledFrame], now: Micros) -> Vec<FrameOutcome> {
        if frames.is_empty() {
            return Vec::new();
        }
        let drain = |lane: &mut DecodeLane, stream: StreamId| -> Vec<FrameOutcome> {
            let of_lane = frames.iter().filter(|af| af.stream == stream);
            of_lane.map(|af| lane.ingest(af, now)).collect()
        };
        // Each lane owns its decoder, window and P-chain state, so the two
        // share nothing but the (atomic) telemetry sinks.
        let (color, depth) = (&mut self.color, &mut self.depth);
        let (mut outcomes, depth_outcomes) = match &self.pool {
            Some(pool) => pool.join(
                || drain(color, StreamId::Color),
                || drain(depth, StreamId::Depth),
            ),
            None => (drain(color, StreamId::Color), drain(depth, StreamId::Depth)),
        };
        outcomes.extend(depth_outcomes);
        outcomes
    }

    /// What the lanes hold for the display clock to decide a slot on.
    pub fn lanes(&self) -> Lanes {
        let newest = |lane: &DecodeLane| lane.window.last_key_value().map(|(&seq, _)| seq);
        Lanes {
            pair: self.newest_pair().map(|(seq, ..)| seq),
            newest: newest(&self.color).max(newest(&self.depth)),
            awaiting_key: self.color.need_key || self.depth.need_key,
        }
    }

    /// The newest sequence number decoded on *both* streams, with its
    /// colour and depth canvases: what a display slot shows.
    pub fn newest_pair(&self) -> Option<(u32, &Frame, &Frame)> {
        let mut newest_first = self.color.window.iter().rev();
        newest_first.find_map(|(&seq, color)| Some((seq, color, self.depth.window.get(&seq)?)))
    }

    /// Decoded colour canvas for `seq`, if still in the window.
    pub fn color(&self, seq: u32) -> Option<&Frame> {
        self.color.window.get(&seq)
    }

    /// Decoded depth canvas for `seq`, if still in the window.
    pub fn depth(&self, seq: u32) -> Option<&Frame> {
        self.depth.window.get(&seq)
    }
}

/// When frame (or display slot) `n` falls due on the [`FPS`] clock, µs.
pub fn due(n: u64) -> Micros {
    n * 1_000_000 / FPS as u64
}

/// What one display slot showed: a new pair, `age_us` after its capture, or
/// nothing new, `since_us` after the display last advanced (or started), for
/// one `cause`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Shown { seq: u32, age_us: Micros },
    Stalled { since_us: Micros, cause: StallCause },
}

/// Why a display slot showed nothing new. The clock checks them in this
/// order and names the first that holds, so every stalled slot has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Nothing has been shown yet.
    Startup,
    /// No frame newer than the shown one was handed to this receiver at
    /// least the clock's delay ago (on the SFU: a T1 it was not sent).
    NotSent,
    /// A decode lane is waiting for a keyframe.
    KeyframeWait,
    /// One lane decoded a frame newer than the shown one that the other
    /// lane lacks.
    PairMiss,
    /// Sent but not at the decoder yet: in the pacer, on the link, waiting
    /// for a NACK repair, or given up.
    InTransport,
}

impl StallCause {
    pub const ALL: [StallCause; 5] = [
        StallCause::Startup,
        StallCause::NotSent,
        StallCause::KeyframeWait,
        StallCause::PairMiss,
        StallCause::InTransport,
    ];

    /// The `<name>` of `display.stall_cause.<name>`.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Startup => "startup",
            StallCause::NotSent => "not_sent",
            StallCause::KeyframeWait => "keyframe_wait",
            StallCause::PairMiss => "pair_miss",
            StallCause::InTransport => "in_transport",
        }
    }
}

/// What the decode lanes hold when a display slot falls due
/// ([`ReceiverStage::lanes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lanes {
    /// The newest sequence number decoded on both lanes.
    pub pair: Option<u32>,
    /// The newest sequence number decoded on either lane.
    pub newest: Option<u32>,
    /// Whether a lane is waiting for a keyframe.
    pub awaiting_key: bool,
}

/// The display half of §A.1, defined once: one slot per frame interval, and
/// a slot with no *new* synchronised colour+depth pair is a stall, with its
/// [`StallCause`].
///
/// Slot `s` falls due at `start + due(s)`, `start` being the jitter target
/// plus three frame intervals after the first captured frame. The driver
/// polls once per 1 ms tick, after the tick's arrivals, so a slot is decided
/// at the first tick at or after its instant. With a trace, each slot
/// records `display` (arg: age µs) or `stall` (arg: ms since the last).
#[derive(Debug, Clone, Default)]
pub struct DisplayClock {
    /// Jitter target plus three frame intervals: how long after its capture
    /// a frame is due on the display.
    delay: Micros,
    /// Slot 0's instant, once a frame was captured.
    start: Option<Micros>,
    slot: u64,
    shown: Option<u32>,
    last_shown: Micros,
    /// Capture instants of the frames the display has not passed yet.
    captured: VecDeque<(u32, Micros)>,
    trace: Option<(Arc<EventTrace>, u16)>,
}

impl DisplayClock {
    pub fn new(jitter_target: Micros) -> Self {
        DisplayClock {
            delay: jitter_target + due(3),
            ..Default::default()
        }
    }

    /// Record each slot as `party` on the `display` component.
    pub fn attach_trace(&mut self, trace: Arc<EventTrace>, party: u16) {
        self.trace = Some((trace, party));
    }

    /// Frame `seq` was captured (on the SFU: forwarded to this receiver) at
    /// `at`. The first frame starts the clock.
    pub fn captured(&mut self, seq: u32, at: Micros) {
        if self.start.is_none() {
            (self.start, self.last_shown) = (Some(at + self.delay), at + self.delay);
        }
        self.captured.push_back((seq, at));
    }

    /// When the next slot falls due (never, before the first frame).
    fn next_due(&self) -> Micros {
        self.start.map_or(Micros::MAX, |s| s + due(self.slot))
    }

    /// The sequence numbers handed to the clock that the display has not
    /// passed yet, oldest first.
    pub fn handed(&self) -> impl Iterator<Item = u32> + '_ {
        self.captured.iter().map(|&(seq, _)| seq)
    }

    /// Decide the next slot if it is due at `now`, given what the decode
    /// lanes hold (asked for only then): its index and outcome.
    pub fn poll(&mut self, now: Micros, lanes: impl FnOnce() -> Lanes) -> Option<(u64, Slot)> {
        if now < self.next_due() {
            return None;
        }
        let slot = self.slot;
        self.slot += 1;
        let lanes = lanes();
        let Some(seq) = lanes.pair.filter(|&seq| Some(seq) != self.shown) else {
            let since_us = now - self.last_shown;
            let cause = self.stall_cause(now, &lanes);
            self.record(now, NO_FRAME, kind::STALL, since_us / 1_000);
            return Some((slot, Slot::Stalled { since_us, cause }));
        };
        while self.captured.front().is_some_and(|&(s, _)| s < seq) {
            self.captured.pop_front();
        }
        let at = self.captured.front().filter(|c| c.0 == seq);
        let age_us = now - at.map_or(now, |c| c.1);
        (self.shown, self.last_shown) = (Some(seq), now);
        self.record(now, seq as u64, kind::DISPLAY, age_us);
        Some((slot, Slot::Shown { seq, age_us }))
    }

    /// The first [`StallCause`] that holds for a slot at `now` with no new
    /// pair. The queue's front is the shown frame or newer, so this looks at
    /// one or two entries.
    fn stall_cause(&self, now: Micros, lanes: &Lanes) -> StallCause {
        let Some(shown) = self.shown else {
            return StallCause::Startup;
        };
        let next = self.captured.iter().find(|&&(seq, _)| seq > shown);
        if next.is_none_or(|&(_, at)| at + self.delay > now) {
            StallCause::NotSent
        } else if lanes.awaiting_key {
            StallCause::KeyframeWait
        } else if lanes.newest > Some(shown) {
            StallCause::PairMiss
        } else {
            StallCause::InTransport
        }
    }

    fn record(&self, now: Micros, seq: u64, k: &'static str, arg: Micros) {
        if let Some((trace, party)) = &self.trace {
            trace.record(now, seq, *party, "display", k, arg as i64);
        }
    }
}

// A threaded driver moves a stage onto its thread.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<SenderStage>();
    is_send::<ReceiverStage>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::write_seq;
    use bytes::Bytes;
    use livo_capture::{datasets::DatasetPreset, render::render_views_at, rig, VideoId};
    use livo_codec2d::FrameType;
    use livo_math::{CameraIntrinsics, FrustumParams, Pose, Vec3};

    const FRAMES: u32 = 12;
    const KEY_AT: u32 = 6;

    fn cameras() -> Vec<RgbdCamera> {
        let k = CameraIntrinsics::kinect_depth(0.08);
        rig::camera_ring(4, 2.5, 1.4, Vec3::new(0.0, 1.0, 0.0), k)
    }

    fn layout_of(cameras: &[RgbdCamera]) -> TileLayout {
        let k = cameras[0].intrinsics;
        TileLayout::new(k.width as usize, k.height as usize, cameras.len())
    }

    /// Twelve frames of `band2` in motion, un-culled.
    fn clip(cameras: &[RgbdCamera]) -> Vec<Vec<RgbdFrame>> {
        let scene = DatasetPreset::load(VideoId::Band2).scene;
        let pool = WorkerPool::new(1);
        (0..FRAMES)
            .map(|f| render_views_at(&pool, cameras, &scene.at(f as f32 / 30.0), f))
            .collect()
    }

    fn viewer(eye: Vec3, at: Vec3) -> Frustum {
        let pose = Pose::look_at(eye, at, Vec3::Y);
        Frustum::from_params(&pose, &FrustumParams::default()).expanded(GUARD_BAND_M)
    }

    /// The path `benchmark/src/call.rs` times, composed by hand from the
    /// entry points it names: `cull_views_on` → `compose_color` /
    /// `compose_depth` → `Encoder::encode`.
    struct ByHand {
        layout: TileLayout,
        codec: DepthCodec,
        cull: CullContext,
        color_enc: Encoder,
        depth_enc: Encoder,
    }

    impl ByHand {
        fn new(layout: TileLayout, encoding: DepthEncoding) -> Self {
            let encoder = |format| {
                let mut cfg = EncoderConfig::new(layout.canvas_w, layout.canvas_h, format);
                cfg.gop_length = 0;
                Encoder::new(cfg)
            };
            let depth_format = match encoding {
                DepthEncoding::RgbPacked => PixelFormat::Yuv420,
                _ => PixelFormat::Y16,
            };
            ByHand {
                layout,
                codec: DepthCodec::new(6000, encoding),
                cull: CullContext::new(),
                color_enc: encoder(PixelFormat::Yuv420),
                depth_enc: encoder(depth_format),
            }
        }

        /// RGB-packed depth the way the call loop used to compose it inline:
        /// tile the millimetres, pack, stamp the 8-bit luma plane.
        fn depth_canvas(&self, views: &[RgbdFrame], seq: u32) -> Frame {
            if self.codec.encoding != DepthEncoding::RgbPacked {
                return compose_depth(views, &self.layout, &self.codec, seq);
            }
            let (w, h) = (self.layout.canvas_w, self.layout.canvas_h);
            let mut mm = vec![0u16; w * h];
            for (i, v) in views.iter().enumerate() {
                let (ox, oy) = self.layout.slot_origin(i);
                for y in 0..v.height {
                    let row = &v.depth_mm[y * v.width..][..v.width];
                    mm[(oy + y) * w + ox..][..v.width].copy_from_slice(row);
                }
            }
            let mut f = self.codec.pack_rgb(&mm, w, h);
            write_seq(&mut f.planes[0], seq, 255);
            f
        }

        fn frame(
            &mut self,
            views: &mut [RgbdFrame],
            cameras: &[RgbdCamera],
            frusta: &[Frustum],
            seq: u32,
            rate: Rate,
        ) -> (EncodedFrame, EncodedFrame) {
            let pool = WorkerPool::new(1);
            match frusta {
                [] => {}
                [one] => {
                    self.cull.cull_views_on(&pool, views, cameras, one);
                }
                // `call.rs` culls one frustum; a union goes through the
                // per-pixel oracle, so the stage's cull is checked against it.
                many => {
                    crate::cull::oracle::cull_views_union_reference(views, cameras, many);
                }
            }
            let color = compose_color(views, &self.layout, seq);
            let depth = self.depth_canvas(views, seq);
            if seq == KEY_AT {
                self.color_enc.force_keyframe();
                self.depth_enc.force_keyframe();
            }
            match rate {
                Rate::Budget {
                    color_bits,
                    depth_bits,
                } => (
                    self.color_enc.encode(&color, color_bits.max(2_000)),
                    self.depth_enc.encode(&depth, depth_bits.max(2_000)),
                ),
                Rate::FixedQp {
                    color: qc,
                    depth: qd,
                } => (
                    self.color_enc.encode_fixed_qp(&color, qc),
                    self.depth_enc.encode_fixed_qp(&depth, qd),
                ),
            }
        }
    }

    #[test]
    fn sender_stage_equals_the_hand_composed_path() {
        let cameras = cameras();
        let layout = layout_of(&cameras);
        let clip = clip(&cameras);
        let front = viewer(Vec3::new(0.0, 1.5, 3.0), Vec3::new(0.0, 1.0, 0.0));
        let side = viewer(Vec3::new(3.0, 1.4, 0.5), Vec3::new(0.5, 1.0, 0.0));
        let culls: [&[Frustum]; 3] = [&[], &[front], &[front, side]];
        let (color, depth) = NOADAPT_QPS;
        let rates = [
            // The depth budget sits under the floor on purpose.
            Rate::Budget {
                color_bits: 14_000,
                depth_bits: 1_500,
            },
            Rate::FixedQp { color, depth },
        ];
        let encodings = [
            DepthEncoding::ScaledY16,
            DepthEncoding::RawY16,
            DepthEncoding::RgbPacked,
        ];
        for encoding in encodings {
            for frusta in culls {
                for rate in rates {
                    let what = format!("{encoding:?}, {} frusta, {rate:?}", frusta.len());
                    let mut stage = SenderStage::new(layout, encoding, 1);
                    let mut by_hand = ByHand::new(layout, encoding);
                    let mut culled_any = false;
                    for (seq, captured) in clip.iter().enumerate() {
                        let seq = seq as u32;
                        let mut views = captured.clone();
                        let stats = stage.cull(&mut views, &cameras, frusta);
                        assert_eq!(stats.is_some(), !frusta.is_empty(), "{what}");
                        culled_any |= stats.is_some_and(|s| s.kept < s.total_valid);
                        let canvases = stage.compose(&views, seq);
                        if seq == KEY_AT {
                            stage.force_keyframe();
                        }
                        let (c, d) = stage.encode(&canvases, rate, seq as u64, 0);

                        let mut views = captured.clone();
                        let (hc, hd) = by_hand.frame(&mut views, &cameras, frusta, seq, rate);
                        let intra = seq == 0 || seq == KEY_AT;
                        for (got, want, lane) in [(&c, &hc, "colour"), (&d, &hd, "depth")] {
                            assert_eq!(got.data, want.data, "{what}: {lane} bytes, frame {seq}");
                            assert!(
                                got.reconstruction == want.reconstruction,
                                "{what}: {lane} reconstruction, frame {seq}"
                            );
                            assert_eq!(got.frame_type == FrameType::Intra, intra, "{what}");
                        }
                        let (rmse_c, rmse_d) = stage.rmse(&canvases, &c, &d);
                        assert!(rmse_c.is_finite() && rmse_d.is_finite(), "{what}");
                    }
                    assert_eq!(culled_any, !frusta.is_empty(), "{what}: cull engaged");
                }
            }
        }
    }

    /// One delivered frame, as the transport's reassembly hands it over.
    fn delivered(stream: StreamId, frame_id: u64, out: &EncodedFrame) -> AssembledFrame {
        AssembledFrame {
            stream,
            frame_id,
            data: Bytes::from(out.data.clone()),
            keyframe: out.frame_type == FrameType::Intra,
            completed_at: 0,
            send_ts: 0,
        }
    }

    #[test]
    fn receiver_stage_is_total_on_tiny_frames_and_arbitrary_bytes() {
        use livo_codec2d::{Encoder, EncoderConfig, PixelFormat};
        use livo_math::rng::SplitMix64;
        let intra = |w: usize, h: usize, format: PixelFormat| {
            let mut frame = Frame::new(format, w, h);
            frame.planes[0].data.fill(format.peak_value());
            Encoder::new(EncoderConfig::new(w, h, format)).encode_fixed_qp(&frame, 20)
        };
        let mut rx = ReceiverStage::new();
        let trace = Arc::new(EventTrace::new(1 << 16));
        rx.attach_trace(trace.clone(), 1);
        let mut frame_id = 0;
        let mut ingest = |rx: &mut ReceiverStage, data: Vec<u8>, keyframe: bool| {
            let af = AssembledFrame {
                stream: [StreamId::Color, StreamId::Depth][frame_id as usize % 2],
                frame_id,
                data: Bytes::from(data),
                keyframe,
                completed_at: 0,
                send_ts: 0,
            };
            let outcome = rx.ingest(&[af], 0)[0].ingest;
            // The trace says what the lane did with the frame: one decode or
            // one decode_error per attempt, nothing for a skipped frame.
            let kinds: Vec<&str> = trace
                .snapshot()
                .iter()
                .filter(|e| e.frame_seq == frame_id)
                .map(|e| e.kind)
                .collect();
            let want: &[&str] = match outcome {
                Ingest::Decoded => &[kind::DECODE],
                Ingest::DecodeError => &[kind::DECODE_ERROR],
                Ingest::ChainBroken | Ingest::AwaitingKey => &[],
            };
            assert_eq!(kinds, want, "frame {frame_id}: {outcome:?}");
            frame_id += 1;
            outcome
        };
        // Well-formed keyframes too small for the 32-block strip: `read_seq`
        // reads the missing blocks as 0 bits, the lane counts an error.
        for (w, h) in [
            (8, 8),
            (1, 1),
            (7, 9),
            (40, 8),
            (32, 56),
            (248, 8),
            (8, 248),
        ] {
            for format in [PixelFormat::Y16, PixelFormat::Yuv420] {
                let out = intra(w, h, format);
                assert!(header_rows_for(w) > h, "{w}x{h} holds the strip");
                assert_eq!(
                    read_seq(&out.reconstruction.planes[0], format.peak_value()) >> 31,
                    (w >= 8 && h >= 8) as u32,
                    "{w}x{h}: bit 31 is the one block sure to be there"
                );
                assert_eq!(ingest(&mut rx, out.data, true), Ingest::DecodeError);
            }
        }
        // The smallest canvases that do hold it are frames like any other.
        for (w, h) in [(256, 8), (32, 64), (8, 256)] {
            let out = intra(w, h, PixelFormat::Y16);
            assert_eq!(ingest(&mut rx, out.data, true), Ingest::Decoded, "{w}x{h}");
        }
        // All-peak strips on both lanes: every bit reads 1.
        assert_eq!(rx.newest_pair().map(|p| p.0), Some(u32::MAX));
        // Arbitrary bytes, and a valid stream cut short or with bits flipped,
        // as keyframes and not: any outcome but a panic.
        let valid = intra(64, 48, PixelFormat::Yuv420).data;
        let mut rng = SplitMix64::new(0x5EC5);
        for len in 0..valid.len() {
            ingest(&mut rx, valid[..len].to_vec(), len % 2 == 0);
        }
        for round in 0..600 {
            let mut data = valid.clone();
            if round % 3 == 0 {
                data = (0..rng.gen_range(0..200usize)).map(|_| rng.gen()).collect();
                if let Some(b) = data.first_mut().filter(|_| round % 2 == 0) {
                    *b = valid[0];
                }
            } else {
                for _ in 0..rng.gen_range(1..6u32) {
                    let bit = rng.gen_range(0..data.len() * 8);
                    data[bit / 8] ^= 1 << (bit % 8);
                }
            }
            ingest(&mut rx, data, round % 5 != 0);
        }
    }

    #[test]
    fn receiver_stage_guards_decodes_and_pairs() {
        use Ingest::*;
        use StreamId::{Color, Control, Depth};
        let cameras = cameras();
        let layout = layout_of(&cameras);
        let clip = clip(&cameras);
        // A twelve-frame stream pair with intra frames at 0 and 6.
        let mut sender = SenderStage::new(layout, DepthEncoding::ScaledY16, 1);
        let (color, depth) = NOADAPT_QPS;
        let sent: Vec<(EncodedFrame, EncodedFrame)> = (0..FRAMES)
            .map(|seq| {
                if seq == KEY_AT {
                    sender.force_keyframe();
                }
                let canvases = sender.compose(&clip[seq as usize], seq);
                sender.encode(&canvases, Rate::FixedQp { color, depth }, seq as u64, 0)
            })
            .collect();
        let c = |id: u64| delivered(Color, id, &sent[id as usize].0);
        let d = |id: u64| delivered(Depth, id, &sent[id as usize].1);
        let mut garbage = c(9);
        garbage.data = Bytes::from(vec![0xB2, 0xFF, 0x00, 0x13, 0x37]);
        let control = AssembledFrame {
            stream: Control,
            ..c(0)
        };

        // (what, one tick's arrivals, the outcomes colour lane first, the
        // newest pair afterwards)
        type Case = (
            &'static str,
            Vec<AssembledFrame>,
            Vec<(&'static str, u64, Ingest)>,
            Option<u32>,
        );
        let cases: Vec<Case> = vec![
            ("nothing arrived", vec![], vec![], None),
            ("control is not media", vec![control], vec![], None),
            (
                "colour alone pairs with nothing",
                vec![c(0)],
                vec![("color", 0, Decoded)],
                None,
            ),
            (
                "depth catches up; lanes keep arrival order",
                vec![d(0), c(1), d(1), c(2)],
                vec![
                    ("color", 1, Decoded),
                    ("color", 2, Decoded),
                    ("depth", 0, Decoded),
                    ("depth", 1, Decoded),
                ],
                Some(1),
            ),
            (
                "colour two frames ahead of depth",
                vec![c(3), d(2), c(4)],
                vec![
                    ("color", 3, Decoded),
                    ("color", 4, Decoded),
                    ("depth", 2, Decoded),
                ],
                Some(2),
            ),
            (
                "a frame-id gap breaks the depth chain",
                vec![d(4)],
                vec![("depth", 4, ChainBroken)],
                Some(2),
            ),
            (
                "non-key frames are skipped until an intra",
                vec![d(5), c(5), d(6)],
                vec![
                    ("color", 5, Decoded),
                    ("depth", 5, AwaitingKey),
                    ("depth", 6, Decoded),
                ],
                Some(2),
            ),
            (
                "the window holds eight frames a stream",
                vec![c(6), c(7), c(8), d(7), d(8)],
                vec![
                    ("color", 6, Decoded),
                    ("color", 7, Decoded),
                    ("color", 8, Decoded),
                    ("depth", 7, Decoded),
                    ("depth", 8, Decoded),
                ],
                Some(8),
            ),
            (
                "a payload that fails to decode",
                vec![garbage, c(10), d(9)],
                vec![
                    ("color", 9, DecodeError),
                    ("color", 10, AwaitingKey),
                    ("depth", 9, Decoded),
                ],
                Some(8),
            ),
        ];
        let mut rx = ReceiverStage::new();
        for (what, arrivals, want, pair) in cases {
            let got: Vec<_> = rx
                .ingest(&arrivals, 0)
                .iter()
                .map(|o| {
                    // A frame that never reached the decoder cost no time.
                    let attempted = matches!(o.ingest, Decoded | DecodeError);
                    assert!(attempted || o.decode_ms == 0.0, "{what}: decode time");
                    assert!(
                        o.ingest != Decoded || o.decode_ms > 0.0,
                        "{what}: decode time"
                    );
                    let key = matches!(o.ingest, ChainBroken | DecodeError);
                    assert_eq!(o.ingest.wants_key(), key, "{what}");
                    (o.stream.name(), o.frame_id, o.ingest)
                })
                .collect();
            assert_eq!(got, want, "{what}");
            assert_eq!(rx.newest_pair().map(|p| p.0), pair, "{what}: newest pair");
        }
        // Frames are keyed by the sequence number read back from the canvas,
        // and what was decoded is what the sender reconstructed.
        let (seq, color, depth) = rx.newest_pair().expect("a pair");
        assert!(*color == sent[seq as usize].0.reconstruction);
        assert!(*depth == sent[seq as usize].1.reconstruction);
        // Colour decoded 0..=8: nine frames, the oldest evicted. Depth lost
        // 3 to 5, so all of its seven are still there.
        assert!(rx.color(0).is_none() && rx.color(1).is_some() && rx.color(8).is_some());
        assert!(rx.depth(0).is_some() && rx.depth(4).is_none() && rx.depth(9).is_some());
    }

    #[test]
    fn two_layer_lanes_lose_t1_freely_and_break_on_a_lost_t0() {
        use Ingest::*;
        use StreamId::{Color, Depth};
        let cameras = cameras();
        let clip = clip(&cameras);
        // Intras at 0, 6 and 11; T1 at every odd id between.
        let mut sender = SenderStage::new(layout_of(&cameras), DepthEncoding::ScaledY16, 2);
        let (color, depth) = NOADAPT_QPS;
        let sent: Vec<(EncodedFrame, EncodedFrame)> = (0..FRAMES)
            .map(|seq| {
                if seq == KEY_AT || seq == FRAMES - 1 {
                    sender.force_keyframe();
                }
                let canvases = sender.compose(&clip[seq as usize], seq);
                sender.encode(&canvases, Rate::FixedQp { color, depth }, seq as u64, 0)
            })
            .collect();
        let t1: Vec<u64> = (0..FRAMES as u64)
            .filter(|&i| sent[i as usize].0.temporal_id == 1)
            .collect();
        assert_eq!(t1, [1, 3, 5, 7, 9]);
        // Colour loses T1 1 and 5, then T0 8; depth gets the T0s alone.
        let colour = [0, 2, 3, 4, 6, 7, 9, 10, 11];
        let depth_ids = [0, 2, 4, 6, 8, 10, 11];
        let mut arrivals: Vec<AssembledFrame> = colour
            .iter()
            .map(|&i| delivered(Color, i, &sent[i as usize].0))
            .collect();
        arrivals.extend(
            depth_ids
                .iter()
                .map(|&i| delivered(Depth, i, &sent[i as usize].1)),
        );
        let mut rx = ReceiverStage::new();
        let got: Vec<_> = rx
            .ingest(&arrivals, 0)
            .iter()
            .map(|o| (o.stream.name(), o.frame_id, o.ingest))
            .collect();
        let mut want: Vec<_> = colour
            .iter()
            .map(|&i| {
                let ingest = match i {
                    9 => ChainBroken,
                    10 => AwaitingKey,
                    _ => Decoded,
                };
                ("color", i, ingest)
            })
            .collect();
        want.extend(depth_ids.iter().map(|&i| ("depth", i, Decoded)));
        assert_eq!(got, want);
        // What decoded is what the sender reconstructed, T1s included.
        for i in [3, 4, 7, 11] {
            assert!(
                *rx.color(i as u32).unwrap() == sent[i].0.reconstruction,
                "{i}"
            );
        }
        for i in depth_ids {
            assert!(*rx.depth(i as u32).unwrap() == sent[i as usize].1.reconstruction);
        }
    }

    /// The first 1 ms tick at or after `t`.
    fn on_grid(t: Micros) -> Micros {
        t.div_ceil(1_000) * 1_000
    }

    #[test]
    fn display_clock_decides_every_slot_once_at_its_first_tick() {
        // 10 000 slots (≈ 5.6 min) polled every 1 ms: slot s is decided at
        // the first tick at or after start + due(s), so the schedule does
        // not drift from the 30 fps clock and no slot is skipped or
        // decided twice.
        let mut clock = DisplayClock::new(100_000);
        assert_eq!(clock.next_due(), Micros::MAX, "no slot before a frame");
        clock.captured(0, 0);
        let start = 100_000 + due(3);
        assert_eq!(clock.next_due(), start);
        let mut decided = 0u64;
        let mut now = 0;
        while decided < 10_000 {
            if let Some((slot, _)) = clock.poll(now, || paired(slot_seq(now))) {
                assert_eq!(slot, decided, "slot {decided} skipped or repeated");
                assert_eq!(now, on_grid(start + due(slot)), "slot {slot}");
                decided += 1;
            }
            now += 1_000;
        }
        // The last slot sits exactly where the exact clock puts it.
        assert_eq!(now - 1_000, on_grid(start + due(9_999)));
    }

    /// A new sequence number at every tick, so every slot shows.
    fn slot_seq(now: Micros) -> u32 {
        (now / 1_000) as u32
    }

    /// Lanes that both hold `seq` and nothing newer.
    fn paired(seq: u32) -> Lanes {
        Lanes {
            pair: Some(seq),
            newest: Some(seq),
            awaiting_key: false,
        }
    }

    #[test]
    fn display_clock_stalls_on_a_repeated_seq_for_exactly_the_gap() {
        let mut clock = DisplayClock::new(100_000);
        clock.captured(0, 0);
        let start = 200_000;
        // Nothing decoded yet: the first slot stalls, counted from the start.
        let cause = StallCause::Startup;
        assert_eq!(
            clock.poll(start, Lanes::default),
            Some((0, Slot::Stalled { since_us: 0, cause }))
        );
        let t1 = on_grid(start + due(1));
        assert_eq!(
            clock.poll(t1, || paired(0)),
            Some((1, Slot::Shown { seq: 0, age_us: t1 }))
        );
        // The same pair again is no new frame: two stalls, each measured
        // from the slot that last showed one. Nothing newer was captured.
        let cause = StallCause::NotSent;
        for slot in [2, 3] {
            let t = on_grid(start + due(slot));
            let since_us = t - t1;
            assert_eq!(
                clock.poll(t, || paired(0)),
                Some((slot, Slot::Stalled { since_us, cause }))
            );
        }
        // Before the next slot's instant nothing is decided.
        let t4 = on_grid(start + due(4));
        assert_eq!(clock.poll(t4 - 1_000, || paired(1)), None);
    }

    #[test]
    fn display_clock_names_the_first_cause_that_holds() {
        use StallCause::*;
        // Frames 0..=5 and 7 handed over at their capture instants; 6 never
        // was (a T1 the SFU dropped). A frame is due on the display 200 ms
        // after its capture, and slot s falls due with frame s.
        let mut clock = DisplayClock::new(100_000);
        for f in (0..=5).chain([7]) {
            clock.captured(f, due(f as u64));
        }
        let lanes = |pair: u32, newest: u32, awaiting_key: bool| Lanes {
            pair: Some(pair),
            newest: Some(newest),
            awaiting_key,
        };
        let startup = Lanes {
            pair: None,
            ..lanes(0, 0, true)
        };
        // (slot's lanes, what it shows or the one cause of its stall); every
        // stall also matches each later check, so the order decides.
        let cases = [
            (startup, Err(Startup)),
            (lanes(1, 1, false), Ok(1)),
            (lanes(1, 3, true), Err(KeyframeWait)),
            (lanes(1, 3, false), Err(PairMiss)),
            (lanes(1, 1, false), Err(InTransport)),
            (lanes(5, 5, false), Ok(5)),
            (lanes(5, 7, true), Err(NotSent)),
            (lanes(5, 5, false), Err(InTransport)),
        ];
        for (slot, (held, want)) in (0..).zip(cases) {
            let now = on_grid(200_000 + due(slot));
            let got = match clock.poll(now, || held) {
                Some((s, Slot::Shown { seq, .. })) if s == slot => Ok(seq),
                Some((s, Slot::Stalled { cause, .. })) if s == slot => Err(cause),
                other => panic!("slot {slot}: {other:?}"),
            };
            assert_eq!(got, want, "slot {slot}");
        }
        // Showing 5 passed the frames before it; 6 never entered the clock.
        assert_eq!(clock.handed().collect::<Vec<_>>(), [5, 7]);
    }

    #[test]
    fn display_clock_ages_a_frame_from_its_capture() {
        // Frames captured on the exact schedule (first tick at or after
        // due(f)); the display shows each one three slots later. The age is
        // the gap to the frame's own capture tick, not to seq · 33 333 µs.
        let mut clock = DisplayClock::new(0);
        let mut now = 0;
        let mut f = 0u64;
        let mut shown = 0;
        while shown < 300 {
            if now >= due(f) {
                clock.captured(f as u32, now);
                f += 1;
            }
            let newest = || paired(f as u32 - 1);
            if let Some((_, slot)) = clock.poll(now, newest) {
                let Slot::Shown { seq, age_us } = slot else {
                    panic!("a new frame is captured every slot");
                };
                assert_eq!(age_us, now - on_grid(due(seq as u64)), "seq {seq}");
                shown += 1;
            }
            now += 1_000;
        }
    }
}
