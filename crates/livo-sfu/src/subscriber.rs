//! Per-subscriber downlink state.
//!
//! Each subscriber owns the full two-party receive path of the paper —
//! an [`RtcSession`] (trace-driven link, GCC estimate, jitter buffer,
//! NACK/PLI), a Kalman frustum predictor fed with feedback-delayed poses,
//! and an RMSE-balancing bandwidth splitter — plus a decode stand-in for
//! the remote client so tests and examples can assert on what the
//! subscriber actually displays. What subscribers do *not* own is an
//! encoder: encoding happens per *cluster* in the [`crate::router`].

use livo_capture::BandwidthTrace;
use livo_codec2d::{Decoder, Frame};
use livo_core::frustum_pred::FrustumPredictor;
use livo_core::splitter::{BandwidthSplitter, SplitterConfig};
use livo_core::tile::read_seq;
use livo_math::{FrustumParams, Pose};
use livo_telemetry::trace::EventTrace;
use livo_telemetry::FrameTimeline;
use livo_transport::packet::AssembledFrame;
use livo_transport::{Micros, RtcSession, SessionConfig, StreamId};
use std::sync::Arc;

/// Configuration of one subscriber's downlink.
#[derive(Debug, Clone)]
pub struct SubscriberConfig {
    /// Display name, used as the telemetry prefix (`sfu.sub.<name>.…`).
    pub name: String,
    /// Transport parameters of the emulated downlink.
    pub session: SessionConfig,
    /// Frustum guard band ε in metres.
    pub guard_m: f32,
    /// Viewing-volume shape (FoV, aspect, near/far).
    pub frustum: FrustumParams,
    /// RMSE-balancing split configuration.
    pub splitter: SplitterConfig,
    /// Run the receiver-side decode stand-in for this subscriber.
    /// Disabling it (`false`) keeps the full transport simulation —
    /// packetisation, link, jitter buffer, NACK/PLI — but skips the
    /// decoders, which large-N benchmarks use to sample decode work on a
    /// subset of subscribers instead of paying it N times.
    pub standin: bool,
}

impl SubscriberConfig {
    /// LiVo defaults with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SubscriberConfig {
            name: name.into(),
            session: SessionConfig::default(),
            guard_m: 0.2,
            frustum: FrustumParams::default(),
            splitter: SplitterConfig::default(),
            standin: true,
        }
    }

    /// Disable the decode stand-in (see [`SubscriberConfig::standin`]).
    pub fn without_standin(mut self) -> Self {
        self.standin = false;
        self
    }
}

/// Forwarding counters for one subscriber.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubscriberStats {
    /// Frames forwarded on this downlink (colour+depth pairs).
    pub frames_forwarded: u64,
    /// Frames forwarded from the re-quantised low-rate variant.
    pub low_variant_frames: u64,
    /// Colour/depth frames the decode stand-in decoded successfully.
    pub frames_decoded: u64,
    /// Decode failures (broken P chain, corrupt payload).
    pub decode_failures: u64,
    /// Keyframe requests this subscriber escalated to its cluster.
    pub keyframes_requested: u64,
}

/// One subscriber: downlink session + predictor + splitter + decode
/// stand-in. Constructed by [`crate::router::Router::add_subscriber`].
pub struct Subscriber {
    pub(crate) name: String,
    pub(crate) session: RtcSession,
    pub(crate) predictor: FrustumPredictor,
    pub(crate) splitter: BandwidthSplitter,
    pub(crate) receiver: Option<ReceiverState>,
    pub(crate) stats: SubscriberStats,
    pub(crate) timeline: Arc<FrameTimeline>,
}

impl Subscriber {
    pub(crate) fn new(cfg: SubscriberConfig, trace: BandwidthTrace) -> Self {
        Subscriber {
            name: cfg.name,
            session: RtcSession::new(trace, cfg.session),
            predictor: FrustumPredictor::new(cfg.frustum, cfg.guard_m),
            splitter: BandwidthSplitter::new(cfg.splitter),
            receiver: cfg.standin.then(ReceiverState::new),
            stats: SubscriberStats::default(),
            timeline: Arc::new(FrameTimeline::new(2048)),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current GCC estimate of this downlink, bits/second.
    pub fn estimate_bps(&self) -> f64 {
        self.session.estimate_bps()
    }

    /// The emulated transport session (stats, estimator, link state).
    pub fn session(&self) -> &RtcSession {
        &self.session
    }

    /// The Kalman pose/frustum predictor for this subscriber.
    pub fn predictor(&self) -> &FrustumPredictor {
        &self.predictor
    }

    /// Feed a (feedback-delayed) head pose observation.
    pub fn observe_pose(&mut self, pose: &Pose) {
        self.predictor.observe(pose);
    }

    pub fn stats(&self) -> &SubscriberStats {
        &self.stats
    }

    /// Wire the causal event trace through this subscriber's downlink
    /// (SFU = party 1 sends, `party` receives) and decode stand-in.
    pub(crate) fn attach_trace(&mut self, trace: Arc<EventTrace>, party: u16) {
        self.session.attach_trace(trace.clone(), 1, party);
        if let Some(rx) = self.receiver.as_mut() {
            rx.attach_trace(trace, party);
        }
    }

    /// Per-subscriber frame timeline (encode/forward/transport stages in
    /// virtual session time).
    pub fn timeline(&self) -> &Arc<FrameTimeline> {
        &self.timeline
    }

    /// Decoded colour frame for `seq`, if still in the reorder window.
    /// Always `None` with the decode stand-in disabled.
    pub fn decoded_color(&self, seq: u32) -> Option<&Frame> {
        self.receiver.as_ref()?.window_color.get(&seq)
    }

    /// Decoded depth frame for `seq`, if still in the reorder window.
    /// Always `None` with the decode stand-in disabled.
    pub fn decoded_depth(&self, seq: u32) -> Option<&Frame> {
        self.receiver.as_ref()?.window_depth.get(&seq)
    }

    /// Newest sequence number decoded on *both* streams (displayable).
    /// Always `None` with the decode stand-in disabled.
    pub fn latest_synced_seq(&self) -> Option<u32> {
        let rx = self.receiver.as_ref()?;
        rx.window_color
            .keys()
            .rev()
            .find(|s| rx.window_depth.contains_key(s))
            .copied()
    }
}

/// Receiver-side decode stand-in: the per-stream decoders and reorder
/// windows a remote LiVo client would run, so the simulation can assert
/// on delivered (not just transmitted) frames. Mirrors the receive loop
/// of `livo_core::conference`.
pub(crate) struct ReceiverState {
    color_dec: Decoder,
    depth_dec: Decoder,
    pub(crate) window_color: std::collections::BTreeMap<u32, Frame>,
    pub(crate) window_depth: std::collections::BTreeMap<u32, Frame>,
    expected_frame: [u64; 2],
    need_key: [bool; 2],
    tracing: bool,
}

/// Bound of the per-stream reorder windows, in frames.
const WINDOW: usize = 8;

impl ReceiverState {
    fn new() -> Self {
        // Frames entropy-decode slice-parallel on the
        // process-wide pool; with LIVO_THREADS=1 this is a plain serial
        // decode and the output is identical.
        let pool = livo_runtime::global();
        let mut color_dec = Decoder::new();
        let mut depth_dec = Decoder::new();
        color_dec.set_worker_pool(pool.clone());
        depth_dec.set_worker_pool(pool.clone());
        ReceiverState {
            color_dec,
            depth_dec,
            window_color: Default::default(),
            window_depth: Default::default(),
            expected_frame: [0, 0],
            need_key: [false, false],
            tracing: false,
        }
    }

    /// Record this stand-in's decodes as `party` on the event trace.
    pub(crate) fn attach_trace(&mut self, trace: Arc<EventTrace>, party: u16) {
        self.color_dec
            .attach_trace(trace.clone(), party, "codec.color");
        self.depth_dec.attach_trace(trace, party, "codec.depth");
        self.tracing = true;
    }

    /// Ingest one assembled frame from the downlink. Returns `true` when
    /// the receiver needs a keyframe to resynchronise (frame-id gap broke
    /// the P chain, or the payload failed to decode) — the router fans
    /// this into the subscriber's cluster.
    pub(crate) fn ingest(
        &mut self,
        af: &AssembledFrame,
        stats: &mut SubscriberStats,
        now: Micros,
    ) -> bool {
        let (sidx, dec, window) = match af.stream {
            StreamId::Color => (0usize, &mut self.color_dec, &mut self.window_color),
            StreamId::Depth => (1usize, &mut self.depth_dec, &mut self.window_depth),
            StreamId::Control => return false,
        };
        // A frame-id gap breaks the P chain: drop until an intra arrives.
        if af.frame_id != self.expected_frame[sidx] && !af.keyframe {
            dec.reset();
            self.need_key[sidx] = true;
            self.expected_frame[sidx] = af.frame_id + 1;
            stats.keyframes_requested += 1;
            return true;
        }
        if self.need_key[sidx] && !af.keyframe {
            self.expected_frame[sidx] = af.frame_id + 1;
            return false;
        }
        self.expected_frame[sidx] = af.frame_id + 1;
        self.need_key[sidx] = false;
        if self.tracing {
            dec.set_trace_frame(af.frame_id, now);
        }
        match dec.decode(&af.data) {
            Ok(frame) => {
                let peak = frame.format.peak_value();
                let seq = read_seq(&frame.planes[0], peak);
                window.insert(seq, frame);
                while window.len() > WINDOW {
                    let oldest = *window.keys().next().unwrap();
                    window.remove(&oldest);
                }
                stats.frames_decoded += 1;
                false
            }
            Err(_) => {
                dec.reset();
                self.need_key[sidx] = true;
                stats.decode_failures += 1;
                stats.keyframes_requested += 1;
                // One warning per second, not one per broken P frame.
                livo_telemetry::log::warn_limited(
                    "sfu.decode",
                    1_000,
                    "sfu",
                    "subscriber decode failed, requesting keyframe",
                    &[
                        ("frame", af.frame_id.into()),
                        (
                            "stream",
                            if af.stream == StreamId::Color {
                                "color"
                            } else {
                                "depth"
                            }
                            .into(),
                        ),
                    ],
                );
                true
            }
        }
    }
}
