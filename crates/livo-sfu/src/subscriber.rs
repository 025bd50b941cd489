//! Per-subscriber downlink state.
//!
//! Each subscriber owns the full two-party receive path of the paper —
//! an [`RtcSession`] (trace-driven link, GCC estimate, jitter buffer,
//! NACK/PLI), a Kalman frustum predictor fed with feedback-delayed poses,
//! and an RMSE-balancing bandwidth splitter — plus a stand-in for the
//! remote client: its decode lanes and its [`DisplayClock`], which counts
//! the display slots the subscriber shows, and stalls by cause. What subscribers do
//! *not* own is an encoder: encoding happens per *cluster* in the
//! [`crate::router`].

use livo_capture::BandwidthTrace;
use livo_codec2d::Frame;
use livo_core::frustum_pred::FrustumPredictor;
use livo_core::splitter::{BandwidthSplitter, SplitterConfig};
use livo_core::stage::{DisplayClock, Ingest, ReceiverStage, Slot, StallCause, FPS, GUARD_BAND_M};
use livo_math::FrustumParams;
use livo_runtime::WorkerPool;
use livo_telemetry::trace::EventTrace;
use livo_telemetry::Counter;
use livo_transport::{Micros, RtcSession, SessionConfig};
use std::sync::Arc;

/// Configuration of one subscriber's downlink.
#[derive(Debug, Clone)]
pub struct SubscriberConfig {
    /// Display name, used as the telemetry prefix (`sfu.sub.<name>.…`).
    pub name: String,
    /// Transport parameters of the emulated downlink.
    pub session: SessionConfig,
    /// Run the receiver-side stand-in (decode and display clock) for this
    /// subscriber. Disabling it (`false`) keeps the full transport
    /// simulation — packetisation, link, jitter buffer, NACK/PLI — but
    /// skips the decoders, which large-N benchmarks use to sample decode
    /// work on a subset of subscribers instead of paying it N times.
    pub standin: bool,
}

impl SubscriberConfig {
    /// LiVo defaults with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SubscriberConfig {
            name: name.into(),
            session: SessionConfig::default(),
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriberStats {
    /// Frames forwarded on this downlink (colour+depth pairs).
    pub frames_forwarded: u64,
    /// Colour/depth frames the decode stand-in decoded successfully.
    pub frames_decoded: u64,
    /// Decode failures (broken P chain, corrupt payload).
    pub decode_failures: u64,
    /// Display slots that showed a new colour+depth pair (stand-in only).
    pub slots_shown: u64,
    /// Display slots with nothing new to show, one count per cause, indexed
    /// by `StallCause as usize` (stand-in only).
    pub stalled: [u64; StallCause::ALL.len()],
}

impl SubscriberStats {
    /// Display slots with nothing new to show, whatever the cause.
    pub fn slots_stalled(&self) -> u64 {
        self.stalled.iter().sum()
    }
}

/// Share of a T0 period's estimate that must cover a T1 (with what the
/// pacer holds) before a downlink dropping T1 takes them again: the
/// hysteresis that keeps a link near the edge from flapping.
const T1_RESUME: f64 = 0.7;

/// The remote client's stand-in: its decode lanes and its display slots,
/// from the first routed frame on (a shown frame's age counts from its
/// route).
pub(crate) struct StandIn {
    rx: ReceiverStage,
    pub(crate) clock: DisplayClock,
}

/// One subscriber: downlink session + predictor + splitter + decode and
/// display stand-in. Constructed by
/// [`crate::router::Router::add_subscriber`].
pub struct Subscriber {
    pub(crate) name: String,
    pub(crate) session: RtcSession,
    pub(crate) predictor: FrustumPredictor,
    pub(crate) splitter: BandwidthSplitter,
    pub(crate) standin: Option<StandIn>,
    pub(crate) stats: SubscriberStats,
    /// Whether the downlink takes T1 frames now.
    takes_t1: bool,
    /// `sfu.sub.<name>.t1_dropped`.
    pub(crate) t1_dropped: Arc<Counter>,
}

impl Subscriber {
    /// `pool` is the router's: the decode stand-in runs on it.
    pub(crate) fn new(
        cfg: SubscriberConfig,
        trace: BandwidthTrace,
        pool: &Arc<WorkerPool>,
    ) -> Self {
        let standin = cfg.standin.then(|| {
            let mut rx = ReceiverStage::new();
            rx.set_worker_pool(pool.clone());
            let clock = DisplayClock::new(cfg.session.jitter_target);
            StandIn { rx, clock }
        });
        Subscriber {
            name: cfg.name,
            session: RtcSession::new(trace, cfg.session),
            predictor: FrustumPredictor::new(FrustumParams::default(), GUARD_BAND_M),
            splitter: BandwidthSplitter::new(SplitterConfig::default()),
            standin,
            stats: SubscriberStats::default(),
            takes_t1: true,
            t1_dropped: Arc::new(Counter::new()),
        }
    }

    /// Whether this downlink takes a T1 of `bits`: its GCC estimate over
    /// one T0 period (two frame intervals) must cover the T1 on top of what
    /// its pacer still holds, with [`T1_RESUME`] hysteresis once it has
    /// been dropping. A T0 always goes: the T0s alone decode at half rate.
    pub(crate) fn takes_t1(&mut self, bits: u64) -> bool {
        let budget = 2.0 * self.session.estimate_bps() / FPS as f64;
        let need = (self.session.queued_bits() + bits) as f64;
        self.takes_t1 = need <= budget * if self.takes_t1 { 1.0 } else { T1_RESUME };
        self.takes_t1
    }

    /// Take what the downlink delivered this tick and run it through the
    /// decode stand-in. When the stand-in needs a keyframe to resynchronise
    /// (the reference a frame predicts from never arrived, or a payload
    /// failed to decode) it asks over its own downlink's feedback path, as
    /// any PLI does; the router fans the arriving PLI into the subscriber's
    /// cluster. A T1 the router dropped breaks nothing.
    pub(crate) fn ingest_arrivals(&mut self, now: Micros) {
        let arrived = self.session.recv_frames();
        let Some(standin) = self.standin.as_mut() else {
            return;
        };
        for o in standin.rx.ingest(&arrived, now) {
            match o.ingest {
                Ingest::Decoded => self.stats.frames_decoded += 1,
                Ingest::DecodeError => {
                    self.stats.decode_failures += 1;
                    // One warning per second, not one per broken P frame.
                    livo_telemetry::log::warn_limited(
                        "sfu.decode",
                        1_000,
                        "sfu",
                        "subscriber decode failed, requesting keyframe",
                        &[
                            ("frame", o.frame_id.into()),
                            ("stream", o.stream.name().into()),
                        ],
                    );
                }
                Ingest::ChainBroken | Ingest::AwaitingKey => {}
            }
            if o.ingest.wants_key() {
                self.session.request_keyframe(now, o.stream, o.frame_id);
            }
        }
    }

    /// Count the stand-in's display slot due at `now`, if any, as shown or
    /// as stalled for its cause.
    pub(crate) fn display(&mut self, now: Micros) {
        let Some(StandIn { rx, clock }) = self.standin.as_mut() else {
            return;
        };
        match clock.poll(now, || rx.lanes()) {
            Some((_, Slot::Shown { .. })) => self.stats.slots_shown += 1,
            Some((_, Slot::Stalled { cause, .. })) => self.stats.stalled[cause as usize] += 1,
            None => {}
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

    pub fn stats(&self) -> &SubscriberStats {
        &self.stats
    }

    /// Wire the causal event trace through this subscriber's downlink
    /// (SFU = party 1 sends, `party` receives) and stand-in, whose display
    /// slots record `display` / `stall` events as `party`.
    pub(crate) fn attach_trace(&mut self, trace: Arc<EventTrace>, party: u16) {
        self.session.attach_trace(trace.clone(), 1, party);
        if let Some(StandIn { rx, clock }) = self.standin.as_mut() {
            rx.attach_trace(trace.clone(), party);
            clock.attach_trace(trace, party);
        }
    }

    /// Decoded colour frame for `seq`, if still in the reorder window.
    /// Always `None` with the decode stand-in disabled.
    pub fn decoded_color(&self, seq: u32) -> Option<&Frame> {
        self.standin.as_ref()?.rx.color(seq)
    }

    /// Decoded depth frame for `seq`, if still in the reorder window.
    /// Always `None` with the decode stand-in disabled.
    pub fn decoded_depth(&self, seq: u32) -> Option<&Frame> {
        self.standin.as_ref()?.rx.depth(seq)
    }

    /// Newest sequence number decoded on *both* streams (displayable).
    /// Always `None` with the decode stand-in disabled.
    pub fn latest_synced_seq(&self) -> Option<u32> {
        let (seq, ..) = self.standin.as_ref()?.rx.newest_pair()?;
        Some(seq)
    }
}
