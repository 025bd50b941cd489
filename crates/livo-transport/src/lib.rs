//! Real-time transport substrate: the WebRTC-shaped machinery LiVo runs on.
//!
//! The paper transmits its two tiled video streams over WebRTC with Google
//! congestion control (GCC), a 100 ms jitter buffer, NACK/PLI/FIR loss
//! recovery, and replays bandwidth traces through Mahimahi. This crate
//! reimplements that stack as a deterministic discrete-time simulation:
//!
//! - [`packet`]: RTP-like packetisation and the per-stream receive buffer
//!   (frame reassembly and playout at a fixed target, the paper's 100 ms).
//! - [`gcc`]: a delay-gradient + loss bandwidth estimator in the GCC
//!   family (trendline filter, overuse detector, AIMD rate control).
//! - [`link`]: a trace-driven bottleneck link (token service at the trace
//!   capacity, drop-tail queue, propagation delay, optional random loss) —
//!   the Mahimahi stand-in.
//! - [`nack`]: receiver-side gap detection with retransmission requests.
//! - [`scheduler`]: stateless per-packet choice among a session's legs
//!   (per-leg GCC estimate + RTT + backlog + loss memory).
//! - [`session`]: wires the above into a sender→receiver pipe over one or
//!   more bonded legs with paced sending and delayed feedback, the object
//!   the LiVo pipeline talks to. A keyframe request (PLI) takes one path:
//!   [`RtcSession::request_keyframe`] on the receiver, delivered one
//!   feedback delay later by [`RtcSession::take_pli`] on the sender.
//!
//! All timestamps are virtual microseconds ([`Micros`]); nothing here reads
//! a real clock, so every experiment is reproducible.

pub mod gcc;
pub mod link;
pub mod nack;
pub mod packet;
pub mod scheduler;
pub mod session;

pub use gcc::{GccEstimator, GccState};
pub use link::{
    Delivery, GilbertElliott, LinkAction, LinkConfig, LinkEmulator, LinkEvent, LinkStats,
};
pub use packet::{AssembledFrame, FrameBuffer, Packet, Packetizer, StreamId};
pub use session::{LegConfig, LinkReport, RtcSession, SessionConfig, SessionStats};

/// Virtual time in microseconds since session start.
pub type Micros = u64;

/// Milliseconds → [`Micros`].
pub const fn ms(v: u64) -> Micros {
    v * 1_000
}

/// Seconds (f64) → [`Micros`].
pub fn secs(v: f64) -> Micros {
    (v * 1e6).round() as Micros
}

/// Mbps → bits per second.
pub fn mbps(v: f64) -> f64 {
    v * 1e6
}
