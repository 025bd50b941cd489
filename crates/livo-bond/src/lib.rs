//! Bonded multi-link transport: WiFi + cellular (+ ethernet) carrying one
//! immersive call.
//!
//! LiVo's bandwidth adaptation assumes a single access link, but real
//! clients hold several radios at once — and the trace-driven capacity
//! minima where the paper's pipeline degrades are exactly where a second
//! link saves the call. This crate bonds several emulated paths into one
//! session:
//!
//! - `scenario`: a declarative topology/impairment harness. A
//!   [`BondScenario`] names each link and gives it a bandwidth trace,
//!   propagation delay, i.i.d. and/or Gilbert–Elliott burst loss, and a
//!   timeline of mid-run events (down/up/kill, RTT jumps) — "car leaves
//!   WiFi onto LTE" is the one-liner [`BondScenario::wifi_to_lte`].
//! - `session`: [`BondConfig`], which maps a scenario onto the legs of
//!   a [`livo_transport::RtcSession`]. The session itself — one
//!   `GccEstimator` per leg, the stateless per-packet scheduler, a
//!   *shared* reassembly/jitter/NACK receiver, failover invisible to
//!   everything downstream — is the same type a single-link call uses;
//!   a single-link call is its one-leg case.
//!
//! Its drivers are the bonded-transport sweep (`repro --gate bond`) and
//! the whole-call benchmark's bonded workload; the conference runner
//! itself runs on one link and does not depend on this crate.
//!
//! Everything stays in virtual microseconds and seeded RNG — bonded runs
//! are bit-reproducible, which this crate's failover tests pin.

mod scenario;
mod session;

pub use livo_transport::{LinkAction, LinkEvent};
pub use scenario::{BondScenario, LinkScenario};
pub use session::{BondConfig, BondedSession};
