//! Selective-forwarding fan-out for multiparty LiVo conferences.
//!
//! A two-party LiVo call runs one sender pipeline per receiver: the sender
//! culls against *that* receiver's predicted frustum and encodes at *that*
//! receiver's estimated downlink rate. Scaling the same design to N
//! receivers multiplies the most expensive stages — cull and 2D encode —
//! by N, even though co-watching viewers typically look at the same part
//! of the scene from nearby poses.
//!
//! This crate adds the missing middle box: a selective forwarding unit
//! (SFU) that sits between one capture pipeline and N subscribers.
//!
//! - [`cluster`]: groups subscribers whose *predicted* viewing frusta
//!   mutually overlap (volume-sampled coverage, [`livo_math::Frustum::coverage_of`]).
//! - [`subscriber`]: per-subscriber downlink state — an own
//!   [`livo_transport::RtcSession`] (trace-driven link + GCC), an own
//!   Kalman frustum predictor, an own RMSE-balancing bandwidth split, and
//!   a receiver-side decode stand-in used by tests and examples.
//! - [`router`]: the SFU proper. One **union cull + tile + encode pass per
//!   cluster** (not per subscriber), encoded at the *fastest* member's
//!   estimated rate. PLIs from any member — its decode stand-in's
//!   keyframe requests too, sent up its own downlink — fan in to the
//!   cluster's intra guard (at most one shared intra per RTT); NACK
//!   recovery stays per-downlink inside each session. The hot path is sharded on a
//!   [`livo_runtime::WorkerPool`]: cluster passes run in parallel, and the
//!   per-subscriber packetise/send fan-out runs on contiguous subscriber
//!   shards.
//!
//! Routers are built with the validating [`Router::builder`]; lifecycle
//! calls return typed [`SubscriberId`] handles and [`RouterError`]s, and
//! membership churn (join/leave/regroup) surfaces as [`RouterEvent`]s on
//! every [`RouteSummary`].
//!
//! Everything runs in virtual time ([`livo_transport::Micros`]) and is
//! deterministic for a given configuration; with `LIVO_THREADS=1` the
//! forwarded streams are bit-exact with any other pool size.

pub mod cluster;
pub mod router;
pub mod subscriber;

pub use cluster::{cluster_views, mutual_coverage, ClusterParams, ViewVolume};
pub use router::{
    subscriber_party, ClusterOutput, RouteSummary, Router, RouterBuilder, RouterConfig,
    RouterError, RouterEvent, SubscriberId,
};
pub use subscriber::{Subscriber, SubscriberConfig, SubscriberStats};
