//! LiVo: bandwidth-adaptive full-scene volumetric video conferencing.
//!
//! This crate implements the paper's contribution proper, on top of the
//! substrate crates:
//!
//! - [`tile`]: **stream composition** (§3.2) — the `N` per-camera colour
//!   and depth images are tiled into *two* fixed-layout canvas streams so
//!   two hardware encoders suffice and inter-frame prediction sees
//!   stationary content; a header strip carries the frame sequence number
//!   (the paper's QR code) for receiver-side stream synchronisation.
//! - [`depth`]: **depth encoding** (§3.2) — 16-bit millimetre depth scaled
//!   to fill the full 16-bit range before Y16 video encoding, plus the
//!   RGB-packed and unscaled baselines of Fig. 17.
//! - [`splitter`]: **bandwidth splitting** (§3.3) — the multi-dimensional
//!   line search that walks the depth/colour bandwidth split `s` until
//!   sender-measured depth and colour RMSE balance.
//! - [`frustum_pred`]: **frustum prediction** (§3.4) — Kalman-filtered
//!   6-DoF pose prediction at the one-way-delay horizon, with a guard band.
//! - [`cull`]: **RGB-D view culling** (§3.4) — per-pixel frustum tests in
//!   each camera's local frame, *without* reconstructing a point cloud.
//! - [`reconstruct`]: receiver-side point-cloud reconstruction from the
//!   decoded tiles, with voxelisation and final-frustum culling (§A.1).
//! - [`stage`]: the two halves of a call (§A.1), each defined once —
//!   `SenderStage` (cull → tile → encode) and `ReceiverStage` (P-chain
//!   guard → decode → colour/depth pairing). The conference loop below and
//!   the SFU's cluster pass and decode stand-in all drive these.
//! - [`conference`]: the end-to-end sender→receiver loop over the real
//!   transport — the object the evaluation harness and the examples run —
//!   on an exact 30 fps virtual clock, with per-stage latency accounting
//!   (Table 6). Flags reproduce the paper's ablations (LiVo-NoCull,
//!   LiVo-NoAdapt).

pub mod conference;
pub mod cull;
pub mod depth;
pub mod frustum_pred;
pub mod reconstruct;
pub mod splitter;
pub mod stage;
pub mod tile;

pub use conference::{
    ConferenceConfig, ConferenceConfigBuilder, ConferenceRunner, FrameRecord, InvalidConfig,
    RunSummary,
};
pub use cull::{cull_views, CullContext, CullStats};
pub use depth::{DepthCodec, DepthEncoding};
pub use frustum_pred::FrustumPredictor;
pub use reconstruct::reconstruct_point_cloud;
pub use splitter::BandwidthSplitter;
pub use stage::{ReceiverStage, SenderStage};
pub use tile::TileLayout;
