//! An octree point-cloud codec ("Draco-like").
//!
//! This crate is the stand-in for Google Draco in the paper's baselines: a
//! direct 3D compressor with the same two knobs Draco exposes —
//!
//! - a **quantisation parameter** (bits per position axis, [`QuantBits`]),
//!   which controls geometric fidelity, and
//! - a **compression level** (0–9), which trades encoding speed for
//!   bitstream size (higher levels use adaptive entropy contexts, lower
//!   levels raw bits),
//!
//! and crucially the same *missing* knob: there is **no target bitrate** —
//! exactly the gap that motivates LiVo's use of rate-adaptive 2D codecs
//! (§1 of the paper). The Draco-Oracle baseline (in `livo-baselines`) gets
//! around this the way MeshReduce does: by profiling offline, with
//! [`profile::RateProfile`].
//!
//! Geometry is coded as breadth-first octree occupancy over Morton-sorted
//! quantised cells; colours are delta-coded in Morton order. The encode
//! *time model* (`timing`) is calibrated to the paper's measurements
//! (~25 ms for a 1 MB cloud, ~300 ms for a 10 MB full-scene frame on their
//! testbed) so Draco-Oracle's stall accounting reproduces the published
//! behaviour rather than this machine's.

mod codec;
mod profile;
mod timing;

pub use codec::{DracoDecoder, DracoEncoder, DracoParams, EncodedCloud, QuantBits};
pub use profile::{ProfileEntry, RateProfile};
