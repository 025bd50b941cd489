//! Capture substrate: everything that stands in for the paper's physical
//! capture setup.
//!
//! The original LiVo evaluates on the CMU Panoptic dataset (10 Kinect v2
//! RGB-D cameras around a scene) plus IRB-collected headset traces and two
//! measured bandwidth traces. None of those inputs are available here, so
//! this crate synthesises equivalents that exercise the same code paths:
//!
//! - [`scene`]: analytic 3D scenes — animated articulated people
//!   (`people`), furniture, floors — with procedural surface colour.
//! - [`render`]: a ray-cast RGB-D renderer with a pinhole model, one ray
//!   per pixel, cast eight at a time;
//!   it produces exactly what an RGB-D camera produces (a depth image in
//!   millimetres plus a pixel-aligned colour image).
//! - [`rig`]: circular camera arrays matching the paper's capture rig.
//! - [`datasets`]: five scene presets mirroring Table 3 of the paper
//!   (`band2`, `dance5`, `office1`, `pizza1`, `toddler4`) with matching
//!   object counts, durations and motion character.
//! - [`usertrace`]: synthetic 6-DoF viewer traces (orbit / walk-in /
//!   inspect styles, with saccade-like rapid turns), three per video as in
//!   the paper's study.
//! - [`nettrace`]: bandwidth traces calibrated to Table 4's statistics
//!   (`trace-1` ≈ 217 Mbps home-WiFi-like, `trace-2` ≈ 89 Mbps mall-WiFi
//!   -like).

pub mod datasets;
pub mod nettrace;
mod people;
pub mod render;
pub mod rig;
pub mod scene;
pub mod usertrace;

pub use datasets::{DatasetPreset, VideoId};
pub use nettrace::{BandwidthTrace, TraceId};
pub use render::{render_rgbd, render_views_at, RgbdFrame};
pub use rig::camera_ring;
pub use scene::{Scene, SceneSnapshot};
pub use usertrace::UserTrace;

#[cfg(test)]
#[path = "../tests/common/oracle.rs"]
mod oracle;
