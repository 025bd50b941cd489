//! Point-cloud substrate for the LiVo volumetric-video stack.
//!
//! A volumetric video frame is a *point cloud*: a set of 3D positions
//! (geometry) with per-point colour. This crate provides:
//!
//! - [`PointCloud`] / [`Point`]: the frame representation produced by fusing
//!   an RGB-D camera array and consumed by rendering and quality metrics.
//! - `voxel`: voxel-grid downsampling (the receiver voxelises before
//!   rendering, §A.1 of the paper) and a voxel-hash spatial index for
//!   nearest-neighbour queries.
//! - `normals`: PCA normal + curvature estimation, inputs to PointSSIM's
//!   feature space.
//! - `metrics`: point-to-point geometry error (RMSE).
//! - [`pssim()`](pssim::pssim): a reimplementation of PointSSIM (Alexiou & Ebrahimi, 2020),
//!   the paper's objective quality metric: 0–100, separate geometry and
//!   colour scores, "high 80s or above are generally considered good".

mod metrics;
mod normals;
mod point;
mod pssim;
mod voxel;

pub use metrics::p2p_rmse;
pub use point::{Point, PointCloud};
pub use pssim::{pssim, PssimConfig, PssimScore};
pub use voxel::{VoxelGrid, VoxelIndex};
