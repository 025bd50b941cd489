//! Geometry and estimation substrate for the LiVo volumetric-video stack.
//!
//! This crate provides the math LiVo's pipeline is built on:
//!
//! - [`Vec3`], [`Mat3`], [`Mat4`], [`Quat`]: small fixed-size linear algebra,
//!   the subset of Eigen the original C++ implementation used.
//! - [`Pose`]: a 6-DoF rigid transform (position + orientation) used both for
//!   camera extrinsics and for headset poses in user traces.
//! - [`CameraIntrinsics`] / [`RgbdCamera`]: the pinhole model used to
//!   back-project RGB-D pixels into 3D and to build per-camera frusta.
//! - [`Plane`] / [`Frustum`]: the six-plane truncated pyramid used by LiVo's
//!   view culling (§3.4 of the paper).
//! - [`kalman`]: a small dense-matrix Kalman filter plus the 6-DoF
//!   constant-velocity pose predictor LiVo uses for frustum prediction.
//! - [`rng`]: the workspace's seeded generator, [`rng::SplitMix64`], and the
//!   seeded-case runner its property tests use.
//!
//! All scene-space quantities are in **metres**; depth images elsewhere in the
//! workspace use millimetres (matching Kinect-class sensors) and convert at
//! the boundary.

pub mod angles;
pub mod camera;
pub mod frustum;
pub mod kalman;
pub mod mat;
pub mod plane;
pub mod pose;
pub mod quat;
pub mod raytable;
pub mod rng;
pub mod simd;
pub mod vec3;

pub use camera::{CameraIntrinsics, RgbdCamera};
pub use frustum::{Frustum, FrustumParams};
pub use kalman::{KalmanFilter, PosePredictor};
pub use mat::{Mat3, Mat4};
pub use plane::Plane;
pub use pose::Pose;
pub use quat::Quat;
pub use raytable::RayTable;
pub use vec3::Vec3;
