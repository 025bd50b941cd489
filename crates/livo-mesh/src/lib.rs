//! Triangle-mesh substrate.
//!
//! MeshReduce — the paper's head-to-head baseline — represents each frame as
//! a textured mesh instead of a point cloud. This crate provides the mesh
//! machinery its reimplementation needs:
//!
//! - [`Mesh`]: indexed triangles with per-vertex colour.
//! - `triangulate`: depth-image → mesh (grid triangulation with a depth-
//!   discontinuity threshold, the standard RGB-D meshing approach).
//! - [`decimate()`](decimate::decimate): vertex-clustering decimation to a target triangle
//!   budget — MeshReduce "decimates the mesh more to fit the lower
//!   bandwidth" (§4.4 of the paper).
//! - [`sample_points`]: area-weighted surface sampling, needed because
//!   "PSSIM is not defined for meshes, so we sample as many points from the
//!   rendered mesh as there are in the ground-truth point cloud" (§4.1).

mod decimate;
mod mesh;
mod sample;
mod triangulate;

pub use decimate::decimate;
pub use mesh::{Mesh, Vertex};
pub use sample::sample_points;
pub use triangulate::triangulate_depth;
