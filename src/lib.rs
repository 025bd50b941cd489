//! # LiVo — bandwidth-adaptive fully-immersive volumetric video conferencing
//!
//! A from-scratch Rust reproduction of *"LiVo: Toward Bandwidth-adaptive
//! Fully-Immersive Volumetric Video Conferencing"* (CoNEXT 2025): full-scene
//! volumetric video between two sites at 30 fps, built by maximally reusing
//! 2D-video machinery — tiled stream composition, 16-bit scaled depth in a
//! Y16 video stream, direct rate adaptation with adaptive depth/colour
//! bandwidth splitting, and Kalman-predicted frustum culling of the RGB-D
//! views before encoding.
//!
//! This crate is the facade: it re-exports the workspace's crates under one
//! namespace and hosts the runnable examples and cross-crate integration
//! tests. The pieces:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`runtime`] | `livo-runtime` | scoped worker pool for the hot path |
//! | [`math`] | `livo-math` | vectors, poses, cameras, frusta, Kalman |
//! | [`pointcloud`] | `livo-pointcloud` | clouds, voxel grids, PointSSIM |
//! | [`capture`] | `livo-capture` | scenes, RGB-D rendering, rigs, traces |
//! | [`codec2d`] | `livo-codec2d` | rate-adaptive block video codec |
//! | [`codec3d`] | `livo-codec3d` | octree point-cloud codec (Draco-like) |
//! | [`mesh`] | `livo-mesh` | meshing, decimation, surface sampling |
//! | [`transport`] | `livo-transport` | GCC, jitter buffer, NACK/PLI, link |
//! | [`bond`] | `livo-bond` | bonded multi-link transport, impairment scenarios |
//! | [`core`] | `livo-core` | tiling, depth, splitter, culling, sender/receiver stages, call loop |
//! | [`sfu`] | `livo-sfu` | selective forwarding, frustum-clustered encode sharing |
//! | [`baselines`] | `livo-baselines` | Draco-Oracle, MeshReduce |
//! | [`eval`] | `livo-eval` | experiment grid, QoE model, reports |
//! | [`telemetry`] | `livo-telemetry` | metrics, spans, per-frame event trace, logging |
//!
//! ## Quick start
//!
//! ```
//! use livo::prelude::*;
//!
//! // A 2-second LiVo call on the 'toddler4' preset over trace-2.
//! let cfg = ConferenceConfig::builder(VideoId::Toddler4)
//!     .camera_scale(0.08) // keep the doctest fast
//!     .n_cameras(4)
//!     .duration_s(2.0)
//!     .build()
//!     .expect("valid config");
//! let trace = BandwidthTrace::generate(TraceId::Trace2, 8.0, 1);
//! let summary = ConferenceRunner::new(cfg).run(trace);
//! assert!(summary.mean_fps > 10.0);
//! ```

pub use livo_baselines as baselines;
pub use livo_bond as bond;
pub use livo_capture as capture;
pub use livo_codec2d as codec2d;
pub use livo_codec3d as codec3d;
pub use livo_core as core;
pub use livo_eval as eval;
pub use livo_math as math;
pub use livo_mesh as mesh;
pub use livo_pointcloud as pointcloud;
pub use livo_runtime as runtime;
pub use livo_sfu as sfu;
pub use livo_telemetry as telemetry;
pub use livo_transport as transport;

/// The types most applications need.
pub mod prelude {
    pub use livo_baselines::{DracoOracle, DracoOracleConfig, MeshReduce, MeshReduceConfig};
    pub use livo_bond::{BondConfig, BondScenario, BondedSession, LinkScenario};
    pub use livo_capture::{BandwidthTrace, DatasetPreset, TraceId, UserTrace, VideoId};
    pub use livo_codec2d::{Decoder, Encoder, EncoderConfig, Frame, PixelFormat};
    pub use livo_core::conference::{
        ConferenceConfig, ConferenceConfigBuilder, ConferenceRunner, InvalidConfig, RunSummary,
    };
    pub use livo_core::depth::{DepthCodec, DepthEncoding};
    pub use livo_core::splitter::{BandwidthSplitter, SplitterConfig};
    pub use livo_core::stage::{ReceiverStage, SenderStage};
    pub use livo_core::tile::TileLayout;
    pub use livo_math::{Frustum, FrustumParams, Pose, Quat, Vec3};
    pub use livo_pointcloud::{pssim, Point, PointCloud, PssimConfig};
    pub use livo_sfu::{
        Router, RouterBuilder, RouterConfig, RouterError, RouterEvent, SubscriberConfig,
        SubscriberId,
    };
    pub use livo_telemetry::{FramePath, Level, MetricsRegistry, RegistrySnapshot, TraceQuery};
    pub use livo_transport::{RtcSession, SessionConfig, StreamId};
}
