//! MeshReduce: mesh-based full-scene live streaming with indirect
//! adaptation.
//!
//! §4.1 of the paper: "the sender captures RGB-D frames, reconstructs a
//! per-frame mesh, encodes the geometry and colour separately, and
//! transmits over 2 TCP socket connections. It compresses mesh geometry
//! using Draco and mesh texture using H.264. It employs *indirect*
//! bandwidth adaptation: using a profile obtained from offline analysis, it
//! determines the best compression parameters based on the *average*
//! bandwidth availability in a trace."
//!
//! Consequences the paper reports and this reimplementation reproduces:
//! no stalls (reliable transport) but a variable, low frame rate (each
//! frame occupies the link for size/capacity seconds; ~12 fps); and
//! conservative utilisation because profiling against the *average*
//! leaves headroom unused whenever the trace swings (Table 1).

use crate::BaselineSummary;
use livo_capture::{datasets::DatasetPreset, render::render_rgbd_at, rig, BandwidthTrace, VideoId};
use livo_codec3d::{DracoDecoder, DracoEncoder, DracoParams};
use livo_core::stage::{PSSIM_RECIPE, RENDER_VOXEL_M};
use livo_mesh::{decimate, sample_points, triangulate_depth, Mesh};
use livo_pointcloud::{pssim, Point, PointCloud, VoxelGrid};

/// MeshReduce's native capture rate (15 fps, Table 2 of the paper).
const CAPTURE_FPS: u32 = 15;
/// Conservative fraction of the *average* bandwidth targeted by the
/// offline profile — the indirectness the paper measures in Table 1
/// (MeshReduce utilises only ~19–31% of capacity).
const PROFILE_MARGIN: f64 = 0.30;
/// Depth-discontinuity threshold for meshing at full resolution, mm.
const MAX_JUMP_MM: u16 = 60;
/// Mesh vertex stride before decimation.
const STRIDE: usize = 2;
/// Score PSSIM on every n-th shown frame.
const QUALITY_EVERY: u64 = 5;

/// Configuration of a MeshReduce replay.
#[derive(Debug, Clone)]
pub struct MeshReduceConfig {
    pub video: VideoId,
    pub camera_scale: f32,
    pub n_cameras: usize,
    pub duration_s: f32,
}

impl MeshReduceConfig {
    pub fn new(video: VideoId) -> Self {
        MeshReduceConfig {
            video,
            camera_scale: 0.15,
            n_cameras: 10,
            duration_s: 10.0,
        }
    }
}

/// Bits per triangle of the Draco-ish mesh coding, measured once per run
/// from a sample frame (the offline profile).
#[derive(Debug, Clone, Copy)]
pub struct MeshProfile {
    pub bits_per_triangle: f64,
}

/// The MeshReduce runner.
pub struct MeshReduce {
    cfg: MeshReduceConfig,
    preset: DatasetPreset,
    cameras: Vec<livo_math::RgbdCamera>,
    /// Resolution-compensated discontinuity threshold: at reduced capture
    /// scale, adjacent samples span proportionally more surface, so the
    /// full-resolution threshold must grow by 1/scale.
    effective_jump_mm: u16,
}

impl MeshReduce {
    pub fn new(cfg: MeshReduceConfig) -> Self {
        let preset = DatasetPreset::load(cfg.video);
        let cameras = rig::panoptic_rig(cfg.n_cameras, cfg.camera_scale);
        let effective_jump_mm = ((MAX_JUMP_MM as f32 / cfg.camera_scale.min(1.0)).round() as u32)
            .min(u16::MAX as u32) as u16;
        MeshReduce {
            cfg,
            preset,
            cameras,
            effective_jump_mm,
        }
    }

    /// Build the full-scene mesh for time `t`.
    pub fn build_mesh(&self, t: f32) -> Mesh {
        let snap = self.preset.scene.at(t);
        let time_key = (t * 30.0).round() as u32;
        let mut mesh = Mesh::new();
        for cam in &self.cameras {
            let v = render_rgbd_at(cam, &snap, time_key);
            let m = triangulate_depth(cam, &v.depth_mm, &v.rgb, self.effective_jump_mm, STRIDE);
            mesh.merge(&m);
        }
        mesh
    }

    /// Offline profiling: encode one sample mesh to learn bits/triangle.
    pub fn profile(&self) -> MeshProfile {
        let mesh = self.build_mesh(self.cfg.duration_s * 0.5);
        let bits = encode_mesh_bits(&mesh);
        MeshProfile {
            bits_per_triangle: bits as f64 / mesh.triangle_count().max(1) as f64,
        }
    }

    /// Run the replay over a trace.
    pub fn run(&self, trace: &BandwidthTrace) -> BaselineSummary {
        let cfg = &self.cfg;
        let profile = self.profile();
        // Indirect adaptation: parameters fixed from the trace *average*.
        let target_bits_per_frame = trace.stats().mean * 1e6 * PROFILE_MARGIN / CAPTURE_FPS as f64;
        let triangle_budget =
            (target_bits_per_frame / profile.bits_per_triangle).max(64.0) as usize;

        let mut t = 0.0f64; // virtual link time
        let mut frames_shown = 0u64;
        let mut bits_total = 0u64;
        let mut g_scores = Vec::new();
        let mut c_scores = Vec::new();
        let duration = cfg.duration_s as f64;
        let mut capture_t = 0.0f64;
        let capture_interval = 1.0 / CAPTURE_FPS as f64;

        while capture_t < duration {
            let mesh = self.build_mesh(capture_t as f32);
            let reduced = decimate(&mesh, triangle_budget);
            let bits = (reduced.triangle_count() as f64 * profile.bits_per_triangle) as u64;
            // Reliable transport: the frame occupies the link until fully
            // sent; the next capture starts after.
            let mut remaining = bits as f64;
            while remaining > 0.0 && t < duration + 10.0 {
                let cap = trace.capacity_at(t) * 1e6;
                let step = 0.01; // 10 ms
                remaining -= cap * step;
                t += step;
            }
            bits_total += bits;
            frames_shown += 1;

            if frames_shown.is_multiple_of(QUALITY_EVERY) {
                // Score: lossy-code the mesh geometry, sample to points,
                // compare against the ground-truth point cloud.
                let coded = code_mesh_lossy(&reduced);
                let truth = crate::draco_oracle::capture_cloud(
                    &self.cameras,
                    &self.preset,
                    capture_t as f32,
                );
                let n = truth.len();
                let sampled = sample_points(&coded, n, frames_shown);
                let voxel = VoxelGrid::new(RENDER_VOXEL_M);
                let reference = voxel.downsample(&truth);
                let got = voxel.downsample(&sampled);
                if let Some(s) = pssim(&reference, &got, &PSSIM_RECIPE) {
                    g_scores.push(s.geometry);
                    c_scores.push(s.color);
                }
            }

            // Next capture after both the capture interval and the link
            // finishing this frame (TCP backpressure).
            capture_t = (capture_t + capture_interval).max(t);
        }

        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        BaselineSummary {
            stall_rate: 0.0, // reliable transport: slower frames, no stalls (§4.3)
            mean_fps: frames_shown as f64 / duration,
            pssim_geometry: mean(&g_scores),
            pssim_color: mean(&c_scores),
            pssim_geometry_no_stall: mean(&g_scores),
            pssim_color_no_stall: mean(&c_scores),
            throughput_mbps: bits_total as f64 / duration / 1e6,
            mean_capacity_mbps: trace.stats().mean,
        }
    }
}

/// Measure the Draco-coded size of a mesh's geometry+colour (vertices
/// through the octree coder; connectivity modelled at ~2 bits/triangle,
/// Draco's typical Edgebreaker rate) in bits.
pub fn encode_mesh_bits(mesh: &Mesh) -> u64 {
    if mesh.vertices.is_empty() {
        return 0;
    }
    let cloud: PointCloud = mesh
        .vertices
        .iter()
        .map(|v| Point::new(v.position, v.color))
        .collect();
    let geo = DracoEncoder::encode(&cloud, DracoParams::default()).map_or(0, |e| e.bits());
    geo + (mesh.triangle_count() as u64) * 2
}

/// Lossy-code the mesh the way the wire does: vertices through the octree
/// coder (quantised positions + colours), connectivity preserved.
pub fn code_mesh_lossy(mesh: &Mesh) -> Mesh {
    if mesh.vertices.is_empty() {
        return mesh.clone();
    }
    let cloud: PointCloud = mesh
        .vertices
        .iter()
        .map(|v| Point::new(v.position, v.color))
        .collect();
    let Some(enc) = DracoEncoder::encode(&cloud, DracoParams::default()) else {
        return mesh.clone();
    };
    let Ok(decoded) = DracoDecoder::decode(&enc.data) else {
        return mesh.clone();
    };
    // Octree coding may merge vertices; snap each original vertex to its
    // nearest decoded one so connectivity stays valid.
    let idx = livo_pointcloud::VoxelIndex::build(&decoded, 0.1);
    let mut out = mesh.clone();
    for v in &mut out.vertices {
        if let Some(n) = idx.nearest(v.position) {
            let p = &decoded.points[n as usize];
            v.position = p.position;
            v.color = p.color;
        }
    }
    out.compact();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> MeshReduceConfig {
        let mut cfg = MeshReduceConfig::new(VideoId::Toddler4);
        cfg.camera_scale = 0.08;
        cfg.n_cameras = 4;
        cfg.duration_s = 2.0;
        cfg
    }

    #[test]
    fn meshreduce_never_stalls_but_runs_slow() {
        let mr = MeshReduce::new(quick());
        let trace = BandwidthTrace::constant(90.0, 5.0);
        let s = mr.run(&trace);
        assert_eq!(s.stall_rate, 0.0);
        assert!(s.mean_fps <= 15.5, "fps {}", s.mean_fps);
        assert!(s.mean_fps > 2.0, "fps {}", s.mean_fps);
    }

    #[test]
    fn meshreduce_utilization_is_conservative() {
        // Table 1: indirect adaptation uses a small fraction of capacity.
        let mr = MeshReduce::new(quick());
        let trace = BandwidthTrace::constant(200.0, 5.0);
        let s = mr.run(&trace);
        assert!(s.utilization() < 0.5, "utilization {}", s.utilization());
        // At tiny evaluation scale the un-decimated mesh can undershoot
        // even the conservative profile target.
        assert!(s.utilization() > 0.001);
    }

    #[test]
    fn meshreduce_produces_nonzero_quality() {
        let mr = MeshReduce::new(quick());
        let trace = BandwidthTrace::constant(90.0, 5.0);
        let s = mr.run(&trace);
        assert!(s.pssim_geometry > 20.0, "geometry {}", s.pssim_geometry);
        assert!(s.pssim_color > 20.0, "colour {}", s.pssim_color);
    }

    #[test]
    fn lower_bandwidth_means_more_decimation_higher_fps() {
        // §4.4: MeshReduce's frame rate for trace-2 is slightly *higher*
        // than trace-1 because it decimates more at lower bandwidth.
        let mr = MeshReduce::new(quick());
        let lo = mr.run(&BandwidthTrace::constant(30.0, 5.0));
        let hi = mr.run(&BandwidthTrace::constant(300.0, 5.0));
        assert!(
            lo.mean_fps >= hi.mean_fps * 0.8,
            "lo {} hi {}",
            lo.mean_fps,
            hi.mean_fps
        );
    }

    #[test]
    fn mesh_coding_round_trip_preserves_structure() {
        let mr = MeshReduce::new(quick());
        let mesh = mr.build_mesh(0.5);
        assert!(mesh.triangle_count() > 100);
        let coded = code_mesh_lossy(&mesh);
        assert!(coded.triangle_count() > 0);
        // Surface area is roughly preserved.
        let ratio = coded.surface_area() / mesh.surface_area();
        assert!((0.5..=1.5).contains(&ratio), "area ratio {ratio}");
    }
}
