//! Draco-Oracle: the bandwidth-adaptive point-cloud-codec strawman.
//!
//! §4.1 of the paper: "given a target bandwidth and a perfect estimate of a
//! receiver's frustum (perfect culling), it picks the highest quality
//! compression for the point cloud that fits within the target bandwidth"
//! — using an offline table over Draco's compression levels and
//! quantisation parameters, and requiring the (modelled, testbed-calibrated)
//! compression time to fit the inter-frame interval. "If no such entry
//! exists, we record a stall." Runs at 15 fps, like the paper's evaluation
//! (at 30 fps it stalls >90%).

use crate::BaselineSummary;
use livo_capture::{
    datasets::DatasetPreset, render::render_rgbd_at, rig, BandwidthTrace, UserTrace, VideoId,
};
use livo_codec3d::{DracoDecoder, DracoEncoder, DracoParams, QuantBits, RateProfile};
use livo_core::reconstruct::back_project_views;
use livo_math::{Frustum, FrustumParams, Vec3};
use livo_pointcloud::{pssim, PointCloud, PssimConfig};

/// Configuration of a Draco-Oracle replay.
#[derive(Debug, Clone)]
pub struct DracoOracleConfig {
    pub video: VideoId,
    pub camera_scale: f32,
    pub n_cameras: usize,
    pub duration_s: f32,
    /// Baseline frame rate (the paper lowers Draco-Oracle to 15 fps).
    pub fps: u32,
    /// Fraction of the instantaneous capacity budgeted to the payload.
    pub budget_fraction: f64,
    /// Sample PSSIM every n-th non-stalled frame.
    pub quality_every: u32,
    pub voxel_m: f32,
    pub user_trace_seed: u64,
    pub user_trace_style: usize,
}

impl DracoOracleConfig {
    pub fn new(video: VideoId) -> Self {
        DracoOracleConfig {
            video,
            camera_scale: 0.15,
            n_cameras: 10,
            duration_s: 10.0,
            fps: 15,
            budget_fraction: 0.85,
            quality_every: 8,
            voxel_m: 0.03,
            user_trace_seed: 11,
            user_trace_style: 0,
        }
    }
}

/// The oracle runner.
pub struct DracoOracle {
    cfg: DracoOracleConfig,
    preset: DatasetPreset,
    cameras: Vec<livo_math::RgbdCamera>,
    user_trace: UserTrace,
    profile: RateProfile,
    /// Scale factor from evaluation-resolution point counts to the paper's
    /// full-resolution counts, so the *time model* reflects the testbed the
    /// paper measured (the whole point of Draco-Oracle's stalls).
    point_scale: f64,
}

impl DracoOracle {
    pub fn new(cfg: DracoOracleConfig) -> Self {
        let preset = DatasetPreset::load(cfg.video);
        let cameras = rig::camera_ring(
            cfg.n_cameras,
            2.5,
            1.4,
            Vec3::new(0.0, 1.0, 0.0),
            livo_math::CameraIntrinsics::kinect_depth(cfg.camera_scale),
        );
        let styles = livo_capture::usertrace::TraceStyle::ALL;
        let style = styles[cfg.user_trace_style % styles.len()];
        let user_trace = UserTrace::generate(style, cfg.duration_s + 5.0, cfg.user_trace_seed);
        // Offline profiling phase: a handful of frames spread over the clip.
        let mut samples = Vec::new();
        for i in 0..3 {
            let t = cfg.duration_s * (i as f32 + 0.5) / 3.0;
            samples.push(capture_cloud(&cameras, &preset, t));
        }
        let refs: Vec<&PointCloud> = samples.iter().collect();
        let profile = RateProfile::build(&refs);
        // Calibrate against the paper's reported frame sizes (Table 3): a
        // full uncull frame of this video is paper_frame_mb at 15 B/point,
        // so our eval-scale clouds map to paper-scale point counts by the
        // ratio below. (Raw pixel-count scaling would over-estimate: our
        // synthetic scenes return depth on more pixels than Panoptic's.)
        let paper_points = preset.paper_frame_mb * 1e6 / 15.0;
        let eval_points =
            samples.iter().map(|c| c.len() as f64).sum::<f64>() / samples.len() as f64;
        let point_scale = paper_points / eval_points.max(1.0);
        DracoOracle {
            cfg,
            preset,
            cameras,
            user_trace,
            profile,
            point_scale,
        }
    }

    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// Run the replay. Each 1/fps slot: build the perfectly-culled cloud,
    /// consult the table, either transmit (and optionally score) or stall.
    pub fn run(&self, trace: &BandwidthTrace) -> BaselineSummary {
        let cfg = &self.cfg;
        let total = (cfg.duration_s * cfg.fps as f32) as u64;
        let deadline_ms = 1_000.0 / cfg.fps as f64;
        let mut stalls = 0u64;
        let mut shown = 0u64;
        let mut bits_total = 0u64;
        let mut g_scores = Vec::new();
        let mut c_scores = Vec::new();

        for i in 0..total {
            let t = i as f32 / cfg.fps as f32;
            let capacity = trace.capacity_at(t as f64) * 1e6;
            let budget_bits = capacity * cfg.budget_fraction / cfg.fps as f64;

            // Perfect culling: the receiver's true frustum at display time.
            let viewer = self.user_trace.pose_at_time(t);
            let frustum = Frustum::from_params(&viewer, &FrustumParams::default());
            let full = capture_cloud(&self.cameras, &self.preset, t);
            let culled = full.cull_to_frustum(&frustum);
            if culled.is_empty() {
                // Nothing in view; trivially fine.
                shown += 1;
                continue;
            }

            // Table lookup at the *paper-scale* point count for timing, and
            // proportional budget for size (bits/point is scale-free).
            let paper_points = (culled.len() as f64 * self.point_scale) as usize;
            let Some(entry) = self.profile.best_fitting(
                paper_points,
                budget_bits * self.point_scale,
                deadline_ms,
            ) else {
                stalls += 1;
                continue;
            };

            // Really encode + decode at the chosen setting.
            let params = DracoParams {
                quant_bits: QuantBits(entry.quant_bits),
                level: entry.level,
                color_bits: 8,
            };
            let Some(encoded) = DracoEncoder::encode(&culled, params) else {
                stalls += 1;
                continue;
            };
            bits_total += encoded.bits();
            shown += 1;

            if shown.is_multiple_of(cfg.quality_every as u64) {
                if let Ok(decoded) = DracoDecoder::decode(&encoded.data) {
                    let voxel = livo_pointcloud::VoxelGrid::new(cfg.voxel_m);
                    let reference = voxel.downsample(&culled);
                    let got = voxel.downsample(&decoded);
                    let pcfg = PssimConfig {
                        neighbors: 6,
                        cell_size: cfg.voxel_m * 3.0,
                        curvature_weight: 0.3,
                    };
                    if let Some(s) = pssim(&reference, &got, &pcfg) {
                        g_scores.push(s.geometry);
                        c_scores.push(s.color);
                    }
                }
            }
        }

        // Pooling follows §4.3: stalled frames score 0, so the
        // stall-inclusive mean is (1 − stall_rate) × mean(delivered scores)
        // — sampled delivered frames stand in for all delivered frames.
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let duration = cfg.duration_s as f64;
        let stall_rate = stalls as f64 / total.max(1) as f64;
        BaselineSummary {
            stall_rate,
            mean_fps: shown as f64 / duration,
            pssim_geometry: (1.0 - stall_rate) * mean(&g_scores),
            pssim_color: (1.0 - stall_rate) * mean(&c_scores),
            pssim_geometry_no_stall: mean(&g_scores),
            pssim_color_no_stall: mean(&c_scores),
            throughput_mbps: bits_total as f64 / duration / 1e6,
            mean_capacity_mbps: trace.stats().mean,
        }
    }
}

/// Render the camera array at time `t` and fuse into a world point cloud.
pub fn capture_cloud(
    cameras: &[livo_math::RgbdCamera],
    preset: &DatasetPreset,
    t: f32,
) -> PointCloud {
    let snap = preset.scene.at(t);
    let time_key = (t * 30.0).round() as u32;
    let views: Vec<_> = cameras
        .iter()
        .map(|cam| render_rgbd_at(cam, &snap, time_key))
        .collect();
    back_project_views(&views, cameras)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DracoOracleConfig {
        let mut cfg = DracoOracleConfig::new(VideoId::Toddler4);
        cfg.camera_scale = 0.08;
        cfg.n_cameras = 4;
        cfg.duration_s = 2.0;
        cfg.quality_every = 4;
        cfg
    }

    #[test]
    fn oracle_stalls_heavily_at_30fps_full_scene() {
        // The paper's core finding: at 30 fps, full-scene Draco stalls >90%.
        let mut cfg = quick();
        cfg.fps = 30;
        let oracle = DracoOracle::new(cfg);
        let trace = BandwidthTrace::constant(90.0, 5.0);
        let s = oracle.run(&trace);
        assert!(s.stall_rate > 0.9, "30 fps stall rate {}", s.stall_rate);
    }

    #[test]
    fn oracle_at_15fps_still_stalls_substantially() {
        // band2's full-scene size (11.1 MB paper-calibrated) cannot be
        // compressed inside the 66 ms deadline most of the time — §4.2's
        // 36–98% stall range. (toddler4, the smallest scene, can squeak by.)
        let mut cfg = quick();
        cfg.video = VideoId::Band2;
        let oracle = DracoOracle::new(cfg);
        let trace = BandwidthTrace::constant(90.0, 5.0);
        let s = oracle.run(&trace);
        assert!(s.stall_rate > 0.3, "15 fps stall rate {}", s.stall_rate);
        assert!(s.mean_fps < 15.0);
    }

    #[test]
    fn oracle_quality_reflects_surviving_frames() {
        let oracle = DracoOracle::new(quick());
        let trace = BandwidthTrace::constant(200.0, 5.0);
        let s = oracle.run(&trace);
        // When frames do get through, decoded quality is non-trivial but
        // stalls drag the stall-inclusive mean down.
        if s.pssim_geometry_no_stall > 0.0 {
            assert!(s.pssim_geometry <= s.pssim_geometry_no_stall);
        }
    }

    #[test]
    fn more_bandwidth_means_fewer_stalls() {
        let oracle = DracoOracle::new(quick());
        let lo = oracle.run(&BandwidthTrace::constant(40.0, 5.0));
        let hi = oracle.run(&BandwidthTrace::constant(400.0, 5.0));
        assert!(
            hi.stall_rate <= lo.stall_rate,
            "hi {} vs lo {}",
            hi.stall_rate,
            lo.stall_rate
        );
    }
}
