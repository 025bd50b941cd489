//! Receiver-side point-cloud reconstruction.
//!
//! §A.1 of the paper: the receiver holds the camera parameters and poses
//! (exchanged at session setup), back-projects every valid pixel of every
//! decoded tile into world coordinates, voxelises to rendering density,
//! and culls to the viewer's *current* frustum (the sender culled to the
//! guard-banded *predicted* one, so a final tight cull remains useful).

use crate::depth::{DepthCodec, DepthEncoding};
use crate::tile::TileLayout;
use livo_codec2d::plane::yuv_to_rgb8;
use livo_codec2d::{Frame, PixelFormat};
use livo_math::{Frustum, RgbdCamera};
use livo_pointcloud::{Point, PointCloud, VoxelGrid};

/// Reconstruct the world-space point cloud from decoded colour/depth
/// canvases.
///
/// An RGB-packed depth canvas is unpacked to millimetres first. Then one
/// pass over each camera's slot of the depth canvas, camera by camera
/// in raster order: a sample coded zero is no return; every other one is
/// decoded, back-projected, and — only if it lands in range — coloured
/// from its own pixel of the colour canvas. A pixel's chroma sample sits at
/// half its *canvas* coordinates, which differ from half its slot
/// coordinates wherever a slot starts on an odd column or row.
pub fn reconstruct_point_cloud(
    color_canvas: &Frame,
    depth_canvas: &Frame,
    layout: &TileLayout,
    cameras: &[RgbdCamera],
    depth_codec: &DepthCodec,
) -> PointCloud {
    assert_eq!(cameras.len(), layout.n);
    if depth_codec.encoding == DepthEncoding::RgbPacked {
        // Unpack to a millimetre canvas first; the pass below then reads it
        // like an unscaled Y16 one.
        let mm = depth_codec.unpack_rgb(depth_canvas);
        let y16 = Frame::from_y16(layout.canvas_w, layout.canvas_h, mm);
        let raw = DepthCodec::new(depth_codec.max_depth_mm, DepthEncoding::RawY16);
        return reconstruct_point_cloud(color_canvas, &y16, layout, cameras, &raw);
    }
    assert_eq!(depth_canvas.format, PixelFormat::Y16);
    assert_eq!(color_canvas.format, PixelFormat::Yuv420);
    let depth = &depth_canvas.planes[0];
    let [luma, u_plane, v_plane] = &color_canvas.planes[..] else {
        unreachable!("a Yuv420 frame has three planes");
    };
    // Room for every slot pixel, so pushing never reallocates.
    let mut cloud = PointCloud::with_capacity(layout.n * layout.cam_w * layout.cam_h);
    for (i, cam) in cameras.iter().enumerate() {
        let (ox, oy) = layout.slot_origin(i);
        for y in 0..layout.cam_h {
            let cy = oy + y;
            let depth_row = &depth.data[cy * depth.width + ox..][..layout.cam_w];
            let luma_row = &luma.data[cy * luma.width + ox..][..layout.cam_w];
            let u_row = &u_plane.data[cy / 2 * u_plane.width..][..u_plane.width];
            let v_row = &v_plane.data[cy / 2 * v_plane.width..][..v_plane.width];
            for (x, (&coded, &l)) in depth_row.iter().zip(luma_row).enumerate() {
                if coded == 0 {
                    continue;
                }
                let d = depth_codec.decode_sample(coded);
                if let Some(world) = cam.pixel_to_world(x as u32, y as u32, d) {
                    let cx = (ox + x) / 2;
                    cloud.push(Point::new(world, yuv_to_rgb8(l, u_row[cx], v_row[cx])));
                }
            }
        }
    }
    cloud
}

/// The receiver's render prep: voxelise then cull to the current frustum.
pub fn prepare_for_render(
    cloud: &PointCloud,
    voxel_m: f32,
    current_frustum: &Frustum,
) -> PointCloud {
    let voxelized = VoxelGrid::new(voxel_m).downsample(cloud);
    voxelized.cull_to_frustum(current_frustum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{compose_color, compose_depth, extract_color, extract_depth};
    use livo_capture::scene::{AnimatedShape, Scene, ShapeGeom, Texture};
    use livo_capture::{render_rgbd, rig};
    use livo_codec2d::{Decoder, Encoder, EncoderConfig};
    use livo_math::{CameraIntrinsics, FrustumParams, Pose, Vec3};

    fn scene() -> Scene {
        let mut s = Scene::new();
        s.add(AnimatedShape::fixed(
            ShapeGeom::Sphere {
                center: Vec3::new(0.0, 1.0, 0.0),
                radius: 0.5,
            },
            Texture::Checker([220, 40, 40], [40, 40, 220], 0.1),
        ));
        s.add(AnimatedShape::fixed(
            ShapeGeom::Floor {
                height: 0.0,
                radius: 3.0,
            },
            Texture::Solid([100, 100, 100]),
        ));
        s
    }

    fn setup() -> (
        Vec<livo_math::RgbdCamera>,
        TileLayout,
        Vec<livo_capture::RgbdFrame>,
    ) {
        let cams = rig::camera_ring(
            4,
            2.5,
            1.3,
            Vec3::new(0.0, 1.0, 0.0),
            CameraIntrinsics::kinect_depth(0.15),
        );
        let snap = scene().at(0.0);
        let views: Vec<_> = cams.iter().map(|c| render_rgbd(c, &snap)).collect();
        let layout = TileLayout::new(views[0].width, views[0].height, cams.len());
        (cams, layout, views)
    }

    /// The body `reconstruct_point_cloud` had before the fused pass: copy
    /// each camera's slot out of both canvases, then back-project the copies.
    fn reconstruct_oracle(
        color_canvas: &Frame,
        depth_canvas: &Frame,
        layout: &TileLayout,
        cameras: &[RgbdCamera],
        depth_codec: &DepthCodec,
    ) -> PointCloud {
        let mut cloud = PointCloud::new();
        for (i, cam) in cameras.iter().enumerate() {
            let depth = extract_depth(depth_canvas, layout, depth_codec, i);
            let rgb = extract_color(color_canvas, layout, i);
            for y in 0..layout.cam_h {
                for x in 0..layout.cam_w {
                    let p = y * layout.cam_w + x;
                    let d = depth[p];
                    if d == 0 {
                        continue;
                    }
                    if let Some(world) = cam.pixel_to_world(x as u32, y as u32, d) {
                        cloud.push(Point::new(
                            world,
                            [rgb[p * 3], rgb[p * 3 + 1], rgb[p * 3 + 2]],
                        ));
                    }
                }
            }
        }
        cloud
    }

    /// Same points in the same order, positions compared as bits.
    fn assert_same_cloud(got: &PointCloud, want: &PointCloud) {
        assert_eq!(got.len(), want.len(), "point count");
        for (i, (g, w)) in got.points.iter().zip(&want.points).enumerate() {
            let bits = |p: &Point| [p.position.x, p.position.y, p.position.z].map(f32::to_bits);
            assert_eq!((bits(g), g.color), (bits(w), w.color), "point {i}");
        }
    }

    /// Encode then decode a canvas, as the receiver sees it.
    fn through_codec(canvas: &Frame) -> Frame {
        let cfg = EncoderConfig::new(canvas.width, canvas.height, canvas.format);
        let data = Encoder::new(cfg).encode_fixed_qp(canvas, 14).data;
        Decoder::new().decode(&data).expect("own stream decodes")
    }

    fn assert_matches_oracle(
        views: &[livo_capture::RgbdFrame],
        layout: &TileLayout,
        cams: &[RgbdCamera],
        codec: &DepthCodec,
    ) -> usize {
        let color = through_codec(&compose_color(views, layout, 3));
        let depth = through_codec(&compose_depth(views, layout, codec, 3));
        let got = reconstruct_point_cloud(&color, &depth, layout, cams, codec);
        assert_same_cloud(
            &got,
            &reconstruct_oracle(&color, &depth, layout, cams, codec),
        );
        got.len()
    }

    #[test]
    fn fused_pass_matches_slot_copy_oracle_after_a_codec_round_trip() {
        let (cams, layout, views) = setup();
        for encoding in [DepthEncoding::ScaledY16, DepthEncoding::RawY16] {
            let codec = DepthCodec::new(6000, encoding);
            let n = assert_matches_oracle(&views, &layout, &cams, &codec);
            assert!(n > 1000, "{encoding:?}: {n} points");
        }
    }

    #[test]
    fn fused_pass_matches_oracle_on_odd_slot_origins() {
        // 45×37 cameras tile 3 across: slot 1 starts at an odd column and
        // slots 3.. at an odd row, so a pixel's chroma sample is found in
        // canvas coordinates, not slot coordinates.
        let cams = rig::camera_ring(
            4,
            2.5,
            1.3,
            Vec3::new(0.0, 1.0, 0.0),
            CameraIntrinsics::from_hfov(45, 37, 1.3),
        );
        let snap = scene().at(0.0);
        let views: Vec<_> = cams.iter().map(|c| render_rgbd(c, &snap)).collect();
        let layout = TileLayout::new(45, 37, cams.len());
        assert_eq!(layout.slot_origin(1).0 % 2, 1, "{layout:?}");
        assert_eq!(layout.slot_origin(3).1 % 2, 1, "{layout:?}");
        for encoding in [DepthEncoding::ScaledY16, DepthEncoding::RawY16] {
            let codec = DepthCodec::new(6000, encoding);
            let n = assert_matches_oracle(&views, &layout, &cams, &codec);
            assert!(n > 500, "{encoding:?}: {n} points");
        }
    }

    #[test]
    fn fused_pass_matches_oracle_on_culled_and_out_of_range_pixels() {
        let (mut cams, layout, mut views) = setup();
        // A short-range rig, so part of the scene lies beyond `max_range_m`.
        for cam in &mut cams {
            cam.max_range_m = 2.6;
        }
        for v in &mut views {
            for (p, d) in v.depth_mm.iter_mut().enumerate() {
                match p % 7 {
                    0 => *d = 0,     // culled
                    1 => *d = 120,   // nearer than `min_range_m`
                    2 => *d = 60000, // RawY16 carries it; far out of range
                    _ => {}
                }
            }
        }
        for encoding in [DepthEncoding::ScaledY16, DepthEncoding::RawY16] {
            let codec = DepthCodec::new(6000, encoding);
            let n = assert_matches_oracle(&views, &layout, &cams, &codec);
            let valid: usize = views.iter().map(|v| v.valid_pixels()).sum();
            assert!(n > 500 && n < valid * 5 / 7, "{encoding:?}: {n} of {valid}");
        }
    }

    #[test]
    fn prepare_for_render_is_deterministic() {
        let (cams, layout, views) = setup();
        let codec = DepthCodec::default();
        let color = compose_color(&views, &layout, 0);
        let depth = compose_depth(&views, &layout, &codec, 0);
        let cloud = reconstruct_point_cloud(&color, &depth, &layout, &cams, &codec);
        let viewer = Pose::look_at(Vec3::new(0.0, 1.2, -2.5), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
        let f = livo_math::Frustum::from_params(&viewer, &FrustumParams::default());
        let first = prepare_for_render(&cloud, 0.02, &f);
        assert!(!first.is_empty());
        assert_eq!(first.points, prepare_for_render(&cloud, 0.02, &f).points);
    }

    #[test]
    fn reconstruction_recovers_scene_geometry() {
        let (cams, layout, views) = setup();
        let codec = DepthCodec::default();
        let color = compose_color(&views, &layout, 0);
        let depth = compose_depth(&views, &layout, &codec, 0);
        let cloud = reconstruct_point_cloud(&color, &depth, &layout, &cams, &codec);
        assert!(!cloud.is_empty());
        // Sphere surface points should exist near (0, 1, 0) at radius 0.5.
        let near_sphere = cloud
            .points
            .iter()
            .filter(|p| ((p.position - Vec3::new(0.0, 1.0, 0.0)).length() - 0.5).abs() < 0.02)
            .count();
        assert!(near_sphere > 100, "{near_sphere} sphere-surface points");
        // Floor points at y ≈ 0.
        let on_floor = cloud
            .points
            .iter()
            .filter(|p| p.position.y.abs() < 0.02)
            .count();
        assert!(on_floor > 100, "{on_floor} floor points");
    }

    #[test]
    fn reconstruction_point_count_matches_valid_pixels() {
        let (cams, layout, views) = setup();
        let codec = DepthCodec::default();
        let color = compose_color(&views, &layout, 0);
        let depth = compose_depth(&views, &layout, &codec, 0);
        let cloud = reconstruct_point_cloud(&color, &depth, &layout, &cams, &codec);
        let valid: usize = views.iter().map(|v| v.valid_pixels()).sum();
        // Scaling quantisation can zero at most a few boundary samples.
        assert!(
            cloud.len() >= valid - valid / 100,
            "{} vs {}",
            cloud.len(),
            valid
        );
    }

    #[test]
    fn colors_survive_reconstruction() {
        let (cams, layout, views) = setup();
        let codec = DepthCodec::default();
        let color = compose_color(&views, &layout, 0);
        let depth = compose_depth(&views, &layout, &codec, 0);
        let cloud = reconstruct_point_cloud(&color, &depth, &layout, &cams, &codec);
        // Floor points should be grey-ish (the 4:2:0 chroma round trip can
        // shift channels slightly).
        let grey = cloud
            .points
            .iter()
            .filter(|p| p.position.y.abs() < 0.02)
            .filter(|p| p.color.iter().all(|&c| (85..=115).contains(&c)))
            .count();
        let floor = cloud
            .points
            .iter()
            .filter(|p| p.position.y.abs() < 0.02)
            .count();
        assert!(
            grey as f64 / floor as f64 > 0.9,
            "{grey}/{floor} grey floor points"
        );
    }

    #[test]
    fn prepare_for_render_voxelizes_and_culls() {
        let (cams, layout, views) = setup();
        let codec = DepthCodec::default();
        let color = compose_color(&views, &layout, 0);
        let depth = compose_depth(&views, &layout, &codec, 0);
        let cloud = reconstruct_point_cloud(&color, &depth, &layout, &cams, &codec);
        let viewer = Pose::look_at(Vec3::new(0.0, 1.2, -2.5), Vec3::new(0.0, 1.0, 0.0), Vec3::Y);
        let f = livo_math::Frustum::from_params(
            &viewer,
            &FrustumParams {
                hfov: 0.6,
                aspect: 1.0,
                near: 0.1,
                far: 10.0,
            },
        );
        let prepared = prepare_for_render(&cloud, 0.02, &f);
        assert!(
            prepared.len() < cloud.len(),
            "voxelisation + cull reduce density"
        );
        for p in &prepared.points {
            assert!(f.contains(p.position));
        }
    }
}
