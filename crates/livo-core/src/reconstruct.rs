//! Receiver-side point-cloud reconstruction.
//!
//! §A.1 of the paper: the receiver holds the camera parameters and poses
//! (exchanged at session setup), back-projects every valid pixel of every
//! decoded tile into world coordinates, voxelises to rendering density,
//! and culls to the viewer's *current* frustum (the sender culled to the
//! guard-banded *predicted* one, so a final tight cull remains useful).

use crate::depth::{DepthCodec, DepthEncoding};
use crate::tile::TileLayout;
use livo_capture::RgbdFrame;
use livo_codec2d::plane::yuv_to_rgb8;
use livo_codec2d::{Frame, PixelFormat};
use livo_math::{Frustum, RayTable, RgbdCamera, Vec3, LANES};
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
    let mut depth_mm = vec![0u16; layout.cam_w];
    for (i, cam) in cameras.iter().enumerate() {
        let (ox, oy) = layout.slot_origin(i);
        let rays = RayTable::build(&cam.intrinsics);
        for y in 0..layout.cam_h {
            let cy = oy + y;
            depth_codec.decode_row(
                &depth.data[cy * depth.width + ox..][..layout.cam_w],
                &mut depth_mm,
            );
            let luma_row = &luma.data[cy * luma.width + ox..][..layout.cam_w];
            let u_row = &u_plane.data[cy / 2 * u_plane.width..][..u_plane.width];
            let v_row = &v_plane.data[cy / 2 * v_plane.width..][..v_plane.width];
            push_row(cam, &rays, y, &depth_mm, &mut cloud, |x0, n| {
                let mut yuv = [[0u16; LANES]; 3];
                for i in 0..n {
                    let cx = (ox + x0 + i) / 2;
                    (yuv[0][i], yuv[1][i], yuv[2][i]) = (luma_row[x0 + i], u_row[cx], v_row[cx]);
                }
                std::array::from_fn(|i| yuv_to_rgb8(yuv[0][i], yuv[1][i], yuv[2][i]))
            });
        }
    }
    cloud
}

/// What the sensors measured: every in-range pixel of un-tiled views,
/// back-projected camera by camera in raster order.
pub fn back_project_views(views: &[RgbdFrame], cameras: &[RgbdCamera]) -> PointCloud {
    let valid = views.iter().map(RgbdFrame::valid_pixels).sum();
    let mut cloud = PointCloud::with_capacity(valid);
    for (cam, v) in cameras.iter().zip(views) {
        let rays = RayTable::build(&cam.intrinsics);
        for (y, depth_mm) in v.depth_mm.chunks_exact(v.width).enumerate() {
            push_row(cam, &rays, y, depth_mm, &mut cloud, |x0, n| {
                let mut rgb = [[0u8; 3]; LANES];
                for (px, x) in rgb.iter_mut().zip(x0..x0 + n) {
                    *px = v.rgb_at(x, y);
                }
                rgb
            });
        }
    }
    cloud
}

/// [`RgbdCamera::pixel_to_world`] over image row `y` of `cam` (`rays` its
/// [`RayTable`]): the in-range pixels are appended to `cloud` left to
/// right, `color(x0, n)` giving the colours of the `n` pixels from `x0` of
/// a chunk (lanes past `n` are not read). Chunks without a return are
/// stepped over whole. Every lane runs `pixel_to_world`'s own operations
/// in its order — `/ 1000`, the range test, `ray * z` (what `unproject`
/// evaluates: the `RayTable` contract), `Quat::rotate`, `+ position` — so
/// a point is bit-equal to the per-pixel call's.
#[inline]
fn push_row(
    cam: &RgbdCamera,
    rays: &RayTable,
    y: usize,
    depth_mm: &[u16],
    cloud: &mut PointCloud,
    mut color: impl FnMut(usize, usize) -> [[u8; 3]; LANES],
) {
    let (pose, near, far) = (cam.pose, cam.min_range_m, cam.max_range_m);
    let ray_y = rays.ray_y()[y];
    let mut chunk = |mm: &[u16; LANES], ray_x: &[f32; LANES], x0: usize, n: usize| {
        if mm == &[0; LANES] {
            return;
        }
        let mut world = [[0f32; LANES]; 3];
        let mut in_range = [false; LANES];
        for i in 0..LANES {
            let z = mm[i] as f32 / 1000.0;
            // `|` and `&`, not `||` and `&&`: a lane has no branch.
            in_range[i] = (mm[i] != 0) & !((z < near) | (z > far));
            let w = pose.transform_point(Vec3::new(ray_x[i] * z, ray_y * z, z));
            (world[0][i], world[1][i], world[2][i]) = (w.x, w.y, w.z);
        }
        let rgb = color(x0, n);
        for i in (0..LANES).filter(|&i| in_range[i]) {
            let position = Vec3::new(world[0][i], world[1][i], world[2][i]);
            cloud.points.push(Point::new(position, rgb[i]));
        }
    };
    let (mm_chunks, mm_rest) = depth_mm.as_chunks::<LANES>();
    let (ray_chunks, ray_rest) = rays.ray_x()[..depth_mm.len()].as_chunks::<LANES>();
    for ((mm, ray_x), x0) in mm_chunks.iter().zip(ray_chunks).zip((0..).step_by(LANES)) {
        chunk(mm, ray_x, x0, LANES);
    }
    // The part chunk at the end of a row, padded with no-return lanes.
    let (mut mm, mut ray_x) = ([0u16; LANES], [0f32; LANES]);
    mm[..mm_rest.len()].copy_from_slice(mm_rest);
    ray_x[..ray_rest.len()].copy_from_slice(ray_rest);
    chunk(&mm, &ray_x, depth_mm.len() - mm_rest.len(), mm_rest.len());
}

/// The receiver's render prep: voxelise then cull to the current frustum.
pub fn prepare_for_render(
    cloud: &PointCloud,
    voxel_m: f32,
    current_frustum: &Frustum,
) -> PointCloud {
    VoxelGrid::new(voxel_m).downsample_where(cloud, |p| current_frustum.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{compose_color, compose_depth};
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

    /// `reconstruct_point_cloud` a pixel at a time: every slot pixel decoded,
    /// back-projected by `pixel_to_world` and coloured from the canvas pixel
    /// it sits on.
    fn reconstruct_oracle(
        color_canvas: &Frame,
        depth_canvas: &Frame,
        layout: &TileLayout,
        cameras: &[RgbdCamera],
        depth_codec: &DepthCodec,
    ) -> PointCloud {
        let mut cloud = PointCloud::new();
        for (i, cam) in cameras.iter().enumerate() {
            let (ox, oy) = layout.slot_origin(i);
            for y in 0..layout.cam_h {
                for x in 0..layout.cam_w {
                    let d = depth_codec.decode_sample(depth_canvas.planes[0].get(ox + x, oy + y));
                    if let Some(world) = cam.pixel_to_world(x as u32, y as u32, d) {
                        cloud.push(Point::new(world, color_canvas.rgb_at(ox + x, oy + y)));
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
