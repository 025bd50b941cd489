//! The renderer as it was first written, kept as the test oracle of
//! `render_rgbd_at`: every pixel's ray cast at every shape of the scene,
//! no tile binning. Nothing outside tests uses it.
//!
//! Included as a module by `src/render.rs`'s unit tests, which bring
//! `cast_pixel`, `RgbdCamera`, `RgbdFrame` and `SceneSnapshot` into scope.

use super::{cast_pixel, RgbdCamera, RgbdFrame, SceneSnapshot};

/// Render the snapshot from one camera, casting each ray at all shapes.
/// Must equal `render_rgbd_at` byte for byte.
pub fn render_rgbd_reference(
    camera: &RgbdCamera,
    scene: &SceneSnapshot,
    time_key: u32,
) -> RgbdFrame {
    let k = &camera.intrinsics;
    let mut out = RgbdFrame::new(k.width as usize, k.height as usize);
    let all: Vec<usize> = (0..scene.shapes.len()).collect();
    for y in 0..out.height {
        for x in 0..out.width {
            cast_pixel(&mut out, camera, scene, &all, (x, y), time_key);
        }
    }
    out
}
