//! The cull as it was first written, kept as the test oracle of
//! `CullContext::cull`: per pixel, no ray table, no chunking. Nothing
//! outside tests and `repro kernels` uses it.
//!
//! Included as a module by `src/cull.rs`'s unit tests (which `stage.rs`'s
//! reach through), by the workspace's `tests/kernel_differential.rs` and by
//! `livo-bench`'s `kernels_bench.rs`; each parent brings `CullStats`,
//! `Frustum`, `RgbdCamera` and `RgbdFrame` into scope.

#![allow(dead_code)]

use super::{CullStats, Frustum, RgbdCamera, RgbdFrame};

/// Cull every view in place against the union of `frusta`: `any` over the
/// camera-local frusta for each pixel's unprojected point. Pixel masks and
/// stats must equal `CullContext::cull`'s bit for bit, with a slice of one
/// frustum as with a union.
pub fn cull_views_union_reference(
    views: &mut [RgbdFrame],
    cameras: &[RgbdCamera],
    frusta: &[Frustum],
) -> CullStats {
    assert!(!frusta.is_empty(), "union cull needs at least one frustum");
    assert_eq!(views.len(), cameras.len());
    let mut stats = CullStats::default();
    for (view, cam) in views.iter_mut().zip(cameras) {
        let local: Vec<Frustum> = frusta
            .iter()
            .map(|f| f.transformed(&cam.world_to_local()))
            .collect();
        let k = &cam.intrinsics;
        for y in 0..view.height {
            for x in 0..view.width {
                let i = y * view.width + x;
                let d = view.depth_mm[i];
                if d == 0 {
                    continue;
                }
                stats.total_valid += 1;
                let p = k.unproject(x as f32 + 0.5, y as f32 + 0.5, d as f32 / 1000.0);
                if local.iter().any(|f| f.contains(p)) {
                    stats.kept += 1;
                } else {
                    view.depth_mm[i] = 0;
                    view.rgb[i * 3] = 0;
                    view.rgb[i * 3 + 1] = 0;
                    view.rgb[i * 3 + 2] = 0;
                }
            }
        }
    }
    stats
}
