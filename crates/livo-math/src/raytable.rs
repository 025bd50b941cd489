//! Cached per-camera unprojection rays.
//!
//! The ray through pixel centre `(x, y)` never changes for a fixed set of
//! intrinsics, yet the per-frame cull back-projects every valid pixel — two
//! subtractions, two divisions and two int→float conversions per pixel that
//! are pure recomputation. A [`RayTable`] hoists them out of the frame loop:
//! one `f32` per column (`(x + 0.5 - cx) / fx`) and one per row
//! (`(cy - (y + 0.5)) / fy`), built once per camera and invalidated only
//! when the intrinsics change.
//!
//! Bit-identity contract: [`CameraIntrinsics::unproject`] evaluates
//! ray-first (`(u - cx) / fx * z`), and the table stores exactly that ray
//! factor, so `ray_x[x] * z == unproject(x + 0.5, y + 0.5, z).x` bit for
//! bit (one multiplication of the same two operands). Consumers such as the
//! cull fast path therefore make *identical* keep/cull decisions to a
//! per-pixel `unproject` reference.

use crate::camera::CameraIntrinsics;

/// Per-camera lookup table of unprojection ray components.
#[derive(Debug, Clone)]
pub struct RayTable {
    intrinsics: CameraIntrinsics,
    /// `(x + 0.5 - cx) / fx` for every column `x`.
    ray_x: Vec<f32>,
    /// `(cy - (y + 0.5)) / fy` for every row `y` (image v grows downward).
    ray_y: Vec<f32>,
}

impl RayTable {
    /// Build the table for `k`. Cost is `width + height` divisions — paid
    /// once per camera, not once per pixel per frame.
    pub fn build(k: &CameraIntrinsics) -> Self {
        let ray_x = (0..k.width)
            .map(|x| {
                let u = x as f32 + 0.5;
                (u - k.cx) / k.fx
            })
            .collect();
        let ray_y = (0..k.height)
            .map(|y| {
                let v = y as f32 + 0.5;
                (k.cy - v) / k.fy
            })
            .collect();
        RayTable {
            intrinsics: *k,
            ray_x,
            ray_y,
        }
    }

    /// A placeholder that matches no real camera (zero-sized image); useful
    /// as the initial state of a cache slot.
    pub fn empty() -> Self {
        RayTable {
            intrinsics: CameraIntrinsics {
                width: 0,
                height: 0,
                fx: 1.0,
                fy: 1.0,
                cx: 0.0,
                cy: 0.0,
            },
            ray_x: Vec::new(),
            ray_y: Vec::new(),
        }
    }

    /// True when the table was built for exactly these intrinsics (the
    /// cache-invalidation check).
    #[inline]
    pub fn matches(&self, k: &CameraIntrinsics) -> bool {
        self.intrinsics == *k
    }

    /// Per-column ray x-components, length `width`.
    #[inline]
    pub fn ray_x(&self) -> &[f32] {
        &self.ray_x
    }

    /// Per-row ray y-components, length `height`.
    #[inline]
    pub fn ray_y(&self) -> &[f32] {
        &self.ray_y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;

    #[test]
    fn rays_are_bit_identical_to_unproject() {
        let k = CameraIntrinsics::kinect_depth(0.1);
        let t = RayTable::build(&k);
        assert_eq!(t.ray_x().len(), k.width as usize);
        assert_eq!(t.ray_y().len(), k.height as usize);
        for y in 0..k.height as usize {
            for x in 0..k.width as usize {
                for z in [0.25f32, 1.0, 2.37, 5.999] {
                    let a = Vec3::new(t.ray_x()[x] * z, t.ray_y()[y] * z, z);
                    let b = k.unproject(x as f32 + 0.5, y as f32 + 0.5, z);
                    assert_eq!(a.x.to_bits(), b.x.to_bits(), "x at ({x},{y},{z})");
                    assert_eq!(a.y.to_bits(), b.y.to_bits(), "y at ({x},{y},{z})");
                    assert_eq!(a.z.to_bits(), b.z.to_bits(), "z at ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn matches_detects_intrinsics_change() {
        let k = CameraIntrinsics::kinect_depth(0.1);
        let t = RayTable::build(&k);
        assert!(t.matches(&k));
        let mut k2 = k;
        k2.fx += 1.0;
        assert!(!t.matches(&k2));
        let k3 = CameraIntrinsics::kinect_depth(0.2);
        assert!(!t.matches(&k3));
        assert!(!RayTable::empty().matches(&k));
    }
}
