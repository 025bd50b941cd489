//! Analytic animated scenes.
//!
//! A [`Scene`] is a list of animated primitives; resolving it at a time `t`
//! yields a [`SceneSnapshot`] of world-space shapes that the renderer ray
//! casts against. Primitives are analytic (spheres, capsules, boxes, a
//! floor) so intersection is exact and fast, and surface colour is
//! procedural so the colour stream carries real texture for the codec to
//! compress.

use livo_math::Vec3;

/// World-space geometry of one primitive.
#[derive(Debug, Clone, Copy)]
pub enum ShapeGeom {
    Sphere {
        center: Vec3,
        radius: f32,
    },
    /// Capsule: all points within `radius` of segment `a`..`b`.
    Capsule {
        a: Vec3,
        b: Vec3,
        radius: f32,
    },
    /// Axis-aligned box.
    Box {
        center: Vec3,
        half: Vec3,
    },
    /// The floor: the plane `y = height`, bounded to a disc of `radius`
    /// around the origin.
    Floor {
        height: f32,
        radius: f32,
    },
}

/// Procedural surface colour.
#[derive(Debug, Clone, Copy)]
pub enum Texture {
    Solid([u8; 3]),
    /// Two-colour checkerboard in world space with the given cell size.
    Checker([u8; 3], [u8; 3], f32),
    /// Horizontal stripes along world Y.
    Stripes([u8; 3], [u8; 3], f32),
}

impl Texture {
    /// Colour of the surface at world position `p`.
    pub fn color_at(&self, p: Vec3) -> [u8; 3] {
        match *self {
            Texture::Solid(c) => c,
            Texture::Checker(a, b, cell) => {
                let q = |v: f32| (v / cell).floor() as i64;
                if (q(p.x) + q(p.y) + q(p.z)).rem_euclid(2) == 0 {
                    a
                } else {
                    b
                }
            }
            Texture::Stripes(a, b, cell) => {
                if (p.y / cell).floor() as i64 % 2 == 0 {
                    a
                } else {
                    b
                }
            }
        }
    }
}

/// How a primitive moves over time. All motions are smooth and periodic so
/// any time can be sampled without state.
#[derive(Debug, Clone, Copy)]
pub enum Animation {
    Static,
    /// Sinusoidal sway along an axis: `offset = axis * amp * sin(2π f t + φ)`.
    Sway {
        axis: Vec3,
        amplitude: f32,
        freq_hz: f32,
        phase: f32,
    },
    /// Circular orbit in the XZ plane around `center` at `radius`.
    Orbit {
        center: Vec3,
        radius: f32,
        freq_hz: f32,
        phase: f32,
    },
    /// Vertical bobbing (a special case of sway kept for readability).
    Bob {
        amplitude: f32,
        freq_hz: f32,
        phase: f32,
    },
}

impl Animation {
    /// Positional offset at time `t` (seconds). Orbit returns an *absolute*
    /// replacement offset from its centre, so it composes differently — see
    /// [`AnimatedShape::resolve`].
    fn offset(&self, t: f32) -> Vec3 {
        match *self {
            Animation::Static => Vec3::ZERO,
            Animation::Sway {
                axis,
                amplitude,
                freq_hz,
                phase,
            } => axis * (amplitude * (2.0 * std::f32::consts::PI * freq_hz * t + phase).sin()),
            Animation::Orbit {
                center: _,
                radius,
                freq_hz,
                phase,
            } => {
                let a = 2.0 * std::f32::consts::PI * freq_hz * t + phase;
                Vec3::new(radius * a.cos(), 0.0, radius * a.sin())
            }
            Animation::Bob {
                amplitude,
                freq_hz,
                phase,
            } => Vec3::new(
                0.0,
                amplitude * (2.0 * std::f32::consts::PI * freq_hz * t + phase).sin(),
                0.0,
            ),
        }
    }
}

/// One animated primitive of a scene.
#[derive(Debug, Clone, Copy)]
pub struct AnimatedShape {
    pub geom: ShapeGeom,
    pub texture: Texture,
    pub animation: Animation,
}

impl AnimatedShape {
    pub fn fixed(geom: ShapeGeom, texture: Texture) -> Self {
        AnimatedShape {
            geom,
            texture,
            animation: Animation::Static,
        }
    }

    /// World-space shape at time `t`.
    pub fn resolve(&self, t: f32) -> ResolvedShape {
        let off = match self.animation {
            Animation::Orbit { center, .. } => {
                // Orbit replaces the horizontal position relative to centre.
                let abs = center + self.animation.offset(t);
                let base = match self.geom {
                    ShapeGeom::Sphere { center, .. } => center,
                    ShapeGeom::Capsule { a, b, .. } => (a + b) * 0.5,
                    ShapeGeom::Box { center, .. } => center,
                    ShapeGeom::Floor { .. } => Vec3::ZERO,
                };
                Vec3::new(abs.x - base.x, 0.0, abs.z - base.z)
            }
            _ => self.animation.offset(t),
        };
        let geom = match self.geom {
            ShapeGeom::Sphere { center, radius } => ShapeGeom::Sphere {
                center: center + off,
                radius,
            },
            ShapeGeom::Capsule { a, b, radius } => ShapeGeom::Capsule {
                a: a + off,
                b: b + off,
                radius,
            },
            ShapeGeom::Box { center, half } => ShapeGeom::Box {
                center: center + off,
                half,
            },
            f @ ShapeGeom::Floor { .. } => f,
        };
        ResolvedShape {
            geom,
            texture: self.texture,
        }
    }
}

/// A world-space shape at one instant.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedShape {
    pub geom: ShapeGeom,
    pub texture: Texture,
}

impl ResolvedShape {
    /// Ray intersection: smallest `s > s_min` with `origin + s·dir` on the
    /// surface. `dir` must be unit length.
    pub fn intersect(&self, origin: Vec3, dir: Vec3, s_min: f32) -> Option<f32> {
        match self.geom {
            ShapeGeom::Sphere { center, radius } => ray_sphere(origin, dir, center, radius, s_min),
            ShapeGeom::Capsule { a, b, radius } => ray_capsule(origin, dir, a, b, radius, s_min),
            ShapeGeom::Box { center, half } => ray_aabb(origin, dir, center, half, s_min),
            ShapeGeom::Floor { height, radius } => {
                if dir.y.abs() < 1e-8 {
                    return None;
                }
                let s = (height - origin.y) / dir.y;
                if s <= s_min {
                    return None;
                }
                let hit = origin + dir * s;
                let r2 = hit.x * hit.x + hit.z * hit.z;
                (r2 <= radius * radius).then_some(s)
            }
        }
    }
}

fn ray_sphere(o: Vec3, d: Vec3, c: Vec3, r: f32, s_min: f32) -> Option<f32> {
    let oc = o - c;
    let b = oc.dot(d);
    let disc = b * b - (oc.length_squared() - r * r);
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let s1 = -b - sq;
    if s1 > s_min {
        return Some(s1);
    }
    let s2 = -b + sq;
    (s2 > s_min).then_some(s2)
}

fn ray_aabb(o: Vec3, d: Vec3, c: Vec3, half: Vec3, s_min: f32) -> Option<f32> {
    let lo = c - half;
    let hi = c + half;
    let mut tmin = f32::NEG_INFINITY;
    let mut tmax = f32::INFINITY;
    for axis in 0..3 {
        let (o_a, d_a, lo_a, hi_a) = (o[axis], d[axis], lo[axis], hi[axis]);
        if d_a.abs() < 1e-9 {
            if o_a < lo_a || o_a > hi_a {
                return None;
            }
            continue;
        }
        let inv = 1.0 / d_a;
        let (t0, t1) = {
            let a = (lo_a - o_a) * inv;
            let b = (hi_a - o_a) * inv;
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        };
        tmin = tmin.max(t0);
        tmax = tmax.min(t1);
        if tmin > tmax {
            return None;
        }
    }
    if tmin > s_min {
        Some(tmin)
    } else if tmax > s_min {
        Some(tmax)
    } else {
        None
    }
}

fn ray_capsule(o: Vec3, d: Vec3, a: Vec3, b: Vec3, r: f32, s_min: f32) -> Option<f32> {
    // Infinite-cylinder intersection around axis a→b, then validate the hit
    // lies between the caps; cap spheres handle the ends.
    let axis = b - a;
    let len2 = axis.length_squared();
    if len2 < 1e-12 {
        return ray_sphere(o, d, a, r, s_min);
    }
    let mut best: Option<f32> = None;
    let mut consider = |s: Option<f32>| {
        if let Some(s) = s {
            if s > s_min && best.is_none_or(|bst| s < bst) {
                best = Some(s);
            }
        }
    };

    // Cylinder part: project out the axis component.
    let ao = o - a;
    let d_perp = d - axis * (d.dot(axis) / len2);
    let ao_perp = ao - axis * (ao.dot(axis) / len2);
    let qa = d_perp.length_squared();
    if qa > 1e-12 {
        let qb = 2.0 * d_perp.dot(ao_perp);
        let qc = ao_perp.length_squared() - r * r;
        let disc = qb * qb - 4.0 * qa * qc;
        if disc >= 0.0 {
            let sq = disc.sqrt();
            for s in [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)] {
                if s > s_min {
                    // Validate against caps.
                    let hit = o + d * s;
                    let u = (hit - a).dot(axis) / len2;
                    if (0.0..=1.0).contains(&u) {
                        consider(Some(s));
                    }
                }
            }
        }
    }
    // Cap spheres.
    consider(ray_sphere(o, d, a, r, s_min));
    consider(ray_sphere(o, d, b, r, s_min));
    best
}

/// An animated scene.
#[derive(Debug, Clone, Default)]
pub struct Scene {
    pub shapes: Vec<AnimatedShape>,
}

impl Scene {
    pub fn new() -> Self {
        Scene { shapes: Vec::new() }
    }

    pub fn add(&mut self, shape: AnimatedShape) {
        self.shapes.push(shape);
    }

    /// Resolve all shapes at time `t`.
    pub fn at(&self, t: f32) -> SceneSnapshot {
        SceneSnapshot {
            shapes: self.shapes.iter().map(|s| s.resolve(t)).collect(),
        }
    }
}

/// All shapes of a scene at one instant.
#[derive(Debug, Clone)]
pub struct SceneSnapshot {
    pub shapes: Vec<ResolvedShape>,
}

impl SceneSnapshot {
    /// Nearest intersection along the ray among the shapes at `candidates`
    /// (indices into `shapes`, ascending). Returns `(distance, colour)`; of
    /// equally near hits the first candidate wins, so a candidate list that
    /// keeps scene order and leaves out only shapes the ray cannot hit
    /// within `s_max` returns what the whole scene would.
    pub fn cast_ray(
        &self,
        candidates: &[usize],
        origin: Vec3,
        dir: Vec3,
        s_min: f32,
        s_max: f32,
    ) -> Option<(f32, [u8; 3])> {
        let mut best: Option<(f32, [u8; 3])> = None;
        for shape in candidates.iter().map(|&i| &self.shapes[i]) {
            if let Some(s) = shape.intersect(origin, dir, s_min) {
                if s <= s_max && best.is_none_or(|(bs, _)| s < bs) {
                    let hit = origin + dir * s;
                    best = Some((s, shape.texture.color_at(hit)));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_intersection_from_outside() {
        let s = ResolvedShape {
            geom: ShapeGeom::Sphere {
                center: Vec3::new(0.0, 0.0, 5.0),
                radius: 1.0,
            },
            texture: Texture::Solid([255, 0, 0]),
        };
        let hit = s.intersect(Vec3::ZERO, Vec3::Z, 0.0).unwrap();
        assert!((hit - 4.0).abs() < 1e-5);
        // Miss when aimed away.
        assert!(s.intersect(Vec3::ZERO, -Vec3::Z, 0.0).is_none());
    }

    #[test]
    fn sphere_intersection_from_inside() {
        let s = ResolvedShape {
            geom: ShapeGeom::Sphere {
                center: Vec3::ZERO,
                radius: 2.0,
            },
            texture: Texture::Solid([0; 3]),
        };
        let hit = s.intersect(Vec3::ZERO, Vec3::X, 0.0).unwrap();
        assert!((hit - 2.0).abs() < 1e-5);
    }

    #[test]
    fn aabb_intersection() {
        let b = ResolvedShape {
            geom: ShapeGeom::Box {
                center: Vec3::new(0.0, 0.0, 3.0),
                half: Vec3::splat(0.5),
            },
            texture: Texture::Solid([0; 3]),
        };
        let hit = b.intersect(Vec3::ZERO, Vec3::Z, 0.0).unwrap();
        assert!((hit - 2.5).abs() < 1e-5);
        // Ray parallel to a face but outside misses.
        assert!(b
            .intersect(Vec3::new(2.0, 0.0, 0.0), Vec3::Z, 0.0)
            .is_none());
    }

    #[test]
    fn capsule_intersection_side_and_caps() {
        let c = ResolvedShape {
            geom: ShapeGeom::Capsule {
                a: Vec3::new(0.0, -1.0, 4.0),
                b: Vec3::new(0.0, 1.0, 4.0),
                radius: 0.5,
            },
            texture: Texture::Solid([0; 3]),
        };
        // Side hit.
        let s = c.intersect(Vec3::ZERO, Vec3::Z, 0.0).unwrap();
        assert!((s - 3.5).abs() < 1e-4, "side hit {s}");
        // Cap hit: aim slightly above the top cap centre.
        let o = Vec3::new(0.0, 1.2, 0.0);
        let s2 = c.intersect(o, Vec3::Z, 0.0).unwrap();
        assert!(s2 > 3.0 && s2 < 4.0, "cap hit {s2}");
        // Ray above the capsule entirely misses.
        assert!(c
            .intersect(Vec3::new(0.0, 2.0, 0.0), Vec3::Z, 0.0)
            .is_none());
    }

    #[test]
    fn floor_intersection_bounded() {
        let f = ResolvedShape {
            geom: ShapeGeom::Floor {
                height: 0.0,
                radius: 3.0,
            },
            texture: Texture::Solid([0; 3]),
        };
        let o = Vec3::new(0.0, 1.0, 0.0);
        let down_fwd = Vec3::new(0.0, -1.0, 1.0).normalized();
        assert!(f.intersect(o, down_fwd, 0.0).is_some());
        // Beyond the disc radius: miss.
        let far = Vec3::new(0.0, -1.0, 10.0).normalized();
        assert!(f.intersect(o, far, 0.0).is_none());
    }

    #[test]
    fn snapshot_picks_nearest_shape() {
        let mut scene = Scene::new();
        scene.add(AnimatedShape::fixed(
            ShapeGeom::Sphere {
                center: Vec3::new(0.0, 0.0, 5.0),
                radius: 1.0,
            },
            Texture::Solid([1, 0, 0]),
        ));
        scene.add(AnimatedShape::fixed(
            ShapeGeom::Sphere {
                center: Vec3::new(0.0, 0.0, 3.0),
                radius: 0.5,
            },
            Texture::Solid([0, 2, 0]),
        ));
        let snap = scene.at(0.0);
        let (s, color) = snap
            .cast_ray(&[0, 1], Vec3::ZERO, Vec3::Z, 0.0, 100.0)
            .unwrap();
        assert!((s - 2.5).abs() < 1e-5);
        assert_eq!(color, [0, 2, 0]);
    }

    #[test]
    fn first_candidate_wins_a_tie() {
        let mut scene = Scene::new();
        for color in [[1, 0, 0], [0, 2, 0]] {
            scene.add(AnimatedShape::fixed(
                ShapeGeom::Sphere {
                    center: Vec3::new(0.0, 0.0, 5.0),
                    radius: 1.0,
                },
                Texture::Solid(color),
            ));
        }
        let snap = scene.at(0.0);
        let cast = |c: &[usize]| snap.cast_ray(c, Vec3::ZERO, Vec3::Z, 0.0, 100.0);
        assert_eq!(cast(&[0, 1]).unwrap().1, [1, 0, 0]);
        assert_eq!(cast(&[1]).unwrap().1, [0, 2, 0]);
        assert!(cast(&[]).is_none());
    }

    #[test]
    fn sway_animation_is_periodic() {
        let shape = AnimatedShape {
            geom: ShapeGeom::Sphere {
                center: Vec3::ZERO,
                radius: 1.0,
            },
            texture: Texture::Solid([0; 3]),
            animation: Animation::Sway {
                axis: Vec3::X,
                amplitude: 0.5,
                freq_hz: 1.0,
                phase: 0.0,
            },
        };
        let at = |t: f32| match shape.resolve(t).geom {
            ShapeGeom::Sphere { center, .. } => center,
            _ => unreachable!(),
        };
        assert!((at(0.0) - at(1.0)).length() < 1e-4, "period 1 s");
        assert!((at(0.25).x - 0.5).abs() < 1e-4, "peak at quarter period");
    }

    #[test]
    fn orbit_keeps_distance_from_center() {
        let shape = AnimatedShape {
            geom: ShapeGeom::Sphere {
                center: Vec3::new(2.0, 1.0, 0.0),
                radius: 0.3,
            },
            texture: Texture::Solid([0; 3]),
            animation: Animation::Orbit {
                center: Vec3::new(0.0, 0.0, 0.0),
                radius: 2.0,
                freq_hz: 0.2,
                phase: 0.0,
            },
        };
        for t in [0.0, 0.7, 1.9, 3.3] {
            if let ShapeGeom::Sphere { center, .. } = shape.resolve(t).geom {
                let horiz = Vec3::new(center.x, 0.0, center.z);
                assert!((horiz.length() - 2.0).abs() < 1e-3, "t={t}: {center:?}");
                assert!((center.y - 1.0).abs() < 1e-5, "height preserved");
            }
        }
    }

    #[test]
    fn checker_texture_alternates() {
        let t = Texture::Checker([255, 255, 255], [0, 0, 0], 1.0);
        assert_eq!(t.color_at(Vec3::new(0.5, 0.5, 0.5)), [255, 255, 255]); // cell sum even
        assert_eq!(t.color_at(Vec3::new(1.5, 0.5, 0.5)), [0, 0, 0]); // cell sum odd
    }

    #[test]
    fn cast_ray_respects_range() {
        let mut scene = Scene::new();
        scene.add(AnimatedShape::fixed(
            ShapeGeom::Sphere {
                center: Vec3::new(0.0, 0.0, 10.0),
                radius: 1.0,
            },
            Texture::Solid([9, 9, 9]),
        ));
        let snap = scene.at(0.0);
        assert!(
            snap.cast_ray(&[0], Vec3::ZERO, Vec3::Z, 0.0, 5.0).is_none(),
            "beyond s_max"
        );
        assert!(snap
            .cast_ray(&[0], Vec3::ZERO, Vec3::Z, 0.0, 20.0)
            .is_some());
    }
}
