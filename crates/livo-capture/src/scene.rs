//! Analytic animated scenes.
//!
//! A [`Scene`] is a list of animated primitives; resolving it at a time `t`
//! yields a [`SceneSnapshot`] of world-space shapes that the renderer ray
//! casts against. Primitives are analytic (spheres, capsules, boxes, a
//! floor) so intersection is exact and fast, and surface colour is
//! procedural so the colour stream carries real texture for the codec to
//! compress.

use livo_math::{floor_to_i32, Vec3, LANES};

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
        // `(v / cell).floor() as i64`; libm only where `i32` cannot hold it.
        let cell_of = |v: f32, cell: f32| {
            let q = v / cell;
            if q.abs() < 2_147_483_648.0 {
                floor_to_i32(q) as i64
            } else {
                q.floor() as i64
            }
        };
        match *self {
            Texture::Solid(c) => c,
            Texture::Checker(a, b, cell) => {
                let q = |v: f32| cell_of(v, cell);
                if (q(p.x) + q(p.y) + q(p.z)).rem_euclid(2) == 0 {
                    a
                } else {
                    b
                }
            }
            Texture::Stripes(a, b, cell) => {
                if cell_of(p.y, cell) % 2 == 0 {
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

/// One `f32` per lane of a [`RayPacket`].
pub(crate) type Lanes = [f32; LANES];

/// [`LANES`] rays from one origin: the rays of one tile row. Lane bodies
/// below return, per lane, the smallest `s > s_min` with `origin + s·dir`
/// on the surface, or NaN for no hit. Each runs its scalar form's
/// operations in their order, with branches turned into masks, so a lane
/// is bit-equal to casting that lane's ray alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RayPacket {
    pub origin: Vec3,
    /// Unit directions, component-major: `dir[axis][lane]`.
    pub dir: [Lanes; 3],
    pub s_min: Lanes,
}

impl RayPacket {
    #[inline(always)]
    pub fn dir(&self, l: usize) -> Vec3 {
        Vec3::new(self.dir[0][l], self.dir[1][l], self.dir[2][l])
    }
}

/// `best` after offering it `s`: the first of equally near hits beyond
/// `s_min` wins, and NaN is no hit.
#[inline(always)]
fn nearer(best: f32, s: f32, s_min: f32) -> f32 {
    if (s > s_min) & (best.is_nan() | (s < best)) {
        s
    } else {
        best
    }
}

impl ShapeGeom {
    /// The packet's hits on this shape, per lane (NaN: none). `#[inline(always)]`
    /// so that the renderer's AVX2 build compiles it at 256 bits.
    #[inline(always)]
    pub(crate) fn intersect_lanes(&self, rays: &RayPacket) -> Lanes {
        match *self {
            ShapeGeom::Sphere { center, radius } => sphere_lanes(rays, center, radius),
            ShapeGeom::Capsule { a, b, radius } => capsule_lanes(rays, a, b, radius),
            ShapeGeom::Box { center, half } => box_lanes(rays, center, half),
            ShapeGeom::Floor { height, radius } => floor_lanes(rays, height, radius),
        }
    }
}

#[inline(always)]
fn sphere_lanes(rays: &RayPacket, c: Vec3, r: f32) -> Lanes {
    let oc = rays.origin - c;
    let c_term = oc.length_squared() - r * r;
    let mut out = [0.0; LANES];
    for (l, out) in out.iter_mut().enumerate() {
        let b = oc.dot(rays.dir(l));
        let disc = b * b - c_term;
        let sq = disc.sqrt();
        let (s1, s2) = (-b - sq, -b + sq);
        let s_min = rays.s_min[l];
        let s = if s1 > s_min {
            s1
        } else if s2 > s_min {
            s2
        } else {
            f32::NAN
        };
        *out = if disc < 0.0 { f32::NAN } else { s };
    }
    out
}

/// Slab test. A lane whose direction is flat on an axis (`|d| < 1e-9`)
/// keeps its interval there and dies if the origin is outside that slab;
/// a lane whose interval empties dies. Dead lanes compute on and return NaN.
#[inline(always)]
fn box_lanes(rays: &RayPacket, c: Vec3, half: Vec3) -> Lanes {
    let (o, lo, hi) = (rays.origin, c - half, c + half);
    let mut tmin = [f32::NEG_INFINITY; LANES];
    let mut tmax = [f32::INFINITY; LANES];
    let mut live = [true; LANES];
    for axis in 0..3 {
        let (o_a, lo_a, hi_a) = (o[axis], lo[axis], hi[axis]);
        let outside = o_a < lo_a || o_a > hi_a;
        for l in 0..LANES {
            let d_a = rays.dir[axis][l];
            let flat = d_a.abs() < 1e-9;
            let inv = 1.0 / d_a;
            let a = (lo_a - o_a) * inv;
            let b = (hi_a - o_a) * inv;
            let (t0, t1) = if a < b { (a, b) } else { (b, a) };
            // Neither is NaN (`max` / `min` drop a NaN operand, and the
            // bounds start infinite), so `<=` is the scalar's `!(>)`.
            let (lo_t, hi_t) = (tmin[l].max(t0), tmax[l].min(t1));
            live[l] &= if flat { !outside } else { lo_t <= hi_t };
            tmin[l] = if flat { tmin[l] } else { lo_t };
            tmax[l] = if flat { tmax[l] } else { hi_t };
        }
    }
    let mut out = [0.0; LANES];
    for (l, out) in out.iter_mut().enumerate() {
        let s_min = rays.s_min[l];
        let s = if tmin[l] > s_min {
            tmin[l]
        } else if tmax[l] > s_min {
            tmax[l]
        } else {
            f32::NAN
        };
        *out = if live[l] { s } else { f32::NAN };
    }
    out
}

/// Infinite-cylinder intersection around axis a→b, each root kept only if
/// it lies between the caps; the cap spheres handle the ends. Candidates are
/// offered to [`nearer`] in the order root −, root +, cap `a`, cap `b`.
#[inline(always)]
fn capsule_lanes(rays: &RayPacket, a: Vec3, b: Vec3, r: f32) -> Lanes {
    let axis = b - a;
    let len2 = axis.length_squared();
    if len2 < 1e-12 {
        return sphere_lanes(rays, a, r);
    }
    let o = rays.origin;
    // Cylinder part: project out the axis component.
    let ao = o - a;
    let ao_perp = ao - axis * (ao.dot(axis) / len2);
    let qc = ao_perp.length_squared() - r * r;
    let (cap_a, cap_b) = (sphere_lanes(rays, a, r), sphere_lanes(rays, b, r));
    let mut out = [0.0; LANES];
    for (l, out) in out.iter_mut().enumerate() {
        let d = rays.dir(l);
        let s_min = rays.s_min[l];
        let d_perp = d - axis * (d.dot(axis) / len2);
        let qa = d_perp.length_squared();
        let qb = 2.0 * d_perp.dot(ao_perp);
        let disc = qb * qb - 4.0 * qa * qc;
        let cylinder = (qa > 1e-12) & (disc >= 0.0);
        let sq = disc.sqrt();
        let mut best = f32::NAN;
        for s in [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)] {
            let hit = o + d * s;
            let u = (hit - a).dot(axis) / len2;
            let between = (0.0..=1.0).contains(&u);
            best = nearer(best, if cylinder & between { s } else { f32::NAN }, s_min);
        }
        best = nearer(best, cap_a[l], s_min);
        *out = nearer(best, cap_b[l], s_min);
    }
    out
}

/// The plane `y = height` inside the disc of `radius`; a lane parallel to
/// it (`|d.y| < 1e-8`) misses.
#[inline(always)]
fn floor_lanes(rays: &RayPacket, height: f32, radius: f32) -> Lanes {
    let o = rays.origin;
    let mut out = [0.0; LANES];
    for (l, out) in out.iter_mut().enumerate() {
        let d = rays.dir(l);
        let s = (height - o.y) / d.y;
        let hit = o + d * s;
        let r2 = hit.x * hit.x + hit.z * hit.z;
        // Past the parallel test `s` is finite, so `>` is the scalar's
        // `!(<=)`.
        let on_disc = (d.y.abs() >= 1e-8) & (s > rays.s_min[l]) & (r2 <= radius * radius);
        *out = if on_disc { s } else { f32::NAN };
    }
    out
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

/// Shape index of a lane that hit nothing.
pub(crate) const NO_HIT: u32 = u32::MAX;

impl SceneSnapshot {
    /// Nearest hit per lane among the shapes at `candidates` (indices into
    /// `shapes`, ascending) within the lane's `s_max`: the distance and the
    /// shape's index, or [`NO_HIT`]. Of equally near hits the first
    /// candidate wins, so a candidate list that keeps scene order and
    /// leaves out only shapes the packet cannot hit within `s_max` returns
    /// what the whole scene would.
    #[inline(always)]
    pub(crate) fn cast_packet(
        &self,
        candidates: &[usize],
        rays: &RayPacket,
        s_max: &Lanes,
    ) -> (Lanes, [u32; LANES]) {
        let mut best_s = [f32::INFINITY; LANES];
        let mut best_i = [NO_HIT; LANES];
        for &i in candidates {
            let s = self.shapes[i].geom.intersect_lanes(rays);
            for l in 0..LANES {
                let take = (s[l] <= s_max[l]) & (s[l] < best_s[l]);
                best_s[l] = if take { s[l] } else { best_s[l] };
                best_i[l] = if take { i as u32 } else { best_i[l] };
            }
        }
        (best_s, best_i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::rng::{cases, SplitMix64};

    /// A packet with the one ray in every lane.
    fn packet(origin: Vec3, dir: Vec3, s_min: f32) -> RayPacket {
        RayPacket {
            origin,
            dir: [[dir.x; LANES], [dir.y; LANES], [dir.z; LANES]],
            s_min: [s_min; LANES],
        }
    }

    /// The shape's hit on one ray, cast in every lane of a packet; the
    /// lanes must agree.
    fn hit(shape: &ResolvedShape, origin: Vec3, dir: Vec3, s_min: f32) -> Option<f32> {
        let s = shape.geom.intersect_lanes(&packet(origin, dir, s_min));
        assert!(s.iter().all(|v| v.to_bits() == s[0].to_bits()), "{s:?}");
        (!s[0].is_nan()).then_some(s[0])
    }

    /// [`SceneSnapshot::cast_packet`] on one ray in every lane, shaded at
    /// the hit: `(distance, colour)`.
    fn cast(
        snap: &SceneSnapshot,
        candidates: &[usize],
        dir: Vec3,
        s_max: f32,
    ) -> Option<(f32, [u8; 3])> {
        let rays = packet(Vec3::ZERO, dir, 0.0);
        let (s, i) = snap.cast_packet(candidates, &rays, &[s_max; LANES]);
        assert!(i.iter().all(|&v| v == i[0]), "{i:?}");
        (i[0] != NO_HIT).then(|| {
            let shape = &snap.shapes[i[0] as usize];
            (s[0], shape.texture.color_at(dir * s[0]))
        })
    }

    fn point(rng: &mut SplitMix64, r: f32) -> Vec3 {
        Vec3::new(
            rng.gen_range(-r..r),
            rng.gen_range(-r..r),
            rng.gen_range(-r..r),
        )
    }

    #[test]
    fn lane_bodies_equal_the_scalar_casts_lane_by_lane() {
        cases(0x1A4E_B0D1, 4000, |rng| {
            let c = point(rng, 2.0);
            let r = rng.gen_range(0.005f32..1.0);
            let geom = match rng.gen_range(0u32..5) {
                0 => ShapeGeom::Sphere {
                    center: c,
                    radius: r,
                },
                1 => ShapeGeom::Capsule {
                    a: c,
                    b: c + point(rng, 1.0),
                    radius: r,
                },
                2 => ShapeGeom::Capsule {
                    a: c,
                    b: c,
                    radius: r,
                },
                3 => {
                    let mut half = point(rng, 1.0).to_array().map(f32::abs);
                    if rng.gen_bool(0.3) {
                        half[rng.gen_range(0usize..3)] = 0.001;
                    }
                    ShapeGeom::Box {
                        center: c,
                        half: Vec3::from_array(half),
                    }
                }
                _ => ShapeGeom::Floor {
                    height: c.y,
                    radius: rng.gen_range(0.5f32..8.0),
                },
            };
            // Now and then an origin on one of the shape's axis planes (a
            // box's faces among them), so flat lanes start on a slab face.
            let mut origin = point(rng, 3.0);
            if rng.gen_bool(0.3) {
                let axis = rng.gen_range(0usize..3);
                let side = match geom {
                    ShapeGeom::Box { half, .. } => half * rng.gen_range(-1i32..2) as f32,
                    _ => Vec3::ZERO,
                };
                let mut o = origin.to_array();
                o[axis] = c[axis] + side[axis];
                origin = Vec3::from_array(o);
            }
            let mut rays = packet(origin, Vec3::Z, 0.0);
            for l in 0..LANES {
                // Aim near the shape; zero one or two components exactly
                // now and then (flat box lanes, rays parallel to the floor).
                let mut d = (c + point(rng, 1.5 * r) - origin).to_array();
                for _ in 0..rng.gen_range(0usize..3) {
                    d[rng.gen_range(0usize..3)] = 0.0;
                }
                let d = Vec3::from_array(d).normalized();
                let d = if d == Vec3::ZERO { Vec3::Y } else { d };
                (rays.dir[0][l], rays.dir[1][l], rays.dir[2][l]) = (d.x, d.y, d.z);
                rays.s_min[l] = if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen_range(0.0f32..4.0)
                };
            }
            let lanes = geom.intersect_lanes(&rays);
            let shape = ResolvedShape {
                geom,
                texture: Texture::Solid([0; 3]),
            };
            for (l, s) in lanes.iter().enumerate() {
                let want = shape.intersect(origin, rays.dir(l), rays.s_min[l]);
                assert_eq!(
                    want.map(f32::to_bits),
                    (!s.is_nan()).then_some(s.to_bits()),
                    "{geom:?}, lane {l}: {:?} from {origin:?}",
                    rays.dir(l)
                );
            }
        });
    }

    #[test]
    fn sphere_intersection_from_outside() {
        let s = ResolvedShape {
            geom: ShapeGeom::Sphere {
                center: Vec3::new(0.0, 0.0, 5.0),
                radius: 1.0,
            },
            texture: Texture::Solid([255, 0, 0]),
        };
        let s_hit = hit(&s, Vec3::ZERO, Vec3::Z, 0.0).unwrap();
        assert!((s_hit - 4.0).abs() < 1e-5);
        // Miss when aimed away.
        assert!(hit(&s, Vec3::ZERO, -Vec3::Z, 0.0).is_none());
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
        let s_hit = hit(&s, Vec3::ZERO, Vec3::X, 0.0).unwrap();
        assert!((s_hit - 2.0).abs() < 1e-5);
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
        let s_hit = hit(&b, Vec3::ZERO, Vec3::Z, 0.0).unwrap();
        assert!((s_hit - 2.5).abs() < 1e-5);
        // Ray parallel to a face but outside misses.
        assert!(hit(&b, Vec3::new(2.0, 0.0, 0.0), Vec3::Z, 0.0).is_none());
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
        let s = hit(&c, Vec3::ZERO, Vec3::Z, 0.0).unwrap();
        assert!((s - 3.5).abs() < 1e-4, "side hit {s}");
        // Cap hit: aim slightly above the top cap centre.
        let o = Vec3::new(0.0, 1.2, 0.0);
        let s2 = hit(&c, o, Vec3::Z, 0.0).unwrap();
        assert!(s2 > 3.0 && s2 < 4.0, "cap hit {s2}");
        // Ray above the capsule entirely misses.
        assert!(hit(&c, Vec3::new(0.0, 2.0, 0.0), Vec3::Z, 0.0).is_none());
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
        assert!(hit(&f, o, down_fwd, 0.0).is_some());
        // Beyond the disc radius: miss.
        let far = Vec3::new(0.0, -1.0, 10.0).normalized();
        assert!(hit(&f, o, far, 0.0).is_none());
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
        let (s, color) = cast(&snap, &[0, 1], Vec3::Z, 100.0).unwrap();
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
        let cast = |c: &[usize]| cast(&snap, c, Vec3::Z, 100.0);
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
    fn texture_cells_are_libm_floor_cells() {
        let libm = |t: &Texture, p: Vec3| match *t {
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
            Texture::Solid(c) => c,
        };
        let (a, b) = ([1, 2, 3], [4, 5, 6]);
        cases(0x7E47_C311, 20_000, |rng| {
            let cell = [0.05, 0.1, 0.25, 1e-9][rng.gen_range(0usize..4)];
            // Cell boundaries ± one ulp, and values past ±2³¹ cells.
            let mut coord = || {
                let v = rng.gen_range(-400i32..400) as f32 * cell;
                match rng.gen_range(0u32..4) {
                    0 => f32::from_bits(v.to_bits().wrapping_add(1)),
                    1 => f32::from_bits(v.to_bits().wrapping_sub(1)),
                    2 => rng.gen_range(-4e3f32..4e3),
                    _ => v,
                }
            };
            let p = Vec3::new(coord(), coord(), coord());
            for t in [Texture::Checker(a, b, cell), Texture::Stripes(a, b, cell)] {
                assert_eq!(t.color_at(p), libm(&t, p), "{t:?} at {p:?}");
            }
        });
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
        assert!(cast(&snap, &[0], Vec3::Z, 5.0).is_none(), "beyond s_max");
        assert!(cast(&snap, &[0], Vec3::Z, 20.0).is_some());
    }
}
