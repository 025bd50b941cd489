//! Articulated synthetic people.
//!
//! A "person" is a small rig of capsules and a sphere (torso, head, two
//! arms, two legs) sharing an animation so the whole body moves coherently,
//! with per-limb phase offsets for gesturing. Different [`MotionStyle`]s
//! give the scene presets the motion character of the corresponding
//! Panoptic videos (a dancer covers space; someone working at a desk barely
//! moves).

use crate::scene::{AnimatedShape, Animation, ShapeGeom, Texture};
use livo_math::Vec3;

/// How much and how a person moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MotionStyle {
    /// Large, fast sways — a dancer.
    Dance,
    /// Periodic arm motion with a steady torso — playing an instrument.
    Play,
    /// Small idle motion — standing/eating/chatting.
    Idle,
    /// Very small motion — seated, working.
    Seated,
    /// Low-amplitude but high-frequency — a child playing.
    Child,
}

impl MotionStyle {
    fn torso_amp(self) -> f32 {
        match self {
            MotionStyle::Dance => 0.50,
            MotionStyle::Play => 0.08,
            MotionStyle::Idle => 0.05,
            MotionStyle::Seated => 0.02,
            MotionStyle::Child => 0.25,
        }
    }

    fn torso_freq(self) -> f32 {
        match self {
            MotionStyle::Dance => 0.5,
            MotionStyle::Play => 0.3,
            MotionStyle::Idle => 0.2,
            MotionStyle::Seated => 0.15,
            MotionStyle::Child => 0.9,
        }
    }

    fn arm_amp(self) -> f32 {
        match self {
            MotionStyle::Dance => 0.35,
            MotionStyle::Play => 0.18,
            MotionStyle::Idle => 0.06,
            MotionStyle::Seated => 0.05,
            MotionStyle::Child => 0.20,
        }
    }

    fn scale(self) -> f32 {
        match self {
            MotionStyle::Child => 0.55,
            MotionStyle::Seated => 0.8,
            _ => 1.0,
        }
    }
}

/// Build the shapes of one person standing at `base` (feet position on the
/// floor), facing roughly +Z, wearing `shirt`/`pants` colours. `phase`
/// de-synchronises multiple people.
pub(crate) fn person(
    base: Vec3,
    style: MotionStyle,
    shirt: [u8; 3],
    pants: [u8; 3],
    phase: f32,
) -> Vec<AnimatedShape> {
    let s = style.scale();
    let sway = Animation::Sway {
        axis: Vec3::new(1.0, 0.0, 0.3).normalized(),
        amplitude: style.torso_amp(),
        freq_hz: style.torso_freq(),
        phase,
    };
    let arm_l_anim = Animation::Sway {
        axis: Vec3::new(0.4, 1.0, 0.0).normalized(),
        amplitude: style.arm_amp(),
        freq_hz: style.torso_freq() * 2.0,
        phase: phase + 1.0,
    };
    let arm_r_anim = Animation::Sway {
        axis: Vec3::new(-0.4, 1.0, 0.2).normalized(),
        amplitude: style.arm_amp(),
        freq_hz: style.torso_freq() * 2.0,
        phase: phase + 2.5,
    };

    let hip = base + Vec3::new(0.0, 0.95 * s, 0.0);
    let shoulder = base + Vec3::new(0.0, 1.45 * s, 0.0);
    let head_c = base + Vec3::new(0.0, 1.65 * s, 0.0);
    let skin = [224, 186, 158];

    let mut shapes = vec![
        // Torso.
        AnimatedShape {
            geom: ShapeGeom::Capsule {
                a: hip,
                b: shoulder,
                radius: 0.18 * s,
            },
            texture: Texture::Stripes(shirt, dim(shirt), 0.3),
            animation: sway,
        },
        // Head.
        AnimatedShape {
            geom: ShapeGeom::Sphere {
                center: head_c,
                radius: 0.12 * s,
            },
            texture: Texture::Solid(skin),
            animation: sway,
        },
        // Left arm.
        AnimatedShape {
            geom: ShapeGeom::Capsule {
                a: shoulder + Vec3::new(-0.22 * s, 0.0, 0.0),
                b: shoulder + Vec3::new(-0.35 * s, -0.45 * s, 0.15 * s),
                radius: 0.06 * s,
            },
            texture: Texture::Solid(skin),
            animation: arm_l_anim,
        },
        // Right arm.
        AnimatedShape {
            geom: ShapeGeom::Capsule {
                a: shoulder + Vec3::new(0.22 * s, 0.0, 0.0),
                b: shoulder + Vec3::new(0.35 * s, -0.45 * s, 0.15 * s),
                radius: 0.06 * s,
            },
            texture: Texture::Solid(skin),
            animation: arm_r_anim,
        },
        // Legs.
        AnimatedShape {
            geom: ShapeGeom::Capsule {
                a: base + Vec3::new(-0.1 * s, 0.05, 0.0),
                b: hip + Vec3::new(-0.1 * s, 0.0, 0.0),
                radius: 0.08 * s,
            },
            texture: Texture::Solid(pants),
            animation: sway,
        },
        AnimatedShape {
            geom: ShapeGeom::Capsule {
                a: base + Vec3::new(0.1 * s, 0.05, 0.0),
                b: hip + Vec3::new(0.1 * s, 0.0, 0.0),
                radius: 0.08 * s,
            },
            texture: Texture::Solid(pants),
            animation: sway,
        },
    ];

    if style == MotionStyle::Dance {
        // A dancer also covers ground: orbit the whole body slowly. Replace
        // the torso/head/leg sway with a combined orbit by adding orbiting
        // duplicates is overkill; instead widen the sway amplitude on legs.
        for shape in &mut shapes {
            if let Animation::Sway { amplitude, .. } = &mut shape.animation {
                *amplitude *= 1.5;
            }
        }
    }
    shapes
}

fn dim(c: [u8; 3]) -> [u8; 3] {
    [c[0] / 2, c[1] / 2, c[2] / 2]
}

/// Shape count per person (the dataset tests check Table 3's object counts
/// with it).
#[cfg(test)]
pub(crate) const SHAPES_PER_PERSON: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn person_has_expected_shape_count() {
        let p = person(
            Vec3::ZERO,
            MotionStyle::Idle,
            [200, 30, 30],
            [40, 40, 90],
            0.0,
        );
        assert_eq!(p.len(), SHAPES_PER_PERSON);
    }

    #[test]
    fn person_fits_in_human_bounding_box() {
        let p = person(Vec3::ZERO, MotionStyle::Idle, [1, 2, 3], [4, 5, 6], 0.0);
        for shape in &p {
            let top = match shape.resolve(0.0).geom {
                ShapeGeom::Sphere { center, radius } => center.y + radius,
                ShapeGeom::Capsule { a, b, radius } => a.y.max(b.y) + radius,
                ShapeGeom::Box { center, half } => center.y + half.y,
                ShapeGeom::Floor { height, .. } => height,
            };
            assert!(top < 2.1, "shape too tall: {top}");
        }
    }

    #[test]
    fn child_is_shorter_than_adult() {
        let adult = person(Vec3::ZERO, MotionStyle::Idle, [0; 3], [0; 3], 0.0);
        let child = person(Vec3::ZERO, MotionStyle::Child, [0; 3], [0; 3], 0.0);
        let head_y = |shapes: &[AnimatedShape]| match shapes[1].geom {
            ShapeGeom::Sphere { center, .. } => center.y,
            _ => unreachable!(),
        };
        assert!(head_y(&child) < head_y(&adult));
    }

    #[test]
    fn dancer_moves_more_than_seated() {
        let measure = |style: MotionStyle| {
            let p = person(Vec3::ZERO, style, [0; 3], [0; 3], 0.0);
            let torso = &p[0];
            let pos = |t: f32| match torso.resolve(t).geom {
                ShapeGeom::Capsule { a, .. } => a,
                _ => unreachable!(),
            };
            // Max displacement over a few seconds.
            (0..60)
                .map(|i| (pos(i as f32 * 0.1) - pos(0.0)).length())
                .fold(0.0f32, f32::max)
        };
        assert!(measure(MotionStyle::Dance) > 4.0 * measure(MotionStyle::Seated));
    }
}
