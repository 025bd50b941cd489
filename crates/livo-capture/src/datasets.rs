//! Scene presets mirroring Table 3 of the paper.
//!
//! The paper evaluates on five Panoptic-dataset videos. We rebuild each as a
//! procedural scene with the same *object count*, *duration* and *motion
//! character* (Table 3: objects include people):
//!
//! | video    | content             | duration | objects | frame size |
//! |----------|---------------------|----------|---------|------------|
//! | band2    | musical performance | 197 s    | 9       | 11.1 MB    |
//! | dance5   | dance               | 333 s    | 1       | 10.8 MB    |
//! | office1  | person working      | 187 s    | 7       | 10.6 MB    |
//! | pizza1   | food and party      | 47 s     | 14      | 13.8 MB    |
//! | toddler4 | child playing games | 127 s    | 3       | 10.6 MB    |
//!
//! The floor and walls are background (not counted as objects), as in the
//! Panoptic captures where the dome itself is not an "object". Frame sizes
//! emerge from rendering + fusing the camera array; the `repro table3`
//! harness reports the measured sizes next to the paper's.

use crate::people::{person, MotionStyle};
use crate::scene::{AnimatedShape, Animation, Scene, ShapeGeom, Texture};
use livo_math::Vec3;

/// Identifier of one of the five evaluation videos.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VideoId {
    Band2,
    Dance5,
    Office1,
    Pizza1,
    Toddler4,
}

impl VideoId {
    pub const ALL: [VideoId; 5] = [
        VideoId::Band2,
        VideoId::Dance5,
        VideoId::Office1,
        VideoId::Pizza1,
        VideoId::Toddler4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            VideoId::Band2 => "band2",
            VideoId::Dance5 => "dance5",
            VideoId::Office1 => "office1",
            VideoId::Pizza1 => "pizza1",
            VideoId::Toddler4 => "toddler4",
        }
    }
}

impl std::fmt::Display for VideoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One evaluation video: scene + metadata.
#[derive(Debug, Clone)]
pub struct DatasetPreset {
    pub id: VideoId,
    pub description: &'static str,
    /// Paper's full duration in seconds (replays may use a prefix).
    pub duration_s: u32,
    /// Number of foreground objects, people included (Table 3).
    pub object_count: usize,
    /// Paper's reported average uncompressed frame size in MB (Table 3).
    pub paper_frame_mb: f64,
    pub scene: Scene,
    pub fps: u32,
}

impl DatasetPreset {
    /// Build the preset for a video.
    pub fn load(id: VideoId) -> DatasetPreset {
        match id {
            VideoId::Band2 => band2(),
            VideoId::Dance5 => dance5(),
            VideoId::Office1 => office1(),
            VideoId::Pizza1 => pizza1(),
            VideoId::Toddler4 => toddler4(),
        }
    }

    /// All five presets.
    pub fn all() -> Vec<DatasetPreset> {
        VideoId::ALL.iter().map(|&id| Self::load(id)).collect()
    }

    /// Total frames at the native frame rate.
    pub fn total_frames(&self) -> u64 {
        self.duration_s as u64 * self.fps as u64
    }
}

/// Background common to all presets: floor disc plus two wall slabs, giving
/// the full-scene bulk that makes the paper's frames ~10 MB.
fn background(scene: &mut Scene) {
    // Floor sized to the capture area: the Panoptic dome floor, not an
    // endless plane — keeps full-scene frames near the paper's ~10 MB
    // (about a third of the pixels return depth).
    scene.add(AnimatedShape::fixed(
        ShapeGeom::Floor {
            height: 0.0,
            radius: 2.6,
        },
        Texture::Checker([120, 110, 100], [90, 82, 74], 1.3),
    ));
    scene.add(AnimatedShape::fixed(
        ShapeGeom::Box {
            center: Vec3::new(0.0, 1.5, 4.2),
            half: Vec3::new(4.5, 1.5, 0.1),
        },
        Texture::Checker([188, 186, 178], [170, 168, 160], 2.0),
    ));
    scene.add(AnimatedShape::fixed(
        ShapeGeom::Box {
            center: Vec3::new(-4.2, 1.5, 0.0),
            half: Vec3::new(0.1, 1.5, 4.5),
        },
        Texture::Stripes([178, 176, 186], [160, 158, 168], 1.5),
    ));
}

fn table(center: Vec3, half: Vec3, top: [u8; 3]) -> AnimatedShape {
    AnimatedShape::fixed(
        ShapeGeom::Box { center, half },
        Texture::Checker(top, dim(top), 0.6),
    )
}

fn prop_sphere(center: Vec3, radius: f32, color: [u8; 3], bob: f32, phase: f32) -> AnimatedShape {
    AnimatedShape {
        geom: ShapeGeom::Sphere { center, radius },
        texture: Texture::Solid(color),
        animation: if bob > 0.0 {
            Animation::Bob {
                amplitude: bob,
                freq_hz: 0.4,
                phase,
            }
        } else {
            Animation::Static
        },
    }
}

fn dim(c: [u8; 3]) -> [u8; 3] {
    [c[0] / 2, c[1] / 2, c[2] / 2]
}

/// band2: a four-piece band (4 people) + 5 instruments/props = 9 objects.
fn band2() -> DatasetPreset {
    let mut scene = Scene::new();
    background(&mut scene);
    let mut objects = 0;
    let spots = [
        (Vec3::new(-1.2, 0.0, -0.5), 0.0f32),
        (Vec3::new(-0.4, 0.0, 0.6), 1.3),
        (Vec3::new(0.5, 0.0, -0.7), 2.6),
        (Vec3::new(1.3, 0.0, 0.4), 3.9),
    ];
    let shirts = [[200, 40, 40], [40, 80, 200], [230, 190, 40], [40, 170, 90]];
    for (i, (base, phase)) in spots.iter().enumerate() {
        for s in person(*base, MotionStyle::Play, shirts[i], [35, 35, 50], *phase) {
            scene.add(s);
        }
        objects += 1;
    }
    // Instruments/props: 5 (drum, two amps, keyboard stand, mic sphere).
    scene.add(table(
        Vec3::new(-1.2, 0.4, -1.0),
        Vec3::new(0.3, 0.4, 0.3),
        [160, 80, 30],
    ));
    scene.add(table(
        Vec3::new(1.6, 0.3, -0.8),
        Vec3::new(0.25, 0.3, 0.25),
        [60, 60, 70],
    ));
    scene.add(table(
        Vec3::new(-1.8, 0.3, 0.8),
        Vec3::new(0.25, 0.3, 0.25),
        [60, 60, 70],
    ));
    scene.add(table(
        Vec3::new(0.0, 0.45, 1.2),
        Vec3::new(0.5, 0.05, 0.2),
        [20, 20, 24],
    ));
    scene.add(prop_sphere(
        Vec3::new(0.0, 1.5, -1.3),
        0.06,
        [220, 220, 230],
        0.0,
        0.0,
    ));
    objects += 5;
    DatasetPreset {
        id: VideoId::Band2,
        description: "Musical performance",
        duration_s: 197,
        object_count: objects,
        paper_frame_mb: 11.1,
        scene,
        fps: 30,
    }
}

/// dance5: a single dancer, nothing else.
fn dance5() -> DatasetPreset {
    let mut scene = Scene::new();
    background(&mut scene);
    for s in person(
        Vec3::new(0.0, 0.0, 0.0),
        MotionStyle::Dance,
        [230, 60, 140],
        [30, 30, 40],
        0.0,
    ) {
        scene.add(s);
    }
    DatasetPreset {
        id: VideoId::Dance5,
        description: "Dance",
        duration_s: 333,
        object_count: 1,
        paper_frame_mb: 10.8,
        scene,
        fps: 30,
    }
}

/// office1: one person working at a desk + 6 furniture/props = 7 objects.
fn office1() -> DatasetPreset {
    let mut scene = Scene::new();
    background(&mut scene);
    for s in person(
        Vec3::new(0.0, 0.0, -0.3),
        MotionStyle::Seated,
        [90, 120, 180],
        [50, 50, 60],
        0.0,
    ) {
        scene.add(s);
    }
    // Desk, chair, monitor, lamp, shelf, plant.
    scene.add(table(
        Vec3::new(0.0, 0.72, 0.45),
        Vec3::new(0.8, 0.03, 0.4),
        [150, 110, 70],
    ));
    scene.add(table(
        Vec3::new(0.0, 0.25, -0.7),
        Vec3::new(0.25, 0.25, 0.25),
        [70, 70, 80],
    ));
    scene.add(table(
        Vec3::new(0.0, 1.0, 0.65),
        Vec3::new(0.3, 0.2, 0.03),
        [25, 25, 30],
    ));
    scene.add(prop_sphere(
        Vec3::new(0.7, 0.95, 0.5),
        0.08,
        [240, 230, 150],
        0.0,
        0.0,
    ));
    scene.add(table(
        Vec3::new(-2.0, 0.9, 1.8),
        Vec3::new(0.5, 0.9, 0.2),
        [120, 90, 60],
    ));
    scene.add(prop_sphere(
        Vec3::new(1.8, 0.35, -1.5),
        0.35,
        [60, 140, 60],
        0.0,
        0.0,
    ));
    DatasetPreset {
        id: VideoId::Office1,
        description: "Person working",
        duration_s: 187,
        object_count: 7,
        paper_frame_mb: 10.6,
        scene,
        fps: 30,
    }
}

/// pizza1: six people around a table + table + 7 food props = 14 objects.
fn pizza1() -> DatasetPreset {
    let mut scene = Scene::new();
    background(&mut scene);
    let mut objects = 0;
    let shirts: [[u8; 3]; 6] = [
        [210, 60, 60],
        [60, 90, 210],
        [240, 200, 60],
        [70, 180, 100],
        [180, 80, 200],
        [90, 200, 210],
    ];
    for (i, &shirt) in shirts.iter().enumerate() {
        let a = i as f32 / 6.0 * std::f32::consts::TAU;
        let base = Vec3::new(1.5 * a.cos(), 0.0, 1.5 * a.sin());
        for s in person(base, MotionStyle::Idle, shirt, [45, 45, 55], a * 2.0) {
            scene.add(s);
        }
        objects += 1;
    }
    scene.add(table(
        Vec3::new(0.0, 0.72, 0.0),
        Vec3::new(0.8, 0.04, 0.8),
        [200, 180, 150],
    ));
    objects += 1;
    // Food props: pizza boxes and drinks, one gently lifted (being eaten).
    for i in 0..7 {
        let a = i as f32 / 7.0 * std::f32::consts::TAU + 0.3;
        let pos = Vec3::new(0.5 * a.cos(), 0.82, 0.5 * a.sin());
        let bob = if i % 3 == 0 { 0.08 } else { 0.0 };
        scene.add(prop_sphere(
            pos,
            0.07,
            [230 - i as u8 * 10, 120, 40 + i as u8 * 20],
            bob,
            a,
        ));
        objects += 1;
    }
    DatasetPreset {
        id: VideoId::Pizza1,
        description: "Food and party",
        duration_s: 47,
        object_count: objects,
        paper_frame_mb: 13.8,
        scene,
        fps: 30,
    }
}

/// toddler4: a child + 2 toys = 3 objects.
fn toddler4() -> DatasetPreset {
    let mut scene = Scene::new();
    background(&mut scene);
    for s in person(
        Vec3::new(0.2, 0.0, 0.1),
        MotionStyle::Child,
        [250, 160, 60],
        [200, 60, 60],
        0.0,
    ) {
        scene.add(s);
    }
    // Two toys, one rolling in a little orbit.
    scene.add(AnimatedShape {
        geom: ShapeGeom::Sphere {
            center: Vec3::new(0.8, 0.12, 0.3),
            radius: 0.12,
        },
        texture: Texture::Checker([230, 40, 40], [240, 240, 240], 0.15),
        animation: Animation::Orbit {
            center: Vec3::new(0.5, 0.0, 0.2),
            radius: 0.5,
            freq_hz: 0.15,
            phase: 0.0,
        },
    });
    scene.add(table(
        Vec3::new(-0.7, 0.15, -0.4),
        Vec3::new(0.15, 0.15, 0.15),
        [60, 90, 220],
    ));
    DatasetPreset {
        id: VideoId::Toddler4,
        description: "A child playing games",
        duration_s: 127,
        object_count: 3,
        paper_frame_mb: 10.6,
        scene,
        fps: 30,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::people::SHAPES_PER_PERSON;

    #[test]
    fn all_presets_load() {
        let all = DatasetPreset::all();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn object_counts_match_table3() {
        let expect = [
            (VideoId::Band2, 9),
            (VideoId::Dance5, 1),
            (VideoId::Office1, 7),
            (VideoId::Pizza1, 14),
            (VideoId::Toddler4, 3),
        ];
        for (id, count) in expect {
            assert_eq!(DatasetPreset::load(id).object_count, count, "{id}");
        }
    }

    #[test]
    fn durations_match_table3() {
        let expect = [
            (VideoId::Band2, 197),
            (VideoId::Dance5, 333),
            (VideoId::Office1, 187),
            (VideoId::Pizza1, 47),
            (VideoId::Toddler4, 127),
        ];
        for (id, dur) in expect {
            let p = DatasetPreset::load(id);
            assert_eq!(p.duration_s, dur, "{id}");
            assert_eq!(p.fps, 30);
            assert_eq!(p.total_frames(), dur as u64 * 30);
        }
    }

    #[test]
    fn shape_counts_are_plausible() {
        // band2: background (3) + 4 people × 6 + 5 props = 32 shapes.
        let band = DatasetPreset::load(VideoId::Band2);
        assert_eq!(band.scene.shapes.len(), 3 + 4 * SHAPES_PER_PERSON + 5);
        // dance5: background + 1 person.
        let dance = DatasetPreset::load(VideoId::Dance5);
        assert_eq!(dance.scene.shapes.len(), 3 + SHAPES_PER_PERSON);
    }

    #[test]
    fn scenes_animate() {
        for p in DatasetPreset::all() {
            let a = p.scene.at(0.0);
            let b = p.scene.at(1.7);
            let moved = a
                .shapes
                .iter()
                .zip(&b.shapes)
                .any(|(x, y)| match (x.geom, y.geom) {
                    (
                        crate::scene::ShapeGeom::Capsule { a: a1, .. },
                        crate::scene::ShapeGeom::Capsule { a: a2, .. },
                    ) => (a1 - a2).length() > 1e-3,
                    (
                        crate::scene::ShapeGeom::Sphere { center: c1, .. },
                        crate::scene::ShapeGeom::Sphere { center: c2, .. },
                    ) => (c1 - c2).length() > 1e-3,
                    _ => false,
                });
            assert!(moved, "{} has no visible motion", p.id);
        }
    }
}
