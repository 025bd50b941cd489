//! Property tests for the point-cloud substrate, on the seeded-case runner.

use livo_math::rng::{cases, SplitMix64};
use livo_math::Vec3;
use livo_pointcloud::{pssim, Point, PointCloud, PssimConfig, VoxelGrid, VoxelIndex};
use std::collections::HashMap;

const CASES: u32 = 64;

const PSSIM: PssimConfig = PssimConfig {
    neighbors: 4,
    cell_size: 0.4,
    curvature_weight: 0.3,
};

/// 1 to `max_points - 1` points in a 4 m cube with random colours.
fn cloud(rng: &mut SplitMix64, max_points: usize) -> PointCloud {
    (0..rng.gen_range(1..max_points))
        .map(|_| Point::new(vec3(rng, 2.0), [rng.gen(), rng.gen(), rng.gen()]))
        .collect()
}

fn vec3(rng: &mut SplitMix64, range: f32) -> Vec3 {
    Vec3::new(
        rng.gen_range(-range..range),
        rng.gen_range(-range..range),
        rng.gen_range(-range..range),
    )
}

/// Brute-force nearest neighbour for cross-checking the voxel index.
fn brute_nearest(cloud: &PointCloud, q: Vec3) -> Option<u32> {
    cloud
        .points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.position
                .distance_squared(q)
                .partial_cmp(&b.position.distance_squared(q))
                .unwrap()
        })
        .map(|(i, _)| i as u32)
}

/// A point as comparable bits: position by `to_bits`, then colour.
fn point_bits(p: &Point) -> ([u32; 3], [u8; 3]) {
    let v = p.position;
    ([v.x.to_bits(), v.y.to_bits(), v.z.to_bits()], p.color)
}

/// One voxel's position sum, colour sums and point count.
type VoxelSums = (Vec3, [u32; 3], u32);

/// Voxel downsampling as it was before the flat table: per-voxel sums in
/// cloud order through a `HashMap`, emitted in the map's order.
fn hashmap_downsample(cloud: &PointCloud, voxel_size: f32) -> Vec<Point> {
    let inv = 1.0 / voxel_size;
    let mut acc: HashMap<(i32, i32, i32), VoxelSums> = HashMap::new();
    for p in &cloud.points {
        let key = (
            (p.position.x * inv).floor() as i32,
            (p.position.y * inv).floor() as i32,
            (p.position.z * inv).floor() as i32,
        );
        let e = acc.entry(key).or_insert((Vec3::ZERO, [0, 0, 0], 0));
        e.0 += p.position;
        for c in 0..3 {
            e.1[c] += p.color[c] as u32;
        }
        e.2 += 1;
    }
    acc.into_values()
        .map(|(pos, col, n)| {
            let color = [(col[0] / n) as u8, (col[1] / n) as u8, (col[2] / n) as u8];
            Point::new(pos / n as f32, color)
        })
        .collect()
}

#[test]
fn voxel_nearest_matches_brute_force() {
    cases(1, CASES, |rng| {
        let (cloud, q) = (cloud(rng, 80), vec3(rng, 3.0));
        let idx = VoxelIndex::build(&cloud, rng.gen_range(0.1f32..1.0));
        let got = idx.nearest(q).unwrap();
        let want = brute_nearest(&cloud, q).unwrap();
        // Ties are acceptable: require equal distance, not equal index.
        let dg = cloud.points[got as usize].position.distance_squared(q);
        let dw = cloud.points[want as usize].position.distance_squared(q);
        assert!((dg - dw).abs() < 1e-5, "got {dg}, brute {dw}");
    });
}

#[test]
fn radius_neighbors_are_complete_and_sound() {
    cases(2, CASES, |rng| {
        let (cloud, q) = (cloud(rng, 60), vec3(rng, 2.0));
        let radius = rng.gen_range(0.1f32..1.5);
        let idx = VoxelIndex::build(&cloud, 0.4);
        let mut got = idx.radius_neighbors(q, radius);
        got.sort_unstable();
        let want: Vec<u32> = (0..cloud.len() as u32)
            .filter(|&i| cloud.points[i as usize].position.distance(q) <= radius)
            .collect();
        assert_eq!(got, want);
    });
}

#[test]
fn knn_distances_nondecreasing() {
    cases(3, CASES, |rng| {
        let (cloud, k) = (cloud(rng, 60), rng.gen_range(1usize..12));
        let idx = VoxelIndex::build(&cloud, 0.4);
        let q = Vec3::ZERO;
        let knn = idx.knn(q, k);
        assert_eq!(knn.len(), k.min(cloud.len()));
        let d: Vec<f32> = knn
            .iter()
            .map(|&i| cloud.points[i as usize].position.distance(q))
            .collect();
        for w in d.windows(2) {
            assert!(w[0] <= w[1] + 1e-6);
        }
    });
}

#[test]
fn downsample_never_increases_points() {
    cases(4, CASES, |rng| {
        let (cloud, size) = (cloud(rng, 100), rng.gen_range(0.05f32..1.0));
        let down = VoxelGrid::new(size).downsample(&cloud);
        assert!(down.len() <= cloud.len());
        assert!(!down.is_empty());
    });
}

#[test]
fn downsample_matches_hashmap_oracle() {
    cases(5, CASES, |rng| {
        let (cloud, size) = (cloud(rng, 200), rng.gen_range(0.05f32..1.0));
        let grid = VoxelGrid::new(size);
        let got = grid.downsample(&cloud);
        // Same voxels with bit-equal centroids and colours; only the order
        // may differ from the map's.
        let mut got_bits: Vec<_> = got.points.iter().map(point_bits).collect();
        let mut want_bits: Vec<_> = hashmap_downsample(&cloud, size)
            .iter()
            .map(point_bits)
            .collect();
        got_bits.sort_unstable();
        want_bits.sort_unstable();
        assert_eq!(&got_bits, &want_bits);
        assert_eq!(grid.occupied_count(&cloud), want_bits.len());
        // And the order is a function of the input alone.
        let again = grid.downsample(&cloud);
        assert_eq!(&again.points, &got.points);
    });
}

#[test]
fn downsample_points_stay_in_bounds() {
    cases(6, CASES, |rng| {
        let (cloud, size) = (cloud(rng, 100), rng.gen_range(0.05f32..1.0));
        let (lo, hi) = cloud.bounds().unwrap();
        let down = VoxelGrid::new(size).downsample(&cloud);
        for p in &down.points {
            assert!(p.position.x >= lo.x - 1e-4 && p.position.x <= hi.x + 1e-4);
            assert!(p.position.y >= lo.y - 1e-4 && p.position.y <= hi.y + 1e-4);
            assert!(p.position.z >= lo.z - 1e-4 && p.position.z <= hi.z + 1e-4);
        }
    });
}

#[test]
fn pssim_self_similarity_is_perfect() {
    cases(7, CASES, |rng| {
        let cloud = cloud(rng, 60);
        if cloud.len() > PSSIM.neighbors {
            let s = pssim(&cloud, &cloud, &PSSIM).unwrap();
            assert!((s.geometry - 100.0).abs() < 1e-6);
            assert!((s.color - 100.0).abs() < 1e-6);
        }
    });
}

#[test]
fn pssim_is_bounded() {
    cases(8, CASES, |rng| {
        let (a, b) = (cloud(rng, 40), cloud(rng, 40));
        if let Some(s) = pssim(&a, &b, &PSSIM) {
            assert!((0.0..=100.0).contains(&s.geometry));
            assert!((0.0..=100.0).contains(&s.color));
        }
    });
}
