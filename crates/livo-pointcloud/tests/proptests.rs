//! Property-based tests for the point-cloud substrate.

use livo_math::Vec3;
use livo_pointcloud::{pssim, Point, PointCloud, PssimConfig, VoxelGrid, VoxelIndex};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_cloud(max_points: usize) -> impl Strategy<Value = PointCloud> {
    proptest::collection::vec(
        (
            -2.0f32..2.0,
            -2.0f32..2.0,
            -2.0f32..2.0,
            0u8..=255,
            0u8..=255,
            0u8..=255,
        ),
        1..max_points,
    )
    .prop_map(|pts| {
        pts.into_iter()
            .map(|(x, y, z, r, g, b)| Point::new(Vec3::new(x, y, z), [r, g, b]))
            .collect()
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn voxel_nearest_matches_brute_force(
        cloud in arb_cloud(80),
        qx in -3.0f32..3.0, qy in -3.0f32..3.0, qz in -3.0f32..3.0,
        cell in 0.1f32..1.0,
    ) {
        let q = Vec3::new(qx, qy, qz);
        let idx = VoxelIndex::build(&cloud, cell);
        let got = idx.nearest(q).unwrap();
        let want = brute_nearest(&cloud, q).unwrap();
        // Ties are acceptable: require equal distance, not equal index.
        let dg = cloud.points[got as usize].position.distance_squared(q);
        let dw = cloud.points[want as usize].position.distance_squared(q);
        prop_assert!((dg - dw).abs() < 1e-5, "got {dg}, brute {dw}");
    }

    #[test]
    fn radius_neighbors_are_complete_and_sound(
        cloud in arb_cloud(60),
        qx in -2.0f32..2.0, qy in -2.0f32..2.0, qz in -2.0f32..2.0,
        radius in 0.1f32..1.5,
    ) {
        let q = Vec3::new(qx, qy, qz);
        let idx = VoxelIndex::build(&cloud, 0.4);
        let mut got = idx.radius_neighbors(q, radius);
        got.sort_unstable();
        let mut want: Vec<u32> = cloud.points.iter().enumerate()
            .filter(|(_, p)| p.position.distance(q) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn knn_distances_nondecreasing(cloud in arb_cloud(60), k in 1usize..12) {
        let idx = VoxelIndex::build(&cloud, 0.4);
        let q = Vec3::ZERO;
        let knn = idx.knn(q, k);
        prop_assert_eq!(knn.len(), k.min(cloud.len()));
        let d: Vec<f32> = knn.iter().map(|&i| cloud.points[i as usize].position.distance(q)).collect();
        for w in d.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-6);
        }
    }

    #[test]
    fn downsample_never_increases_points(cloud in arb_cloud(100), size in 0.05f32..1.0) {
        let down = VoxelGrid::new(size).downsample(&cloud);
        prop_assert!(down.len() <= cloud.len());
        prop_assert!(!down.is_empty());
    }

    #[test]
    fn downsample_matches_hashmap_oracle(cloud in arb_cloud(200), size in 0.05f32..1.0) {
        let grid = VoxelGrid::new(size);
        let got = grid.downsample(&cloud);
        // Same voxels with bit-equal centroids and colours; only the order
        // may differ from the map's.
        let mut got_bits: Vec<_> = got.points.iter().map(point_bits).collect();
        let mut want_bits: Vec<_> = hashmap_downsample(&cloud, size).iter().map(point_bits).collect();
        got_bits.sort_unstable();
        want_bits.sort_unstable();
        prop_assert_eq!(&got_bits, &want_bits);
        prop_assert_eq!(grid.occupied_count(&cloud), want_bits.len());
        // And the order is a function of the input alone.
        let again = grid.downsample(&cloud);
        prop_assert_eq!(&again.points, &got.points);
    }

    #[test]
    fn downsample_points_stay_in_bounds(cloud in arb_cloud(100), size in 0.05f32..1.0) {
        let (lo, hi) = cloud.bounds().unwrap();
        let down = VoxelGrid::new(size).downsample(&cloud);
        for p in &down.points {
            prop_assert!(p.position.x >= lo.x - 1e-4 && p.position.x <= hi.x + 1e-4);
            prop_assert!(p.position.y >= lo.y - 1e-4 && p.position.y <= hi.y + 1e-4);
            prop_assert!(p.position.z >= lo.z - 1e-4 && p.position.z <= hi.z + 1e-4);
        }
    }

    #[test]
    fn pssim_self_similarity_is_perfect(cloud in arb_cloud(60)) {
        let cfg = PssimConfig { neighbors: 4, cell_size: 0.4, curvature_weight: 0.3 };
        if cloud.len() > cfg.neighbors {
            let s = pssim(&cloud, &cloud, &cfg).unwrap();
            prop_assert!((s.geometry - 100.0).abs() < 1e-6);
            prop_assert!((s.color - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn pssim_is_bounded(a in arb_cloud(40), b in arb_cloud(40)) {
        let cfg = PssimConfig { neighbors: 4, cell_size: 0.4, curvature_weight: 0.3 };
        if let Some(s) = pssim(&a, &b, &cfg) {
            prop_assert!((0.0..=100.0).contains(&s.geometry));
            prop_assert!((0.0..=100.0).contains(&s.color));
        }
    }
}
