//! Frustum-overlap clustering: which subscribers can share one encode?
//!
//! Two subscribers can share a culled stream when each one's predicted
//! viewing volume is (mostly) contained in what the shared cull keeps.
//! The shared cull keeps the *union* of the members' frusta, so the
//! binding constraint is mutual: subscriber B only joins A's cluster when
//! a large fraction of B's volume lies inside A's frustum *and* vice
//! versa — otherwise the union volume balloons and the shared encode
//! carries pixels most members never see, wasting their downlinks.
//!
//! Overlap is estimated by deterministic stratified volume sampling
//! ([`livo_math::Frustum::coverage_of`]): no mesh clipping, no convex-hull
//! algebra, just `n³` point-containment tests per ordered pair.

use livo_math::{Frustum, FrustumParams, Pose};

/// Minimum *mutual* volume coverage for two subscribers to share a
/// cluster. Higher = tighter clusters, more encode passes.
const OVERLAP_THRESHOLD: f32 = 0.5;
/// Stratified samples per axis for coverage estimation (`n³` points per
/// ordered pair; 4 → 64 points, plenty for a go/no-go call).
const SAMPLES_PER_AXIS: usize = 4;

/// One subscriber's predicted viewing volume, in world space.
#[derive(Debug, Clone)]
pub struct ViewVolume {
    /// The guard-banded world-space frustum (what the cull would keep).
    pub frustum: Frustum,
    /// The predicted head pose the frustum was built from.
    pub pose: Pose,
    /// The intrinsic viewing-volume shape (FoV, aspect, near/far).
    pub params: FrustumParams,
}

/// Fraction of the smaller-covered volume shared between two view
/// volumes: `min(a covers b, b covers a)`, each estimated with `n³`
/// stratified samples.
pub fn mutual_coverage(a: &ViewVolume, b: &ViewVolume, samples_per_axis: usize) -> f32 {
    let a_covers_b = a.frustum.coverage_of(&b.pose, &b.params, samples_per_axis);
    let b_covers_a = b.frustum.coverage_of(&a.pose, &a.params, samples_per_axis);
    a_covers_b.min(b_covers_a)
}

/// Greedy seeded clustering of view volumes by mutual coverage.
///
/// Walks subscribers in index order; each unassigned subscriber seeds a
/// cluster and absorbs every later unassigned subscriber whose mutual
/// coverage *with the seed* meets `OVERLAP_THRESHOLD`. Comparing against
/// the seed (not the union) keeps the result deterministic and order-stable:
/// a subscriber's cluster can only change when its own or its seed's
/// frustum moves, not because a third member stretched the union.
///
/// Returns the clusters as index lists; every input index appears in
/// exactly one cluster, and each cluster's first element is its seed (the
/// lowest member index).
pub fn cluster_views(views: &[ViewVolume]) -> Vec<Vec<usize>> {
    let mut assigned = vec![false; views.len()];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for seed in 0..views.len() {
        if assigned[seed] {
            continue;
        }
        assigned[seed] = true;
        let mut members = vec![seed];
        for cand in (seed + 1)..views.len() {
            if assigned[cand] {
                continue;
            }
            let cov = mutual_coverage(&views[seed], &views[cand], SAMPLES_PER_AXIS);
            if cov >= OVERLAP_THRESHOLD {
                assigned[cand] = true;
                members.push(cand);
            }
        }
        clusters.push(members);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use livo_math::Vec3;

    fn volume_at(pose: Pose) -> ViewVolume {
        let params = FrustumParams::default();
        ViewVolume {
            frustum: Frustum::from_params(&pose, &params),
            pose,
            params,
        }
    }

    fn looking(yaw: f32) -> Pose {
        let eye = Vec3::new(0.0, 1.5, 0.0);
        let dir = Vec3::new(yaw.sin(), 0.0, -yaw.cos());
        Pose::look_at(eye, eye + dir, Vec3::new(0.0, 1.0, 0.0))
    }

    #[test]
    fn identical_views_share_one_cluster() {
        let views: Vec<ViewVolume> = (0..4).map(|_| volume_at(looking(0.0))).collect();
        let clusters = cluster_views(&views);
        assert_eq!(clusters, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn opposed_views_split_into_two_clusters() {
        let views = vec![
            volume_at(looking(0.0)),
            volume_at(looking(std::f32::consts::PI)),
            volume_at(looking(0.02)),
            volume_at(looking(std::f32::consts::PI + 0.02)),
        ];
        let clusters = cluster_views(&views);
        assert_eq!(clusters, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn mutual_coverage_is_symmetric_and_bounded() {
        let a = volume_at(looking(0.0));
        let b = volume_at(looking(0.7));
        let ab = mutual_coverage(&a, &b, 4);
        let ba = mutual_coverage(&b, &a, 4);
        assert_eq!(ab, ba);
        assert!((0.0..=1.0).contains(&ab));
        // Divergent but overlapping gazes: strictly between the extremes.
        let same = mutual_coverage(&a, &a, 4);
        assert!(same > 0.99, "self coverage {same}");
        assert!(ab < same);
    }

    #[test]
    fn empty_input_yields_no_clusters() {
        assert!(cluster_views(&[]).is_empty());
    }
}
