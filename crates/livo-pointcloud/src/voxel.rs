//! Voxel-grid downsampling and a voxel-hash spatial index.
//!
//! The LiVo receiver voxelises the reconstructed point cloud before
//! rendering (§A.1); PointSSIM and normal estimation need fast
//! nearest-neighbour queries, which the [`VoxelIndex`] provides without a
//! full k-d tree (clouds here are dense and uniform, where a voxel hash is
//! both simpler and faster).

use crate::point::{Point, PointCloud};
use livo_math::{floor_to_i32, Vec3};
use std::collections::HashMap;

/// Integer voxel coordinate.
type Key = (i32, i32, i32);

#[inline]
fn key_of(p: Vec3, inv_size: f32) -> Key {
    (
        floor_to_i32(p.x * inv_size),
        floor_to_i32(p.y * inv_size),
        floor_to_i32(p.z * inv_size),
    )
}

/// One occupied voxel: its key and the running sums of its points, side by
/// side so that finding a voxel and adding to it touch one cache line.
struct Voxel {
    key: Key,
    pos_sum: Vec3,
    col_sum: [u32; 3],
    n: u32,
}

/// Marks a free slot of a [`VoxelTable`].
const EMPTY: u32 = u32::MAX;

/// Voxel key → voxel (numbered 0, 1, 2… in order of first sight): a flat
/// open-addressed table, sized once for a known number of points so it
/// never rehashes. The hash is a fixed function of the key, so the
/// numbering depends only on the order the keys arrive in.
struct VoxelTable {
    /// Power-of-two slot array, at most two-thirds full; a slot is
    /// [`EMPTY`] or an index into `voxels`.
    slots: Vec<u32>,
    /// The occupied voxels, in first-touch order.
    voxels: Vec<Voxel>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

thread_local! {
    /// This thread's table, kept between calls. A receiver voxelises a
    /// cloud every frame, and a table allocated afresh each time lands on
    /// pages the allocator has just handed back to the system: faulting
    /// them in again cost about as much as the voxelising.
    static TABLE: std::cell::Cell<VoxelTable> = const { std::cell::Cell::new(VoxelTable::UNSIZED) };
}

impl VoxelTable {
    const UNSIZED: VoxelTable = VoxelTable {
        slots: Vec::new(),
        voxels: Vec::new(),
        shift: 0,
    };

    /// Empty the table and size it for `points` keys: the same slot count,
    /// and so the same probe sequences, as a new table would have.
    fn reset(&mut self, points: usize) {
        assert!(points < EMPTY as usize, "cloud too large to voxelise");
        // Never fewer than two slots: `shift` has to stay under 64.
        let slots = (points + points / 2 + 1).next_power_of_two().max(2);
        self.slots.clear();
        self.slots.resize(slots, EMPTY);
        self.voxels.clear();
        self.voxels.reserve(points);
        self.shift = 64 - slots.trailing_zeros();
    }

    /// Run `f` on this thread's table, emptied and sized for `points` keys.
    /// A nested call gets a table of its own.
    fn with<R>(points: usize, f: impl FnOnce(&mut VoxelTable) -> R) -> R {
        let mut table = TABLE.replace(VoxelTable::UNSIZED);
        table.reset(points);
        let out = f(&mut table);
        TABLE.set(table);
        out
    }

    /// The voxel of `key`; a key not seen before gets a new, empty one at
    /// the end of `voxels`.
    #[inline]
    fn voxel_of(&mut self, key: Key) -> &mut Voxel {
        // One odd 64-bit multiplier per axis; a product's high bits depend
        // on every bit of its coordinate, and the home slot is read from
        // the high bits of the sum.
        let hash = (key.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((key.1 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add((key.2 as u64).wrapping_mul(0x1656_67B1_9E37_79F9));
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> self.shift) as usize;
        loop {
            let mut idx = self.slots[slot] as usize;
            if idx == EMPTY as usize {
                idx = self.voxels.len();
                self.slots[slot] = idx as u32;
                self.voxels.push(Voxel {
                    key,
                    pos_sum: Vec3::ZERO,
                    col_sum: [0; 3],
                    n: 0,
                });
            }
            if self.voxels[idx].key == key {
                return &mut self.voxels[idx];
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Voxel-grid downsampler: one output point per occupied voxel, positioned at
/// the centroid of the voxel's points with the average colour.
#[derive(Debug, Clone)]
pub struct VoxelGrid {
    /// Edge length of a voxel in metres.
    pub voxel_size: f32,
}

impl VoxelGrid {
    pub fn new(voxel_size: f32) -> Self {
        assert!(voxel_size > 0.0, "voxel size must be positive");
        VoxelGrid { voxel_size }
    }

    /// Downsample the cloud: one point per occupied voxel.
    ///
    /// Output order is first-touch order: voxel `i` of the result is the
    /// `i`-th distinct voxel met walking `cloud` front to back, so equal
    /// clouds give equal results, element for element. Each voxel's sums
    /// are taken in cloud order.
    pub fn downsample(&self, cloud: &PointCloud) -> PointCloud {
        self.downsample_where(cloud, |_| true)
    }

    /// [`VoxelGrid::downsample`] keeping only the voxels whose centroid
    /// `keep` accepts — the receiver's "voxelise, then cull" (§3.4) with
    /// no voxelised cloud in between. Voxels, sums and order are those of
    /// `downsample`; the rejected centroids are just never written.
    pub fn downsample_where(
        &self,
        cloud: &PointCloud,
        mut keep: impl FnMut(Vec3) -> bool,
    ) -> PointCloud {
        let inv = 1.0 / self.voxel_size;
        VoxelTable::with(cloud.len(), |table| {
            for p in &cloud.points {
                let v = table.voxel_of(key_of(p.position, inv));
                v.pos_sum += p.position;
                for c in 0..3 {
                    v.col_sum[c] += p.color[c] as u32;
                }
                v.n += 1;
            }
            let mut out = PointCloud::with_capacity(table.voxels.len());
            for v in &table.voxels {
                // A lone point is its own centroid and colour (x / 1 == x),
                // and most voxels of a receiver's cloud hold one.
                let lone = v.n == 1;
                let centroid = if lone {
                    v.pos_sum
                } else {
                    v.pos_sum / v.n as f32
                };
                if keep(centroid) {
                    let color = if lone {
                        v.col_sum.map(|c| c as u8)
                    } else {
                        v.col_sum.map(|c| (c / v.n) as u8)
                    };
                    out.points.push(Point::new(centroid, color));
                }
            }
            out
        })
    }
}

/// A voxel-hash nearest-neighbour index over a fixed point set.
///
/// Build once per cloud; query `k`-nearest or radius neighbourhoods. The
/// cell size should be on the order of the expected query radius.
#[derive(Debug)]
pub struct VoxelIndex<'a> {
    cloud: &'a PointCloud,
    cells: HashMap<Key, Vec<u32>>,
    cell_size: f32,
    /// Bounding box of occupied cell coordinates (lo, hi), inclusive.
    cell_bounds: Option<(Key, Key)>,
}

impl<'a> VoxelIndex<'a> {
    pub fn build(cloud: &'a PointCloud, cell_size: f32) -> Self {
        assert!(cell_size > 0.0);
        let inv = 1.0 / cell_size;
        let mut cells: HashMap<Key, Vec<u32>> = HashMap::new();
        let mut lo = (i32::MAX, i32::MAX, i32::MAX);
        let mut hi = (i32::MIN, i32::MIN, i32::MIN);
        for (i, p) in cloud.points.iter().enumerate() {
            let k = key_of(p.position, inv);
            lo = (lo.0.min(k.0), lo.1.min(k.1), lo.2.min(k.2));
            hi = (hi.0.max(k.0), hi.1.max(k.1), hi.2.max(k.2));
            cells.entry(k).or_default().push(i as u32);
        }
        let cell_bounds = if cells.is_empty() {
            None
        } else {
            Some((lo, hi))
        };
        VoxelIndex {
            cloud,
            cells,
            cell_size,
            cell_bounds,
        }
    }

    pub(crate) fn cloud(&self) -> &PointCloud {
        self.cloud
    }

    /// Indices of all points within `radius` of `q` (inclusive), unsorted.
    pub fn radius_neighbors(&self, q: Vec3, radius: f32) -> Vec<u32> {
        let inv = 1.0 / self.cell_size;
        let r2 = radius * radius;
        let reach = (radius * inv).ceil() as i32;
        let (cx, cy, cz) = key_of(q, inv);
        let mut out = Vec::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                for dz in -reach..=reach {
                    if let Some(idxs) = self.cells.get(&(cx + dx, cy + dy, cz + dz)) {
                        for &i in idxs {
                            if self.cloud.points[i as usize].position.distance_squared(q) <= r2 {
                                out.push(i);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Index of the nearest point to `q`, expanding the search ring until a
    /// hit is found. Returns `None` only for an empty cloud.
    pub fn nearest(&self, q: Vec3) -> Option<u32> {
        let (lo, hi) = self.cell_bounds?;
        let inv = 1.0 / self.cell_size;
        let (cx, cy, cz) = key_of(q, inv);
        // Chebyshev distance from the query cell to the occupied bbox: rings
        // closer than this contain no cells, rings beyond `ring_max` are
        // entirely outside the bbox.
        let axis_dist = |c: i32, l: i32, h: i32| (l - c).max(c - h).max(0);
        let ring_min = axis_dist(cx, lo.0, hi.0)
            .max(axis_dist(cy, lo.1, hi.1))
            .max(axis_dist(cz, lo.2, hi.2));
        let far = |c: i32, l: i32, h: i32| (c - l).abs().max((c - h).abs());
        let ring_max = far(cx, lo.0, hi.0)
            .max(far(cy, lo.1, hi.1))
            .max(far(cz, lo.2, hi.2));
        let mut best: Option<(u32, f32)> = None;
        for ring in ring_min..=ring_max {
            // Scan the shell at Chebyshev distance `ring`.
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    for dz in -ring..=ring {
                        if dx.abs().max(dy.abs()).max(dz.abs()) != ring {
                            continue;
                        }
                        if let Some(idxs) = self.cells.get(&(cx + dx, cy + dy, cz + dz)) {
                            for &i in idxs {
                                let d2 = self.cloud.points[i as usize].position.distance_squared(q);
                                if best.is_none_or(|(_, bd)| d2 < bd) {
                                    best = Some((i, d2));
                                }
                            }
                        }
                    }
                }
            }
            if let Some((_, bd2)) = best {
                // Any point in a shell at Chebyshev distance > `ring` is at
                // Euclidean distance ≥ ring·cell_size from the query; once the
                // best hit beats that bound, farther shells cannot improve it.
                if bd2.sqrt() <= ring as f32 * self.cell_size {
                    break;
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// The `k` nearest neighbours of `q`, sorted by distance. May return
    /// fewer than `k` for small clouds.
    pub fn knn(&self, q: Vec3, k: usize) -> Vec<u32> {
        if k == 0 || self.cloud.points.is_empty() {
            return Vec::new();
        }
        // Grow a radius search until we have k hits or the search covers the
        // whole indexed extent (an upper bound on the distance from the query
        // to the farthest indexed point).
        let max_radius = self.coverage_radius(q);
        let mut radius = self.cell_size;
        loop {
            let mut hits = self.radius_neighbors(q, radius);
            if hits.len() >= k || radius > max_radius {
                hits.sort_by(|&a, &b| {
                    let da = self.cloud.points[a as usize].position.distance_squared(q);
                    let db = self.cloud.points[b as usize].position.distance_squared(q);
                    da.partial_cmp(&db).unwrap()
                });
                hits.truncate(k);
                return hits;
            }
            radius *= 2.0;
        }
    }

    /// Upper bound on the distance from `q` to any indexed point: the
    /// distance to the farthest corner of the occupied-cell bounding box.
    fn coverage_radius(&self, q: Vec3) -> f32 {
        let Some((lo, hi)) = self.cell_bounds else {
            return 0.0;
        };
        let cs = self.cell_size;
        let corner_lo = Vec3::new(lo.0 as f32 * cs, lo.1 as f32 * cs, lo.2 as f32 * cs);
        let corner_hi = Vec3::new(
            (hi.0 + 1) as f32 * cs,
            (hi.1 + 1) as f32 * cs,
            (hi.2 + 1) as f32 * cs,
        );
        let far = Vec3::new(
            (q.x - corner_lo.x).abs().max((q.x - corner_hi.x).abs()),
            (q.y - corner_lo.y).abs().max((q.y - corner_hi.y).abs()),
            (q.z - corner_lo.z).abs().max((q.z - corner_hi.z).abs()),
        );
        far.length() + cs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// One voxel's running sums: positions, colour channels, point count.
    type VoxelSums = (Vec3, [u32; 3], u32);

    fn grid_cloud(n: usize, pitch: f32) -> PointCloud {
        let mut pc = PointCloud::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    pc.push(Point::new(
                        Vec3::new(i as f32 * pitch, j as f32 * pitch, k as f32 * pitch),
                        [128, 128, 128],
                    ));
                }
            }
        }
        pc
    }

    #[test]
    fn downsample_reduces_density() {
        let pc = grid_cloud(10, 0.01); // 1000 points in a 9 cm cube
        let down = VoxelGrid::new(0.05).downsample(&pc);
        assert!(down.len() < pc.len());
        assert!(!down.is_empty());
        // Voxels of 5 cm over 9 cm extent → 2 per axis → 8 voxels.
        assert_eq!(down.len(), 8);
    }

    #[test]
    fn downsample_preserves_sparse_points() {
        // Points farther apart than the voxel size survive individually.
        let pc = grid_cloud(3, 1.0);
        let down = VoxelGrid::new(0.5).downsample(&pc);
        assert_eq!(down.len(), pc.len());
    }

    #[test]
    fn downsample_averages_colors() {
        let mut pc = PointCloud::new();
        pc.push(Point::new(Vec3::splat(0.01), [0, 0, 0]));
        pc.push(Point::new(Vec3::splat(0.02), [200, 100, 50]));
        let down = VoxelGrid::new(1.0).downsample(&pc);
        assert_eq!(down.len(), 1);
        assert_eq!(down.points[0].color, [100, 50, 25]);
    }

    /// The pre-table algorithm: accumulate per voxel in cloud order through
    /// a standard map, one point per voxel, keyed for comparison.
    fn downsample_oracle(voxel_size: f32, cloud: &PointCloud) -> BTreeMap<Key, Point> {
        let inv = 1.0 / voxel_size;
        let mut acc: BTreeMap<Key, VoxelSums> = BTreeMap::new();
        for p in &cloud.points {
            let e = acc
                .entry(key_of(p.position, inv))
                .or_insert((Vec3::ZERO, [0, 0, 0], 0));
            e.0 += p.position;
            for c in 0..3 {
                e.1[c] += p.color[c] as u32;
            }
            e.2 += 1;
        }
        acc.into_iter()
            .map(|(k, (pos, col, n))| {
                let color = [(col[0] / n) as u8, (col[1] / n) as u8, (col[2] / n) as u8];
                (k, Point::new(pos / n as f32, color))
            })
            .collect()
    }

    fn bits(p: &Point) -> ([u32; 3], [u8; 3]) {
        let v = p.position;
        ([v.x.to_bits(), v.y.to_bits(), v.z.to_bits()], p.color)
    }

    /// Same voxel set as the oracle, every centroid and colour bit-equal,
    /// and voxels emitted in first-touch order.
    fn assert_matches_oracle(voxel_size: f32, cloud: &PointCloud) {
        let grid = VoxelGrid::new(voxel_size);
        let got = grid.downsample(cloud);
        let want = downsample_oracle(voxel_size, cloud);
        assert_eq!(got.len(), want.len(), "voxel count");
        let inv = 1.0 / voxel_size;
        let mut first_touch: Vec<Key> = Vec::new();
        for p in &cloud.points {
            let k = key_of(p.position, inv);
            if !first_touch.contains(&k) {
                first_touch.push(k);
            }
        }
        for (p, k) in got.points.iter().zip(&first_touch) {
            assert_eq!(bits(p), bits(&want[k]), "voxel {k:?}");
        }
    }

    /// Deterministic scatter of `n` points over a cube of `extent` metres
    /// centred on the origin (so most coordinates are negative somewhere).
    fn scattered_cloud(n: usize, extent: f32, seed: u64) -> PointCloud {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut pc = PointCloud::new();
        for _ in 0..n {
            let pos = Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5) * extent;
            let color = [
                (next() * 255.0) as u8,
                (next() * 255.0) as u8,
                (next() * 255.0) as u8,
            ];
            pc.push(Point::new(pos, color));
        }
        pc
    }

    #[test]
    fn downsample_matches_hashmap_oracle_bit_for_bit() {
        // Several points per voxel, negative coordinates on every axis.
        assert_matches_oracle(0.05, &scattered_cloud(600, 0.4, 1));
        assert_matches_oracle(0.02, &grid_cloud(10, 0.007));
        assert_matches_oracle(0.5, &PointCloud::new());
        let mut one = PointCloud::new();
        one.push(Point::new(Vec3::new(-0.3, 0.2, -7.5), [9, 8, 7]));
        assert_matches_oracle(0.02, &one);
        // All points in one voxel.
        assert_matches_oracle(10.0, &scattered_cloud(300, 1.0, 2));
    }

    #[test]
    fn downsample_survives_probe_chains() {
        // 680 points, every one its own voxel: 680 keys in a 1024-slot
        // table (two-thirds full), so lookups walk past occupied slots.
        let cloud = scattered_cloud(680, 100.0, 3);
        let mut table = VoxelTable::UNSIZED;
        table.reset(cloud.len());
        let table_slots = table.slots.len();
        let voxels = VoxelGrid::new(0.01).downsample(&cloud).len();
        assert_eq!(voxels, cloud.len(), "the scatter must not share voxels");
        assert!(voxels * 2 > table_slots, "{voxels} of {table_slots} slots");
        assert_matches_oracle(0.01, &cloud);
    }

    #[test]
    fn downsample_is_deterministic() {
        let cloud = scattered_cloud(2000, 1.0, 4);
        let grid = VoxelGrid::new(0.05);
        assert_eq!(
            grid.downsample(&cloud).points,
            grid.downsample(&cloud).points
        );
    }

    #[test]
    fn nearest_finds_exact_point() {
        let pc = grid_cloud(5, 0.5);
        let idx = VoxelIndex::build(&pc, 0.5);
        for (i, p) in pc.points.iter().enumerate().step_by(7) {
            assert_eq!(idx.nearest(p.position), Some(i as u32));
        }
    }

    #[test]
    fn nearest_from_offset_query() {
        let pc = grid_cloud(4, 1.0);
        let idx = VoxelIndex::build(&pc, 1.0);
        // Query near (1, 1, 1) but offset.
        let q = Vec3::new(1.1, 0.9, 1.2);
        let n = idx.nearest(q).unwrap() as usize;
        assert!((pc.points[n].position - Vec3::new(1.0, 1.0, 1.0)).length() < 1e-5);
    }

    #[test]
    fn nearest_far_outside_cloud_still_works() {
        let pc = grid_cloud(3, 0.5);
        let idx = VoxelIndex::build(&pc, 0.5);
        let n = idx.nearest(Vec3::new(100.0, 100.0, 100.0));
        assert!(n.is_some());
        // The nearest must be the max corner.
        let p = pc.points[n.unwrap() as usize].position;
        assert!((p - Vec3::splat(1.0)).length() < 1e-5);
    }

    #[test]
    fn nearest_on_empty_cloud_is_none() {
        let pc = PointCloud::new();
        let idx = VoxelIndex::build(&pc, 1.0);
        assert!(idx.nearest(Vec3::ZERO).is_none());
    }

    #[test]
    fn radius_neighbors_respects_radius() {
        let pc = grid_cloud(5, 1.0);
        let idx = VoxelIndex::build(&pc, 1.0);
        let hits = idx.radius_neighbors(Vec3::new(2.0, 2.0, 2.0), 1.0);
        // Centre + 6 face neighbours at distance exactly 1.
        assert_eq!(hits.len(), 7);
        for &h in &hits {
            assert!(
                pc.points[h as usize]
                    .position
                    .distance(Vec3::new(2.0, 2.0, 2.0))
                    <= 1.0 + 1e-6
            );
        }
    }

    #[test]
    fn knn_returns_sorted_neighbors() {
        let pc = grid_cloud(5, 1.0);
        let idx = VoxelIndex::build(&pc, 1.0);
        let q = Vec3::new(2.0, 2.0, 2.0);
        let knn = idx.knn(q, 7);
        assert_eq!(knn.len(), 7);
        // First hit is the query point itself.
        assert!((pc.points[knn[0] as usize].position - q).length() < 1e-6);
        // Distances are non-decreasing.
        let d: Vec<f32> = knn
            .iter()
            .map(|&i| pc.points[i as usize].position.distance(q))
            .collect();
        for w in d.windows(2) {
            assert!(w[0] <= w[1] + 1e-6);
        }
    }

    #[test]
    fn knn_on_small_cloud_returns_all() {
        let mut pc = PointCloud::new();
        pc.push(Point::new(Vec3::ZERO, [0; 3]));
        pc.push(Point::new(Vec3::X, [0; 3]));
        let idx = VoxelIndex::build(&pc, 1.0);
        assert_eq!(idx.knn(Vec3::ZERO, 10).len(), 2);
    }
}
