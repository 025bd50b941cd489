//! Property tests for the octree codec: round-trip bounds, determinism,
//! monotonicity of the rate/quality knobs, and a decoder that stays total
//! and within an allocation ceiling on damaged streams.

use livo_codec3d::{DracoDecoder, DracoEncoder, DracoParams, QuantBits};
use livo_math::rng::{cases, SplitMix64};
use livo_math::Vec3;
use livo_pointcloud::{Point, PointCloud, VoxelIndex};

const CASES: u32 = 32;

/// 1 to `max_points - 1` points in a room-sized box with random colours.
fn cloud(rng: &mut SplitMix64, max_points: usize) -> PointCloud {
    (0..rng.gen_range(1..max_points))
        .map(|_| {
            let pos = Vec3::new(
                rng.gen_range(-3.0f32..3.0),
                rng.gen_range(-0.5f32..2.5),
                rng.gen_range(-3.0f32..3.0),
            );
            Point::new(pos, [rng.gen(), rng.gen(), rng.gen()])
        })
        .collect()
}

/// Decoded geometry error is bounded by the quantisation cell diagonal.
#[test]
fn geometry_error_bounded() {
    cases(1, CASES, |rng| {
        let (cloud, bits) = (cloud(rng, 300), rng.gen_range(6u8..13));
        let params = DracoParams {
            quant_bits: QuantBits(bits),
            level: 7,
            color_bits: 8,
        };
        let enc = DracoEncoder::encode(&cloud, params).unwrap();
        let dec = DracoDecoder::decode(&enc.data).unwrap();
        assert!(!dec.is_empty());
        let (lo, hi) = cloud.bounds().unwrap();
        let extent = (hi - lo).max_element().max(1e-6);
        let cell = extent / (1u32 << bits) as f32;
        let max_err = cell * 3f32.sqrt(); // cell diagonal
        let idx = VoxelIndex::build(&cloud, (extent / 8.0).max(0.05));
        for p in &dec.points {
            let n = idx.nearest(p.position).unwrap();
            let d = cloud.points[n as usize].position.distance(p.position);
            assert!(d <= max_err + 1e-5, "err {d} > {max_err} at {bits} bits");
        }
    });
}

/// Encoding is deterministic: same input, same bytes.
#[test]
fn encoding_is_deterministic() {
    cases(2, CASES, |rng| {
        let cloud = cloud(rng, 200);
        let params = DracoParams {
            quant_bits: QuantBits(rng.gen_range(5u8..14)),
            level: rng.gen_range(0u8..10),
            color_bits: 8,
        };
        let a = DracoEncoder::encode(&cloud, params).map(|e| e.data);
        let b = DracoEncoder::encode(&cloud, params).map(|e| e.data);
        assert_eq!(a, b);
    });
}

/// The decoder never panics on truncation of a valid stream.
#[test]
fn truncation_never_panics() {
    cases(3, CASES, |rng| {
        let enc = DracoEncoder::encode(&cloud(rng, 100), DracoParams::default()).unwrap();
        let n = enc.data.len();
        let cut = rng.gen_range(0usize..200).min(n);
        let _ = DracoDecoder::decode(&enc.data[..n - cut]);
    });
}

/// Every single-bit flip and every truncation of every stream of a small
/// corpus: the decoder returns (never panics, overflow checks on), and what
/// it returns holds at most the points the input's length can pay for —
/// the ceiling that keeps a 28-byte stream from sizing a 32 GiB table.
#[test]
fn mutation_and_truncation_sweep_stays_total_and_bounded() {
    cases(4, 16, |rng| {
        let params = DracoParams {
            quant_bits: QuantBits(rng.gen_range(4u8..13)),
            level: rng.gen_range(0u8..10),
            color_bits: rng.gen_range(1u8..=8),
        };
        let good = DracoEncoder::encode(&cloud(rng, 40), params).unwrap().data;
        let check = |stream: &[u8]| {
            if let Ok(dec) = DracoDecoder::decode(stream) {
                let ceiling = stream.len() * 8 / 3;
                assert!(dec.len() <= ceiling, "{} points > {ceiling}", dec.len());
            }
        };
        for cut in 0..=good.len() {
            check(&good[..cut]);
        }
        let mut bad = good.clone();
        for bit in 0..good.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            check(&bad);
            // Flip plus cut: a damaged header over a short body.
            check(&bad[..rng.gen_range(0..=bad.len())]);
            bad[bit / 8] = good[bit / 8];
        }
    });
}

/// Decoded point count equals the merged-cell count reported by the
/// encoder.
#[test]
fn point_counts_agree() {
    cases(5, CASES, |rng| {
        let (cloud, bits) = (cloud(rng, 300), rng.gen_range(5u8..13));
        let params = DracoParams {
            quant_bits: QuantBits(bits),
            level: 4,
            color_bits: 8,
        };
        let enc = DracoEncoder::encode(&cloud, params).unwrap();
        let dec = DracoDecoder::decode(&enc.data).unwrap();
        assert_eq!(dec.len(), enc.points_coded);
        assert!(dec.len() <= cloud.len());
    });
}

#[test]
fn rate_quality_tradeoff_is_monotone_on_average() {
    // Across a dense structured cloud, finer quantisation must cost more
    // bits and deliver lower geometric error.
    let mut cloud = PointCloud::new();
    for i in 0..40 {
        for j in 0..40 {
            let (x, z) = (i as f32 * 0.05, j as f32 * 0.05);
            let y = 0.3 * (x * 3.0).sin() + 0.2 * (z * 4.0).cos();
            cloud.push(Point::new(
                Vec3::new(x, y, z),
                [(i * 6) as u8, (j * 6) as u8, 100],
            ));
        }
    }
    let mut last_bits = 0u64;
    let mut last_err = f64::INFINITY;
    for bits in [6u8, 9, 12] {
        let params = DracoParams {
            quant_bits: QuantBits(bits),
            level: 7,
            color_bits: 8,
        };
        let enc = DracoEncoder::encode(&cloud, params).unwrap();
        let dec = DracoDecoder::decode(&enc.data).unwrap();
        let err = livo_pointcloud::p2p_rmse(&cloud, &dec, 0.2).unwrap();
        assert!(enc.bits() > last_bits, "{bits} bits: size must grow");
        assert!(err < last_err, "{bits} bits: error must shrink");
        last_bits = enc.bits();
        last_err = err;
    }
}
