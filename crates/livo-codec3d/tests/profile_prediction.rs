//! The offline-profile workflow: a profile built on one cloud must predict
//! the encoded size of another of the same character (MeshReduce and
//! Draco-Oracle both decide from such a table).

use livo_codec3d::{QuantBits, RateProfile};
use livo_math::rng::SplitMix64;
use livo_math::Vec3;
use livo_pointcloud::{Point, PointCloud};

fn cloud(n: usize, seed: u64) -> PointCloud {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            Point::new(
                Vec3::new(
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(0.0..2.0),
                    rng.gen_range(-2.0..2.0),
                ),
                [rng.gen(), rng.gen(), rng.gen()],
            )
        })
        .collect()
}

#[test]
fn profile_predictions_track_real_sizes() {
    // The profile's bits-per-point, applied to a *different* cloud of the
    // same character, should predict the real encoded size within ~40%.
    let train = cloud(800, 1);
    let test = cloud(1500, 2);
    let p = RateProfile::build(&[&train]);
    for entry in p.entries.iter().step_by(11) {
        let params = livo_codec3d::DracoParams {
            quant_bits: QuantBits(entry.quant_bits),
            level: entry.level,
            color_bits: 8,
        };
        let enc = livo_codec3d::DracoEncoder::encode(&test, params).unwrap();
        let predicted = RateProfile::predicted_bits(entry, test.len());
        let actual = enc.bits() as f64;
        let ratio = predicted / actual;
        assert!(
            (0.6..=1.7).contains(&ratio),
            "q{} L{}: predicted {predicted:.0} vs actual {actual:.0}",
            entry.quant_bits,
            entry.level
        );
    }
}
