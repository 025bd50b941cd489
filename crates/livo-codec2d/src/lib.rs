//! A rate-adaptive block-transform 2D video codec.
//!
//! This crate stands in for the hardware H.265 encoder (NVENC) that LiVo
//! uses in its reference implementation. It is a *real* codec — not a
//! distortion model: frames round-trip through
//!
//! ```text
//! predict (intra DC / inter motion compensation)
//!   → 8×8 DCT → quantise (QP) → zig-zag → adaptive binary range coder
//! ```
//!
//! and back, and it reproduces the properties LiVo's design depends on:
//!
//! - **Direct rate adaptation** (§3.3 of the paper): [`Encoder::encode`]
//!   takes a target bit budget and selects QP with a closed-loop
//!   rate-controller, like `nvenc`'s CBR modes.
//! - **Inter-frame compression**: P-frames predict from the previous
//!   reconstructed frame with motion compensation, so static tiled regions
//!   cost almost nothing — the reason LiVo beats point-cloud coders on
//!   bandwidth efficiency.
//! - **Quantisation distortion**: higher QP coarsens the transform
//!   coefficients, producing the block artifacts and depth errors that
//!   motivate LiVo's depth scaling (§3.2, Fig. A.1).
//! - **Two pixel formats**: 8-bit 4:2:0 YUV for colour, and a 16-bit
//!   luma-only mode ([`PixelFormat::Y16`]) mirroring the `Y444_16LE` H.265
//!   mode LiVo uses for depth.
//!
//! The encoder and decoder maintain bit-exact reconstruction state: the
//! encoder reconstructs each frame exactly as the decoder will, so P-frame
//! prediction never drifts.

pub mod block;
pub mod dct;
mod decoder;
#[cfg(test)]
mod differential;
pub mod encoder;
pub mod motion;
#[cfg(test)]
#[path = "../tests/common/oracle.rs"]
mod oracle;
pub mod plane;
pub mod quant;
pub mod rangecoder;
mod ratecontrol;
pub mod slice;

pub use decoder::{DecodeError, Decoder};
pub use encoder::{BlockCounts, EncodedFrame, Encoder, EncoderConfig, FrameType};
pub use plane::{Frame, PixelFormat, Plane};

/// Mean-squared error between two frames' primary (luma) planes, in the
/// native sample scale. This is the sender-side quality estimate LiVo's
/// bandwidth splitter consumes (§3.3).
pub fn luma_mse(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.format, b.format, "mse across formats");
    let pa = &a.planes[0];
    let pb = &b.planes[0];
    assert_eq!((pa.width, pa.height), (pb.width, pb.height));
    let mut acc = 0.0f64;
    for (x, y) in pa.data.iter().zip(&pb.data) {
        let d = *x as f64 - *y as f64;
        acc += d * d;
    }
    acc / pa.data.len() as f64
}

/// Root-mean-squared error of the luma planes.
pub fn luma_rmse(a: &Frame, b: &Frame) -> f64 {
    luma_mse(a, b).sqrt()
}
