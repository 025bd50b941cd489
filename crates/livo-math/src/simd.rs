//! Runtime SIMD tier detection shared by every hot kernel in the workspace.
//!
//! Kernels in `livo-codec2d` (DCT, SAD, quant) and `livo-core` (frustum
//! cull) keep a baseline path — scalar or SSE2, the x86-64 floor — and an
//! AVX2 path compiled behind `#[target_feature]`. This module picks the
//! tier once per process:
//!
//! - tier `SCALAR` (0): no x86 SIMD assumed (non-x86 targets, or forced),
//! - tier `SSE2` (1): the x86-64 baseline the existing kernels already use,
//! - tier `AVX2` (2): 256-bit paths, taken only when the CPU reports AVX2.
//!
//! The `LIVO_SIMD` environment variable (`scalar` | `sse2` | `avx2`) caps
//! the tier below what the hardware offers — it can never raise it above
//! what `is_x86_feature_detected!` reports. The tier-1 scripts use this to
//! run the differential suites once forced to the baseline and once
//! auto-detected, so both sides of every dispatch stay pinned against the
//! `*_ref` oracles.
//!
//! Every AVX2 path in the workspace is written to be **bit-exact** with its
//! baseline: same per-lane arithmetic order, no FMA contraction (only
//! `avx2` is enabled, never `fma`), divisions kept as divisions. The tier
//! therefore changes throughput, never bytes.

use std::sync::atomic::{AtomicU8, Ordering};

/// No x86 SIMD assumed.
pub(crate) const SCALAR: u8 = 0;
/// The x86-64 baseline (SSE2 is architecturally guaranteed there).
pub(crate) const SSE2: u8 = 1;
/// 256-bit integer + float paths.
pub(crate) const AVX2: u8 = 2;

const UNCACHED: u8 = 0xFF;

static LEVEL: AtomicU8 = AtomicU8::new(UNCACHED);

/// The SIMD tier every dispatching kernel uses, cached after first call.
///
/// Returns `SCALAR`, `SSE2` or `AVX2`. The first call reads
/// `LIVO_SIMD` and probes the CPU; later calls are a relaxed atomic load,
/// cheap enough to sit inside per-block dispatch.
pub fn level() -> u8 {
    let cached = LEVEL.load(Ordering::Relaxed);
    if cached != UNCACHED {
        return cached;
    }
    let detected = detect();
    LEVEL.store(detected, Ordering::Relaxed);
    detected
}

/// True when AVX2 kernels may run (detected on the CPU and not capped off).
#[inline]
pub fn has_avx2() -> bool {
    level() >= AVX2
}

/// Human-readable tier name, used by benches and logs.
pub fn level_name(level: u8) -> &'static str {
    match level {
        SCALAR => "scalar",
        SSE2 => "sse2",
        _ => "avx2",
    }
}

fn detect() -> u8 {
    let hw = hardware_level();
    // The env var is a cap, not a request: forcing `avx2` on a CPU without
    // it must not select an illegal path.
    match std::env::var("LIVO_SIMD").as_deref() {
        Ok("scalar") => SCALAR,
        Ok("sse2") => SSE2.min(hw),
        Ok("avx2") => AVX2.min(hw),
        _ => hw,
    }
}

#[cfg(target_arch = "x86_64")]
fn hardware_level() -> u8 {
    if std::arch::is_x86_feature_detected!("avx2") {
        AVX2
    } else {
        SSE2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn hardware_level() -> u8 {
    SCALAR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_valid_and_stable() {
        let a = level();
        assert!(a <= AVX2, "unknown tier {a}");
        assert_eq!(a, level(), "tier must be cached, not re-probed");
    }

    #[test]
    fn names_cover_all_tiers() {
        assert_eq!(level_name(SCALAR), "scalar");
        assert_eq!(level_name(SSE2), "sse2");
        assert_eq!(level_name(AVX2), "avx2");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_floor_is_sse2() {
        assert!(hardware_level() >= SSE2);
    }
}
