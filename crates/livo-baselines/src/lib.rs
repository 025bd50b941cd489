//! Comparison baselines for LiVo's evaluation (§4.1 of the paper).
//!
//! Four alternatives are compared against LiVo:
//!
//! - **Draco-Oracle** (`draco_oracle`): a hypothetical bandwidth-adaptive
//!   Draco. Given the target bandwidth and a *perfect* receiver frustum, it
//!   consults an offline (quantisation, level) → (size, time) profile and
//!   picks the highest-quality setting that fits both the bit budget and
//!   the inter-frame deadline; if nothing fits, the frame stalls. Runs at
//!   15 fps (at 30 fps it stalls >90% of the time — §4.1).
//! - **MeshReduce** (`meshreduce`): per-frame mesh reconstruction,
//!   decimation driven by an offline profile of the *average* trace
//!   bandwidth (indirect adaptation), Draco-coded geometry + 2D-coded
//!   texture over reliable transport. No stalls, but a variable (low)
//!   frame rate and mesh artefacts.
//! - **LiVo-NoCull** and **LiVo-NoAdapt** are configuration flags of the
//!   LiVo pipeline itself — built via
//!   `ConferenceConfig::builder(video).cull(false)` and
//!   `.cull(false).adapt(false)` respectively.
//!
//! All baselines report the common [`BaselineSummary`] so the evaluation
//! harness can tabulate them next to LiVo's `RunSummary`.

mod draco_oracle;
mod meshreduce;

pub use draco_oracle::{DracoOracle, DracoOracleConfig};
pub use meshreduce::{MeshReduce, MeshReduceConfig};

/// Metrics shared by every baseline run.
#[derive(Debug, Clone)]
pub struct BaselineSummary {
    /// Fraction of frame slots that stalled.
    pub stall_rate: f64,
    /// Achieved display rate, frames/second.
    pub mean_fps: f64,
    /// Mean PSSIM with stalls scored as 0 (§4.3).
    pub pssim_geometry: f64,
    pub pssim_color: f64,
    /// Mean PSSIM over successfully shown frames only.
    pub pssim_geometry_no_stall: f64,
    pub pssim_color_no_stall: f64,
    /// Mean media throughput achieved, Mbps.
    pub throughput_mbps: f64,
    /// Mean capacity of the trace, Mbps.
    pub mean_capacity_mbps: f64,
}

impl BaselineSummary {
    pub fn utilization(&self) -> f64 {
        if self.mean_capacity_mbps <= 0.0 {
            0.0
        } else {
            self.throughput_mbps / self.mean_capacity_mbps
        }
    }
}
