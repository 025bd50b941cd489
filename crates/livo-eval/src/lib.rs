//! Evaluation harness: everything needed to regenerate the paper's tables
//! and figures.
//!
//! - [`stats`]: descriptive statistics and ASCII chart helpers.
//! - `qoe`: the user-study substitution — a documented QoE model mapping
//!   objective metrics (PSSIM, stall rate, frame rate) onto 1–5 opinion
//!   scores, calibrated to the paper's published anchors, plus the comment
//!   -category model behind Table 5.
//! - `mlp`: a small feed-forward network reproducing the learned
//!   viewport-predictor comparison of Fig. 16 (ViVo-style MLP vs Kalman).
//! - [`experiments`]: the experiment grid (scheme × video × user trace ×
//!   network trace) and the targeted sweeps behind individual figures.
//! - [`report`]: printers that emit each table/figure in the paper's
//!   layout, next to the published numbers.

pub mod experiments;
mod mlp;
mod qoe;
pub mod report;
pub mod stats;

pub use experiments::{EvalProfile, GridResult, Scheme};
pub use qoe::{mos, QoeInputs};
