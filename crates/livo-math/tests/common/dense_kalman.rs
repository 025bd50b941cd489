//! The dense 12-state Kalman filter `PosePredictor` was before it became six
//! 2-state filters, kept verbatim as the differential-test oracle: a minimal
//! dense `f64` matrix, a textbook linear filter on it, and the 6-DoF
//! constant-velocity wrapper. Nothing outside tests uses it.
//!
//! Included as a module by `src/kalman.rs`'s unit tests and by
//! `tests/kalman_scenarios.rs`; both parents bring `angles`, `Pose`,
//! `PosePredictorConfig`, `Quat` and `Vec3` into scope.

#![allow(dead_code)]

use super::{angles, Pose, PosePredictorConfig, Quat, Vec3};

/// Minimal dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    pub rows: usize,
    pub cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            for (j, v) in row.iter().enumerate() {
                m[(i, j)] = *v;
            }
        }
        m
    }

    /// Column vector from a slice.
    pub fn col_vec(v: &[f64]) -> Self {
        let mut m = Self::zeros(v.len(), 1);
        for (i, x) in v.iter().enumerate() {
            m[(i, 0)] = *x;
        }
        m
    }

    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    pub fn mul(&self, o: &DMatrix) -> DMatrix {
        assert_eq!(self.cols, o.rows, "dimension mismatch");
        let mut out = DMatrix::zeros(self.rows, o.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..o.cols {
                    out[(i, j)] += a * o[(k, j)];
                }
            }
        }
        out
    }

    pub fn add(&self, o: &DMatrix) -> DMatrix {
        assert_eq!((self.rows, self.cols), (o.rows, o.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&o.data) {
            *a += b;
        }
        out
    }

    pub fn sub(&self, o: &DMatrix) -> DMatrix {
        assert_eq!((self.rows, self.cols), (o.rows, o.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&o.data) {
            *a -= b;
        }
        out
    }

    pub fn scale(&self, s: f64) -> DMatrix {
        let mut out = self.clone();
        for a in &mut out.data {
            *a *= s;
        }
        out
    }

    /// Inverse by Gauss–Jordan elimination with partial pivoting. Returns
    /// `None` for singular matrices.
    pub fn inverse(&self) -> Option<DMatrix> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = DMatrix::identity(n);
        for col in 0..n {
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            if a[(pivot, col)].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let d = a[(col, col)];
            for j in 0..n {
                a[(col, j)] /= d;
                inv[(col, j)] /= d;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a[(r, col)];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[(r, j)] -= f * a[(col, j)];
                    inv[(r, j)] -= f * inv[(col, j)];
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// A linear Kalman filter `x' = F x`, `z = H x` with process noise `Q` and
/// measurement noise `R`.
#[derive(Debug, Clone)]
pub struct KalmanFilter {
    pub x: DMatrix,
    pub p: DMatrix,
    pub f: DMatrix,
    pub h: DMatrix,
    pub q: DMatrix,
    pub r: DMatrix,
}

impl KalmanFilter {
    pub fn new(f: DMatrix, h: DMatrix, q: DMatrix, r: DMatrix, x0: DMatrix, p0: DMatrix) -> Self {
        KalmanFilter {
            x: x0,
            p: p0,
            f,
            h,
            q,
            r,
        }
    }

    /// Time update: propagate state and covariance one step.
    pub fn predict(&mut self) {
        self.x = self.f.mul(&self.x);
        self.p = self.f.mul(&self.p).mul(&self.f.transpose()).add(&self.q);
    }

    /// Measurement update with observation `z` (m×1).
    pub fn update(&mut self, z: &DMatrix) {
        let ht = self.h.transpose();
        let s = self.h.mul(&self.p).mul(&ht).add(&self.r);
        let k = self
            .p
            .mul(&ht)
            .mul(&s.inverse().expect("innovation covariance singular"));
        let y = z.sub(&self.h.mul(&self.x));
        self.x = self.x.add(&k.mul(&y));
        let i = DMatrix::identity(self.p.rows);
        self.p = i.sub(&k.mul(&self.h)).mul(&self.p);
    }
}

/// Constant-velocity transition for `dims` position-like dimensions over a
/// step of `dt` seconds. State layout: `[p0..p_{dims-1}, v0..v_{dims-1}]`.
pub fn constant_velocity_f(dims: usize, dt: f64) -> DMatrix {
    let mut f = DMatrix::identity(dims * 2);
    for i in 0..dims {
        f[(i, dims + i)] = dt;
    }
    f
}

/// Measurement matrix observing only the position block.
pub fn position_only_h(dims: usize) -> DMatrix {
    let mut h = DMatrix::zeros(dims, dims * 2);
    for i in 0..dims {
        h[(i, i)] = 1.0;
    }
    h
}

/// Discrete white-noise-acceleration process noise, scaled by `accel_var`.
pub fn white_noise_q(dims: usize, dt: f64, accel_var: f64) -> DMatrix {
    let n = dims * 2;
    let mut q = DMatrix::zeros(n, n);
    let dt2 = dt * dt;
    let dt3 = dt2 * dt;
    let dt4 = dt3 * dt;
    for i in 0..dims {
        q[(i, i)] = dt4 / 4.0 * accel_var;
        q[(i, dims + i)] = dt3 / 2.0 * accel_var;
        q[(dims + i, i)] = dt3 / 2.0 * accel_var;
        q[(dims + i, dims + i)] = dt2 * accel_var;
    }
    q
}

/// The 6-DoF predictor on one 12-state filter, exactly as the product ran
/// it until the filter was split per axis.
#[derive(Debug, Clone)]
pub struct DensePosePredictor {
    pub kf: KalmanFilter,
    last_angles: Option<[f64; 3]>,
}

impl DensePosePredictor {
    pub fn new(cfg: PosePredictorConfig) -> Self {
        let dims = 6;
        let f = constant_velocity_f(dims, cfg.dt);
        let h = position_only_h(dims);
        let mut q = white_noise_q(dims, cfg.dt, 1.0);
        for i in 0..dims {
            let var = if i < 3 {
                cfg.pos_accel_var
            } else {
                cfg.ang_accel_var
            };
            q[(i, i)] *= var;
            q[(i, dims + i)] *= var;
            q[(dims + i, i)] *= var;
            q[(dims + i, dims + i)] *= var;
        }
        let mut r = DMatrix::zeros(dims, dims);
        for i in 0..3 {
            r[(i, i)] = cfg.pos_meas_std * cfg.pos_meas_std;
        }
        for i in 3..6 {
            r[(i, i)] = cfg.ang_meas_std * cfg.ang_meas_std;
        }
        let x0 = DMatrix::zeros(dims * 2, 1);
        let p0 = DMatrix::identity(dims * 2).scale(1.0);
        DensePosePredictor {
            kf: KalmanFilter::new(f, h, q, r, x0, p0),
            last_angles: None,
        }
    }

    pub fn observe(&mut self, pose: &Pose) {
        let (yaw, pitch, roll) = pose.orientation.to_yaw_pitch_roll();
        let mut ang = [yaw as f64, pitch as f64, roll as f64];
        if let Some(prev) = self.last_angles {
            for i in 0..3 {
                ang[i] = angles::unwrap_near(prev[i] as f32, ang[i] as f32) as f64;
            }
        }
        let first = self.last_angles.is_none();
        self.last_angles = Some(ang);
        let z = DMatrix::col_vec(&[
            pose.position.x as f64,
            pose.position.y as f64,
            pose.position.z as f64,
            ang[0],
            ang[1],
            ang[2],
        ]);
        if first {
            for i in 0..6 {
                self.kf.x[(i, 0)] = z[(i, 0)];
            }
            return;
        }
        self.kf.predict();
        self.kf.update(&z);
    }

    pub fn predict(&self, horizon: f64) -> Pose {
        let x = constant_velocity_f(6, horizon).mul(&self.kf.x);
        Pose {
            position: Vec3::new(x[(0, 0)] as f32, x[(1, 0)] as f32, x[(2, 0)] as f32),
            orientation: Quat::from_yaw_pitch_roll(
                angles::wrap(x[(3, 0)] as f32),
                angles::wrap(x[(4, 0)] as f32),
                angles::wrap(x[(5, 0)] as f32),
            ),
        }
    }
}
