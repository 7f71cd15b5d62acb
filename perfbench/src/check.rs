//! Independent numerical checks of a thin QR factorization.
//!
//! The checks use the benchmark's own loops, not the library's kernels,
//! and a fixed Gaussian sketch so they cost `O(m·n)` per result instead
//! of the `O(m·n²)` of forming `Q·R` and `QᵀQ`:
//!
//! * residual `‖(A − Q·R)·X‖_F / ‖A·X‖_F` and
//! * orthogonality `‖(QᵀQ − I)·Y‖_F / ‖Y‖_F`
//!
//! for [`PROBES`] Gaussian columns `X`, `Y`. For Gaussian probes these
//! are unbiased estimates of the Frobenius-norm defects, and a defect
//! above the bound cannot hide from every probe. Both must stay below
//! [`RESIDUAL_BOUND`] / [`ORTHOGONALITY_BOUND`]; `Q` and `R` must be
//! finite, and `R` upper triangular.

use qr3d_matrix::Matrix;

use crate::gen::Rng;

/// Largest accepted sketched relative residual.
pub const RESIDUAL_BOUND: f64 = 1e-10;
/// Largest accepted sketched orthogonality defect.
pub const ORTHOGONALITY_BOUND: f64 = 1e-10;
/// Gaussian probe columns per check.
pub const PROBES: usize = 2;
/// Largest accepted `|R[i][j]| / max|R|` below the diagonal.
const LOWER_BOUND: f64 = 1e-13;

/// Why a result failed its check.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// `Q` or `R` has the wrong shape for the input.
    Shape,
    /// `Q` or `R` holds a NaN or an infinity.
    NonFinite,
    /// `R` has entries below the diagonal.
    NotUpperTriangular,
    /// The sketched residual exceeded [`RESIDUAL_BOUND`].
    Residual(f64),
    /// The sketched orthogonality defect exceeded [`ORTHOGONALITY_BOUND`].
    Orthogonality(f64),
}

/// The measured defects of a result that passed.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// Sketched relative residual.
    pub residual: f64,
    /// Sketched orthogonality defect.
    pub orthogonality: f64,
}

fn probes(n: usize, stream: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(0x5eed_c4ec, stream * 1_000_003 + n as u64);
    (0..PROBES)
        .map(|_| (0..n).map(|_| rng.gaussian()).collect())
        .collect()
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

fn all_finite(m: &Matrix) -> bool {
    m.as_slice().iter().all(|v| v.is_finite())
}

/// Check that `(q, r)` is a thin QR factorization of the matrix whose
/// rows are the rows of `a_blocks`, stacked in order.
pub fn check_qr(a_blocks: &[&Matrix], q: &Matrix, r: &Matrix) -> Result<Checked, CheckError> {
    let n = r.cols();
    let m: usize = a_blocks.iter().map(|b| b.rows()).sum();
    if a_blocks.iter().any(|b| b.cols() != n) || r.rows() != n || q.rows() != m || q.cols() != n {
        return Err(CheckError::Shape);
    }
    if !all_finite(q) || !all_finite(r) {
        return Err(CheckError::NonFinite);
    }
    let rmax = r.max_abs();
    for i in 1..n {
        for j in 0..i {
            if r[(i, j)].abs() > LOWER_BOUND * rmax {
                return Err(CheckError::NotUpperTriangular);
            }
        }
    }

    let xs = probes(n, 1);
    let ys = probes(n, 2);
    let rxs: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| (0..n).map(|i| dot(r.row(i), x)).collect())
        .collect();

    let (mut diff2, mut ax2) = (0.0, 0.0);
    let mut zs = vec![vec![0.0; n]; PROBES];
    let rows = a_blocks
        .iter()
        .flat_map(|b| (0..b.rows()).map(move |i| b.row(i)));
    for (i, a_row) in rows.enumerate() {
        let q_row = q.row(i);
        for c in 0..PROBES {
            let ax = dot(a_row, &xs[c]);
            let d = ax - dot(q_row, &rxs[c]);
            diff2 += d * d;
            ax2 += ax * ax;
            let w = dot(q_row, &ys[c]);
            for (z, qv) in zs[c].iter_mut().zip(q_row) {
                *z += w * qv;
            }
        }
    }
    let residual = (diff2 / ax2.max(f64::MIN_POSITIVE)).sqrt();
    let (mut e2, mut y2) = (0.0, 0.0);
    for (z, y) in zs.iter().zip(&ys) {
        for (zv, yv) in z.iter().zip(y) {
            e2 += (zv - yv) * (zv - yv);
            y2 += yv * yv;
        }
    }
    let orthogonality = (e2 / y2).sqrt();

    if residual.is_nan() || residual > RESIDUAL_BOUND {
        return Err(CheckError::Residual(residual));
    }
    if orthogonality.is_nan() || orthogonality > ORTHOGONALITY_BOUND {
        return Err(CheckError::Orthogonality(orthogonality));
    }
    Ok(Checked {
        residual,
        orthogonality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_matrix::qr::{geqrt, thin_q};

    #[test]
    fn accepts_a_factorization_and_rejects_corruptions() {
        let a = Matrix::random(200, 12, 7);
        let f = geqrt(&a);
        let q = thin_q(&f.v, &f.t);
        let ok = check_qr(&[&a], &q, &f.r).expect("a Householder QR passes");
        assert!(ok.residual < 1e-14 && ok.orthogonality < 1e-14);

        // Split input rows: the same factorization, checked blockwise.
        let (top, bot) = (a.submatrix(0, 120, 0, 12), a.submatrix(120, 200, 0, 12));
        check_qr(&[&top, &bot], &q, &f.r).expect("row blocks stack in order");

        let mut bad_r = f.r.clone();
        bad_r[(0, 3)] += 1e-6;
        assert!(matches!(
            check_qr(&[&a], &q, &bad_r),
            Err(CheckError::Residual(_))
        ));
        let mut bad_q = q.clone();
        bad_q[(5, 5)] *= 1.0 + 1e-7;
        assert!(check_qr(&[&a], &bad_q, &f.r).is_err());
        let mut nan_q = q.clone();
        nan_q[(0, 0)] = f64::NAN;
        assert_eq!(
            check_qr(&[&a], &nan_q, &f.r).unwrap_err(),
            CheckError::NonFinite
        );
        let mut lower = f.r.clone();
        lower[(3, 0)] = 1.0;
        assert_eq!(
            check_qr(&[&a], &q, &lower).unwrap_err(),
            CheckError::NotUpperTriangular
        );
        assert_eq!(check_qr(&[&top], &q, &f.r).unwrap_err(), CheckError::Shape);
    }
}
