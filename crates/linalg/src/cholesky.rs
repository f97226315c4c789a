//! Cholesky factorization and solve for symmetric positive definite systems.
//!
//! The ridge-regularized normal equations inside censored ALS (Algorithm 2,
//! lines 6 and 11) are of the form `(HᵀH + λI) X = B` with λ > 0, which is
//! symmetric positive definite by construction — Cholesky is the right tool.

use crate::error::{LinalgError, Result};
use crate::matrix::Mat;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Mat,
}

/// Factor a symmetric positive definite matrix `A = L Lᵀ`.
///
/// Only the lower triangle of `a` is read; symmetry is assumed, not checked.
pub fn cholesky(a: &Mat) -> Result<CholeskyFactor> {
    let (n, m) = a.shape();
    if n != m {
        return Err(LinalgError::NotSquare { rows: n, cols: m });
    }
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(CholeskyFactor { l })
}

impl CholeskyFactor {
    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Solve `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solve `A x = b` in place: `x` holds `b` on entry and the solution on
    /// return. Allocates nothing, which is what the per-row ALS solves
    /// need; [`CholeskyFactor::solve_vec`] and [`CholeskyFactor::solve`]
    /// run this same operation sequence, so all three agree bit for bit.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let n = self.l.rows();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        // Forward substitution: L y = b.
        for i in 0..n {
            for k in 0..i {
                x[i] -= self.l[(i, k)] * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        // Back substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            for k in i + 1..n {
                x[i] -= self.l[(k, i)] * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        Ok(())
    }

    /// [`CholeskyFactor::solve_in_place`] on `L` right-hand sides at once:
    /// `x[i][l]` is entry `i` of right-hand side `l`. Each step of the
    /// sequence is applied to every lane before the next step, so each lane
    /// runs `solve_in_place`'s operations in its order and agrees with it
    /// bit for bit; only independent lanes share an instruction.
    #[inline(always)]
    pub(crate) fn solve_lanes<const L: usize>(&self, x: &mut [[f64; L]]) -> Result<()> {
        let n = self.l.rows();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (x.len(), L),
            });
        }
        // Forward substitution: L y = b. Each x[i] is updated in a local
        // copy, which the compiler can keep in registers.
        for i in 0..n {
            let mut xi = x[i];
            for (k, xk) in x[..i].iter().enumerate() {
                let l = self.l[(i, k)];
                for (a, &b) in xi.iter_mut().zip(xk) {
                    *a -= l * b;
                }
            }
            let d = self.l[(i, i)];
            for a in &mut xi {
                *a /= d;
            }
            x[i] = xi;
        }
        // Back substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut xi = x[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                let l = self.l[(k, i)];
                for (a, &b) in xi.iter_mut().zip(xk) {
                    *a -= l * b;
                }
            }
            let d = self.l[(i, i)];
            for a in &mut xi {
                *a /= d;
            }
            x[i] = xi;
        }
        Ok(())
    }

    /// Solve `A X = B` column-by-column for a matrix right-hand side.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        // Row c of the transpose is column c of B, solved in place.
        let mut xt = b.transpose();
        for c in 0..xt.rows() {
            self.solve_in_place(xt.row_mut(c))?;
        }
        Ok(xt.transpose())
    }
}

/// One-shot `A x = B` solve for SPD `A`.
pub fn cholesky_solve(a: &Mat, b: &Mat) -> Result<Mat> {
    cholesky(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    #[test]
    fn factor_hand_computed() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]]
        let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let f = cholesky(&a).unwrap();
        assert!((f.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((f.l()[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((f.l()[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn reconstructs_a() {
        let a = Mat::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let f = cholesky(&a).unwrap();
        let rebuilt = f.l().matmul(&f.l().transpose()).unwrap();
        assert!(max_abs_diff(&a, &rebuilt) < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Mat::from_rows(&[&[6.0, 2.0], &[2.0, 5.0]]);
        let x_true = vec![1.5, -2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = cholesky(&a).unwrap().solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_matrix_rhs() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x_true = Mat::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let b = a.matmul(&x_true).unwrap();
        let x = cholesky_solve(&a, &b).unwrap();
        assert!(max_abs_diff(&x, &x_true) < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(cholesky(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn rejects_rectangular() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(cholesky(&a), Err(LinalgError::NotSquare { .. })));
    }
}
