//! LU factorization with partial pivoting for general square systems.
//!
//! Used as the fallback solver when a normal-equation matrix loses positive
//! definiteness to rounding (rare, but the ALS loop must never panic), and by
//! the ridge surrogate of the BayesQO baseline.

use crate::error::{LinalgError, Result};
use crate::matrix::Mat;

/// Packed LU factorization `P A = L U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Combined storage: strictly-lower part holds L (unit diagonal implied),
    /// upper part holds U.
    lu: Mat,
    /// Row interchanges in elimination order: row `i` was swapped with
    /// row `piv[i]` (LAPACK's `ipiv`), so a right-hand side is permuted in
    /// place by replaying the swaps.
    piv: Vec<usize>,
}

/// Factor a square matrix with partial pivoting.
pub fn lu(a: &Mat) -> Result<LuFactor> {
    let (n, m) = a.shape();
    if n != m {
        return Err(LinalgError::NotSquare { rows: n, cols: m });
    }
    let mut lu_m = a.clone();
    let mut piv = Vec::with_capacity(n);
    for col in 0..n {
        // Pivot selection: largest absolute value in the column at/below the diagonal.
        let mut pivot_row = col;
        let mut pivot_val = lu_m[(col, col)].abs();
        for r in col + 1..n {
            let v = lu_m[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return Err(LinalgError::Singular { pivot: col });
        }
        piv.push(pivot_row);
        if pivot_row != col {
            for c in 0..n {
                let a = lu_m[(col, c)];
                let b = lu_m[(pivot_row, c)];
                lu_m[(col, c)] = b;
                lu_m[(pivot_row, c)] = a;
            }
        }
        let inv_pivot = 1.0 / lu_m[(col, col)];
        for r in col + 1..n {
            let factor = lu_m[(r, col)] * inv_pivot;
            lu_m[(r, col)] = factor;
            for c in col + 1..n {
                let delta = factor * lu_m[(col, c)];
                lu_m[(r, c)] -= delta;
            }
        }
    }
    Ok(LuFactor { lu: lu_m, piv })
}

impl LuFactor {
    /// Dimension n of the factored n×n matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solve `A x = b` in place: `x` holds `b` on entry and the solution on
    /// return. Allocates nothing; [`LuFactor::solve_vec`] and
    /// [`LuFactor::solve`] run this same operation sequence.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let n = self.lu.rows();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        // Apply the permutation, then forward substitution with unit-lower L.
        for (i, &p) in self.piv.iter().enumerate() {
            x.swap(i, p);
        }
        for i in 0..n {
            for k in 0..i {
                x[i] -= self.lu[(i, k)] * x[k];
            }
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            for k in i + 1..n {
                x[i] -= self.lu[(i, k)] * x[k];
            }
            x[i] /= self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solve `A X = B` for a matrix right-hand side.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch { op: "lu solve", lhs: (n, n), rhs: b.shape() });
        }
        // Row c of the transpose is column c of B, solved in place.
        let mut xt = b.transpose();
        for c in 0..xt.rows() {
            self.solve_in_place(xt.row_mut(c))?;
        }
        Ok(xt.transpose())
    }
}

/// One-shot `A X = B` solve for general square `A`.
pub fn lu_solve(a: &Mat, b: &Mat) -> Result<Mat> {
    lu(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    #[test]
    fn solves_nonsymmetric_system() {
        let a = Mat::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -2.0, -3.0], &[-1.0, 1.0, 2.0]]);
        let x_true = vec![1.0, 2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = lu(&a).unwrap().solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn detects_singularity() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(lu(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu(&a).unwrap().solve_vec(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_rhs_matches_vector_solves() {
        let a = Mat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[5.0, 1.0], &[5.0, 0.0]]);
        let x = lu_solve(&a, &b).unwrap();
        let rebuilt = a.matmul(&x).unwrap();
        assert!(max_abs_diff(&rebuilt, &b) < 1e-12);
    }
}
