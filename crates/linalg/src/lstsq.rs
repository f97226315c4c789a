//! Least squares and ridge-regularized solves, serial and batched-parallel.
//!
//! Algorithm 2 of the paper updates the factor matrices with the closed-form
//! ridge solutions `Q ← Ŵ H (HᵀH + λI)⁻¹` and `H ← Ŵᵀ Q (QᵀQ + λI)⁻¹`.
//! [`ridge_solve`] computes exactly the `(GᵀG + λI)⁻¹ GᵀB`-style product via
//! a Cholesky solve (falling back to LU if rounding breaks positive
//! definiteness, which can only happen at λ = 0).
//!
//! The ridge problem is *embarrassingly batched*: every right-hand-side
//! column shares the normal matrix `GᵀG + λI` but is otherwise independent,
//! so [`RidgeFactor`] factors once and [`ridge_solve_rows`] /
//! [`ridge_solve_cols`] fan the right-hand sides out across scoped threads.
//! Both are **byte-identical to the serial path at any thread count** —
//! each solution's floating-point sequence never changes, only which
//! worker writes it into its pre-allocated output rows (see
//! `limeqo_linalg::par` and PERF.md for the determinism contract).

use crate::cholesky::{cholesky, CholeskyFactor};
use crate::error::{LinalgError, Result};
use crate::lu::{lu, LuFactor};
use crate::matrix::Mat;
use crate::par::par_chunks;

/// Solve the ridge problem `argmin_X ‖G X − B‖_F² + λ‖X‖_F²`,
/// i.e. `X = (GᵀG + λI)⁻¹ GᵀB`.
///
/// `G` is m×p, `B` is m×q, the result is p×q. With λ > 0 the normal matrix is
/// SPD and Cholesky always succeeds; λ = 0 falls back to LU when needed.
///
/// ```
/// use limeqo_linalg::{ridge_solve, Mat};
///
/// // Overdetermined exact system: G X = B has the solution X = [[2], [-1]].
/// let g = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
/// let b = Mat::from_rows(&[&[2.0], &[-1.0], &[1.0]]);
/// let x = ridge_solve(&g, &b, 0.0).unwrap();
/// assert!((x[(0, 0)] - 2.0).abs() < 1e-10);
/// assert!((x[(1, 0)] + 1.0).abs() < 1e-10);
///
/// // Regularization shrinks the solution toward zero.
/// let shrunk = ridge_solve(&g, &b, 10.0).unwrap();
/// assert!(shrunk[(0, 0)].abs() < x[(0, 0)].abs());
/// ```
pub fn ridge_solve(g: &Mat, b: &Mat, lambda: f64) -> Result<Mat> {
    let factor = RidgeFactor::new(g, lambda)?;
    let gtb = g.t_matmul(b)?;
    factor.solve(&gtb)
}

/// The factored normal matrix `GᵀG + λI` of a ridge problem, reusable
/// across many right-hand sides.
///
/// With λ > 0 the normal matrix is SPD and the factor is a Cholesky
/// decomposition; at λ = 0 rounding can break positive definiteness, in
/// which case an LU factorization is kept instead — the same fallback rule
/// [`ridge_solve`] has always applied.
#[derive(Debug, Clone)]
pub struct RidgeFactor {
    kind: FactorKind,
}

#[derive(Debug, Clone)]
enum FactorKind {
    Chol(CholeskyFactor),
    Lu(LuFactor),
}

impl RidgeFactor {
    /// Factor `GᵀG + λI` for `G` of shape m×p.
    pub fn new(g: &Mat, lambda: f64) -> Result<Self> {
        Self::from_gram(&g.t_matmul(g)?, lambda)
    }

    /// Factor `A + λI` for a symmetric p×p `A`, usually a Gram matrix
    /// `GᵀG` the caller also needs for something else (the ALS half-step
    /// uses it in its right-hand sides). [`RidgeFactor::new`] is
    /// `from_gram(&g.t_matmul(g)?, lambda)`.
    pub fn from_gram(gram: &Mat, lambda: f64) -> Result<Self> {
        let mut a = gram.clone();
        for i in 0..a.rows().min(a.cols()) {
            a[(i, i)] += lambda;
        }
        let kind = match cholesky(&a) {
            Ok(f) => FactorKind::Chol(f),
            Err(_) => FactorKind::Lu(lu(&a)?),
        };
        Ok(RidgeFactor { kind })
    }

    /// Dimension p of the factored normal matrix.
    pub fn dim(&self) -> usize {
        match &self.kind {
            FactorKind::Chol(f) => f.l().rows(),
            FactorKind::Lu(f) => f.dim(),
        }
    }

    /// Solve `(GᵀG + λI) X = GᵀB` given the already-computed product
    /// `GᵀB`. Right-hand-side columns are solved independently, column by
    /// column, exactly as the one-shot [`ridge_solve`] does.
    pub fn solve(&self, gtb: &Mat) -> Result<Mat> {
        match &self.kind {
            FactorKind::Chol(f) => f.solve(gtb),
            FactorKind::Lu(f) => f.solve(gtb),
        }
    }

    /// Solve `(GᵀG + λI) x = Gᵀb` for one right-hand side in place: `x`
    /// holds `Gᵀb` on entry and the solution on return. Allocates nothing,
    /// and runs the operation sequence [`RidgeFactor::solve`] runs on each
    /// column, so the two agree bit for bit.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        match &self.kind {
            FactorKind::Chol(f) => f.solve_in_place(x),
            FactorKind::Lu(f) => f.solve_in_place(x),
        }
    }

    /// `(GᵀG + λI)⁻¹`, formed once so that many right-hand sides can each
    /// be solved by a p×p matrix-vector product instead of two dependent
    /// triangular solves. Column `c` is [`RidgeFactor::solve_in_place`]
    /// applied to the `c`-th unit vector, through whichever factor was
    /// kept.
    pub fn inverse(&self) -> Mat {
        let p = self.dim();
        // Row c holds the c-th unit vector, then its solution.
        let mut cols = Mat::identity(p);
        for c in 0..p {
            self.solve_in_place(cols.row_mut(c)).expect("a p-long right-hand side");
        }
        cols.transpose()
    }
}

/// Batched ridge solve over **rows**: every row of `b_rows` is an
/// independent right-hand side `bᵢᵀ`, and row i of the result is the
/// solution `argmin_x ‖G x − bᵢ‖² + λ‖x‖²`. For `G` m×p and `b_rows` q×m
/// the result is q×p — already transposed for callers (like the ALS `Q`
/// update) whose unknowns live in rows.
///
/// The normal matrix is factored once; the q systems are partitioned into
/// contiguous row chunks across `threads` scoped workers (`0` = auto),
/// each writing only its own pre-allocated output rows. Results are
/// byte-identical to the serial path at any thread count.
///
/// ```
/// use limeqo_linalg::{ridge_solve, ridge_solve_rows, Mat};
///
/// // Two independent right-hand sides as rows.
/// let g = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
/// let b_rows = Mat::from_rows(&[&[2.0, -1.0, 1.0], &[0.0, 3.0, 3.0]]);
/// let x = ridge_solve_rows(&g, &b_rows, 0.5, 2).unwrap();
/// assert_eq!(x.shape(), (2, 2));
///
/// // Row i equals the one-shot serial solution for that right-hand side —
/// // and the thread count never changes a single bit.
/// let serial = ridge_solve(&g, &b_rows.transpose(), 0.5).unwrap();
/// for threads in [1, 2, 8] {
///     let par = ridge_solve_rows(&g, &b_rows, 0.5, threads).unwrap();
///     assert_eq!(par.as_slice(), serial.transpose().as_slice());
/// }
/// ```
pub fn ridge_solve_rows(g: &Mat, b_rows: &Mat, lambda: f64, threads: usize) -> Result<Mat> {
    if g.rows() != b_rows.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve_rows",
            lhs: g.shape(),
            rhs: b_rows.shape(),
        });
    }
    solve_batched(g, lambda, b_rows.rows(), threads, |a, b| b_rows.row_block(a, b).transpose())
}

/// Batched ridge solve over **columns**: every column of `b` is an
/// independent right-hand side, exactly as in [`ridge_solve`], but the
/// result comes back transposed (q×p, row j = solution for column j) and
/// the columns are partitioned across `threads` scoped workers (`0` =
/// auto). Used by the ALS `H` update, whose unknown factor rows are the
/// columns of the filled matrix.
///
/// ```
/// use limeqo_linalg::{ridge_solve, ridge_solve_cols, Mat};
///
/// let g = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
/// let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 2.0]]);
/// let serial = ridge_solve(&g, &b, 0.2).unwrap();
/// for threads in [1, 2, 8] {
///     let par = ridge_solve_cols(&g, &b, 0.2, threads).unwrap();
///     assert_eq!(par.as_slice(), serial.transpose().as_slice());
/// }
/// ```
pub fn ridge_solve_cols(g: &Mat, b: &Mat, lambda: f64, threads: usize) -> Result<Mat> {
    if g.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve_cols",
            lhs: g.shape(),
            rhs: b.shape(),
        });
    }
    solve_batched(g, lambda, b.cols(), threads, |a, e| b.col_block(a, e))
}

/// The shared body of [`ridge_solve_rows`] and [`ridge_solve_cols`]: factor
/// `GᵀG + λI` once and solve `count` right-hand sides in contiguous chunks
/// across `threads` workers, where `gather(a, b)` returns right-hand sides
/// `a..b` as the columns of an m × (b − a) matrix. Row i of the result is
/// the solution for right-hand side i.
fn solve_batched(
    g: &Mat,
    lambda: f64,
    count: usize,
    threads: usize,
    gather: impl Fn(usize, usize) -> Mat + Sync,
) -> Result<Mat> {
    let factor = RidgeFactor::new(g, lambda)?;
    let p = g.cols();
    let mut out = Mat::zeros(count, p);
    if p == 0 {
        return Ok(out);
    }
    // The dominant per-chunk cost is the GᵀB product: m·p per RHS.
    let threads = crate::par::effective_threads(threads, count * g.rows() * p);
    par_chunks(out.as_mut_slice(), p, threads, |c0, chunk| {
        let width = chunk.len() / p;
        let gtb = g.t_matmul(&gather(c0, c0 + width)).expect("shape pre-validated");
        let x = factor.solve(&gtb).expect("shape pre-validated");
        for (i, out_row) in chunk.chunks_mut(p).enumerate() {
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = x[(j, i)];
            }
        }
    });
    Ok(out)
}

/// Ordinary least squares `argmin_X ‖G X − B‖_F²` via the normal equations.
pub fn lstsq(g: &Mat, b: &Mat) -> Result<Mat> {
    ridge_solve(g, b, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;
    use crate::rng::SeededRng;

    #[test]
    fn exact_system_recovered() {
        let g = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let x_true = Mat::from_rows(&[&[2.0], &[-1.0]]);
        let b = g.matmul(&x_true).unwrap();
        let x = lstsq(&g, &b).unwrap();
        assert!(max_abs_diff(&x, &x_true) < 1e-10);
    }

    #[test]
    fn ridge_shrinks_toward_zero() {
        let g = Mat::from_rows(&[&[1.0], &[1.0]]);
        let b = Mat::from_rows(&[&[2.0], &[2.0]]);
        let x0 = ridge_solve(&g, &b, 0.0).unwrap();
        let x1 = ridge_solve(&g, &b, 10.0).unwrap();
        assert!((x0[(0, 0)] - 2.0).abs() < 1e-12);
        assert!(x1[(0, 0)] < x0[(0, 0)]);
        assert!(x1[(0, 0)] > 0.0);
    }

    #[test]
    fn ridge_closed_form_1d() {
        // For scalar g-column: x = (gᵀb) / (gᵀg + λ).
        let g = Mat::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let b = Mat::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let lam = 0.5;
        let x = ridge_solve(&g, &b, lam).unwrap();
        let expected = 14.0 / (14.0 + lam);
        assert!((x[(0, 0)] - expected).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_noisy_fit_has_small_residual() {
        let mut rng = SeededRng::new(11);
        let g = rng.gaussian_mat(50, 4, 0.0, 1.0);
        let x_true = Mat::from_rows(&[&[1.0], &[-2.0], &[0.5], &[3.0]]);
        let mut b = g.matmul(&x_true).unwrap();
        for v in b.as_mut_slice() {
            *v += rng.gaussian(0.0, 0.01);
        }
        let x = lstsq(&g, &b).unwrap();
        assert!(max_abs_diff(&x, &x_true) < 0.05);
    }

    #[test]
    fn batched_rows_match_serial_bit_for_bit() {
        let mut rng = SeededRng::new(21);
        let g = rng.uniform_mat(9, 4, 0.0, 2.0);
        let b_rows = rng.uniform_mat(31, 9, 0.0, 5.0);
        let serial = ridge_solve(&g, &b_rows.transpose(), 0.2).unwrap().transpose();
        for threads in [1, 2, 5, 8, 0] {
            let par = ridge_solve_rows(&g, &b_rows, 0.2, threads).unwrap();
            assert_eq!(par.as_slice(), serial.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn batched_cols_match_serial_bit_for_bit() {
        let mut rng = SeededRng::new(22);
        let g = rng.uniform_mat(40, 3, 0.0, 2.0);
        let b = rng.uniform_mat(40, 17, 0.0, 5.0);
        let serial = ridge_solve(&g, &b, 0.2).unwrap().transpose();
        for threads in [1, 2, 4, 16, 0] {
            let par = ridge_solve_cols(&g, &b, 0.2, threads).unwrap();
            assert_eq!(par.as_slice(), serial.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn batched_solvers_agree_with_serial_on_singular_input() {
        // An exactly rank-deficient G at λ = 0 fails Cholesky *and* the LU
        // fallback; the batched solvers must report the same error instead
        // of fanning out garbage.
        let g = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let b_rows = Mat::from_rows(&[&[1.0, 1.0, 2.0], &[0.5, 0.5, 1.0]]);
        assert!(ridge_solve(&g, &b_rows.transpose(), 0.0).is_err());
        assert!(ridge_solve_rows(&g, &b_rows, 0.0, 2).is_err());
        assert!(ridge_solve_cols(&g, &b_rows.transpose(), 0.0, 2).is_err());
        // With λ > 0 the same G is solvable everywhere.
        assert!(ridge_solve_rows(&g, &b_rows, 0.1, 2).is_ok());
    }

    #[test]
    fn batched_shape_mismatch_rejected() {
        let g = Mat::zeros(4, 2);
        assert!(ridge_solve_rows(&g, &Mat::zeros(3, 5), 0.1, 2).is_err());
        assert!(ridge_solve_cols(&g, &Mat::zeros(5, 3), 0.1, 2).is_err());
    }

    #[test]
    fn ridge_factor_reports_dim() {
        let g = Mat::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0]]);
        assert_eq!(RidgeFactor::new(&g, 0.3).unwrap().dim(), 3);
    }

    #[test]
    fn inverse_solves_like_the_factor_on_both_branches() {
        // λ = 0.2 keeps Cholesky; λ = 0 on a rank-deficient G (last column a
        // copy of the first) loses positive definiteness to rounding on some
        // seeds and falls back to LU, or is singular and reports it. Every
        // outcome must be reached.
        let mut reached = [false; 3];
        for seed in 0..200u64 {
            let mut rng = SeededRng::new(seed);
            let p = 2 + rng.index(6);
            let mut g = rng.uniform_mat(7, p, 0.0, 2.0);
            for i in 0..7 {
                g[(i, p - 1)] = g[(i, 0)];
            }
            for lambda in [0.2, 0.0] {
                let gram = g.t_matmul(&g).unwrap();
                let factor = match RidgeFactor::from_gram(&gram, lambda) {
                    Ok(factor) => factor,
                    Err(e) => {
                        assert!(matches!(e, LinalgError::Singular { .. }), "{e:?}");
                        assert!(RidgeFactor::new(&g, lambda).is_err());
                        reached[2] = true;
                        continue;
                    }
                };
                reached[usize::from(matches!(factor.kind, FactorKind::Lu(_)))] = true;
                let inv = factor.inverse();
                assert_eq!(inv.shape(), (p, p));
                for c in 0..p {
                    let mut e = vec![0.0; p];
                    e[c] = 1.0;
                    factor.solve_in_place(&mut e).unwrap();
                    let col: Vec<f64> = (0..p).map(|i| inv[(i, c)]).collect();
                    assert_eq!(col, e, "seed {seed} λ {lambda} column {c}");
                }
                if lambda > 0.0 {
                    // A well-conditioned normal matrix times its inverse is I.
                    let mut a = gram.clone();
                    for i in 0..p {
                        a[(i, i)] += lambda;
                    }
                    let id = a.matmul(&inv).unwrap();
                    assert!(max_abs_diff(&id, &Mat::identity(p)) < 1e-9, "seed {seed}");
                }
            }
        }
        assert_eq!(reached, [true, true, true], "Cholesky, LU and singular outcomes");
    }

    #[test]
    fn multi_rhs_columns_solved_independently() {
        let g = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let x_true = Mat::from_rows(&[&[1.0, -1.0], &[2.0, 4.0]]);
        let b = g.matmul(&x_true).unwrap();
        let x = lstsq(&g, &b).unwrap();
        assert!(max_abs_diff(&x, &x_true) < 1e-10);
    }
}
