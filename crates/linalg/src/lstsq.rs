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
        let mut gtg = gram(g);
        for i in 0..gtg.rows() {
            gtg[(i, i)] += lambda;
        }
        let kind = match cholesky(&gtg) {
            Ok(f) => FactorKind::Chol(f),
            Err(_) => FactorKind::Lu(lu(&gtg)?),
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

    /// [`RidgeFactor::solve_in_place`] on `L` right-hand sides at once,
    /// `x[i][l]` being entry `i` of right-hand side `l`: every lane runs the
    /// single-right-hand-side sequence of whichever factor was kept, so each
    /// agrees with `solve_in_place` bit for bit.
    #[inline(always)]
    pub(crate) fn solve_lanes<const L: usize>(&self, x: &mut [[f64; L]]) -> Result<()> {
        match &self.kind {
            FactorKind::Chol(f) => f.solve_lanes(x),
            FactorKind::Lu(f) => f.solve_lanes(x),
        }
    }
}

/// A matrix's entries with their zero tests done once: `keep[i]` is all
/// ones where `val[i]` is not an exact zero and all zeros (the bits of
/// `+0.0`) where it is. `f64::from_bits((x * w).to_bits() & keep[i])` with
/// `x = val[i]` is then `x * w`, or `+0.0` where [`Mat::t_matmul`] skips
/// the term. Adding that `+0.0` instead of skipping changes no sum whose
/// accumulator starts at `+0.0`: a sum is `−0.0` only when both addends
/// are, so such an accumulator is never `−0.0`, and adding `+0.0` to any
/// other value — `±∞` and NaN included — returns it. A mask rather than a
/// branch, so the zero pattern the non-negativity clamp leaves in an ALS
/// factor costs no mispredictions, and a mask loaded from memory rather
/// than one compared in the loop, so the compiler keeps the loop vector code.
pub(crate) struct Masked<'a> {
    pub(crate) val: &'a [f64],
    pub(crate) keep: Vec<u64>,
}

impl<'a> Masked<'a> {
    pub(crate) fn new(m: &'a Mat) -> Self {
        let val = m.as_slice();
        Masked { val, keep: val.iter().map(|&v| u64::from(v != 0.0).wrapping_neg()).collect() }
    }
}

/// `x * w` with `keep` applied: see [`Masked`].
#[inline(always)]
pub(crate) fn masked_product(x: f64, keep: u64, w: f64) -> f64 {
    f64::from_bits((x * w).to_bits() & keep)
}

/// `GᵀG`, bit for bit as [`Mat::t_matmul`] computes it: each entry sums
/// `g[k][a]·g[k][c]` over rows `k` ascending from `+0.0`, with a term whose
/// `g[k][a]` is an exact zero turned into `+0.0` (see [`Masked`]) where
/// `t_matmul` skips it.
fn gram(g: &Mat) -> Mat {
    let p = g.cols();
    let mut out = Mat::zeros(p, p);
    if p == 0 {
        return out;
    }
    let g = Masked::new(g);
    for (row, keep_row) in g.val.chunks_exact(p).zip(g.keep.chunks_exact(p)) {
        let out_rows = out.as_mut_slice().chunks_exact_mut(p);
        for ((&ga, &keep), out_row) in row.iter().zip(keep_row).zip(out_rows) {
            for (o, &gc) in out_row.iter_mut().zip(row) {
                *o += masked_product(ga, keep, gc);
            }
        }
    }
    out
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
    ridge_solve_rows_blocked(g, b_rows, lambda, threads, &[(0, b_rows.rows())])
}

/// [`ridge_solve_rows`] with the right-hand-side rows partitioned into
/// caller-supplied contiguous `blocks` (`(start, end)` half-open, ascending,
/// covering `0..b_rows.rows()` exactly) — the entry point behind per-shard
/// ALS factor solves: each shard's query rows are one block, solved as its
/// own batch against the *shared* factored normal matrix.
///
/// Because every output row's floating-point sequence (gather `bᵢ`,
/// `Gᵀbᵢ`, triangular solves) is independent of how its neighbours are
/// batched, the result is byte-identical to the unblocked call for **any**
/// block partition and any thread count — which is what pins the sharded
/// engine's factor model to the unsharded one bit for bit.
///
/// ```
/// use limeqo_linalg::{ridge_solve_rows, ridge_solve_rows_blocked, Mat};
/// use limeqo_linalg::rng::SeededRng;
///
/// let mut rng = SeededRng::new(3);
/// let g = rng.uniform_mat(6, 3, 0.0, 1.0);
/// let b = rng.uniform_mat(10, 6, 0.0, 1.0);
/// let whole = ridge_solve_rows(&g, &b, 0.2, 2).unwrap();
/// let blocked = ridge_solve_rows_blocked(&g, &b, 0.2, 2, &[(0, 4), (4, 4), (4, 10)]).unwrap();
/// assert_eq!(blocked.as_slice(), whole.as_slice());
/// ```
pub fn ridge_solve_rows_blocked(
    g: &Mat,
    b_rows: &Mat,
    lambda: f64,
    threads: usize,
    blocks: &[(usize, usize)],
) -> Result<Mat> {
    if g.rows() != b_rows.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve_rows",
            lhs: g.shape(),
            rhs: b_rows.shape(),
        });
    }
    let q = b_rows.rows();
    assert_row_partition(blocks, q);
    let factor = RidgeFactor::new(g, lambda)?;
    let p = g.cols();
    let mut out = Mat::zeros(q, p);
    if p == 0 {
        return Ok(out);
    }
    for &(start, end) in blocks {
        if start == end {
            continue;
        }
        // The dominant per-chunk cost is the GᵀB product: m·p per RHS.
        let t = crate::par::effective_threads(threads, (end - start) * g.rows() * p);
        let sub = &mut out.as_mut_slice()[start * p..end * p];
        par_chunks(sub, p, t, |r0, chunk| {
            let width = chunk.len() / p;
            // Gather this chunk's right-hand sides as columns: m × width.
            let bt = b_rows.row_block(start + r0, start + r0 + width).transpose();
            let gtb = g.t_matmul(&bt).expect("shape pre-validated");
            let x = factor.solve(&gtb).expect("shape pre-validated");
            for (i, out_row) in chunk.chunks_mut(p).enumerate() {
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = x[(j, i)];
                }
            }
        });
    }
    Ok(out)
}

/// Panic unless `blocks` are contiguous ascending `(start, end)` ranges
/// covering `0..rows` exactly (empty blocks allowed).
pub(crate) fn assert_row_partition(blocks: &[(usize, usize)], rows: usize) {
    let mut expect = 0usize;
    for &(start, end) in blocks {
        assert!(
            start == expect && end >= start,
            "blocks must partition 0..{rows} contiguously: got ({start}, {end}) after {expect}"
        );
        expect = end;
    }
    assert!(expect == rows, "blocks must cover 0..{rows}: ended at {expect}");
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
    let factor = RidgeFactor::new(g, lambda)?;
    let p = g.cols();
    let mut out = Mat::zeros(b.cols(), p);
    if p == 0 {
        return Ok(out);
    }
    // The dominant per-chunk cost is the GᵀB product: m·p per RHS column.
    let threads = crate::par::effective_threads(threads, b.cols() * g.rows() * p);
    par_chunks(out.as_mut_slice(), p, threads, |c0, chunk| {
        let width = chunk.len() / p;
        let block = b.col_block(c0, c0 + width);
        let gtb = g.t_matmul(&block).expect("shape pre-validated");
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
    fn blocked_rows_match_unblocked_for_any_partition() {
        let mut rng = SeededRng::new(23);
        let g = rng.uniform_mat(9, 4, 0.0, 2.0);
        let b_rows = rng.uniform_mat(31, 9, 0.0, 5.0);
        let whole = ridge_solve_rows(&g, &b_rows, 0.2, 1).unwrap();
        for case in 0..40 {
            // Random contiguous partition of 0..31, empty blocks allowed.
            let mut cuts = vec![0usize, 31];
            for _ in 0..rng.index(6) {
                cuts.push(rng.index(32));
            }
            cuts.sort_unstable();
            let blocks: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
            for threads in [1, 3, 8] {
                let blocked = ridge_solve_rows_blocked(&g, &b_rows, 0.2, threads, &blocks).unwrap();
                assert_eq!(
                    blocked.as_slice(),
                    whole.as_slice(),
                    "case {case} blocks {blocks:?} threads {threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "blocks must cover")]
    fn blocked_rows_reject_short_partition() {
        let g = Mat::zeros(3, 2);
        let b_rows = Mat::zeros(5, 3);
        let _ = ridge_solve_rows_blocked(&g, &b_rows, 0.1, 1, &[(0, 3)]);
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

    /// NaN bit patterns count too: entries are compared as raw bits.
    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn branchless_gram_matches_t_matmul_bit_for_bit() {
        // Exact zeros of both signs opposite ±∞ (where t_matmul's skip
        // avoids a 0·∞ = NaN term), a NaN entry, and a zero row.
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let g = Mat::from_rows(&[
            &[-0.0, 2.0, 0.0, 1.5],
            &[inf, 0.0, -1.0, -0.0],
            &[0.0, -0.0, 0.0, 0.0],
            &[1.0, -inf, -0.0, 3.0],
            &[0.0, 0.5, 0.0, nan],
            &[-2.0, 0.0, 4.0, -0.0],
        ]);
        assert_eq!(bits(&gram(&g)), bits(&g.t_matmul(&g).unwrap()));
        let mut rng = SeededRng::new(24);
        for (m, p) in [(0, 3), (3, 0), (1, 1), (17, 5), (40, 8)] {
            let mut g = rng.uniform_mat(m, p, -1.0, 1.0);
            for v in g.as_mut_slice() {
                if rng.index(3) == 0 {
                    *v = if rng.index(2) == 0 { 0.0 } else { -0.0 };
                }
            }
            assert_eq!(bits(&gram(&g)), bits(&g.t_matmul(&g).unwrap()), "{m}x{p}");
        }
    }

    #[test]
    fn lane_solve_is_the_single_solve_in_every_lane() {
        // λ = 0.2 keeps Cholesky; λ = 0 on a rank-deficient G (last column a
        // copy of the first) loses positive definiteness to rounding on some
        // seeds and falls back to LU. Both branches must be reached.
        let mut reached = [false; 2];
        for seed in 0..200u64 {
            let mut rng = SeededRng::new(seed);
            let p = 2 + rng.index(6);
            let mut g = rng.uniform_mat(7, p, 0.0, 2.0);
            for i in 0..7 {
                g[(i, p - 1)] = g[(i, 0)];
            }
            for lambda in [0.2, 0.0] {
                let Ok(factor) = RidgeFactor::new(&g, lambda) else { continue };
                let is_lu = matches!(factor.kind, FactorKind::Lu(_));
                reached[usize::from(is_lu)] = true;
                let rhs = rng.uniform_mat(3, p, -4.0, 4.0);
                let mut lanes: Vec<[f64; 3]> =
                    (0..p).map(|i| std::array::from_fn(|l| rhs[(l, i)])).collect();
                factor.solve_lanes(&mut lanes).unwrap();
                for l in 0..3 {
                    let mut x = rhs.row(l).to_vec();
                    factor.solve_in_place(&mut x).unwrap();
                    let lane: Vec<u64> = lanes.iter().map(|v| v[l].to_bits()).collect();
                    let single: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(lane, single, "seed {seed} λ {lambda} lu {is_lu} lane {l}");
                }
                assert!(factor.solve_lanes(&mut lanes[1..]).is_err(), "short right-hand side");
            }
        }
        assert_eq!(reached, [true, true], "both the Cholesky and the LU branch");
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
