//! Nuclear-norm minimization via Soft-Impute — the `NUC` baseline of
//! §5.5.5 / Fig. 17.
//!
//! Exact nuclear-norm minimization is a semidefinite program; the standard
//! practical solver at workload-matrix scale is Soft-Impute (Mazumder,
//! Hastie & Tibshirani 2010), the proximal-gradient iteration
//! `Xₜ₊₁ = shrink_λ(M ⊙ W̃ + (1−M) ⊙ Xₜ)` for the nuclear-norm-regularized
//! objective: same objective, tractable algorithm. As the paper observes
//! for NUC, accuracy is good but the per-iteration SVD makes it markedly
//! slower than ALS.

use super::{fill_estimate, Completer};
use crate::matrix::WorkloadMatrix;
use limeqo_linalg::{svd_thin, Mat};

/// Soft-Impute nuclear-norm matrix completion.
#[derive(Debug, Clone)]
pub struct NucCompleter {
    /// Shrinkage λ as a fraction of the top singular value of the filled
    /// matrix (relative thresholds adapt to latency scale).
    pub lambda_rel: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative change tolerance for convergence.
    pub tol: f64,
}

impl Default for NucCompleter {
    fn default() -> Self {
        NucCompleter { lambda_rel: 0.02, max_iters: 300, tol: 1e-6 }
    }
}

impl Completer for NucCompleter {
    fn name(&self) -> &'static str {
        "nuc"
    }

    fn complete(&mut self, wm: &WorkloadMatrix) -> Mat {
        let values = wm.values();
        let mask = wm.mask();
        let mut x = Mat::zeros(wm.n_rows(), wm.n_cols());
        let mut prev_norm: f64 = 1e-12;
        for _ in 0..self.max_iters {
            let filled = fill_estimate(&values, &mask, None, &x);
            let svd = match svd_thin(&filled) {
                Ok(s) => s,
                Err(_) => break,
            };
            let tau = self.lambda_rel * svd.s.first().copied().unwrap_or(0.0);
            let next = svd.shrink_reconstruct(tau);
            // Relative Frobenius change.
            let mut diff = 0.0;
            let mut norm = 0.0;
            for (a, b) in next.as_slice().iter().zip(x.as_slice()) {
                diff += (a - b) * (a - b);
                norm += a * a;
            }
            x = next;
            let rel = diff.sqrt() / prev_norm.max(1e-12);
            prev_norm = norm.sqrt();
            if rel < self.tol {
                break;
            }
        }
        fill_estimate(&values, &mask, None, &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::test_support::{heldout_mse, synthetic_low_rank};

    #[test]
    fn recovers_low_rank_accurately() {
        let (truth, wm) = synthetic_low_rank(50, 20, 3, 0.5, 31);
        let mut nuc = NucCompleter::default();
        let pred = nuc.complete(&wm);
        let mse = heldout_mse(&truth, &pred, &wm);
        let scale = truth.as_slice().iter().map(|v| v * v).sum::<f64>() / truth.len() as f64;
        assert!(mse / scale < 0.02, "relative mse {}", mse / scale);
    }

    #[test]
    fn observed_cells_preserved() {
        let (_, wm) = synthetic_low_rank(15, 8, 2, 0.5, 32);
        let mut nuc = NucCompleter::default();
        let pred = nuc.complete(&wm);
        for i in 0..15 {
            for j in 0..8 {
                if let crate::matrix::Cell::Complete(v) = wm.cell(i, j) {
                    assert_eq!(pred[(i, j)], v);
                }
            }
        }
    }

    #[test]
    fn handles_sparse_fill_without_panicking() {
        let (_, wm) = synthetic_low_rank(30, 12, 2, 0.1, 33);
        let mut nuc = NucCompleter { max_iters: 50, ..Default::default() };
        let pred = nuc.complete(&wm);
        assert!(pred.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stronger_shrinkage_lowers_rank() {
        let (_, wm) = synthetic_low_rank(40, 16, 4, 0.6, 34);
        let mut weak = NucCompleter { lambda_rel: 0.001, ..Default::default() };
        let mut strong = NucCompleter { lambda_rel: 0.4, ..Default::default() };
        let rank_of = |m: &Mat| limeqo_linalg::svd_thin(m).unwrap().rank(1e-6);
        let rw = rank_of(&weak.complete(&wm));
        let rs = rank_of(&strong.complete(&wm));
        assert!(rs <= rw, "strong {rs} weak {rw}");
    }
}
