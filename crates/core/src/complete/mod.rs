//! Predictive models that complete the partially observed workload matrix.
//!
//! The paper's LimeQO uses censored [`als`] (Algorithm 2); [`svt`] and
//! [`nuc`] are the alternatives benchmarked in §5.5.5 / Fig. 17. Neural
//! completers (plain and transductive TCNNs) live in the `limeqo-tcnn`
//! crate and implement the same [`Completer`] trait, which is how
//! Algorithm 1 swaps its predictive model.

pub mod als;
pub mod nuc;
pub mod svt;

pub use als::{dense_reference, AlsCompleter, DENSE_REFERENCE_TOL};
pub use nuc::NucCompleter;
pub use svt::SvtCompleter;

use crate::matrix::WorkloadMatrix;
use limeqo_linalg::Mat;

/// A predictive model `pred(W̃, M, T) → Ŵ` (Algorithm 1, line 2): given the
/// partially observed workload matrix, produce a fully filled estimate.
/// Observed cells keep their observed values; unobserved cells receive
/// predictions; censored cells receive predictions clamped to their bound
/// when the model supports censoring.
pub trait Completer {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Complete the matrix. Called once per exploration step; the harness
    /// wall-clocks this call as the model's overhead (Figs. 7/13).
    fn complete(&mut self, wm: &WorkloadMatrix) -> Mat;

    /// [`Completer::complete`] with a dirty-row hint: `dirty` lists
    /// (sorted, unique) the rows whose observations changed since the
    /// previous call, `None` means "no tracking available". Models that
    /// can exploit the hint (incremental ALS) override this; the default
    /// ignores it and runs a full completion, so the hint is always safe
    /// to pass.
    fn complete_dirty(&mut self, wm: &WorkloadMatrix, _dirty: Option<&[usize]>) -> Mat {
        self.complete(wm)
    }

    /// Serialize mutable run state (call counters, warm-started factors)
    /// into a snapshot. Default no-op for stateless models.
    fn save_state(&self, _enc: &mut crate::persist::Enc) {}

    /// Restore state written by [`Completer::save_state`]. Must consume
    /// exactly the tokens its counterpart produced.
    fn load_state(&mut self, _dec: &mut crate::persist::Dec<'_>) -> crate::persist::Result<()> {
        Ok(())
    }
}

/// Fill estimate `Ŵ ← M ⊙ W̃ + (1 − M) ⊙ Q Hᵀ`, with the censored clamp
/// `Ŵᵢⱼ ← max(Ŵᵢⱼ, Tᵢⱼ)` where `Tᵢⱼ > 0` (Algorithm 2 lines 3–5). Shared
/// by ALS and the iterative completers.
pub(crate) fn fill_estimate(
    values: &Mat,
    mask: &Mat,
    timeouts: Option<&Mat>,
    low_rank: &Mat,
) -> Mat {
    let (n, k) = values.shape();
    debug_assert_eq!(low_rank.shape(), (n, k));
    let mut out = Mat::zeros(n, k);
    for i in 0..(n * k) {
        let m = mask.as_slice()[i];
        let v = if m != 0.0 { values.as_slice()[i] } else { low_rank.as_slice()[i] };
        out.as_mut_slice()[i] = v;
    }
    if let Some(t) = timeouts {
        for i in 0..(n * k) {
            let bound = t.as_slice()[i];
            if bound > 0.0 && out.as_slice()[i] < bound {
                out.as_mut_slice()[i] = bound;
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use limeqo_linalg::rng::SeededRng;

    /// Build a synthetic exactly-rank-r non-negative matrix and a workload
    /// matrix observing `frac` of its cells (plus the full default column).
    pub fn synthetic_low_rank(
        n: usize,
        k: usize,
        r: usize,
        frac: f64,
        seed: u64,
    ) -> (Mat, WorkloadMatrix) {
        let mut rng = SeededRng::new(seed);
        let q = rng.uniform_mat(n, r, 0.1, 2.0);
        let h = rng.uniform_mat(k, r, 0.1, 2.0);
        let truth = q.matmul_t(&h).expect("shape");
        let mut wm = WorkloadMatrix::new(n, k);
        for i in 0..n {
            wm.set_complete(i, 0, truth[(i, 0)]);
            for j in 1..k {
                if rng.chance(frac) {
                    wm.set_complete(i, j, truth[(i, j)]);
                }
            }
        }
        (truth, wm)
    }

    /// Held-out MSE of `pred` vs `truth` on cells unobserved in `wm`.
    pub fn heldout_mse(truth: &Mat, pred: &Mat, wm: &WorkloadMatrix) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, j) in wm.unobserved_cells() {
            let d = truth[(i, j)] - pred[(i, j)];
            sum += d * d;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_estimate_respects_mask_and_clamp() {
        let values = Mat::from_rows(&[&[5.0, 0.0]]);
        let mask = Mat::from_rows(&[&[1.0, 0.0]]);
        let low_rank = Mat::from_rows(&[&[9.0, 2.0]]);
        let timeouts = Mat::from_rows(&[&[0.0, 3.0]]);
        let out = fill_estimate(&values, &mask, Some(&timeouts), &low_rank);
        assert_eq!(out[(0, 0)], 5.0); // observed kept
        assert_eq!(out[(0, 1)], 3.0); // prediction 2.0 clamped to bound 3.0
        let out2 = fill_estimate(&values, &mask, None, &low_rank);
        assert_eq!(out2[(0, 1)], 2.0); // no clamp without censoring
    }
}
