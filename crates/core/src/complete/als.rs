//! Censored alternating least squares — Algorithm 2 of the paper.
//!
//! `min_{Q,H} ‖M ⊙ (W̃ − QHᵀ)‖²_F + λ(‖Q‖²_F + ‖H‖²_F)` solved by
//! alternating the closed-form ridge updates
//! `Q ← Ŵ H (HᵀH + λI)⁻¹` and `H ← Ŵᵀ Q (QᵀQ + λI)⁻¹` on the *filled*
//! matrix `Ŵ = M ⊙ W̃ + (1−M) ⊙ QHᵀ`, with two LimeQO-specific twists:
//!
//! * **censoring** (lines 4–5, 9–10): before each factor update, any filled
//!   cell that sits below a known timeout bound is raised to that bound, so
//!   the model is penalized for predicting below a lower bound but never
//!   for a (potentially valid) over-estimate;
//! * **non-negativity** (lines 7, 12): factors are projected onto `≥ 0`
//!   after each update — a "heavy-handed prior that query latency must be
//!   positive" which keeps Eq. 6's improvement ratios meaningful.
//!
//! Paper defaults: rank r = 5, λ = 0.2, t = 50 iterations.
//!
//! With [`AlsCompleter::warm_start`] on, the factors from the previous
//! `complete()` call seed the next one instead of a fresh random init —
//! each exploration round refines the same model rather than refitting
//! from scratch, which stabilizes the ranking between rounds (few
//! observations change per round) and carries hint-side structure across
//! workload and data shifts. If the matrix gains rows mid-run (§5.3), the
//! hint factor `H` is kept and the query factor `Q` re-initialized — the
//! first half-iteration refits `Q` from `H` in closed form anyway.
//!
//! ## The parallel engine
//!
//! Every expensive step of an ALS iteration is independent per factor row:
//! the `Q` update solves one r-dimensional ridge system per *query*, the
//! `H` update one per *hint*, and the low-rank product `QHᵀ` is one dot
//! product per cell. [`AlsCompleter::threads`] fans those solves out over
//! crossbeam scoped workers, each worker writing only its own
//! pre-allocated factor rows. The result is **byte-identical to the serial
//! path at any thread count** — the partition moves chunk boundaries, never
//! the per-element arithmetic — which is what lets the golden scenario
//! suite stay pinned while the hot path scales across cores (contract in
//! PERF.md; pinned by `tests/tests/determinism.rs` at 1/2/8 threads).
//!
//! The default kernel ([`AlsKernel::Blocked`]) fuses each half-step into
//! one pass per factor row (`limeqo_linalg::block::fused_q_step` /
//! `fused_h_step`): the row of `QHᵀ` a solve needs is computed where it
//! is consumed, its observed slots are filled, and its right-hand side is
//! accumulated and solved in place, so the filled matrix `Ŵ` is never
//! materialised. [`AlsKernel::Naive`] keeps the three-pass reference
//! (`QHᵀ`, fill, batched solve) that the fused kernels are pinned to.
//!
//! Matrix assembly does not materialize the dense `W̃`/`M`/`T` triple
//! either: the observed and censored cells are gathered once per call from
//! the matrix's compact observed-cell index
//! ([`WorkloadMatrix::observed_cols`]) into per-row runs, so assembly is
//! O(observed), and the fill starts from `QHᵀ` and overwrites just a row's
//! observed slots — numerically identical to the old dense
//! `M ⊙ W̃ + (1−M) ⊙ QHᵀ` + censored-clamp sequence.

use super::Completer;
use crate::matrix::{Cell, WorkloadMatrix};
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::{block, par, ridge_solve_cols, ridge_solve_rows_blocked, Mat};

/// Which kernel implementation backs the ALS half-steps.
///
/// Every variant is **byte-identical** — the fused kernels preserve the
/// reference kernels' per-element floating-point operation sequence exactly
/// (see `limeqo_linalg::block` and the `tests/tests/kernels.rs`
/// differential suite) — so this is a pure performance knob: switching it
/// can never move a golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlsKernel {
    /// The three-pass reference: `QHᵀ` (`limeqo_linalg::par::matmul_t`),
    /// the fill, then `ridge_solve_rows_blocked` / `ridge_solve_cols`.
    Naive,
    /// The fused half-steps from `limeqo_linalg::block`, which never
    /// materialise the filled matrix; the `H` step takes its hint columns
    /// `tile` at a time, and the final completion is an L1-tiled `QHᵀ`.
    /// `tile = 0` picks the auto size (the largest slice whose panel fits
    /// the L1 budget).
    Blocked {
        /// Hint columns per slice; `0` = auto.
        tile: usize,
    },
}

impl Default for AlsKernel {
    /// Blocked with the auto tile — safe as a default precisely because
    /// the kernels are bit-identical.
    fn default() -> Self {
        AlsKernel::Blocked { tile: 0 }
    }
}

impl AlsKernel {
    fn matmul_t(&self, a: &Mat, b: &Mat, threads: usize) -> limeqo_linalg::Result<Mat> {
        match *self {
            AlsKernel::Naive => par::matmul_t(a, b, threads),
            AlsKernel::Blocked { tile } => block::matmul_t_tiled(a, b, threads, tile),
        }
    }

    /// `Q ← Ŵ H (HᵀH + λI)⁻¹` with `Ŵ = fill(QHᵀ)`: one ridge system per
    /// row of `q`, batched per block.
    fn q_step(
        &self,
        q: &Mat,
        h: &Mat,
        lambda: f64,
        threads: usize,
        blocks: &[(usize, usize)],
        fill: impl Fn(usize, usize, &mut [f64]) + Sync,
    ) -> limeqo_linalg::Result<Mat> {
        match *self {
            AlsKernel::Naive => {
                let w_hat = filled(par::matmul_t(q, h, threads)?, fill);
                ridge_solve_rows_blocked(h, &w_hat, lambda, threads, blocks)
            }
            AlsKernel::Blocked { .. } => block::fused_q_step(q, h, lambda, threads, blocks, fill),
        }
    }

    /// `H ← Ŵᵀ Q (QᵀQ + λI)⁻¹` with `Ŵ = fill(QHᵀ)`: one ridge system per
    /// hint column.
    fn h_step(
        &self,
        q: &Mat,
        h: &Mat,
        lambda: f64,
        threads: usize,
        fill: impl Fn(usize, usize, &mut [f64]) + Sync,
    ) -> limeqo_linalg::Result<Mat> {
        match *self {
            AlsKernel::Naive => {
                let w_hat = filled(par::matmul_t(q, h, threads)?, fill);
                ridge_solve_cols(q, &w_hat, lambda, threads)
            }
            AlsKernel::Blocked { tile } => block::fused_h_step(q, h, lambda, threads, tile, fill),
        }
    }
}

/// `qh` with `fill` applied to each of its rows.
fn filled(mut qh: Mat, fill: impl Fn(usize, usize, &mut [f64])) -> Mat {
    for row in 0..qh.rows() {
        fill(row, 0, qh.row_mut(row));
    }
    qh
}

/// Censored non-negative ALS matrix completion.
#[derive(Debug, Clone)]
pub struct AlsCompleter {
    /// Rank constraint r.
    pub rank: usize,
    /// Ridge regularization λ.
    pub lambda: f64,
    /// Number of alternating iterations t.
    pub iters: usize,
    /// Apply the censored clamp (ablation: Fig. 16 disables this).
    pub censored: bool,
    /// Apply the non-negativity projection (our extra ablation).
    pub nonneg: bool,
    /// Seed the factors from the previous `complete()` call instead of a
    /// fresh random init (see the module docs).
    pub warm_start: bool,
    /// Worker threads for the parallel factor solves and the `QHᵀ`
    /// product: 0 asks the machine (`available_parallelism`, and stays
    /// serial for kernels too small to amortize a thread spawn — see
    /// `limeqo_linalg::par::MIN_PAR_WORK`), 1 forces the serial path,
    /// explicit counts are honored literally. A pure performance knob —
    /// output is byte-identical at any value (see the module docs).
    pub threads: usize,
    /// Base seed for factor initialization.
    pub seed: u64,
    /// Kernel implementation for the hot loops. Byte-identical across
    /// variants (see [`AlsKernel`]), so purely a performance knob.
    pub kernel: AlsKernel,
    /// Opt-in incremental mode: when [`AlsCompleter::complete_dirty`] is
    /// given a small dirty-row set and warm factors of the right shape,
    /// re-solve only the dirty `Q` rows against the retained `H` instead of
    /// running the full alternation. See the module docs for the
    /// convergence contract; requires `warm_start`.
    pub incremental: bool,
    /// Largest dirty fraction (`dirty rows / n`) the incremental path
    /// accepts; above it the call falls through to the full alternation.
    /// At the default `0.5`, an all-dirty call is *exactly* the full path.
    pub incremental_threshold: f64,
    /// Force a full alternation every this many `complete*` calls (`0`
    /// disables the valve), so incremental drift is periodically repaired
    /// against the full objective.
    pub incremental_full_every: u64,
    calls: u64,
    /// `(Q, H)` from the previous call, kept while `warm_start` is on.
    warm: Option<(Mat, Mat)>,
}

/// The observed cells of a workload matrix, gathered once per `complete()`
/// call from the compact index: completed `(col, value)` and censored
/// `(col, bound)` pairs, both in row-major order, with each row's run
/// located by offset. Censored cells whose bound is not positive are left
/// out: the clamp never raises a slot to them.
struct GatheredCells {
    completes: Vec<(u32, f64)>,
    censored: Vec<(u32, f64)>,
    /// Row `i`'s cells are `completes[starts[i].0..starts[i + 1].0]` and
    /// `censored[starts[i].1..starts[i + 1].1]`.
    starts: Vec<(usize, usize)>,
}

impl GatheredCells {
    fn gather(wm: &WorkloadMatrix, want_censored: bool) -> Self {
        let mut completes = Vec::new();
        let mut censored = Vec::new();
        let mut starts = Vec::with_capacity(wm.n_rows() + 1);
        for row in 0..wm.n_rows() {
            starts.push((completes.len(), censored.len()));
            for &col in wm.observed_cols(row) {
                match wm.cell(row, col as usize) {
                    Cell::Complete(v) => completes.push((col, v)),
                    Cell::Censored(b) if want_censored && b > 0.0 => censored.push((col, b)),
                    Cell::Censored(_) | Cell::Unobserved => {}
                }
            }
        }
        starts.push((completes.len(), censored.len()));
        GatheredCells { completes, censored, starts }
    }

    /// `Ŵᵢⱼ ← W̃ᵢⱼ` on the complete cells and the censored clamp
    /// `Ŵᵢⱼ ← max(Ŵᵢⱼ, Tᵢⱼ)` (Algorithm 2 lines 3–5) on the window of row
    /// `row` of `QHᵀ` that starts at column `lo` (`w[j - lo]` is column
    /// `j`). Complete and censored cells are disjoint, so filling row by
    /// row is numerically identical to the dense `fill_estimate` this
    /// replaces. A row's runs are column-sorted, so only the cells inside
    /// the window are visited: an `H`-step worker touches its own columns,
    /// not the whole row.
    fn fill_row(&self, row: usize, lo: usize, w: &mut [f64]) {
        let ((c0, s0), (c1, s1)) = (self.starts[row], self.starts[row + 1]);
        let hi = lo + w.len();
        for &(c, v) in window(&self.completes[c0..c1], lo, hi) {
            w[c as usize - lo] = v;
        }
        for &(c, bound) in window(&self.censored[s0..s1], lo, hi) {
            let slot = &mut w[c as usize - lo];
            // A select, not a branch (x86's `maxsd` is exactly this): a NaN
            // prediction compares false and is kept.
            *slot = if *slot < bound { bound } else { *slot };
        }
    }

    /// Mean of the completed values — the scale the random factor init is
    /// centred on. Accumulated in row-major cell order, matching the old
    /// dense `values().sum() / mask().sum()` bit for bit (the skipped
    /// zeros never changed a partial sum).
    fn mean_complete(&self) -> f64 {
        let sum: f64 = self.completes.iter().map(|&(_, v)| v).sum();
        let count = self.completes.len().max(1);
        (sum / count as f64).max(1e-9)
    }
}

/// The cells of a column-sorted run that fall in columns `lo..hi`. A
/// window from column 0 (every `Q`-step row) needs no search.
fn window(run: &[(u32, f64)], lo: usize, hi: usize) -> impl Iterator<Item = &(u32, f64)> {
    let from = if lo == 0 { 0 } else { run.partition_point(|&(c, _)| (c as usize) < lo) };
    run[from..].iter().take_while(move |&&(c, _)| (c as usize) < hi)
}

impl AlsCompleter {
    /// Paper-default configuration (r = 5, λ = 0.2, t = 50, censoring and
    /// non-negativity on).
    pub fn paper_default(seed: u64) -> Self {
        AlsCompleter {
            rank: 5,
            lambda: 0.2,
            iters: 50,
            censored: true,
            nonneg: true,
            warm_start: false,
            threads: 0,
            seed,
            kernel: AlsKernel::default(),
            incremental: false,
            incremental_threshold: 0.5,
            incremental_full_every: 8,
            calls: 0,
            warm: None,
        }
    }

    /// Paper defaults with cross-round warm starting enabled.
    pub fn warm_started(rank: usize, seed: u64) -> Self {
        AlsCompleter { warm_start: true, ..Self::with_rank(rank, seed) }
    }

    /// Like [`AlsCompleter::paper_default`] but with a custom rank
    /// (Fig. 15's sweep).
    pub fn with_rank(rank: usize, seed: u64) -> Self {
        AlsCompleter { rank, ..Self::paper_default(seed) }
    }

    /// Disable the censored clamp (Fig. 16's "wocensored" ablation).
    pub fn without_censoring(seed: u64) -> Self {
        AlsCompleter { censored: false, ..Self::paper_default(seed) }
    }

    /// Run Algorithm 2 and return both the completed matrix and the final
    /// factors (the factors are reused by diagnostics and tests).
    ///
    /// ```
    /// use limeqo_core::complete::AlsCompleter;
    /// use limeqo_core::matrix::WorkloadMatrix;
    ///
    /// let mut wm = WorkloadMatrix::with_defaults(&[4.0, 6.0], 3);
    /// wm.set_complete(0, 1, 1.0);
    /// let mut als = AlsCompleter::paper_default(7);
    /// let (completed, q, h) = als.complete_with_factors(&wm);
    /// assert_eq!(completed.shape(), (2, 3));
    /// assert_eq!(q.shape(), (2, 5)); // rank r = 5 query factor
    /// assert_eq!(h.shape(), (3, 5)); // rank r = 5 hint factor
    /// // Observed cells are kept exactly; the rest is the low-rank fill.
    /// assert_eq!(completed[(0, 1)], 1.0);
    /// // The thread count is a pure performance knob: any value yields
    /// // byte-identical output (the parallel determinism contract).
    /// let mut par = AlsCompleter::paper_default(7);
    /// par.threads = 8;
    /// let (par_completed, _, _) = par.complete_with_factors(&wm);
    /// assert_eq!(par_completed.as_slice(), completed.as_slice());
    /// ```
    pub fn complete_with_factors(&mut self, wm: &WorkloadMatrix) -> (Mat, Mat, Mat) {
        let n = wm.n_rows();
        let k = wm.n_cols();
        let cells = GatheredCells::gather(wm, self.censored);
        // The Q update runs as one ridge batch per shard against the shared
        // factored normal matrix HᵀH + λI: per-shard solves feeding one
        // factor model. Each query row's solve is independent of how its
        // neighbours are batched, so any shard layout (including the
        // single-shard default) produces byte-identical factors.
        let shard_blocks = wm.shard_ranges();

        // Fresh random init per call, deterministic across runs. The
        // factors are scaled so the initial product QHᵀ matches the mean
        // observed latency: entries of Q·Hᵀ with U(0, b)² factors average
        // r·b²/4, so b = 2·√(mean/r) centres the initial fill on the data
        // scale (raw latencies span milliseconds to minutes, and an O(1)
        // init would make Algorithm 1's α-scaled timeouts so small that
        // every probe censors).
        self.calls += 1;
        let mut rng = SeededRng::new(self.seed.wrapping_add(self.calls.wrapping_mul(0xA5A5)));
        let r = self.rank.max(1);
        let mean_obs = cells.mean_complete();
        let bound = 2.0 * (mean_obs / r as f64).sqrt();
        // Warm path: reuse last round's factors when the shapes still
        // agree; if only the row count changed (queries arrived), keep H
        // and let the first half-iteration refit Q from it. The RNG is
        // advanced identically on every path so warm and cold runs stay
        // seed-deterministic cell for cell.
        let q_init = rng.uniform_mat(n, r, 0.0, bound);
        let h_init = rng.uniform_mat(k, r, 0.0, bound);
        let (mut q, mut h) = match self.warm.take() {
            Some((wq, wh)) if self.warm_start && wh.shape() == (k, r) => {
                if wq.shape() == (n, r) {
                    (wq, wh)
                } else {
                    (q_init, wh)
                }
            }
            _ => (q_init, h_init),
        };

        let threads = self.threads;
        let fill = |row: usize, lo: usize, w: &mut [f64]| cells.fill_row(row, lo, w);
        for _ in 0..self.iters {
            // Q ← Ŵ H (HᵀH + λI)⁻¹ with Ŵ ← M⊙W̃ + (1−M)⊙QHᵀ (+ censored
            // clamp): one independent r-dimensional ridge system per query
            // row, batched per shard, fanned out across the workers.
            q = self
                .kernel
                .q_step(&q, &h, self.lambda, threads, &shard_blocks, fill)
                .expect("Q update");
            if self.nonneg {
                q.clamp_min(0.0);
            }
            // H ← Ŵᵀ Q (QᵀQ + λI)⁻¹ on the refilled Ŵ: one system per hint
            // column.
            h = self.kernel.h_step(&q, &h, self.lambda, threads, fill).expect("H update");
            if self.nonneg {
                h.clamp_min(0.0);
            }
        }
        let completed = filled(self.kernel.matmul_t(&q, &h, threads).expect("QHᵀ shape"), fill);
        if self.warm_start {
            self.warm = Some((q.clone(), h.clone()));
        }
        (completed, q, h)
    }

    /// [`AlsCompleter::complete_with_factors`], but with a dirty-row hint:
    /// `dirty` lists (sorted, deduplicated) the rows whose observations
    /// changed since the factors in `warm` were fitted.
    ///
    /// When the incremental mode is armed (`incremental` + `warm_start`),
    /// warm factors of the current shape exist, the dirty fraction is at
    /// most [`AlsCompleter::incremental_threshold`] and the
    /// [`AlsCompleter::incremental_full_every`] valve is not due, only the
    /// dirty `Q` rows are re-solved against the retained `H` — one ridge
    /// batch instead of `iters` full alternations. Every other case
    /// (including `dirty = None`, the "no tracking available" signal) falls
    /// through to the full path, so an all-dirty call is *exactly* the full
    /// alternation.
    ///
    /// **Convergence contract** (measured across the fast scenario registry
    /// by `tests/tests/kernels.rs`, documented in PERF.md): the incremental
    /// completion's relative Frobenius deviation from the full-ALS
    /// completion on the same inputs stays bounded — the dirty rows are
    /// re-fit in closed form against the same `H` the full path would have
    /// started from, clean rows keep their already-converged values, and
    /// the periodic full pass repairs any accumulated factor drift.
    ///
    /// The incremental path draws nothing from the RNG but still advances
    /// the per-call counter, so a later full completion computes the same
    /// init stream whether or not incremental rounds ran in between.
    pub fn complete_dirty_with_factors(
        &mut self,
        wm: &WorkloadMatrix,
        dirty: Option<&[usize]>,
    ) -> (Mat, Mat, Mat) {
        let n = wm.n_rows();
        let k = wm.n_cols();
        let r = self.rank.max(1);
        let Some(dirty) = dirty else {
            return self.complete_with_factors(wm);
        };
        // `calls` is already persisted state, so the valve survives
        // restarts for free; checked against the *upcoming* call number.
        let force_full =
            self.incremental_full_every > 0 && (self.calls + 1) % self.incremental_full_every == 0;
        let warm_ok = matches!(
            &self.warm,
            Some((wq, wh)) if wq.shape() == (n, r) && wh.shape() == (k, r)
        );
        let small_enough = (dirty.len() as f64) <= self.incremental_threshold * n.max(1) as f64;
        if !(self.incremental && self.warm_start && warm_ok && small_enough && !force_full) {
            return self.complete_with_factors(wm);
        }
        debug_assert!(
            dirty.windows(2).all(|w| w[0] < w[1]) && dirty.iter().all(|&row| row < n),
            "dirty rows must be sorted, unique and in range"
        );
        let cells = GatheredCells::gather(wm, self.censored);
        self.calls += 1;
        let (mut q, h) = self.warm.take().expect("warm_ok checked above");
        if !dirty.is_empty() {
            // Q_d ← Ŵ_d H (HᵀH + λI)⁻¹: the closed-form Q update restricted
            // to the dirty rows, against the retained H — the same Q step
            // the full path runs, over the gathered dirty rows of Q.
            let mut q_d = Mat::zeros(dirty.len(), r);
            for (i, &row) in dirty.iter().enumerate() {
                q_d.row_mut(i).copy_from_slice(q.row(row));
            }
            let fill = |i: usize, lo: usize, w: &mut [f64]| cells.fill_row(dirty[i], lo, w);
            let mut q_d = self
                .kernel
                .q_step(&q_d, &h, self.lambda, self.threads, &[(0, dirty.len())], fill)
                .expect("incremental Q update");
            if self.nonneg {
                q_d.clamp_min(0.0);
            }
            for (i, &row) in dirty.iter().enumerate() {
                q.row_mut(row).copy_from_slice(q_d.row(i));
            }
        }
        let fill = |row: usize, lo: usize, w: &mut [f64]| cells.fill_row(row, lo, w);
        let completed =
            filled(self.kernel.matmul_t(&q, &h, self.threads).expect("QHᵀ shape"), fill);
        self.warm = Some((q.clone(), h.clone()));
        (completed, q, h)
    }
}

impl Completer for AlsCompleter {
    fn name(&self) -> &'static str {
        "als"
    }

    fn complete(&mut self, wm: &WorkloadMatrix) -> Mat {
        self.complete_with_factors(wm).0
    }

    fn complete_dirty(&mut self, wm: &WorkloadMatrix, dirty: Option<&[usize]>) -> Mat {
        self.complete_dirty_with_factors(wm, dirty).0
    }

    fn save_state(&self, enc: &mut crate::persist::Enc) {
        // Per-call seed derivation (`seed + calls * 0xA5A5`) and the
        // warm-started factors are the only mutable state; both must
        // survive a restart for the next completion to be bit-identical.
        enc.u(self.calls);
        match &self.warm {
            Some((q, h)) => {
                enc.b(true);
                enc.mat(q);
                enc.mat(h);
            }
            None => enc.b(false),
        }
    }

    fn load_state(&mut self, dec: &mut crate::persist::Dec<'_>) -> crate::persist::Result<()> {
        self.calls = dec.u()?;
        self.warm = if dec.b()? { Some((dec.mat()?, dec.mat()?)) } else { None };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::test_support::{heldout_mse, synthetic_low_rank};
    use crate::matrix::Cell;

    #[test]
    fn recovers_exact_low_rank_matrix() {
        let (truth, wm) = synthetic_low_rank(60, 20, 3, 0.5, 1);
        let mut als = AlsCompleter { rank: 3, lambda: 0.01, ..AlsCompleter::paper_default(2) };
        let pred = als.complete(&wm);
        let mse = heldout_mse(&truth, &pred, &wm);
        let scale = truth.as_slice().iter().map(|v| v * v).sum::<f64>() / truth.len() as f64;
        assert!(mse / scale < 0.01, "relative mse {}", mse / scale);
    }

    #[test]
    fn observed_cells_kept_exactly() {
        let (truth, wm) = synthetic_low_rank(20, 10, 2, 0.4, 3);
        let mut als = AlsCompleter::paper_default(4);
        let pred = als.complete(&wm);
        for i in 0..20 {
            for j in 0..10 {
                if let Cell::Complete(v) = wm.cell(i, j) {
                    assert_eq!(pred[(i, j)], v);
                    assert_eq!(v, truth[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn censored_cells_clamped_to_bound() {
        let (_, mut wm) = synthetic_low_rank(30, 12, 2, 0.4, 5);
        // Plant censored observations (on cells not yet complete) with
        // bounds far above any prediction.
        let cells: Vec<(usize, usize)> = wm.unobserved_cells().take(2).collect();
        let [(r0, c0), (r1, c1)] = cells[..] else { panic!("need 2 unobserved") };
        wm.set_censored(r0, c0, 1e6);
        wm.set_censored(r1, c1, 2e6);
        let mut als = AlsCompleter::paper_default(6);
        let pred = als.complete(&wm);
        assert!(pred[(r0, c0)] >= 1e6);
        assert!(pred[(r1, c1)] >= 2e6);
        // Without censoring, the bound is ignored.
        let mut raw = AlsCompleter::without_censoring(6);
        let pred2 = raw.complete(&wm);
        assert!(pred2[(r0, c0)] < 1e6);
    }

    #[test]
    fn nonneg_projection_yields_nonnegative_predictions() {
        let (_, wm) = synthetic_low_rank(25, 10, 2, 0.3, 7);
        let mut als = AlsCompleter::paper_default(8);
        let (pred, q, h) = als.complete_with_factors(&wm);
        assert!(q.as_slice().iter().all(|&v| v >= 0.0));
        assert!(h.as_slice().iter().all(|&v| v >= 0.0));
        assert!(pred.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn higher_rank_fits_no_worse() {
        let (truth, wm) = synthetic_low_rank(50, 20, 4, 0.6, 9);
        let mse_r1 = {
            let mut a = AlsCompleter { rank: 1, lambda: 0.01, ..AlsCompleter::paper_default(10) };
            heldout_mse(&truth, &a.complete(&wm), &wm)
        };
        let mse_r4 = {
            let mut a = AlsCompleter { rank: 4, lambda: 0.01, ..AlsCompleter::paper_default(10) };
            heldout_mse(&truth, &a.complete(&wm), &wm)
        };
        assert!(mse_r4 < mse_r1, "r4 {mse_r4} r1 {mse_r1}");
    }

    #[test]
    fn deterministic_given_same_seed_and_call_count() {
        let (_, wm) = synthetic_low_rank(15, 8, 2, 0.5, 11);
        let mut a = AlsCompleter::paper_default(12);
        let mut b = AlsCompleter::paper_default(12);
        assert_eq!(a.complete(&wm).as_slice(), b.complete(&wm).as_slice());
    }

    #[test]
    fn warm_start_reuses_factors_and_stays_deterministic() {
        let (_, wm) = synthetic_low_rank(20, 10, 3, 0.5, 20);
        let mut warm_a = AlsCompleter::warm_started(3, 21);
        let mut warm_b = AlsCompleter::warm_started(3, 21);
        for _ in 0..3 {
            let pa = warm_a.complete(&wm);
            let pb = warm_b.complete(&wm);
            assert_eq!(pa.as_slice(), pb.as_slice(), "warm runs must replay identically");
        }
        // Warm and cold runs genuinely differ after the first call.
        let mut cold = AlsCompleter::with_rank(3, 21);
        cold.complete(&wm);
        let mut warm = AlsCompleter::warm_started(3, 21);
        warm.complete(&wm);
        assert_ne!(cold.complete(&wm).as_slice(), warm.complete(&wm).as_slice());
    }

    #[test]
    fn warm_start_survives_row_growth() {
        let (_, wm_small) = synthetic_low_rank(12, 8, 2, 0.5, 22);
        let (_, wm_big) = synthetic_low_rank(18, 8, 2, 0.5, 23);
        let mut als = AlsCompleter::warm_started(2, 24);
        als.complete(&wm_small);
        // Rows grew (a §5.3 workload shift): H is kept, Q re-initialized.
        let pred = als.complete(&wm_big);
        assert_eq!(pred.shape(), (18, 8));
        assert!(pred.as_slice().iter().all(|v| v.is_finite()));
    }

    /// The pre-parallel dense path, kept verbatim as a reference: build
    /// `W̃`/`M`/`T` densely, run the old `fill_estimate` + one-shot
    /// `ridge_solve` loop. The shipping engine must reproduce it bit for
    /// bit at every thread count.
    fn dense_reference(wm: &WorkloadMatrix, rank: usize, iters: usize, seed: u64) -> Mat {
        use crate::complete::fill_estimate;
        use limeqo_linalg::ridge_solve;
        let (n, k) = (wm.n_rows(), wm.n_cols());
        let lambda = 0.2;
        let values = wm.values();
        let mask = wm.mask();
        let timeouts_mat = wm.timeouts();
        let timeouts = Some(&timeouts_mat);
        let mut rng = SeededRng::new(seed.wrapping_add(0xA5A5));
        let r = rank.max(1);
        let observed = mask.sum().max(1.0);
        let mean_obs = (values.sum() / observed).max(1e-9);
        let bound = 2.0 * (mean_obs / r as f64).sqrt();
        let mut q = rng.uniform_mat(n, r, 0.0, bound);
        let mut h = rng.uniform_mat(k, r, 0.0, bound);
        for _ in 0..iters {
            let qh = q.matmul_t(&h).unwrap();
            let w_hat = fill_estimate(&values, &mask, timeouts, &qh);
            let qt = ridge_solve(&h, &w_hat.transpose(), lambda).unwrap();
            q = qt.transpose();
            q.clamp_min(0.0);
            let qh = q.matmul_t(&h).unwrap();
            let w_hat = fill_estimate(&values, &mask, timeouts, &qh);
            let ht = ridge_solve(&q, &w_hat, lambda).unwrap();
            h = ht.transpose();
            h.clamp_min(0.0);
        }
        let qh = q.matmul_t(&h).unwrap();
        fill_estimate(&values, &mask, timeouts, &qh)
    }

    #[test]
    fn engine_matches_dense_reference_at_every_thread_count() {
        let (_, mut wm) = synthetic_low_rank(40, 12, 3, 0.3, 31);
        // Plant censored cells so the clamp path is exercised too.
        let planted: Vec<(usize, usize)> = wm.unobserved_cells().take(5).collect();
        for (i, (r, c)) in planted.into_iter().enumerate() {
            wm.set_censored(r, c, 0.5 + i as f64);
        }
        let reference = dense_reference(&wm, 3, 10, 32);
        for threads in [1, 2, 8, 0] {
            let mut als =
                AlsCompleter { rank: 3, iters: 10, threads, ..AlsCompleter::paper_default(32) };
            assert_eq!(
                als.complete(&wm).as_slice(),
                reference.as_slice(),
                "threads={threads} diverged from the dense serial reference"
            );
        }
    }

    #[test]
    fn sharded_matrix_completes_byte_identically() {
        // Same logical cells, different shard layouts: the per-shard Q
        // batches must feed the shared factor model without moving a bit.
        let (_, mut wm) = synthetic_low_rank(40, 12, 3, 0.3, 41);
        let planted: Vec<(usize, usize)> = wm.unobserved_cells().take(4).collect();
        for (i, (r, c)) in planted.into_iter().enumerate() {
            wm.set_censored(r, c, 0.5 + i as f64);
        }
        let reference = {
            let mut als = AlsCompleter { rank: 3, iters: 10, ..AlsCompleter::paper_default(42) };
            als.complete(&wm)
        };
        for shards in [2usize, 3, 8] {
            let mut sharded = crate::matrix::WorkloadMatrix::new_sharded(40, 12, shards);
            for i in 0..40 {
                for j in 0..12 {
                    match wm.cell(i, j) {
                        Cell::Complete(v) => sharded.set_complete(i, j, v),
                        Cell::Censored(b) => sharded.set_censored(i, j, b),
                        Cell::Unobserved => {}
                    }
                }
            }
            for threads in [1usize, 8] {
                let mut als =
                    AlsCompleter { rank: 3, iters: 10, threads, ..AlsCompleter::paper_default(42) };
                assert_eq!(
                    als.complete(&sharded).as_slice(),
                    reference.as_slice(),
                    "shards={shards} threads={threads} diverged from the unsharded run"
                );
            }
        }
    }

    #[test]
    fn windowed_fill_equals_the_whole_row_fill_sliced() {
        // Cells on both window edges (columns 0 and k − 1), next to each
        // other, and censored bounds of 0.0 and −0.0 (ignored) beside
        // positive ones; the row being filled holds NaN slots, which the
        // clamp must keep.
        let k = 9;
        let mut wm = WorkloadMatrix::new_sharded(3, k, 1);
        wm.set_complete(0, 0, 1.5);
        wm.set_censored(0, 1, 0.0);
        wm.set_complete(0, 4, 2.5);
        wm.set_censored(0, 5, 7.0);
        wm.set_censored(0, 8, 3.0);
        wm.set_censored(1, 0, -0.0);
        wm.set_censored(1, 3, 9.0);
        wm.set_complete(1, 8, 0.25);
        let cells = GatheredCells::gather(&wm, true);
        let base = [f64::NAN, -1.0, 0.5, 1.0, 4.0, f64::NAN, -0.0, 6.0, f64::NAN];
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for row in 0..3 {
            let mut whole = base;
            cells.fill_row(row, 0, &mut whole);
            for lo in 0..=k {
                for hi in lo..=k {
                    let mut w = base[lo..hi].to_vec();
                    cells.fill_row(row, lo, &mut w);
                    assert_eq!(bits(&w), bits(&whole[lo..hi]), "row {row} window {lo}..{hi}");
                }
            }
        }
        // The fill itself: complete cells written, positive bounds clamp
        // (a NaN slot is kept), bounds ≤ 0 ignored.
        let mut w = base;
        cells.fill_row(0, 0, &mut w);
        assert_eq!(w[0], 1.5);
        assert_eq!(w[1], -1.0);
        assert_eq!(w[4], 2.5);
        assert!(w[5].is_nan() && w[8].is_nan());
        let mut w = base;
        cells.fill_row(1, 0, &mut w);
        assert!(w[0].is_nan());
        assert_eq!((w[3], w[8]), (9.0, 0.25));
    }

    #[test]
    fn rank_zero_clamped_to_one() {
        let (_, wm) = synthetic_low_rank(5, 4, 1, 0.5, 13);
        let mut a = AlsCompleter { rank: 0, ..AlsCompleter::paper_default(14) };
        let pred = a.complete(&wm);
        assert_eq!(pred.shape(), (5, 4));
    }

    #[test]
    fn blocked_kernel_matches_naive_bit_for_bit() {
        let (_, mut wm) = synthetic_low_rank(40, 12, 3, 0.3, 51);
        let planted: Vec<(usize, usize)> = wm.unobserved_cells().take(4).collect();
        for (i, (r, c)) in planted.into_iter().enumerate() {
            wm.set_censored(r, c, 0.5 + i as f64);
        }
        let reference = {
            let mut als = AlsCompleter { rank: 3, iters: 10, ..AlsCompleter::paper_default(52) };
            als.kernel = AlsKernel::Naive;
            als.complete(&wm)
        };
        for tile in [1usize, 7, 64, 0] {
            for threads in [1usize, 2, 8] {
                let mut als = AlsCompleter {
                    rank: 3,
                    iters: 10,
                    threads,
                    kernel: AlsKernel::Blocked { tile },
                    ..AlsCompleter::paper_default(52)
                };
                assert_eq!(
                    als.complete(&wm).as_slice(),
                    reference.as_slice(),
                    "tile={tile} threads={threads} diverged from the naive kernel"
                );
            }
        }
    }

    /// Shared setup for the incremental tests: a warm-started incremental
    /// completer that has already done one full fit of `wm`.
    fn fitted_incremental(wm: &WorkloadMatrix, seed: u64) -> AlsCompleter {
        let mut als = AlsCompleter::warm_started(3, seed);
        als.iters = 10;
        als.incremental = true;
        als.incremental_full_every = 0; // tests arm the valve explicitly
        als.complete(wm);
        als
    }

    #[test]
    fn incremental_update_refits_only_the_dirty_rows() {
        let (truth, mut wm) = synthetic_low_rank(30, 10, 3, 0.5, 61);
        let mut als = fitted_incremental(&wm, 62);
        let (_, q_before, _) = als.complete_dirty_with_factors(&wm, Some(&[]));
        // New observations land in two rows.
        wm.set_complete(3, 4, truth[(3, 4)]);
        wm.set_complete(17, 2, truth[(17, 2)]);
        let (pred, q_after, _) = als.complete_dirty_with_factors(&wm, Some(&[3, 17]));
        // Observed cells are kept exactly, including the new ones.
        assert_eq!(pred[(3, 4)], truth[(3, 4)]);
        assert_eq!(pred[(17, 2)], truth[(17, 2)]);
        // Clean Q rows are untouched; the dirty rows moved.
        for row in 0..30 {
            if row == 3 || row == 17 {
                assert_ne!(q_after.row(row), q_before.row(row), "dirty row {row} must refit");
            } else {
                assert_eq!(q_after.row(row), q_before.row(row), "clean row {row} must be kept");
            }
        }
        assert!(pred.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn incremental_above_threshold_or_all_dirty_is_exactly_the_full_path() {
        let (_, wm) = synthetic_low_rank(20, 8, 3, 0.5, 63);
        let mut inc = fitted_incremental(&wm, 64);
        let mut full = fitted_incremental(&wm, 64);
        // All rows dirty: fraction 1.0 > threshold 0.5 ⇒ the incremental
        // call IS the full alternation, bit for bit.
        let all: Vec<usize> = (0..20).collect();
        let a = inc.complete_dirty_with_factors(&wm, Some(&all)).0;
        let b = full.complete_with_factors(&wm).0;
        assert_eq!(a.as_slice(), b.as_slice());
        // And `None` (no tracking) falls back the same way.
        let a = inc.complete_dirty_with_factors(&wm, None).0;
        let b = full.complete_with_factors(&wm).0;
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn incremental_full_every_valve_forces_the_full_path() {
        let (_, wm) = synthetic_low_rank(20, 8, 3, 0.5, 65);
        let mut inc = fitted_incremental(&wm, 66);
        inc.incremental_full_every = 2; // next call is call 2 ⇒ valve due
        let mut full = fitted_incremental(&wm, 66);
        let a = inc.complete_dirty_with_factors(&wm, Some(&[1])).0;
        let b = full.complete_with_factors(&wm).0;
        assert_eq!(a.as_slice(), b.as_slice(), "the valve call must be the full path");
    }

    #[test]
    fn incremental_path_advances_the_persisted_call_counter() {
        let (_, wm) = synthetic_low_rank(15, 6, 2, 0.5, 67);
        let mut als = AlsCompleter::warm_started(2, 68);
        als.iters = 5;
        als.incremental = true;
        als.incremental_full_every = 0;
        als.complete(&wm); // call 1, full
        als.complete_dirty(&wm, Some(&[2])); // call 2, incremental
        let mut enc = crate::persist::Enc::new();
        als.save_state(&mut enc);
        let state = enc.finish();
        let mut dec = crate::persist::Dec::new(&state);
        assert_eq!(dec.u().unwrap(), 2, "incremental calls must advance the seed counter");
    }

    #[test]
    fn incremental_deviation_from_full_stays_bounded() {
        // The convergence contract on a controlled instance: after an
        // incremental round, the completion stays close (relative
        // Frobenius) to what a full refit on the same matrix produces.
        let (truth, mut wm) = synthetic_low_rank(30, 10, 3, 0.5, 69);
        let mut inc = fitted_incremental(&wm, 70);
        let mut full = fitted_incremental(&wm, 70);
        let dirty: Vec<usize> = vec![2, 9, 21];
        for &row in &dirty {
            for col in 1..10 {
                wm.set_complete(row, col, truth[(row, col)]);
            }
        }
        let a = inc.complete_dirty_with_factors(&wm, Some(&dirty)).0;
        let b = full.complete_with_factors(&wm).0;
        let num: f64 = a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y) * (x - y)).sum();
        let den: f64 = b.as_slice().iter().map(|y| y * y).sum();
        let rel = (num / den.max(1e-30)).sqrt();
        assert!(rel < 0.25, "relative deviation {rel} breaches the documented bound");
    }
}
