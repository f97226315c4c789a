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
//! ## The sparse-plus-low-rank half-step
//!
//! The filled matrix differs from the low-rank prediction only on observed
//! cells: `Ŵ = QHᵀ + S`, where `S` is zero except on an observed cell. On
//! a complete cell `sᵢⱼ = w̃ᵢⱼ − qᵢ·hⱼ`; on a cell censored at `τᵢⱼ`,
//! `sᵢⱼ = max(0, τᵢⱼ − qᵢ·hⱼ)`, which is the clamp. So `ŴH = Q(HᵀH) + SH`,
//! and the `Q` update for row i is
//! `qᵢ ← (HᵀH + λI)⁻¹ ((HᵀH)qᵢ + Σⱼ sᵢⱼhⱼ)`, summed over the row's observed
//! cells. The `H` update is the same with the roles swapped, from
//! `ŴᵀQ = H(QᵀQ) + SᵀQ`. This is the softImpute-ALS identity (Hastie,
//! Mazumder, Lee & Zadeh, JMLR 2015). In exact arithmetic it is Algorithm
//! 2's own iteration, but a half-step costs O(r²(n + k) + nnz·r) instead
//! of O(n·k·r): neither `QHᵀ` nor `Ŵ` is formed before the final
//! completion. Each half-step forms its Gram matrix and the ridge inverse
//! ([`RidgeFactor::inverse`]) once, then applies the inverse to every
//! factor row as an r×r matrix-vector product.
//!
//! The kernel is written for speed without changing its arithmetic. At the
//! paper's rank the Gram matrix is summed on the stack, upper triangle
//! only and without a select for zero entries (`gram`); the row loop's two
//! r×r products are r axpys laned across the outputs, not r dots, and run
//! on two rows at once; the non-negativity projection is applied as each
//! output is written; and each factor has two buffers that swap every
//! iteration, so a fit allocates them once. The final `QHᵀ`
//! ([`par::matmul_t`]) is laned across the hints in the same way. Every
//! output runs the same floating-point operations in the same order as the
//! plain form (`t_matmul`, dots, a separate `clamp_min` pass), and the unit
//! tests pin each piece to it bit for bit.
//!
//! [`dense_reference`] keeps the three-pass dense form (`QHᵀ`, fill,
//! batched ridge solve) as the reference the tests and `perf` compare
//! against; `AlsCompleter` cannot select it. The two agree to rounding, and
//! the cross-check tests state the tolerance.
//!
//! ## The parallel engine
//!
//! Each half-step is independent per output row: the `Q` update solves one
//! r-dimensional ridge system per *query*, the `H` update one per *hint*.
//! [`AlsCompleter::threads`] splits the output rows across
//! `limeqo_linalg::par::par_chunks` workers, each writing only its own
//! pre-allocated rows. The Gram matrices
//! `HᵀH` and `QᵀQ` are each one fixed-order reduction, formed before the
//! split, and the `H` update reads each hint's cells from a column-major
//! copy of the gathered cells, summed over rows in ascending order. So every
//! output row's arithmetic is the same whatever the split, and the result is
//! **byte-identical at any thread count and shard layout** (contract in
//! PERF.md; pinned by `tests/tests/determinism.rs` at 1/2/8 threads and by
//! `tests/tests/sharding.rs`).
//!
//! Matrix assembly does not materialize the dense `W̃`/`M`/`T` triple
//! either: the observed and censored cells are gathered once per call from
//! the matrix's compact observed-cell index
//! ([`WorkloadMatrix::observed_cols`]), so assembly is O(observed).

use super::Completer;
use crate::matrix::{Cell, WorkloadMatrix};
use limeqo_linalg::par::{effective_threads, par_chunks};
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::{par, ridge_solve_cols, ridge_solve_rows, Mat, RidgeFactor};

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
    /// Worker threads for the half-steps and the final `QHᵀ` product: 0
    /// asks the machine (`available_parallelism`, and stays serial for
    /// steps too small to amortize a thread spawn — see
    /// `limeqo_linalg::par::MIN_PAR_WORK`), 1 forces the serial path,
    /// explicit counts are honored literally. A pure performance knob —
    /// output is byte-identical at any value (see the module docs).
    pub threads: usize,
    /// Base seed for factor initialization.
    pub seed: u64,
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

/// One observed cell in a gathered run: the cell's column (in a row's run)
/// or row (in a column's run), and its observed value or censored bound.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: u32,
    censored: bool,
    value: f64,
}

impl Entry {
    /// `sᵢⱼ`, what the fill adds to the prediction `pred` on this cell: the
    /// observed value's distance from it, or how far a censored bound lies
    /// above it.
    fn residual(self, pred: f64) -> f64 {
        // A select, not a branch: complete and censored cells interleave
        // unpredictably.
        let floor = if self.censored { 0.0 } else { f64::NEG_INFINITY };
        (self.value - pred).max(floor)
    }
}

/// Observed cells grouped into runs: run `i` is
/// `entries[starts[i]..starts[i + 1]]`.
struct Runs {
    entries: Vec<Entry>,
    starts: Vec<usize>,
}

impl Runs {
    /// The observed cells of `rows` (one run each, in the order given),
    /// gathered from the compact index, each run in column order. Censored
    /// cells are kept only when `want_censored`, and only with a positive
    /// bound: the clamp never raises a slot to a bound ≤ 0.
    fn gather(
        wm: &WorkloadMatrix,
        rows: impl ExactSizeIterator<Item = usize>,
        want_censored: bool,
    ) -> Runs {
        let mut entries = Vec::new();
        let mut starts = Vec::with_capacity(rows.len() + 1);
        for row in rows {
            starts.push(entries.len());
            for &col in wm.observed_cols(row) {
                let (censored, value) = match wm.cell(row, col as usize) {
                    Cell::Complete(v) => (false, v),
                    Cell::Censored(b) if want_censored && b > 0.0 => (true, b),
                    Cell::Censored(_) | Cell::Unobserved => continue,
                };
                entries.push(Entry { at: col, censored, value });
            }
        }
        starts.push(entries.len());
        Runs { entries, starts }
    }

    fn run(&self, i: usize) -> &[Entry] {
        &self.entries[self.starts[i]..self.starts[i + 1]]
    }

    /// The same cells with rows and columns swapped: one run per column
    /// (`cols` of them), each in ascending row order.
    fn transpose(&self, cols: usize) -> Runs {
        let mut starts = vec![0; cols + 1];
        for e in &self.entries {
            starts[e.at as usize + 1] += 1;
        }
        for j in 0..cols {
            starts[j + 1] += starts[j];
        }
        let mut next = starts.clone();
        let mut entries = self.entries.clone();
        for i in 0..self.starts.len() - 1 {
            for &e in self.run(i) {
                let slot = &mut next[e.at as usize];
                entries[*slot] = Entry { at: i as u32, ..e };
                *slot += 1;
            }
        }
        Runs { entries, starts }
    }

    /// Mean of the completed values — the scale the random factor init is
    /// centred on. Accumulated in row-major cell order, matching the old
    /// dense `values().sum() / mask().sum()` bit for bit (the skipped
    /// zeros never changed a partial sum).
    fn mean_complete(&self) -> f64 {
        let completes = self.entries.iter().filter(|e| !e.censored);
        let sum: f64 = completes.clone().map(|e| e.value).sum();
        let count = completes.count().max(1);
        (sum / count as f64).max(1e-9)
    }

    /// `pred`, one row per run, filled (Algorithm 2 lines 3–5): a complete
    /// cell takes its value and a censored cell raises a lower prediction
    /// to its bound (a NaN prediction compares false and is kept).
    fn fill(&self, mut pred: Mat) -> Mat {
        for i in 0..self.starts.len() - 1 {
            let row = pred.row_mut(i);
            for e in self.run(i) {
                let slot = &mut row[e.at as usize];
                *slot = if !e.censored || *slot < e.value { e.value } else { *slot };
            }
        }
        pred
    }
}

/// `a · b`, summed left to right from `+0.0`.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (&x, &y)| acc + x * y)
}

/// `y += a·x`, lane by lane. Lane v of `Σᵤ xᵤ·Mᵀ[u]` summed this way from
/// `+0.0` runs exactly the multiplies and adds of `dot(M[v], x)`, in the
/// same order, because a product's bits do not depend on operand order.
fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// [`axpy`] on two rows at once, `y[v][l] += a[l]·x[v]`: lane l of `y` and
/// `a` belongs to row l. Each pair is written whole, so that the compiler
/// packs it into one SSE2 register.
fn axpy_pair(y: &mut [[f64; 2]], a: [f64; 2], x: &[f64]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y = [y[0] + a[0] * x, y[1] + a[1] * x];
    }
}

/// [`Mat::clamp_min`]`(0.0)`'s rule for one value: `−0.0` and NaN stay as
/// they are (`f64::max` would turn NaN into 0).
fn clamp_nonneg(v: f64) -> f64 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// The paper's rank, r = 5, which every benchmark workload runs. The
/// half-step's row loop is also compiled with it as a constant, so that
/// every r-long loop unrolls: a 10k × 49 fit then took 0.75–0.85× the time
/// of the loop with the rank known only at run time. Both run the same
/// operations in the same order. [`gram`] sums in registers at this rank
/// only.
const FIXED_RANK: usize = 5;

/// `mᵀm`, bit for bit what [`Mat::t_matmul`] returns. At [`FIXED_RANK`] it
/// sums only the upper triangle, on the stack, and mirrors it; other ranks
/// call `t_matmul`.
///
/// `t_matmul` skips a term whose left entry is zero; `gram` adds it. While
/// every entry is finite that term is `±0.0`, which leaves a sum alone,
/// because a sum started at `+0.0` is never `−0.0`. For the same reason the
/// mirror is exact: a zero times its partner is a zero, whichever side
/// skips it. A non-finite entry makes its column's diagonal non-finite (its
/// terms are squares), and so does a finite entry whose square overflows;
/// then the result is `t_matmul`'s own.
fn gram(m: &Mat) -> limeqo_linalg::Result<Mat> {
    const R: usize = FIXED_RANK;
    if m.cols() != R {
        return m.t_matmul(m);
    }
    let mut acc = [[0.0; R]; R];
    for row in m.as_slice().chunks_exact(R) {
        for (i, &a) in row.iter().enumerate() {
            for (s, &b) in acc[i][i..].iter_mut().zip(&row[i..]) {
                *s += a * b;
            }
        }
    }
    if (0..R).any(|i| !acc[i][i].is_finite()) {
        return m.t_matmul(m);
    }
    Ok(Mat::from_fn(R, R, |i, j| acc[i.min(j)][i.max(j)]))
}

/// One ALS half-step in sparse-plus-low-rank form (see the module docs),
/// written into `out` (`own`'s shape; its contents are overwritten). Row
/// `i` is `(GᵀG + λI)⁻¹ ((GᵀG)fᵢ + Σⱼ sᵢⱼgⱼ)`, where `fᵢ` is row `i` of
/// `own` (the factor being updated), `gⱼ` is row `j` of `other` (the factor
/// held fixed), the sum runs over run `i` of `cells`, and `sᵢⱼ` is that
/// cell's residual against the prediction `fᵢ·gⱼ`. With `nonneg`, each
/// output is projected onto `≥ 0` as it is written ([`clamp_nonneg`]).
///
/// The output rows are split across `threads` workers. No row's arithmetic
/// depends on the split. A singular normal matrix (possible only at λ = 0)
/// is the factor's typed error.
fn half_step(
    own: &Mat,
    other: &Mat,
    cells: &Runs,
    lambda: f64,
    nonneg: bool,
    threads: usize,
    out: &mut Mat,
) -> limeqo_linalg::Result<()> {
    assert_eq!(out.shape(), own.shape(), "half-step output buffer");
    assert_eq!(other.cols(), own.cols(), "half-step factor ranks");
    let r = own.cols();
    let gram = gram(other)?;
    let inv = RidgeFactor::from_gram(&gram, lambda)?.inverse();
    let (gram_t, inv_t) = (gram.transpose(), inv.transpose());
    let step = Step { own, other, cells, gram_t: &gram_t, inv_t: &inv_t, nonneg };
    if r == 0 {
        return Ok(());
    }
    // Two r×r products per row and two r-long passes per cell.
    let work = 2 * r * (own.rows() * r + cells.entries.len());
    par_chunks(out.as_mut_slice(), r, effective_threads(threads, work), |c0, chunk| match r {
        FIXED_RANK => step.rows::<FIXED_RANK>(c0, chunk),
        _ => step.rows::<0>(c0, chunk),
    });
    Ok(())
}

/// The operands of one [`half_step`]: the transposes of the Gram matrix
/// `GᵀG` of `other` and of the inverse of `GᵀG + λI`, so that the row loop
/// adds whole rows of them (see [`axpy_pair`]).
#[derive(Clone, Copy)]
struct Step<'a> {
    own: &'a Mat,
    other: &'a Mat,
    cells: &'a Runs,
    gram_t: &'a Mat,
    inv_t: &'a Mat,
    nonneg: bool,
}

impl Step<'_> {
    /// Output rows `first..`, one r-long row per `chunk` row. `R` is the
    /// rank when nonzero; `R = 0` reads it from `own` at run time.
    ///
    /// Rows go two to a pass: both r×r products run on lane pairs
    /// ([`axpy_pair`]), and each row's cells are summed by [`axpy`] on its
    /// own lane. Rows pair by index, `2j` in lane 0 with `2j + 1` in lane 1,
    /// so that a row runs in the lane of its parity wherever the chunk
    /// starts: Rust leaves a NaN result's payload unspecified, and the two
    /// lanes need not pick the same one. A row whose partner lies outside
    /// the chunk is paired with itself and written once.
    fn rows<const R: usize>(self, first: usize, chunk: &mut [f64]) {
        let r = if R == 0 { self.own.cols() } else { R };
        // On the stack at a constant rank, so that they stay in registers:
        // three separate arrays, because one array holding both `rhs` and
        // `x` took 1.25× the time of the loop in isolation.
        let mut rhs_fixed = [[0.0; 2]; R];
        let mut x_fixed = [[0.0; 2]; R];
        let mut lane_fixed = [0.0; R];
        let mut sized;
        let (rhs, x, lane_sum): (&mut [[f64; 2]], &mut [[f64; 2]], &mut [f64]) = if R == 0 {
            sized = (vec![[0.0; 2]; r], vec![[0.0; 2]; r], vec![0.0; r]);
            (&mut sized.0, &mut sized.1, &mut sized.2)
        } else {
            (&mut rhs_fixed, &mut x_fixed, &mut lane_fixed)
        };
        // Sliced to r×r, so that at a constant rank every loop over them
        // has a known trip count and unrolls.
        let gram_t = &self.gram_t.as_slice()[..r * r];
        let inv_t = &self.inv_t.as_slice()[..r * r];
        let end = first + chunk.len() / r;
        for even in (first & !1..end).step_by(2) {
            let pair = [even.max(first), (even + 1).min(end - 1)];
            let f = pair.map(|row| &self.own.as_slice()[row * r..][..r]);
            rhs.fill([0.0; 2]);
            for ((&a, &b), gram_col) in f[0].iter().zip(f[1]).zip(gram_t.chunks_exact(r)) {
                axpy_pair(rhs, [a, b], gram_col);
            }
            for (lane, (row, f)) in pair.into_iter().zip(f).enumerate() {
                for (s, y) in lane_sum.iter_mut().zip(rhs.iter()) {
                    *s = y[lane];
                }
                for e in self.cells.run(row) {
                    let g = &self.other.as_slice()[e.at as usize * r..][..r];
                    axpy(lane_sum, e.residual(dot(f, g)), g);
                }
                for (&s, y) in lane_sum.iter().zip(rhs.iter_mut()) {
                    y[lane] = s;
                }
            }
            x.fill([0.0; 2]);
            for (&b, inv_col) in rhs.iter().zip(inv_t.chunks_exact(r)) {
                axpy_pair(x, b, inv_col);
            }
            for (lane, row) in pair.into_iter().enumerate().filter(|&(lane, row)| row % 2 == lane) {
                let out = &mut chunk[(row - first) * r..][..r];
                for (out, x) in out.iter_mut().zip(x.iter()) {
                    *out = if self.nonneg { clamp_nonneg(x[lane]) } else { x[lane] };
                }
            }
        }
    }
}

/// The relative Frobenius distance, `‖a − b‖_F / ‖b‖_F`, within which the
/// shipped fit stays of [`dense_reference`] on the same inputs. The
/// cross-check tests assert it.
pub const DENSE_REFERENCE_TOL: f64 = 1e-9;

/// Algorithm 2 in its three-pass dense form, the reference the shipped
/// half-step is checked against: each half-step forms `QHᵀ`
/// ([`par::matmul_t`]), fills its observed cells, and solves the batched
/// ridge problem on the filled matrix ([`ridge_solve_rows`], then
/// [`ridge_solve_cols`]), at O(n·k·r) per half-step.
///
/// It runs the cold fit that `config`'s next call would make without warm
/// factors: the same init, rank, λ, iterations, clamp, projection and
/// threads (incremental updates do not apply). In exact arithmetic that is
/// the iteration [`AlsCompleter::complete`] runs, so the two differ only by
/// rounding. `AlsCompleter` never calls this; the cross-check tests and
/// `perf`'s `als.dense_ref_s` do.
pub fn dense_reference(config: &AlsCompleter, wm: &WorkloadMatrix) -> limeqo_linalg::Result<Mat> {
    let (n, k) = (wm.n_rows(), wm.n_cols());
    let cells = Runs::gather(wm, 0..n, config.censored);
    let (mut q, mut h) = config.random_init(config.calls + 1, n, k, cells.mean_complete());
    let (lambda, threads) = (config.lambda, config.threads);
    for _ in 0..config.iters {
        let w_hat = cells.fill(par::matmul_t(&q, &h, threads)?);
        q = ridge_solve_rows(&h, &w_hat, lambda, threads)?;
        if config.nonneg {
            q.clamp_min(0.0);
        }
        let w_hat = cells.fill(par::matmul_t(&q, &h, threads)?);
        h = ridge_solve_cols(&q, &w_hat, lambda, threads)?;
        if config.nonneg {
            h.clamp_min(0.0);
        }
    }
    Ok(cells.fill(par::matmul_t(&q, &h, threads)?))
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
        let rows = Runs::gather(wm, 0..n, self.censored);
        let cols = rows.transpose(k);

        self.calls += 1;
        let r = self.rank.max(1);
        let (q_init, h_init) = self.random_init(self.calls, n, k, rows.mean_complete());
        // Warm path: reuse last round's factors when the shapes still
        // agree; if only the row count changed (queries arrived), keep H
        // and let the first half-iteration refit Q from it. The RNG is
        // advanced identically on every path so warm and cold runs stay
        // seed-deterministic cell for cell.
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

        let (lambda, nonneg, threads) = (self.lambda, self.nonneg, self.threads);
        // Each half-step writes the other buffer of its pair, and the swap
        // makes that the current factor: a fit allocates these two once.
        let (mut q_next, mut h_next) = (Mat::zeros(n, r), Mat::zeros(k, r));
        for _ in 0..self.iters {
            // Q ← Ŵ H (HᵀH + λI)⁻¹ with Ŵ = QHᵀ + S: one r-dimensional
            // ridge system per query row.
            half_step(&q, &h, &rows, lambda, nonneg, threads, &mut q_next).expect("Q update");
            std::mem::swap(&mut q, &mut q_next);
            // H ← Ŵᵀ Q (QᵀQ + λI)⁻¹ on the new Q: one system per hint.
            half_step(&h, &q, &cols, lambda, nonneg, threads, &mut h_next).expect("H update");
            std::mem::swap(&mut h, &mut h_next);
        }
        let completed = rows.fill(par::matmul_t(&q, &h, threads).expect("QHᵀ shape"));
        if self.warm_start {
            self.warm = Some((q.clone(), h.clone()));
        }
        (completed, q, h)
    }

    /// The random init of call number `call`, deterministic across runs.
    /// The factors are scaled so the initial product QHᵀ matches `mean`,
    /// the mean observed latency: entries of Q·Hᵀ with U(0, b)² factors
    /// average r·b²/4, so b = 2·√(mean/r) centres the initial fill on the
    /// data scale (raw latencies span milliseconds to minutes, and an O(1)
    /// init would make Algorithm 1's α-scaled timeouts so small that every
    /// probe censors).
    fn random_init(&self, call: u64, n: usize, k: usize, mean: f64) -> (Mat, Mat) {
        let mut rng = SeededRng::new(self.seed.wrapping_add(call.wrapping_mul(0xA5A5)));
        let r = self.rank.max(1);
        let bound = 2.0 * (mean / r as f64).sqrt();
        let q = rng.uniform_mat(n, r, 0.0, bound);
        let h = rng.uniform_mat(k, r, 0.0, bound);
        (q, h)
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
        self.calls += 1;
        let (mut q, h) = self.warm.take().expect("warm_ok checked above");
        if !dirty.is_empty() {
            // Q_d ← Ŵ_d H (HᵀH + λI)⁻¹: the Q half-step of the full path,
            // restricted to the gathered dirty rows of Q, against the
            // retained H.
            let mut q_d = Mat::zeros(dirty.len(), r);
            for (i, &row) in dirty.iter().enumerate() {
                q_d.row_mut(i).copy_from_slice(q.row(row));
            }
            let dirty_cells = Runs::gather(wm, dirty.iter().copied(), self.censored);
            let mut fitted = Mat::zeros(dirty.len(), r);
            let (lambda, nonneg, threads) = (self.lambda, self.nonneg, self.threads);
            half_step(&q_d, &h, &dirty_cells, lambda, nonneg, threads, &mut fitted)
                .expect("incremental Q update");
            for (i, &row) in dirty.iter().enumerate() {
                q.row_mut(row).copy_from_slice(fitted.row(i));
            }
        }
        let rows = Runs::gather(wm, 0..n, self.censored);
        let completed = rows.fill(par::matmul_t(&q, &h, self.threads).expect("QHᵀ shape"));
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

    /// ‖a − b‖_F / ‖b‖_F.
    fn rel_frobenius(a: &Mat, b: &Mat) -> f64 {
        let num: f64 = a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y) * (x - y)).sum();
        let den: f64 = b.as_slice().iter().map(|y| y * y).sum();
        (num / den.max(1e-300)).sqrt()
    }

    #[test]
    fn engine_matches_dense_reference_at_every_thread_count() {
        let (_, mut wm) = synthetic_low_rank(40, 12, 3, 0.3, 31);
        // Plant censored cells so the clamp path is exercised too.
        let planted: Vec<(usize, usize)> = wm.unobserved_cells().take(5).collect();
        for (i, (r, c)) in planted.into_iter().enumerate() {
            wm.set_censored(r, c, 0.5 + i as f64);
        }
        let config =
            AlsCompleter { rank: 3, iters: 10, threads: 1, ..AlsCompleter::paper_default(32) };
        let serial = config.clone().complete(&wm);
        for threads in [2, 8, 0] {
            let mut als = AlsCompleter { threads, ..config.clone() };
            assert_eq!(
                als.complete(&wm).as_slice(),
                serial.as_slice(),
                "threads={threads} diverged from the serial fit"
            );
        }
        let reference = dense_reference(&config, &wm).unwrap();
        let rel = rel_frobenius(&serial, &reference);
        assert!(rel <= DENSE_REFERENCE_TOL, "relative distance {rel} from the dense reference");
    }

    #[test]
    fn sharded_matrix_completes_byte_identically() {
        // Same logical cells, different shard layouts: the fit must not move
        // a bit.
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
    fn gathered_runs_fill_and_transpose() {
        // Cells on both edges (columns 0 and k − 1), next to each other, and
        // censored bounds of 0.0 and −0.0 (dropped) beside positive ones;
        // the matrix being filled holds NaN slots, which the clamp keeps.
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
        let rows = Runs::gather(&wm, 0..3, true);
        let base = [f64::NAN, -1.0, 0.5, 1.0, 4.0, f64::NAN, -0.0, 6.0, f64::NAN];
        let pred = Mat::from_rows(&[&base, &base, &base]);
        let w = rows.fill(pred.clone());
        // Complete cells written, positive bounds clamp (a NaN slot is
        // kept), bounds ≤ 0 ignored, the empty row untouched.
        assert_eq!((w[(0, 0)], w[(0, 1)], w[(0, 4)]), (1.5, -1.0, 2.5));
        assert!(w[(0, 5)].is_nan() && w[(0, 8)].is_nan());
        assert!(w[(1, 0)].is_nan());
        assert_eq!((w[(1, 3)], w[(1, 8)]), (9.0, 0.25));
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&Mat::from_rows(&[w.row(2)])), bits(&Mat::from_rows(&[&base])));
        // Without censoring, only the complete cells are gathered.
        let plain = Runs::gather(&wm, 0..3, false);
        assert!(plain.entries.iter().all(|e| !e.censored));
        assert_eq!(plain.entries.len(), 3);
        // The column-major copy holds the same cells, each column's run in
        // ascending row order, and fills the transpose the same way.
        let cols = rows.transpose(k);
        assert_eq!(cols.starts.len(), k + 1);
        assert_eq!(cols.entries.len(), rows.entries.len());
        for j in 0..k {
            let run: Vec<u32> = cols.run(j).iter().map(|e| e.at).collect();
            assert!(run.windows(2).all(|p| p[0] < p[1]), "column {j} not row-ascending");
        }
        let wt = cols.fill(pred.transpose());
        assert_eq!(bits(&wt.transpose()), bits(&w));
        // A run per listed row, in the order given.
        let picked = Runs::gather(&wm, [1, 0].into_iter(), true);
        assert_eq!(picked.run(0).len(), rows.run(1).len());
        assert_eq!(picked.run(1).len(), rows.run(0).len());
    }

    /// One half-step in the dense form: `own·otherᵀ`, filled, then the
    /// batched ridge solve.
    fn dense_half_step(
        own: &Mat,
        other: &Mat,
        cells: &Runs,
        lambda: f64,
    ) -> limeqo_linalg::Result<Mat> {
        let w_hat = cells.fill(own.matmul_t(other)?);
        limeqo_linalg::ridge_solve_rows(other, &w_hat, lambda, 1)
    }

    /// [`half_step`] into a fresh buffer of NaNs, so that a slot the step
    /// fails to write shows.
    fn step_into_nans(
        own: &Mat,
        other: &Mat,
        cells: &Runs,
        lambda: f64,
        nonneg: bool,
        threads: usize,
    ) -> limeqo_linalg::Result<Mat> {
        let mut out = Mat::filled(own.rows(), own.cols(), f64::NAN);
        half_step(own, other, cells, lambda, nonneg, threads, &mut out).map(|()| out)
    }

    /// A matrix observing a pattern the uniform draws elsewhere never reach:
    /// rows that hold only the default (column 0), fully observed rows, and
    /// mixed rows, with censored bounds of −0.0 and 0.0 (the matrix stores
    /// no negative bound), below the prediction `pred` and above it.
    fn edge_case_matrix(rng: &mut SeededRng, pred: &Mat) -> WorkloadMatrix {
        let (n, k) = pred.shape();
        let mut wm = WorkloadMatrix::new(n, k);
        for i in 0..n {
            for j in 0..k {
                let observe = match i % 3 {
                    0 => j == 0,
                    1 => true,
                    _ => rng.chance(0.5),
                };
                if !observe {
                    continue;
                }
                let p = pred[(i, j)];
                match rng.index(5) {
                    0 => wm.set_censored(i, j, -0.0),
                    1 => wm.set_censored(i, j, 0.0),
                    2 => wm.set_censored(i, j, p * 0.5),
                    3 => wm.set_censored(i, j, p.abs() * 2.0 + 1.0),
                    _ => wm.set_complete(i, j, rng.uniform(0.0, 3.0)),
                }
            }
        }
        wm
    }

    /// Set roughly `frac` of `m`'s entries to exact zeros of either sign —
    /// the pattern the non-negativity clamp leaves in the factors.
    fn plant_zeros(rng: &mut SeededRng, m: &mut Mat, frac: f64) {
        for v in m.as_mut_slice() {
            if rng.chance(frac) {
                *v = if rng.chance(0.5) { 0.0 } else { -0.0 };
            }
        }
    }

    #[test]
    fn half_step_matches_the_dense_half_step_on_edge_cases() {
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for seed in 0..120u64 {
            let mut rng = SeededRng::new(seed ^ 0xED6E);
            let (n, k, r) = (1 + rng.index(12), 1 + rng.index(12), 1 + rng.index(8));
            let mut q = rng.uniform_mat(n, r, 0.0, 2.0);
            let mut h = rng.uniform_mat(k, r, 0.0, 2.0);
            plant_zeros(&mut rng, &mut q, 0.3);
            plant_zeros(&mut rng, &mut h, 0.3);
            let wm = edge_case_matrix(&mut rng, &q.matmul_t(&h).unwrap());
            let lambda = rng.uniform(0.05, 1.0);
            let rows = Runs::gather(&wm, 0..n, true);
            let cols = rows.transpose(k);
            for (own, other, cells) in [(&q, &h, &rows), (&h, &q, &cols)] {
                let serial = step_into_nans(own, other, cells, lambda, false, 1).unwrap();
                let dense = dense_half_step(own, other, cells, lambda).unwrap();
                let rel = rel_frobenius(&serial, &dense);
                assert!(rel <= DENSE_REFERENCE_TOL, "seed {seed} r {r}: relative distance {rel}");
                // Fewer rows than threads: the same bits.
                for threads in [1, 2, 8, 0] {
                    let got = step_into_nans(own, other, cells, lambda, false, threads).unwrap();
                    assert_eq!(bits(&got), bits(&serial), "seed {seed} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn fixed_rank_rows_match_the_runtime_rank_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..40u64 {
            let mut rng = SeededRng::new(seed ^ 0xF1_0ED5);
            let (n, k) = (1 + rng.index(20), 1 + rng.index(12));
            let mut q = rng.uniform_mat(n, FIXED_RANK, 0.0, 2.0);
            let mut h = rng.uniform_mat(k, FIXED_RANK, 0.0, 2.0);
            plant_zeros(&mut rng, &mut q, 0.3);
            plant_zeros(&mut rng, &mut h, 0.3);
            let wm = edge_case_matrix(&mut rng, &q.matmul_t(&h).unwrap());
            let rows = Runs::gather(&wm, 0..n, true);
            let cols = rows.transpose(k);
            for (own, other, cells) in [(&q, &h, &rows), (&h, &q, &cols)] {
                let gram = other.t_matmul(other).unwrap();
                let inv = RidgeFactor::from_gram(&gram, 0.2).unwrap().inverse();
                let (gram_t, inv_t) = (gram.transpose(), inv.transpose());
                let step = Step { own, other, cells, gram_t: &gram_t, inv_t: &inv_t, nonneg: true };
                let mut fixed = vec![0.0; own.len()];
                let mut runtime = vec![0.0; own.len()];
                step.rows::<FIXED_RANK>(0, &mut fixed);
                step.rows::<0>(0, &mut runtime);
                assert_eq!(bits(&fixed), bits(&runtime), "seed {seed}");
            }
        }
    }

    #[test]
    fn gram_is_t_matmul_bit_for_bit() {
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Entries the mirror cannot take: non-finite ones, and finite ones
        // whose square overflows.
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, 1e200, -1e200];
        let mut fallbacks = 0;
        for seed in 0..60u64 {
            for r in 1..=8 {
                let mut rng = SeededRng::new(seed ^ 0x6_2A11 ^ ((r as u64) << 32));
                let n = rng.index(41);
                let mut m = rng.uniform_mat(n, r, -2.0, 2.0);
                plant_zeros(&mut rng, &mut m, 0.3);
                if seed % 3 == 0 {
                    for v in m.as_mut_slice() {
                        if rng.chance(0.05) {
                            *v = specials[rng.index(specials.len())];
                        }
                    }
                }
                let want = m.t_matmul(&m).unwrap();
                if r == FIXED_RANK && (0..r).any(|i| !want[(i, i)].is_finite()) {
                    fallbacks += 1;
                }
                assert_eq!(bits(&gram(&m).unwrap()), bits(&want), "seed {seed} n {n} r {r}");
            }
        }
        assert!(fallbacks > 0, "no rank-{FIXED_RANK} matrix took the fallback");
    }

    /// The row loop in dot order: each output is a `dot` of a row of `gram`
    /// or `inv`. The laned loop must match it bit for bit.
    fn dot_order_rows(own: &Mat, other: &Mat, cells: &Runs, gram: &Mat, inv: &Mat) -> Vec<f64> {
        let r = own.cols();
        let mut out = vec![0.0; own.len()];
        let mut rhs = vec![0.0; r];
        for (row, x) in out.chunks_exact_mut(r).enumerate() {
            let f = own.row(row);
            for (v, gram_row) in rhs.iter_mut().zip(gram.as_slice().chunks_exact(r)) {
                *v = dot(gram_row, f);
            }
            for e in cells.run(row) {
                let g = other.row(e.at as usize);
                let s = e.residual(dot(f, g));
                for (v, &gt) in rhs.iter_mut().zip(g) {
                    *v += s * gt;
                }
            }
            for (x, inv_row) in x.iter_mut().zip(inv.as_slice().chunks_exact(r)) {
                *x = dot(inv_row, &rhs);
            }
        }
        out
    }

    #[test]
    fn row_loop_matches_the_dot_order_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..30u64 {
            for r in 1..=8 {
                let mut rng = SeededRng::new(seed ^ 0xD07 ^ ((r as u64) << 32));
                let (n, k) = (1 + rng.index(20), 1 + rng.index(12));
                let mut q = rng.uniform_mat(n, r, 0.0, 2.0);
                let mut h = rng.uniform_mat(k, r, 0.0, 2.0);
                plant_zeros(&mut rng, &mut q, 0.3);
                plant_zeros(&mut rng, &mut h, 0.3);
                let wm = edge_case_matrix(&mut rng, &q.matmul_t(&h).unwrap());
                let lambda = rng.uniform(0.05, 1.0);
                let rows = Runs::gather(&wm, 0..n, true);
                let cols = rows.transpose(k);
                for (own, other, cells) in [(&q, &h, &rows), (&h, &q, &cols)] {
                    let gram = other.t_matmul(other).unwrap();
                    let inv = RidgeFactor::from_gram(&gram, lambda).unwrap().inverse();
                    let want = bits(&dot_order_rows(own, other, cells, &gram, &inv));
                    let (gram_t, inv_t) = (gram.transpose(), inv.transpose());
                    let step =
                        Step { own, other, cells, gram_t: &gram_t, inv_t: &inv_t, nonneg: false };
                    let mut runtime = vec![f64::NAN; own.len()];
                    step.rows::<0>(0, &mut runtime);
                    assert_eq!(bits(&runtime), want, "seed {seed} r {r}: runtime rank");
                    if r == FIXED_RANK {
                        let mut fixed = vec![f64::NAN; own.len()];
                        step.rows::<FIXED_RANK>(0, &mut fixed);
                        assert_eq!(bits(&fixed), want, "seed {seed}: fixed rank");
                    }
                }
            }
        }
    }

    #[test]
    fn row_pairs_match_the_dot_order_at_every_chunk_offset() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut nan_outputs = 0;
        for seed in 0..12u64 {
            for r in 1..=8 {
                let mut rng = SeededRng::new(seed ^ 0x9A12 ^ ((r as u64) << 32));
                let (n, k) = (1 + rng.index(12), 1 + rng.index(12));
                let mut q = rng.uniform_mat(n, r, 0.0, 2.0);
                let mut h = rng.uniform_mat(k, r, 0.0, 2.0);
                plant_zeros(&mut rng, &mut q, 0.3);
                plant_zeros(&mut rng, &mut h, 0.3);
                let wm = edge_case_matrix(&mut rng, &q.matmul_t(&h).unwrap());
                let lambda = rng.uniform(0.05, 1.0);
                let rows = Runs::gather(&wm, 0..n, true);
                let cols = rows.transpose(k);
                for (own, other, cells) in [(&q, &h, &rows), (&h, &q, &cols)] {
                    let gram = other.t_matmul(other).unwrap();
                    let inv = RidgeFactor::from_gram(&gram, lambda).unwrap().inverse();
                    let (gram_t, inv_t) = (gram.transpose(), inv.transpose());
                    let step = |own| Step {
                        own,
                        other,
                        cells,
                        gram_t: &gram_t,
                        inv_t: &inv_t,
                        nonneg: false,
                    };
                    // A NaN in one row gives NaN outputs whose payloads
                    // neither the dot-order loop nor the other instantiation
                    // need share, so that copy is pinned to its own
                    // one-chunk run instead.
                    let mut with_nan = own.clone();
                    with_nan[(rng.index(own.rows()), rng.index(r))] = f64::NAN;
                    let finite = bits(&dot_order_rows(own, other, cells, &gram, &inv));
                    for fixed in [false, true] {
                        if fixed && r != FIXED_RANK {
                            continue;
                        }
                        let rows = |step: Step, first, out: &mut [f64]| match fixed {
                            true => step.rows::<FIXED_RANK>(first, out),
                            false => step.rows::<0>(first, out),
                        };
                        let mut nan_run = vec![f64::NAN; own.len()];
                        rows(step(&with_nan), 0, &mut nan_run);
                        nan_outputs += nan_run.iter().filter(|v| v.is_nan()).count();
                        for (own, want) in [(own, &finite), (&with_nan, &bits(&nan_run))] {
                            // Odd and even starts, odd and even lengths.
                            for start in 0..own.rows() {
                                for end in start + 1..=own.rows() {
                                    let mut got = vec![f64::NAN; (end - start) * r];
                                    rows(step(own), start, &mut got);
                                    let want = &want[start * r..end * r];
                                    assert_eq!(
                                        bits(&got),
                                        want,
                                        "seed {seed} r {r} {start}..{end}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(nan_outputs > 0, "no NaN output to pin");
    }

    #[test]
    fn fused_clamp_is_clamp_min() {
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // The kernel's sums start at +0.0, so no output is ever −0.0: the
        // rule is checked on it, and on NaN, directly.
        let values = [-0.0, 0.0, f64::NAN, -f64::NAN, -1.5, 1.5, f64::NEG_INFINITY, -1e-310];
        let mut clamped = Mat::from_rows(&[&values]);
        clamped.clamp_min(0.0);
        let fused = Mat::from_rows(&[&values.map(clamp_nonneg)]);
        assert_eq!(bits(&fused), bits(&clamped));
        // Through the half-step: signed factors give negative outputs, and
        // a NaN in one row of the factor being updated gives NaN outputs.
        let (mut negatives, mut nans) = (0, 0);
        for seed in 0..60u64 {
            let mut rng = SeededRng::new(seed ^ 0xC1A3);
            let (n, k, r) = (1 + rng.index(12), 1 + rng.index(12), 1 + rng.index(8));
            let mut q = rng.uniform_mat(n, r, -2.0, 2.0);
            let mut h = rng.uniform_mat(k, r, -2.0, 2.0);
            plant_zeros(&mut rng, &mut q, 0.3);
            plant_zeros(&mut rng, &mut h, 0.3);
            // The matrix stores no negative bound.
            let wm = edge_case_matrix(&mut rng, &q.matmul_t(&h).unwrap().map(f64::abs));
            let lambda = rng.uniform(0.05, 1.0);
            let rows = Runs::gather(&wm, 0..n, true);
            let cols = rows.transpose(k);
            for (own, other, cells) in [(&q, &h, &rows), (&h, &q, &cols)] {
                let mut own = own.clone();
                let at = (rng.index(own.rows()), rng.index(r));
                own[at] = f64::NAN;
                let mut want = step_into_nans(&own, other, cells, lambda, false, 1).unwrap();
                negatives += want.as_slice().iter().filter(|&&v| v < 0.0).count();
                nans += want.as_slice().iter().filter(|v| v.is_nan()).count();
                want.clamp_min(0.0);
                for threads in [1, 2] {
                    let got = step_into_nans(&own, other, cells, lambda, true, threads).unwrap();
                    assert_eq!(bits(&got), bits(&want), "seed {seed} threads {threads}");
                }
            }
        }
        assert!(negatives > 0 && nans > 0, "{negatives} negative and {nans} NaN outputs");
    }

    /// λ = 0 on a rank-deficient factor: rounding decides whether the normal
    /// matrix still factors by Cholesky, fails over to LU, or is singular.
    /// The half-step must follow the dense form down the same branch every
    /// time — a result on both sides, or the same typed error — and the
    /// sweep must actually reach the LU fallback.
    #[test]
    fn lambda_zero_on_a_rank_deficient_factor_takes_the_same_branch() {
        let outcome =
            |r: limeqo_linalg::Result<Mat>| r.map(|m| m.shape()).map_err(|e| format!("{e:?}"));
        let mut lu_fallbacks = 0;
        for seed in 0..200u64 {
            let mut rng = SeededRng::new(seed);
            let r = 2 + rng.index(6);
            let mut q = rng.uniform_mat(9, r, 0.0, 2.0);
            let mut h = rng.uniform_mat(7, r, 0.0, 2.0);
            for m in [&mut q, &mut h] {
                for i in 0..m.rows() {
                    m[(i, r - 1)] = m[(i, 0)];
                }
            }
            let gram = h.t_matmul(&h).unwrap();
            if limeqo_linalg::cholesky(&gram).is_err() && limeqo_linalg::lu(&gram).is_ok() {
                lu_fallbacks += 1;
            }
            let wm = edge_case_matrix(&mut rng, &q.matmul_t(&h).unwrap());
            let rows = Runs::gather(&wm, 0..9, true);
            let cols = rows.transpose(7);
            for (own, other, cells) in [(&q, &h, &rows), (&h, &q, &cols)] {
                let want = outcome(dense_half_step(own, other, cells, 0.0));
                for threads in [1, 2, 8] {
                    let got = outcome(step_into_nans(own, other, cells, 0.0, false, threads));
                    assert_eq!(got, want, "seed {seed} threads {threads}");
                }
            }
        }
        assert!(lu_fallbacks > 0, "no seed reached the LU fallback");
    }

    #[test]
    fn rank_zero_clamped_to_one() {
        let (_, wm) = synthetic_low_rank(5, 4, 1, 0.5, 13);
        let mut a = AlsCompleter { rank: 0, ..AlsCompleter::paper_default(14) };
        let pred = a.complete(&wm);
        assert_eq!(pred.shape(), (5, 4));
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
