//! LimeQO — Algorithm 1 of the paper.
//!
//! Each step: complete the matrix with the predictive model, compute every
//! query's *expected improvement ratio*
//!
//! ```text
//! rᵢ = (min_j W̃ᵢⱼ − min_j Ŵᵢⱼ) / min_j Ŵᵢⱼ          (Eq. 6)
//! ```
//!
//! explore the top-m cells by rᵢ (falling back to random unobserved cells
//! when fewer than m queries show positive predicted improvement), with
//! timeout `Tᵢⱼ = min(min W̃ᵢ, Ŵᵢⱼ · α)` (line 10). Plugging in the ALS
//! completer yields LimeQO; plugging in the transductive TCNN yields
//! LimeQO+ — the policy code is identical, exactly as in the paper.
//!
//! Two drift-aware extensions (off by default, threaded from
//! [`crate::store::DriftPolicy`]) harden the ranking against the sparse
//! regimes the scenario matrix exposed:
//!
//! * a **density gate** ([`LimeQoPolicy::density_gate`]): after a data
//!   shift, rows with too few *fresh* completed cells cannot support the
//!   ratio ranking (the ALS fit is underdetermined and its α-clamped
//!   timeouts censor everything) — those rows are filled uniformly until
//!   their observed density recovers;
//! * a **cold-row exploration bonus** ([`LimeQoPolicy::cold_row_bonus`]):
//!   `bonus / √(row observation count)` is added to each row's score, so
//!   rows the ranking would starve still get probed occasionally.
//!
//! At production scale the per-step score scan is itself a hot path. The
//! observation-side quantities (row best, observed counts, censored
//! sweeps) come from the matrix's O(1) caches and compact observed-cell
//! index. [`LimeQoPolicy::rescore_changed_only`] adds a per-row score
//! cache, keyed on the row's revision
//! ([`crate::store::ObservationStore::row_rev`]) and on the store's
//! completion epoch ([`crate::store::ObservationStore::completion_epoch`]).
//! Every landed observation, complete or censored, bumps that epoch,
//! because it moves the shared factor model and with it every row's
//! prediction. So every round that lands an observation re-scores every
//! row against the fresh completion, as the paper-exact default does, and
//! a cached score is reused only after a round in which nothing landed (in
//! a synchronous run, a round whose every probe failed). A fault-free run
//! therefore ranks bit for bit as the default does.

use super::{sample_unobserved, CellChoice, Policy, PolicyCtx};
use crate::complete::Completer;
use crate::matrix::Cell;
use limeqo_linalg::rng::SeededRng;

/// How Algorithm 1 scores candidate queries (an ablation beyond the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreMode {
    /// The paper's expected improvement ratio (Eq. 6):
    /// `(min W̃ᵢ − min Ŵᵢ) / min Ŵᵢ` — normalizes by the predicted best so
    /// exploration cost (≈ the predicted latency) is priced in.
    Ratio,
    /// Raw predicted improvement `min W̃ᵢ − min Ŵᵢ` — favours long queries
    /// regardless of how expensive they are to verify.
    Absolute,
}

/// Algorithm 1 with a pluggable predictive model.
pub struct LimeQoPolicy {
    completer: Box<dyn Completer + Send>,
    /// Timeout multiplier α (Algorithm 1 line 10). The paper leaves α
    /// implicit. Small α censors aggressively but, early in exploration —
    /// when the model's per-row argmin prediction is biased low by noise —
    /// it censors probes that would have improved the row; an α-sweep on
    /// JOB/CEB (bench `tune_alpha`) picked 10 as the default.
    pub alpha: f64,
    /// Display name ("limeqo" for ALS, "limeqo+" for the TCNN).
    display_name: &'static str,
    /// Minimum relative increase over an existing censored bound for a
    /// re-exploration of that cell to be worthwhile (guards against
    /// re-running a censored cell with an unchanged timeout forever).
    pub min_bound_gain: f64,
    /// Candidate scoring (Eq. 6 ratio by default).
    pub score_mode: ScoreMode,
    /// Post-shift density gate: minimum fraction of a row's cells that
    /// must be freshly completed before Eq. 6 is trusted for it. Rows
    /// below the gate are filled uniformly instead. Requires drift
    /// bookkeeping in [`PolicyCtx::store`] and only activates after a
    /// data shift (store epoch ≥ 1). 0 disables the gate.
    pub density_gate: f64,
    /// Cold-row exploration bonus weight: `cold_row_bonus / √(observed
    /// cells in row)` is added to the row's Eq. 6 score. 0 disables it.
    pub cold_row_bonus: f64,
    /// Cached re-ranking (see the module docs): reuse a row's cached
    /// score/argmin while neither its observation set nor the store's
    /// completion epoch changed. Every landed observation bumps the
    /// epoch, so a score is reused only after a round in which nothing
    /// landed, and a fault-free run ranks exactly as with this off.
    /// Requires drift bookkeeping in [`PolicyCtx::store`] (full re-scoring
    /// otherwise). Off by default — the paper-exact behavior.
    pub rescore_changed_only: bool,
    /// Periodic full re-score for the cached path: every
    /// `rescore_every`-th call (counting from the first) ignores the
    /// per-row cache and re-scores everything against the fresh
    /// completion. The cache already empties on every landed observation,
    /// so this only matters across rounds in which nothing landed. 0 (the
    /// default) never forces a full re-score; irrelevant unless
    /// [`LimeQoPolicy::rescore_changed_only`] is on.
    pub rescore_every: usize,
    /// Incremental *model fitting* (distinct from the incremental
    /// re-ranking above, which caches scores): hand the completer the set
    /// of rows whose observations changed since the last fit
    /// ([`crate::store::ObservationStore::row_rev`]), so a completer that
    /// supports dirty-row hints (incremental ALS) can re-solve only those
    /// rows against its retained factors. Requires drift bookkeeping in
    /// [`PolicyCtx::store`] (the completer sees `None` and fits fully
    /// otherwise). Off by default.
    pub incremental_als: bool,
    /// Per-row score cache for the incremental path: the store revision
    /// the row was last scored at, and the scored candidate
    /// (`None` = nothing worth exploring in that row).
    cache: Vec<CachedScore>,
    /// Calls to `select` so far (drives the periodic full re-score).
    rounds: u64,
    /// First store row revision the completer has *not* been fitted
    /// against (drives the dirty-row scan for `incremental_als`): a row is
    /// dirty when `row_rev ≥ fit_rev`. Starts at 0, so a never-fitted
    /// policy reports every row dirty.
    fit_rev: u64,
}

/// One cached Eq. 6 scoring decision.
#[derive(Debug, Clone, Copy)]
struct CachedScore {
    /// [`crate::store::ObservationStore::row_rev`] at scoring time;
    /// `u64::MAX` = never scored.
    rev: u64,
    /// [`crate::store::ObservationStore::completion_epoch`] at scoring
    /// time. A completion landing *anywhere* moves the shared factor
    /// model and with it every row's predicted minimum, so a cached score
    /// is only valid while the completion epoch is unchanged — keying on
    /// `row_rev` alone let untouched rows tunnel on stale predictions
    /// (the `incremental-tunnel` counterexample: at tiny batches the
    /// stale argmins systematically under-price timeouts and LimeQO
    /// probed worse than Random).
    cepoch: u64,
    /// `(score, argmin column, predicted minimum)`; `None` when the row
    /// produced no candidate.
    entry: Option<(f64, u32, f64)>,
}

impl Default for CachedScore {
    fn default() -> Self {
        CachedScore { rev: u64::MAX, cepoch: u64::MAX, entry: None }
    }
}

impl LimeQoPolicy {
    /// LimeQO with any completer (ALS → LimeQO, TCNN → LimeQO+).
    pub fn new(completer: Box<dyn Completer + Send>, display_name: &'static str) -> Self {
        LimeQoPolicy {
            completer,
            alpha: 10.0,
            display_name,
            min_bound_gain: 0.05,
            score_mode: ScoreMode::Ratio,
            density_gate: 0.0,
            cold_row_bonus: 0.0,
            rescore_changed_only: false,
            rescore_every: 0,
            incremental_als: false,
            cache: Vec::new(),
            rounds: 0,
            fit_rev: 0,
        }
    }

    /// Paper-default LimeQO: censored non-negative ALS, r = 5, λ = 0.2.
    pub fn with_als(seed: u64) -> Self {
        Self::new(Box::new(crate::complete::AlsCompleter::paper_default(seed)), "limeqo")
    }
}

impl Policy for LimeQoPolicy {
    fn name(&self) -> &'static str {
        self.display_name
    }

    fn select(
        &mut self,
        ctx: &PolicyCtx<'_>,
        batch: usize,
        rng: &mut SeededRng,
    ) -> Vec<CellChoice> {
        let wm = ctx.wm;
        // Density gate: after a data shift, rows whose fresh completed
        // density is below the gate cannot support the ratio ranking (the
        // fit is underdetermined); fill their unobserved cells uniformly
        // until density recovers. Skipping the completer here is also an
        // overhead win — the model would be fit on starved data anyway.
        if self.density_gate > 0.0 {
            if let Some(store) = ctx.store.filter(|s| s.epoch() > 0) {
                let need = (self.density_gate * wm.n_cols() as f64).ceil() as u32;
                // Uniform fill-in over the starved rows' unobserved
                // cells. The retained priors are deliberately *not*
                // probed here: re-verifying them at the full row-best
                // timeout is expensive, and the ranking exploits them
                // more cheaply once density recovers — their bounds
                // anchor the censored completer, and Algorithm 1's
                // α-clamped timeouts re-probe the promising ones.
                // Starved rows are found by the O(1) freshness counters;
                // their unobserved cells are *sampled* through a
                // per-call Fenwick over the starved-row unobserved
                // counts (O(starved rows) to build, O(log + k) per
                // draw) instead of materialized and shuffled.
                let starved_rows: Vec<usize> = (0..wm.n_rows())
                    .filter(|&row| {
                        store.fresh_complete_count(row) < need && wm.row_unobserved_count(row) > 0
                    })
                    .collect();
                let counts: Vec<i64> =
                    starved_rows.iter().map(|&r| wm.row_unobserved_count(r) as i64).collect();
                let index = limeqo_linalg::Fenwick::from_counts(&counts);
                if index.total() > 0 {
                    let mut out = Vec::with_capacity(batch.min(index.total() as usize));
                    crate::select::sample_ranks(index.total() as usize, batch, rng, |rank| {
                        let (slot, offset) = index.rank_select(rank as i64);
                        let row = starved_rows[slot];
                        let col = wm.unobserved_col_at(row, offset as usize);
                        out.push(CellChoice { row, col, timeout: super::row_timeout(wm, row) });
                        true
                    });
                    return out;
                }
            }
        }
        // Line 2: Ŵ ← pred(W̃, M, T). With incremental model fitting on
        // and drift bookkeeping available, hand the completer the rows
        // whose observations changed since the last fit (one O(n) pass
        // over the row revisions) — an ALS completer in incremental mode
        // re-solves only those rows against its retained factors.
        let w_hat = if self.incremental_als {
            match ctx.store {
                Some(store) => {
                    let mut dirty: Vec<usize> = Vec::new();
                    let mut max_rev = 0;
                    for row in 0..wm.n_rows() {
                        let rev = store.row_rev(row);
                        if rev >= self.fit_rev {
                            dirty.push(row);
                        }
                        max_rev = max_rev.max(rev);
                    }
                    self.fit_rev = max_rev + 1;
                    self.completer.complete_dirty(wm, Some(&dirty))
                }
                None => self.completer.complete_dirty(wm, None),
            }
        } else {
            self.completer.complete(wm)
        };

        // Lines 3–6: expected improvement ratio per query (plus the
        // optional cold-row bonus). `score_row` is the single source of
        // truth for both the full and the incremental path. (Knobs are
        // copied out so the closure does not borrow `self` — the cache
        // below needs the mutable half.)
        let (alpha, min_bound_gain) = (self.alpha, self.min_bound_gain);
        let (score_mode, cold_row_bonus) = (self.score_mode, self.cold_row_bonus);
        let w_hat_ref = &w_hat;
        let score_row = move |row: usize| -> Option<(f64, u32, f64)> {
            let (_, observed_min) = wm.row_best(row)?;
            let (col, predicted_min) = w_hat_ref.row_min(row)?;
            if predicted_min <= 0.0 {
                return None;
            }
            let ratio = match score_mode {
                ScoreMode::Ratio => (observed_min - predicted_min) / predicted_min,
                ScoreMode::Absolute => observed_min - predicted_min,
            };
            let bonus = if cold_row_bonus > 0.0 {
                let observed = wm.row_observed_count(row).max(1);
                cold_row_bonus / (observed as f64).sqrt()
            } else {
                0.0
            };
            let score = ratio.max(0.0) + bonus;
            if score <= 0.0 {
                return None;
            }
            match wm.cell(row, col) {
                // Already verified: nothing to gain (ratio would be 0 for
                // the observed min itself, but a clamped censored cell can
                // still predict below the row min).
                Cell::Complete(_) => None,
                Cell::Censored(bound) => {
                    // Re-explore a censored cell only if the new timeout
                    // would be meaningfully larger than the known bound.
                    let new_timeout = observed_min.min(predicted_min * alpha);
                    if new_timeout <= bound * (1.0 + min_bound_gain) {
                        None
                    } else {
                        Some((score, col as u32, predicted_min))
                    }
                }
                Cell::Unobserved => Some((score, col as u32, predicted_min)),
            }
        };
        let incremental = self.rescore_changed_only && ctx.store.is_some();
        if incremental && self.cache.len() != wm.n_rows() {
            self.cache = vec![CachedScore::default(); wm.n_rows()];
        }
        // Periodic full re-score (the `rescore_every` knob): every K-th
        // call the cache is bypassed so untouched rows' stale argmins get
        // refreshed against the current completion.
        let force_full = self.rescore_every > 0 && self.rounds % self.rescore_every as u64 == 0;
        self.rounds += 1;
        // Lines 3–7: score every row, then keep the top-`batch` candidates.
        let mut scored: Vec<(f64, usize, usize, f64)> = Vec::new(); // (score, row, col, pred)
        for row in 0..wm.n_rows() {
            let entry = if incremental {
                let store = ctx.store.expect("incremental requires a store");
                let rev = store.row_rev(row);
                let cepoch = store.completion_epoch();
                let cached = &mut self.cache[row];
                if cached.rev != rev || cached.cepoch != cepoch || force_full {
                    *cached = CachedScore { rev, cepoch, entry: score_row(row) };
                }
                cached.entry
            } else {
                score_row(row)
            };
            if let Some((score, col, pred)) = entry {
                scored.push((score, row, col as usize, pred));
            }
        }
        // Bounded heap selection under the subsystem's named total order,
        // which reproduces the stable full sort's tie-breaks at O(n log m)
        // instead of O(n log n).
        let top = crate::select::top_m_by(scored, batch, crate::select::score_desc);
        let mut out: Vec<CellChoice> = Vec::with_capacity(batch);
        for (_, row, col, pred) in top {
            let observed_min = wm.row_best(row).map(|(_, v)| v).unwrap_or(f64::INFINITY);
            // Line 10: T_ij = min(min W̃_i, Ŵ_ij · α); the predicted
            // argmin value equals Ŵ_ij (cached on the incremental path).
            let timeout = observed_min.min(pred * self.alpha);
            out.push(CellChoice { row, col, timeout });
        }
        // Lines 8–9: not enough positive predictions → random fill-in.
        if out.len() < batch {
            let extra = sample_unobserved(wm, batch - out.len(), &out, rng);
            out.extend(extra);
        }
        // Final fallback (keeps the "repeat until no more exploration
        // time" loop of Algorithm 1 productive once every cell is observed
        // or censored): verify censored cells whose bound still sits below
        // the row's best at the full row-best timeout. Each such probe
        // either completes (a real improvement or a ruled-out plan) or
        // raises the bound to the row best, so exploration terminates at
        // the true row optimum.
        if out.len() < batch {
            let want = batch - out.len();
            let chosen: std::collections::HashSet<(usize, usize)> =
                out.iter().map(|c| (c.row, c.col)).collect();
            let mut candidates: Vec<(f64, usize, usize, f64)> = Vec::new();
            for row in 0..wm.n_rows() {
                let Some((_, row_best)) = wm.row_best(row) else { continue };
                // Only observed cells can be censored: sweep the compact
                // index (ascending columns — the dense scan's order).
                for &col in wm.observed_cols(row) {
                    let col = col as usize;
                    if let Cell::Censored(bound) = wm.cell(row, col) {
                        if bound < row_best * 0.999 && !chosen.contains(&(row, col)) {
                            candidates.push((row_best - bound, row, col, row_best));
                        }
                    }
                }
            }
            // Bounded heap pick under the same named total order as the Eq. 6
            // ranking: gap desc, then row/col asc (the stable full sort's
            // tie-break — candidates were pushed row-major).
            let picked = crate::select::top_m_by(candidates, want, crate::select::score_desc);
            for (_, row, col, row_best) in picked {
                out.push(CellChoice { row, col, timeout: row_best });
            }
        }
        out
    }

    fn save_state(&self, enc: &mut crate::persist::Enc) {
        // The rounds counter drives the periodic full-rescore cadence, the
        // fitted revision drives the dirty-row scan, and the score cache
        // skips untouched rows; all three (plus the completer's own state)
        // must survive a restart bit-identically.
        enc.u(self.rounds);
        enc.u(self.fit_rev);
        enc.i(self.cache.len());
        for c in &self.cache {
            enc.u(c.rev);
            enc.u(c.cepoch);
            match c.entry {
                Some((score, col, pred)) => {
                    enc.b(true);
                    enc.f(score);
                    enc.u(col as u64);
                    enc.f(pred);
                }
                None => enc.b(false),
            }
        }
        self.completer.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut crate::persist::Dec<'_>) -> crate::persist::Result<()> {
        self.rounds = dec.u()?;
        self.fit_rev = dec.u()?;
        let n = dec.i()?;
        self.cache = Vec::with_capacity(n.min(1 << 24));
        for _ in 0..n {
            let rev = dec.u()?;
            let cepoch = dec.u()?;
            let entry = if dec.b()? { Some((dec.f()?, dec.u()? as u32, dec.f()?)) } else { None };
            self.cache.push(CachedScore { rev, cepoch, entry });
        }
        self.completer.load_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::Completer;
    use crate::matrix::WorkloadMatrix;
    use crate::store::PriorKind;
    use limeqo_linalg::Mat;

    /// A completer that returns a fixed prediction matrix (observed cells
    /// overwritten with their values, as the trait contract requires).
    struct FixedCompleter(Mat);

    impl Completer for FixedCompleter {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn complete(&mut self, wm: &WorkloadMatrix) -> Mat {
            let mut m = self.0.clone();
            for i in 0..wm.n_rows() {
                for j in 0..wm.n_cols() {
                    if let Cell::Complete(v) = wm.cell(i, j) {
                        m[(i, j)] = v;
                    }
                }
            }
            m
        }
    }

    #[test]
    fn picks_highest_improvement_ratio_first() {
        // Row 0: observed 10, predicted best 2 (ratio 4).
        // Row 1: observed 10, predicted best 5 (ratio 1).
        let wm = WorkloadMatrix::with_defaults(&[10.0, 10.0], 3);
        let pred = Mat::from_rows(&[&[10.0, 2.0, 9.0], &[10.0, 9.0, 5.0]]);
        let mut p = LimeQoPolicy::new(Box::new(FixedCompleter(pred)), "limeqo");
        p.alpha = 2.0;
        let ctx = PolicyCtx { wm: &wm, est_cost: None, store: None };
        let mut rng = SeededRng::new(8);
        let sel = p.select(&ctx, 1, &mut rng);
        assert_eq!(sel.len(), 1);
        assert_eq!((sel[0].row, sel[0].col), (0, 1));
        // Timeout = min(row best 10, 2 * alpha 2.0) = 4.
        assert!((sel[0].timeout - 4.0).abs() < 1e-12);
    }

    #[test]
    fn falls_back_to_random_when_no_positive_ratio() {
        // Predictions equal to observations: no predicted improvement.
        let wm = WorkloadMatrix::with_defaults(&[1.0, 1.0], 3);
        let pred = Mat::filled(2, 3, 1.0);
        let mut p = LimeQoPolicy::new(Box::new(FixedCompleter(pred)), "limeqo");
        let ctx = PolicyCtx { wm: &wm, est_cost: None, store: None };
        let mut rng = SeededRng::new(9);
        let sel = p.select(&ctx, 3, &mut rng);
        assert_eq!(sel.len(), 3, "random fallback must fill the batch");
        for c in &sel {
            assert!(!wm.cell(c.row, c.col).is_observed());
        }
    }

    #[test]
    fn censored_cell_not_rerun_with_same_timeout() {
        let mut wm = WorkloadMatrix::with_defaults(&[10.0], 2);
        // Cell (0,1) censored at bound 10 (= row best): prediction 3 with
        // alpha 2 gives timeout min(10, 6) = 6 < bound: skip.
        wm.set_censored(0, 1, 10.0);
        let pred = Mat::from_rows(&[&[10.0, 3.0]]);
        let mut p = LimeQoPolicy::new(Box::new(FixedCompleter(pred)), "limeqo");
        p.alpha = 2.0;
        let ctx = PolicyCtx { wm: &wm, est_cost: None, store: None };
        let mut rng = SeededRng::new(10);
        let sel = p.select(&ctx, 1, &mut rng);
        // Nothing else to explore either: the fallback finds no unobserved.
        assert!(sel.is_empty());
    }

    #[test]
    fn censored_cell_rerun_with_larger_timeout() {
        let mut wm = WorkloadMatrix::with_defaults(&[10.0], 2);
        // Censored at 2; new prediction 3 → timeout min(10, 6) = 6 > 2.
        wm.set_censored(0, 1, 2.0);
        let pred = Mat::from_rows(&[&[10.0, 3.0]]);
        let mut p = LimeQoPolicy::new(Box::new(FixedCompleter(pred)), "limeqo");
        p.alpha = 2.0;
        let ctx = PolicyCtx { wm: &wm, est_cost: None, store: None };
        let mut rng = SeededRng::new(11);
        let sel = p.select(&ctx, 1, &mut rng);
        assert_eq!(sel.len(), 1);
        assert_eq!((sel[0].row, sel[0].col), (0, 1));
        assert!((sel[0].timeout - 6.0).abs() < 1e-12);
    }

    #[test]
    fn with_als_runs_end_to_end() {
        let mut wm = WorkloadMatrix::with_defaults(&[10.0, 8.0, 12.0, 9.0], 6);
        wm.set_complete(0, 1, 2.0);
        wm.set_complete(1, 1, 1.5);
        let mut p = LimeQoPolicy::with_als(12);
        let ctx = PolicyCtx { wm: &wm, est_cost: None, store: None };
        let mut rng = SeededRng::new(13);
        let sel = p.select(&ctx, 2, &mut rng);
        assert_eq!(sel.len(), 2);
        for c in &sel {
            assert!(!matches!(wm.cell(c.row, c.col), Cell::Complete(_)));
            assert!(c.timeout > 0.0);
        }
    }

    #[test]
    fn cold_row_bonus_promotes_underobserved_rows() {
        // Row 0 is warm (many observations), row 1 cold (default only).
        // Predictions are flat at the observed values — no Eq. 6 ratio
        // anywhere — so only the bonus can rank anything.
        let mut wm = WorkloadMatrix::with_defaults(&[10.0, 10.0], 4);
        for col in 1..3 {
            wm.set_complete(0, col, 10.0);
        }
        let mut pred = Mat::filled(2, 4, 10.0);
        pred[(1, 3)] = 9.99; // cold row's argmin is an unobserved cell
        pred[(0, 3)] = 9.99;
        let mut p = LimeQoPolicy::new(Box::new(FixedCompleter(pred)), "limeqo");
        p.cold_row_bonus = 1.0;
        let ctx = PolicyCtx { wm: &wm, est_cost: None, store: None };
        let mut rng = SeededRng::new(21);
        let sel = p.select(&ctx, 1, &mut rng);
        assert_eq!(sel.len(), 1);
        // Bonus 1/√1 = 1 (cold) beats 1/√3 ≈ 0.58 (warm): row 1 first.
        assert_eq!((sel[0].row, sel[0].col), (1, 3));
    }

    #[test]
    fn zero_bonus_keeps_paper_ranking() {
        // With the bonus off and flat predictions, nothing is ranked and
        // the random fallback fills the batch — the paper's behavior.
        let wm = WorkloadMatrix::with_defaults(&[10.0, 10.0], 3);
        let pred = Mat::filled(2, 3, 10.0);
        let mut p = LimeQoPolicy::new(Box::new(FixedCompleter(pred)), "limeqo");
        let ctx = PolicyCtx { wm: &wm, est_cost: None, store: None };
        let mut rng = SeededRng::new(22);
        let sel = p.select(&ctx, 2, &mut rng);
        assert_eq!(sel.len(), 2, "fallback fills the batch");
    }

    #[test]
    fn density_gate_forces_uniform_fill_after_shift() {
        use crate::store::ObservationStore;
        // A store that lived through a shift: priors everywhere, only the
        // re-observed default is fresh.
        let mut store = ObservationStore::with_defaults(&[10.0, 10.0], 5);
        store.record_complete(0, 1, 2.0);
        store.record_censored(0, 2, 1.0);
        store.demote_to_priors(0.5);
        store.record_complete(0, 0, 11.0);
        store.record_complete(1, 0, 12.0);
        // Predictions scream "explore (0,1)" but the gate must ignore them
        // while rows are starved.
        let mut pred = Mat::filled(2, 5, 20.0);
        pred[(0, 1)] = 0.1;
        let mut p = LimeQoPolicy::new(Box::new(FixedCompleter(pred)), "limeqo");
        p.density_gate = 0.5; // need ≥ 3 fresh completes of 5
        let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
        let mut rng = SeededRng::new(23);
        let sel = p.select(&ctx, 20, &mut rng);
        assert!(!sel.is_empty());
        for c in &sel {
            // Gate probes target only unobserved cells, at the full
            // row-best timeout — never the α-clamped model timeout, and
            // never the retained priors (the ranking exploits those more
            // cheaply once density recovers).
            assert!(
                matches!(store.matrix().cell(c.row, c.col), Cell::Unobserved),
                "gate probed {:?}",
                (c.row, c.col)
            );
        }
        // Priors of both kinds stay untouched during gated fill-in.
        assert!(!sel.iter().any(|c| (c.row, c.col) == (0, 1)));
        assert!(!sel.iter().any(|c| (c.row, c.col) == (0, 2)));
        assert_eq!(store.prior_kind(0, 1), PriorKind::Value);
    }

    /// Predictions shrink on every call: distinguishes a cached score
    /// (computed against an older completion) from a fresh one.
    struct ShiftingCompleter {
        calls: usize,
    }

    impl Completer for ShiftingCompleter {
        fn name(&self) -> &'static str {
            "shifting"
        }
        fn complete(&mut self, wm: &WorkloadMatrix) -> Mat {
            self.calls += 1;
            let pred = 10.0 / (self.calls + 1) as f64; // 5, 10/3, 2.5, …
            let mut m = Mat::filled(wm.n_rows(), wm.n_cols(), pred);
            for i in 0..wm.n_rows() {
                for j in 0..wm.n_cols() {
                    if let Cell::Complete(v) = wm.cell(i, j) {
                        m[(i, j)] = v;
                    }
                }
            }
            m
        }
    }

    #[test]
    fn incremental_rescoring_reuses_cached_scores_for_untouched_rows() {
        use crate::store::ObservationStore;
        // Nothing lands between rounds: revisions and the completion epoch
        // are unchanged, so the cache may serve every row. (Any landed
        // observation — completed *or* censored — moves the epoch and
        // invalidates everything; see the two tests below.)
        let base = ObservationStore::with_defaults(&[10.0, 10.0], 3);
        let run = |incremental: bool| -> Vec<CellChoice> {
            let store = base.clone();
            let mut p = LimeQoPolicy::new(Box::new(ShiftingCompleter { calls: 0 }), "limeqo");
            p.rescore_changed_only = incremental;
            p.alpha = 1.0;
            let mut rng = SeededRng::new(31);
            // Round 1: both rows score against predictions of 5.
            let sel1 = {
                let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
                p.select(&ctx, 1, &mut rng)
            };
            assert_eq!((sel1[0].row, sel1[0].col), (0, 1));
            let _ = store; // probe never recorded: the store is untouched
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            p.select(&ctx, 1, &mut rng)
        };
        // Both modes pick the same cell again — but the incremental path
        // prices its timeout off the *cached* round-1 prediction (5 →
        // timeout 5), while full re-scoring uses the fresh round-2
        // prediction (10/3).
        let incremental = run(true);
        assert_eq!((incremental[0].row, incremental[0].col), (0, 1));
        assert!((incremental[0].timeout - 5.0).abs() < 1e-12, "cached prediction must price");
        let full = run(false);
        assert_eq!((full[0].row, full[0].col), (0, 1));
        assert!((full[0].timeout - 10.0 / 3.0).abs() < 1e-12, "fresh prediction must price");
    }

    #[test]
    fn completion_epoch_invalidates_every_cached_score() {
        use crate::store::ObservationStore;
        // The incremental-tunnel counterexample in miniature: row 1 is
        // never probed (its row_rev never moves), but a completion landing
        // in row 0 refits the shared model — row 1's cached prediction
        // must not survive it.
        let mut store = ObservationStore::with_defaults(&[10.0, 10.0], 3);
        let mut p = LimeQoPolicy::new(Box::new(ShiftingCompleter { calls: 0 }), "limeqo");
        p.rescore_changed_only = true;
        p.alpha = 1.0;
        let mut rng = SeededRng::new(34);
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            let sel = p.select(&ctx, 1, &mut rng);
            assert_eq!((sel[0].row, sel[0].col), (0, 1));
        }
        store.record_complete(0, 1, 5.0);
        let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
        let sel = p.select(&ctx, 1, &mut rng);
        assert_eq!((sel[0].row, sel[0].col), (1, 1));
        assert!(
            (sel[0].timeout - 10.0 / 3.0).abs() < 1e-12,
            "a landed completion must re-price untouched rows off the fresh fit"
        );
    }

    #[test]
    fn rescore_every_refreshes_untouched_rows_periodically() {
        use crate::store::ObservationStore;
        // No probe ever lands, so neither revisions nor the completion
        // epoch move and the pure incremental path would serve the stale
        // round-0 prediction (5) forever. With rescore_every = 2, round 2
        // (rounds counted from 0: 0, 1, 2 — round 2 forces a full
        // re-score) must re-price off the fresh prediction instead.
        let store = ObservationStore::with_defaults(&[10.0, 10.0], 3);
        let mut p = LimeQoPolicy::new(Box::new(ShiftingCompleter { calls: 0 }), "limeqo");
        p.rescore_changed_only = true;
        p.rescore_every = 2;
        p.alpha = 1.0;
        let mut rng = SeededRng::new(33);
        // Round 0 (forced full — trivially so, nothing cached yet).
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            let sel = p.select(&ctx, 1, &mut rng);
            assert_eq!((sel[0].row, sel[0].col), (0, 1));
        }
        // Round 1 (cached): still priced off round-0's prediction 5.
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            let sel = p.select(&ctx, 1, &mut rng);
            assert_eq!((sel[0].row, sel[0].col), (0, 1));
            assert!((sel[0].timeout - 5.0).abs() < 1e-12, "round 1 serves the cached pred");
        }
        // Round 2 (forced full): nothing changed, but the periodic full
        // re-score refreshes everything against the fresh prediction 2.5.
        let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
        let sel = p.select(&ctx, 1, &mut rng);
        assert_eq!((sel[0].row, sel[0].col), (0, 1));
        assert!((sel[0].timeout - 2.5).abs() < 1e-12, "round 2 must re-score untouched rows");
    }

    #[test]
    fn censored_probes_invalidate_cached_scores_too() {
        use crate::store::ObservationStore;
        // The second half of the incremental-tunnel bug: rounds where only
        // *censored* probes land must still refresh untouched rows —
        // censored bounds clamp the censored ALS fit, so they move the
        // shared model exactly as completions do. Row 0 is never probed;
        // the censored probe lands in row 1.
        let mut store = ObservationStore::with_defaults(&[10.0, 10.0], 3);
        let mut p = LimeQoPolicy::new(Box::new(ShiftingCompleter { calls: 0 }), "limeqo");
        p.rescore_changed_only = true;
        p.alpha = 1.0;
        let mut rng = SeededRng::new(32);
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            p.select(&ctx, 1, &mut rng);
        }
        store.record_censored(1, 2, 0.5);
        let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
        let sel = p.select(&ctx, 2, &mut rng);
        let row0 = sel.iter().find(|c| c.row == 0).expect("row 0 re-ranked");
        // Fresh round-2 prediction is 10/3; the stale round-1 one was 5.
        assert!(
            (row0.timeout - 10.0 / 3.0).abs() < 1e-12,
            "a censored-only round must re-score untouched rows"
        );
    }

    /// Records the dirty-row hints it receives, predicting a flat fill.
    struct DirtyRecordingCompleter {
        seen: std::sync::Arc<std::sync::Mutex<Vec<Option<Vec<usize>>>>>,
    }

    impl Completer for DirtyRecordingCompleter {
        fn name(&self) -> &'static str {
            "dirty-recorder"
        }
        fn complete(&mut self, wm: &WorkloadMatrix) -> Mat {
            self.complete_dirty(wm, None)
        }
        fn complete_dirty(&mut self, wm: &WorkloadMatrix, dirty: Option<&[usize]>) -> Mat {
            self.seen.lock().unwrap().push(dirty.map(|d| d.to_vec()));
            Mat::filled(wm.n_rows(), wm.n_cols(), 1.0)
        }
    }

    #[test]
    fn incremental_als_hands_the_completer_exactly_the_changed_rows() {
        use crate::store::ObservationStore;
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut store = ObservationStore::with_defaults(&[10.0, 10.0, 10.0], 3);
        let mut p =
            LimeQoPolicy::new(Box::new(DirtyRecordingCompleter { seen: seen.clone() }), "limeqo");
        p.incremental_als = true;
        let mut rng = SeededRng::new(41);
        // Round 1: every row's revision is above the never-fitted mark.
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            p.select(&ctx, 1, &mut rng);
        }
        // Rounds 2/3: only the probed rows are reported dirty; an idle
        // round reports none.
        store.record_complete(2, 1, 3.0);
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            p.select(&ctx, 1, &mut rng);
        }
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            p.select(&ctx, 1, &mut rng);
        }
        // Without a store there is no tracking: the hint must be `None`.
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: None };
            p.select(&ctx, 1, &mut rng);
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen[0], Some(vec![0, 1, 2]), "first fit sees every row dirty");
        assert_eq!(seen[1], Some(vec![2]), "only the probed row is dirty");
        assert_eq!(seen[2], Some(vec![]), "an idle round reports no dirty rows");
        assert_eq!(seen[3], None, "no store ⇒ no tracking signal");
    }

    #[test]
    fn incremental_als_fit_rev_survives_save_load() {
        use crate::store::ObservationStore;
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut store = ObservationStore::with_defaults(&[10.0, 10.0], 3);
        let mut p =
            LimeQoPolicy::new(Box::new(DirtyRecordingCompleter { seen: seen.clone() }), "limeqo");
        p.incremental_als = true;
        let mut rng = SeededRng::new(42);
        {
            let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
            p.select(&ctx, 1, &mut rng);
        }
        let mut enc = crate::persist::Enc::new();
        p.save_state(&mut enc);
        let state = enc.finish();
        // A restarted twin must not re-report clean rows as dirty.
        let mut q =
            LimeQoPolicy::new(Box::new(DirtyRecordingCompleter { seen: seen.clone() }), "limeqo");
        q.incremental_als = true;
        let mut dec = crate::persist::Dec::new(&state);
        q.load_state(&mut dec).expect("state round-trips");
        store.record_complete(1, 2, 4.0);
        let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
        q.select(&ctx, 1, &mut rng);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.last().unwrap(), &Some(vec![1]), "restored fit_rev masks clean rows");
    }

    #[test]
    fn density_gate_inert_before_any_shift() {
        use crate::store::ObservationStore;
        let store = ObservationStore::with_defaults(&[10.0, 10.0], 4);
        let mut pred = Mat::filled(2, 4, 10.0);
        pred[(0, 1)] = 1.0;
        let mut p = LimeQoPolicy::new(Box::new(FixedCompleter(pred)), "limeqo");
        p.density_gate = 0.9;
        let ctx = PolicyCtx { wm: store.matrix(), est_cost: None, store: Some(&store) };
        let mut rng = SeededRng::new(24);
        let sel = p.select(&ctx, 1, &mut rng);
        // Epoch 0: the gate must not trigger; Eq. 6 picks the ratio win.
        assert_eq!((sel[0].row, sel[0].col), (0, 1));
    }
}
