//! The adaptive observation layer: a [`WorkloadMatrix`] wrapped with
//! drift-aware bookkeeping.
//!
//! The paper's Eq. 6 ratio ranking assumes a reasonably dense observation
//! matrix. After a §5.4 data shift the original harness discarded every
//! stale observation, leaving ~2 completed cells per row — the ALS fit goes
//! underdetermined and LimeQO probes *worse than Random* (the `data-shift`
//! scenario pinned this gap at 95.4 s vs 75.5 s). Learning-to-rank hint
//! steerers (Lero, COOOL) keep and re-weight stale pairwise evidence across
//! plan-space change instead of restarting cold; the same idea maps onto
//! LimeQO's censored-matrix formulation, because the matrix already has a
//! first-class notion of "partial knowledge": the censored cell.
//!
//! [`ObservationStore`] therefore supports **demoting** stale completed
//! observations to *censored priors* on a drift event: a stale value `v`
//! becomes a censored cell at bound `decay · v` — a soft lower-bound
//! anchor the censored ALS clamp can lean on, with confidence that decays
//! geometrically across repeated shifts (`decay² · v` after two shifts, and
//! so on). Fresh probes replace priors outright. The store also maintains
//! per-row counts of *fresh* completed observations in O(1), which feed the
//! [`DriftPolicy::density_gate`] (force uniform fill-in until a shifted
//! row's observed density recovers) and the cold-row exploration bonus
//! (`bonus / √(row observation count)` added to the Eq. 6 score).

use std::collections::HashMap;
use std::fmt;

use crate::matrix::{Cell, WorkloadMatrix};

/// A poisoned measurement rejected at the observation layer.
///
/// NaN or infinite latencies must never reach the workload matrix: the
/// ALS normal equations average observed entries, so a single NaN cell
/// poisons the shared factors and every prediction derived from them —
/// silently, rounds after the bad insert. The typed rejection pins the
/// blast radius to the one probe that produced the garbage (the engine
/// turns it into a probe failure and retries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObservationError {
    /// The measured latency was NaN or ±∞ (carries the exact bit
    /// pattern, since NaN payloads do not survive `{:?}` formatting).
    NotFinite {
        /// Query row of the rejected probe.
        row: usize,
        /// Hint column of the rejected probe.
        col: usize,
        /// `f64::to_bits` of the offending value.
        bits: u64,
    },
    /// The measured latency was negative — a broken transport, not a
    /// measurement.
    Negative {
        /// Query row of the rejected probe.
        row: usize,
        /// Hint column of the rejected probe.
        col: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ObservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObservationError::NotFinite { row, col, bits } => write!(
                f,
                "observation ({row},{col}): non-finite latency (bits {bits:016x}) rejected"
            ),
            ObservationError::Negative { row, col, value } => {
                write!(f, "observation ({row},{col}): negative latency {value} rejected")
            }
        }
    }
}

impl std::error::Error for ObservationError {}

fn check_latency(row: usize, col: usize, v: f64) -> Result<(), ObservationError> {
    if !v.is_finite() {
        return Err(ObservationError::NotFinite { row, col, bits: v.to_bits() });
    }
    if v < 0.0 {
        return Err(ObservationError::Negative { row, col, value: v });
    }
    Ok(())
}

/// Drift-adaptation knobs, threaded from `PolicySpec` through the scenario
/// runner into the harness and Algorithm 1.
///
/// [`DriftPolicy::default`] is the drift-aware configuration; use
/// [`DriftPolicy::legacy`] for the pre-retention behavior (discard stale
/// observations, no gate, no bonus, cold ALS init every round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// On a data shift, keep stale completed observations as censored
    /// priors instead of discarding them.
    pub retain_priors: bool,
    /// Confidence multiplier applied to a stale value when it is demoted
    /// (and re-applied on every later shift it survives). A stale latency
    /// `v` becomes the censored bound `prior_decay · v`: the claim "the new
    /// latency is probably at least this much" weakens geometrically as the
    /// data keeps drifting.
    pub prior_decay: f64,
    /// Minimum fraction of a row's cells that must be *freshly* completed
    /// (observed against the current data) before Algorithm 1 trusts the
    /// Eq. 6 ranking for shifted rows; below it, the policy falls back to
    /// uniform fill-in on the starved rows. Only active after a shift
    /// (epoch ≥ 1) — the initial defaults-only matrix is the paper's
    /// intended starting state, not a starved one.
    pub density_gate: f64,
    /// Weight of the cold-row exploration bonus added to the Eq. 6 score:
    /// `score += cold_row_bonus / √(row observed count)`. Zero disables it.
    pub cold_row_bonus: f64,
    /// Warm-start ALS factors across exploration rounds instead of
    /// re-initializing randomly on every `complete()` call. Off by
    /// default: warm-started factors keep their early low-biased
    /// predictions, which tightens Algorithm 1's α-clamped timeouts and
    /// inflates censoring on drift-free workloads (measured on the
    /// scenario matrix); it earns its keep in post-shift recovery, where
    /// the retained hint-side structure matters more than init diversity.
    pub warm_start: bool,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            retain_priors: true,
            prior_decay: 0.5,
            density_gate: 0.12,
            cold_row_bonus: 0.0,
            warm_start: false,
        }
    }
}

impl DriftPolicy {
    /// The pre-retention behavior: discard stale observations on a shift,
    /// no density gate, no cold-row bonus, cold ALS initialization.
    pub fn legacy() -> Self {
        DriftPolicy {
            retain_priors: false,
            prior_decay: 0.0,
            density_gate: 0.0,
            cold_row_bonus: 0.0,
            warm_start: false,
        }
    }
}

/// What a demoted prior was demoted *from* — the distinction decides
/// whether the cell is worth re-verifying after a shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorKind {
    /// Not a prior: a fresh observation or an unobserved cell.
    None,
    /// Demoted from a completed measurement: the plan actually ran this
    /// fast before the shift, so re-verifying it is a promising probe.
    Value,
    /// Demoted from a censored bound: the plan already timed out on the
    /// old data — a known loser, not a recovery candidate.
    Bound,
}

/// A [`WorkloadMatrix`] plus the drift-aware bookkeeping the adaptive
/// observation layer needs: which censored cells are demoted priors (their
/// provenance and confidence weight), how many *fresh* completed
/// observations each row has, and how many data-shift epochs the store has
/// lived through.
#[derive(Debug, Clone)]
pub struct ObservationStore {
    wm: WorkloadMatrix,
    /// Sparse prior bookkeeping: `(row, col) → (weight, kind)` for demoted
    /// priors only. The invariant is `weight > 0.0 ∧ kind ≠ None` for every
    /// entry — fresh observations and unobserved cells are simply absent.
    /// (Dense parallel vectors cost `n·k` floats — ~400 MB at the 1M-row
    /// tier — for a set that demotion bounds by the *observed* cell count.)
    priors: HashMap<(u32, u32), (f64, PriorKind)>,
    /// Per-row count of completed cells observed against the *current*
    /// data (priors never count).
    fresh_complete: Vec<u32>,
    /// Number of data-shift demotions this store has lived through.
    epoch: u32,
    /// Monotone mutation counter; never reset, survives matrix rebuilds.
    rev: u64,
    /// Per-row revision: the value of `rev` when the row's observation set
    /// last changed. Incremental consumers (the Eq. 6 re-ranking) compare
    /// it with their cached value to skip untouched rows.
    row_rev: Vec<u64>,
    /// Global completion epoch: bumps whenever an observation lands,
    /// complete or censored, or the matrix is rebuilt (demotion/discard) —
    /// i.e. whenever the ALS input set changes, which moves *every* row's
    /// Eq. 6 score, not just the probed row's. Row appends leave it
    /// unchanged. The incremental re-ranking invalidates its whole cache on
    /// this counter, so it reuses a score only across a round in which
    /// nothing landed: in a synchronous run, a round whose every probe
    /// failed.
    completion_epoch: u64,
}

impl ObservationStore {
    /// Wrap an existing matrix; every completed cell counts as fresh.
    pub fn new(wm: WorkloadMatrix) -> Self {
        let n = wm.n_rows();
        let mut fresh = vec![0u32; n];
        for (row, fresh_count) in fresh.iter_mut().enumerate() {
            for &col in wm.observed_cols(row) {
                if matches!(wm.cell(row, col as usize), Cell::Complete(_)) {
                    *fresh_count += 1;
                }
            }
        }
        ObservationStore {
            priors: HashMap::new(),
            fresh_complete: fresh,
            epoch: 0,
            rev: 0,
            row_rev: vec![0; n],
            completion_epoch: 0,
            wm,
        }
    }

    /// A store over a matrix with only the default column observed — the
    /// paper's starting condition.
    pub fn with_defaults(defaults: &[f64], k: usize) -> Self {
        Self::new(WorkloadMatrix::with_defaults(defaults, k))
    }

    /// [`ObservationStore::with_defaults`] over a sharded matrix layout.
    pub fn with_defaults_sharded(defaults: &[f64], k: usize, shards: usize) -> Self {
        Self::new(WorkloadMatrix::with_defaults_sharded(defaults, k, shards))
    }

    /// The wrapped partially observed matrix.
    pub fn matrix(&self) -> &WorkloadMatrix {
        &self.wm
    }

    /// Number of data-shift demotions applied so far.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Global completion epoch: the number of times the observation set
    /// feeding the ALS fit has changed (a completed probe, a censored
    /// probe — censored bounds clamp the censored fit — a demotion, a
    /// discard). Row appends leave it untouched. The incremental Eq. 6
    /// re-ranking keys its whole cache on this: any landed observation
    /// moves the shared factor model, which moves every row's predicted
    /// minimum, not just the probed row's. Keying on `row_rev` alone was
    /// the incremental-tunnel bug — a cached `None` locked an untouched
    /// row out of the candidate set for good.
    pub fn completion_epoch(&self) -> u64 {
        self.completion_epoch
    }

    /// Revision of `row`'s observation set: a monotone stamp that changes
    /// whenever the row is probed, demoted, or discarded (never reset,
    /// even when a drift event rebuilds the whole matrix). The incremental
    /// Eq. 6 re-ranking caches per-row scores keyed on this value.
    pub fn row_rev(&self, row: usize) -> u64 {
        self.row_rev[row]
    }

    fn bump_row(&mut self, row: usize) {
        self.rev += 1;
        self.row_rev[row] = self.rev;
    }

    fn bump_all(&mut self) {
        self.rev += 1;
        let rev = self.rev;
        self.row_rev.iter_mut().for_each(|r| *r = rev);
    }

    /// [`ObservationStore::record_complete`] with the poisoned-value
    /// guard: a NaN, infinite, or negative latency is rejected with a
    /// typed error and the matrix is left untouched.
    pub fn try_record_complete(
        &mut self,
        row: usize,
        col: usize,
        latency: f64,
    ) -> Result<(), ObservationError> {
        check_latency(row, col, latency)?;
        self.record_complete(row, col, latency);
        Ok(())
    }

    /// [`ObservationStore::record_censored`] with the poisoned-value
    /// guard of [`ObservationStore::try_record_complete`].
    pub fn try_record_censored(
        &mut self,
        row: usize,
        col: usize,
        bound: f64,
    ) -> Result<(), ObservationError> {
        check_latency(row, col, bound)?;
        self.record_censored(row, col, bound);
        Ok(())
    }

    /// Record a completed execution: the cell becomes a fresh observation
    /// (clearing any prior flag) and the row's fresh count grows.
    pub fn record_complete(&mut self, row: usize, col: usize, latency: f64) {
        if !matches!(self.wm.cell(row, col), Cell::Complete(_)) {
            self.fresh_complete[row] += 1;
        }
        self.wm.set_complete(row, col, latency);
        self.priors.remove(&(row as u32, col as u32));
        self.completion_epoch += 1;
        self.bump_row(row);
    }

    /// Record a timed-out execution. A probe that tightens the bound
    /// supersedes a prior: the cell's bound updates per
    /// [`WorkloadMatrix::set_censored`] and the prior flag is cleared
    /// (the bound is now measured, not remembered). A probe that timed
    /// out *below* a remembered prior bound leaves the prior flagged —
    /// the surviving larger bound is still unverified hearsay.
    pub fn record_censored(&mut self, row: usize, col: usize, bound: f64) {
        let superseded = match self.wm.cell(row, col) {
            Cell::Censored(old) => bound >= old,
            _ => true,
        };
        self.wm.set_censored(row, col, bound);
        if superseded {
            self.priors.remove(&(row as u32, col as u32));
        }
        self.completion_epoch += 1;
        self.bump_row(row);
    }

    /// Append `count` unobserved rows (workload shift, §5.3).
    pub fn add_rows(&mut self, count: usize) {
        self.wm.add_rows(count);
        self.fresh_complete.extend(std::iter::repeat(0).take(count));
        self.rev += 1;
        self.row_rev.extend(std::iter::repeat(self.rev).take(count));
    }

    /// Count of fresh (current-epoch) completed cells in `row`.
    pub fn fresh_complete_count(&self, row: usize) -> u32 {
        self.fresh_complete[row]
    }

    /// Fraction of `row`'s cells that are freshly completed.
    pub fn row_density(&self, row: usize) -> f64 {
        self.fresh_complete[row] as f64 / self.wm.n_cols() as f64
    }

    /// Whether the cell holds a demoted prior rather than a measurement.
    pub fn is_prior(&self, row: usize, col: usize) -> bool {
        self.priors.contains_key(&(row as u32, col as u32))
    }

    /// The cell's prior provenance ([`PriorKind::None`] for fresh cells).
    pub fn prior_kind(&self, row: usize, col: usize) -> PriorKind {
        self.priors.get(&(row as u32, col as u32)).map_or(PriorKind::None, |&(_, k)| k)
    }

    /// The cell's cumulative prior confidence weight (0 for fresh cells).
    pub fn prior_weight(&self, row: usize, col: usize) -> f64 {
        self.priors.get(&(row as u32, col as u32)).map_or(0.0, |&(w, _)| w)
    }

    /// Count of demoted-prior cells currently in the matrix (O(1)).
    pub fn prior_count(&self) -> usize {
        self.priors.len()
    }

    /// Apply a data shift (§5.4) to the store — the drift-aware
    /// alternative to rebuilding the matrix from scratch.
    ///
    /// Every cell is demoted in place:
    ///
    /// * `Complete(v)` → `Censored(decay_now · v)` — a stale measurement
    ///   becomes a censored prior at the decayed confidence weight,
    /// * `Censored(b)` → `Censored(decay_now · b)` — a stale bound weakens
    ///   the same way (surviving priors compound: `decay²·v` after two
    ///   shifts),
    /// * `Unobserved` stays unobserved,
    ///
    /// and every row's fresh count resets to zero. The caller then
    /// re-observes whatever the online path measures for free on the new
    /// data (the default plan and the cached best hint) via
    /// [`ObservationStore::record_complete`].
    ///
    /// `decay` must lie in (0, 1]: the demoted bound must not exceed the
    /// stale value, otherwise the prior would overclaim on the new data.
    pub fn demote_to_priors(&mut self, decay: f64) {
        assert!(decay > 0.0 && decay <= 1.0, "prior decay must be in (0, 1]");
        let n = self.wm.n_rows();
        // Same shape *and* shard layout: drift must not repartition.
        let mut demoted = self.wm.empty_like();
        // Walk only the observed cells via the compact index — a demotion
        // sweep is O(observed), not O(n·k), which matters when a nightly
        // statistics refresh demotes a 100k-row matrix at once.
        for row in 0..n {
            for &col32 in self.wm.observed_cols(row) {
                let col = col32 as usize;
                let key = (row as u32, col32);
                match self.wm.cell(row, col) {
                    Cell::Unobserved => unreachable!("indexed cell is observed"),
                    Cell::Complete(v) => {
                        demoted.set_censored(row, col, decay * v);
                        self.priors.insert(key, (decay, PriorKind::Value));
                    }
                    Cell::Censored(b) => {
                        demoted.set_censored(row, col, decay * b);
                        // A surviving prior compounds; a stale measured
                        // bound starts its prior life at `decay`. Value
                        // provenance survives repeated shifts.
                        let entry = self.priors.entry(key).or_insert((1.0, PriorKind::Bound));
                        entry.0 *= decay;
                    }
                }
            }
        }
        self.wm = demoted;
        self.fresh_complete.iter_mut().for_each(|c| *c = 0);
        self.epoch += 1;
        self.completion_epoch += 1;
        self.bump_all();
    }

    /// Discard everything (the legacy data-shift path): the matrix resets
    /// to all-unobserved at the same shape and the epoch still advances,
    /// so the density gate sees the rebuild either way.
    pub fn discard_all(&mut self) {
        let n = self.wm.n_rows();
        self.discard_resized(n);
    }

    /// Like [`ObservationStore::discard_all`], but the rebuilt matrix has
    /// `n` rows (a data shift whose new oracle exposes fewer queries).
    /// The epoch advances here too — a post-shift matrix is a starved one
    /// regardless of whether it also shrank.
    pub fn discard_resized(&mut self, n: usize) {
        // Keep the shard *count*, re-partitioned evenly over `n` rows.
        self.wm = self.wm.empty_resized(n);
        self.priors.clear();
        self.fresh_complete = vec![0; n];
        self.epoch += 1;
        self.completion_epoch += 1;
        self.rev += 1;
        self.row_rev = vec![self.rev; n];
    }

    /// Serialize the full logical state — matrix cells, prior bookkeeping,
    /// shift epoch, revision counters — into a snapshot. Prior weights and
    /// kinds are stored sparsely per observed cell: demotion only ever
    /// marks observed (censored) cells, so unobserved entries are always
    /// `(0.0, None)`.
    pub fn save_state(&self, enc: &mut crate::persist::Enc) {
        let (n, k) = (self.wm.n_rows(), self.wm.n_cols());
        enc.i(n);
        enc.i(k);
        // The shard layout travels with the snapshot as storage: a recovered
        // store keeps the per-shard indices it was saved with.
        let ranges = self.wm.shard_ranges();
        enc.i(ranges.len());
        for &(start, end) in &ranges {
            enc.i(end - start);
        }
        enc.u(self.epoch as u64);
        enc.u(self.rev);
        enc.u(self.completion_epoch);
        for row in 0..n {
            enc.u(self.fresh_complete[row] as u64);
            enc.u(self.row_rev[row]);
            let obs = self.wm.observed_cols(row);
            enc.i(obs.len());
            for &col in obs {
                let c = col as usize;
                enc.u(col as u64);
                match self.wm.cell(row, c) {
                    Cell::Complete(v) => {
                        enc.b(false);
                        enc.f(v);
                    }
                    Cell::Censored(b) => {
                        enc.b(true);
                        enc.f(b);
                    }
                    Cell::Unobserved => unreachable!("indexed cell must be observed"),
                }
                enc.f(self.prior_weight(row, c));
                enc.u(match self.prior_kind(row, c) {
                    PriorKind::None => 0,
                    PriorKind::Value => 1,
                    PriorKind::Bound => 2,
                });
            }
        }
    }

    /// Rebuild a store from [`ObservationStore::save_state`] tokens. The
    /// matrix's derived structures (observed-column index, best cache,
    /// Fenwick rank index, counters) are pure functions of the cell values
    /// and are rebuilt through the normal mutation funnel.
    pub fn load_state(dec: &mut crate::persist::Dec<'_>) -> crate::persist::Result<Self> {
        use crate::persist::PersistError;
        let n = dec.i()?;
        let k = dec.i()?;
        n.checked_mul(k)
            .filter(|&c| c <= 1 << 30)
            .ok_or_else(|| PersistError::Corrupt("implausible store shape".into()))?;
        let shard_count = dec.i()?;
        if shard_count == 0 || shard_count > 1 << 20 {
            return Err(PersistError::Corrupt(format!("implausible shard count {shard_count}")));
        }
        let mut tenant_rows = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            tenant_rows.push(dec.i()?);
        }
        if tenant_rows.iter().sum::<usize>() != n {
            return Err(PersistError::Corrupt("shard row counts do not sum to n".into()));
        }
        let epoch = dec.u()? as u32;
        let rev = dec.u()?;
        let completion_epoch = dec.u()?;
        let mut wm = WorkloadMatrix::with_tenant_rows(&tenant_rows, k);
        let mut priors = HashMap::new();
        let mut fresh_complete = vec![0u32; n];
        let mut row_rev = vec![0u64; n];
        for row in 0..n {
            fresh_complete[row] = dec.u()? as u32;
            row_rev[row] = dec.u()?;
            let count = dec.i()?;
            if count > k {
                return Err(PersistError::Corrupt("row observation overflow".into()));
            }
            for _ in 0..count {
                let col = dec.i()?;
                if col >= k {
                    return Err(PersistError::Corrupt("column out of range".into()));
                }
                let censored = dec.b()?;
                let value = dec.f()?;
                if value.is_nan() || value < 0.0 {
                    return Err(PersistError::Corrupt("negative or NaN cell value".into()));
                }
                if censored {
                    wm.set_censored(row, col, value);
                } else {
                    wm.set_complete(row, col, value);
                }
                let weight = dec.f()?;
                let kind = match dec.u()? {
                    0 => PriorKind::None,
                    1 => PriorKind::Value,
                    2 => PriorKind::Bound,
                    t => return Err(PersistError::Corrupt(format!("bad prior kind {t}"))),
                };
                if weight > 0.0 && kind != PriorKind::None {
                    priors.insert((row as u32, col as u32), (weight, kind));
                }
            }
        }
        Ok(ObservationStore { wm, priors, fresh_complete, epoch, rev, row_rev, completion_epoch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_store() -> ObservationStore {
        let mut store = ObservationStore::with_defaults(&[10.0, 8.0], 4);
        store.record_complete(0, 1, 2.0);
        store.record_censored(0, 2, 5.0);
        store.record_complete(1, 3, 4.0);
        store
    }

    #[test]
    fn poisoned_observations_are_rejected_and_leave_no_trace() {
        let mut store = seeded_store();
        let rev = store.row_rev(0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = store.try_record_complete(0, 3, bad).unwrap_err();
            assert!(matches!(err, ObservationError::NotFinite { row: 0, col: 3, .. }), "{err}");
            let err = store.try_record_censored(0, 3, bad).unwrap_err();
            assert!(matches!(err, ObservationError::NotFinite { .. }), "{err}");
        }
        let err = store.try_record_complete(0, 3, -1.0).unwrap_err();
        assert!(matches!(err, ObservationError::Negative { row: 0, col: 3, .. }), "{err}");
        // Rejections are side-effect free: no cell written, no revision
        // bumped, no completion epoch advanced.
        assert_eq!(store.matrix().cell(0, 3), Cell::Unobserved);
        assert_eq!(store.row_rev(0), rev);
        // A clean value on the same cell still lands.
        store.try_record_complete(0, 3, 1.25).unwrap();
        assert_eq!(store.matrix().cell(0, 3), Cell::Complete(1.25));
    }

    #[test]
    fn nan_guard_returns_typed_error_where_unchecked_insert_panics() {
        // A NaN cell reaching the matrix would poison the censored-ALS
        // normal equations (the factors average observed entries), so the
        // matrix hard-asserts at insert. That assert is a daemon-killer:
        // a broken transport feeding one garbage latency would take the
        // whole service down. Regression contract: the unchecked path
        // still dies loudly, the checked path turns the same input into a
        // recoverable typed error the engine converts to a probe failure.
        let died = std::panic::catch_unwind(|| {
            let mut store = seeded_store();
            store.record_complete(0, 3, f64::NAN);
        });
        assert!(died.is_err(), "unchecked insert must reject NaN loudly");
        let mut store = seeded_store();
        let err = store.try_record_complete(0, 3, f64::NAN).unwrap_err();
        assert!(matches!(err, ObservationError::NotFinite { .. }), "{err}");
    }

    #[test]
    fn fresh_counts_track_completes_only() {
        let store = seeded_store();
        assert_eq!(store.fresh_complete_count(0), 2); // default + (0,1)
        assert_eq!(store.fresh_complete_count(1), 2); // default + (1,3)
        assert!((store.row_density(0) - 0.5).abs() < 1e-12);
        assert_eq!(store.prior_count(), 0);
    }

    #[test]
    fn recomplete_does_not_double_count() {
        let mut store = seeded_store();
        store.record_complete(0, 1, 1.5);
        assert_eq!(store.fresh_complete_count(0), 2);
    }

    #[test]
    fn demotion_converts_completes_to_censored_priors_at_decay() {
        let mut store = seeded_store();
        store.demote_to_priors(0.5);
        assert_eq!(store.epoch(), 1);
        // Stale complete 2.0 → censored prior at 0.5 * 2.0.
        assert_eq!(store.matrix().cell(0, 1), Cell::Censored(1.0));
        assert!(store.is_prior(0, 1));
        assert_eq!(store.prior_weight(0, 1), 0.5);
        // Stale censored bound 5.0 → prior at 0.5 * 5.0.
        assert_eq!(store.matrix().cell(0, 2), Cell::Censored(2.5));
        // Unobserved cells stay unobserved.
        assert_eq!(store.matrix().cell(1, 1), Cell::Unobserved);
        // No completes survive; fresh counts reset.
        assert_eq!(store.matrix().complete_count(), 0);
        assert_eq!(store.fresh_complete_count(0), 0);
    }

    #[test]
    fn demotion_tracks_prior_provenance() {
        let mut store = seeded_store();
        store.demote_to_priors(0.5);
        // (0,1) was a completed measurement → Value; (0,2) a censored
        // bound → Bound; unobserved cells stay None.
        assert_eq!(store.prior_kind(0, 1), PriorKind::Value);
        assert_eq!(store.prior_kind(0, 2), PriorKind::Bound);
        assert_eq!(store.prior_kind(1, 1), PriorKind::None);
    }

    #[test]
    fn priors_compound_across_shifts() {
        let mut store = seeded_store();
        store.demote_to_priors(0.5);
        store.demote_to_priors(0.5);
        assert_eq!(store.epoch(), 2);
        // 2.0 → 1.0 → 0.5; weight 0.5 → 0.25; Value provenance survives.
        assert_eq!(store.matrix().cell(0, 1), Cell::Censored(0.5));
        assert_eq!(store.prior_weight(0, 1), 0.25);
        assert_eq!(store.prior_kind(0, 1), PriorKind::Value);
        assert_eq!(store.prior_kind(0, 2), PriorKind::Bound);
    }

    #[test]
    fn fresh_probe_supersedes_prior() {
        let mut store = seeded_store();
        store.demote_to_priors(0.5);
        store.record_complete(0, 1, 3.0);
        assert!(!store.is_prior(0, 1));
        assert_eq!(store.prior_kind(0, 1), PriorKind::None);
        assert_eq!(store.fresh_complete_count(0), 1);
        // A censored probe that tightens the bound clears the flag too.
        store.record_censored(0, 2, 9.0);
        assert!(!store.is_prior(0, 2));
        assert_eq!(store.prior_kind(0, 2), PriorKind::None);
        assert_eq!(store.matrix().cell(0, 2), Cell::Censored(9.0));
    }

    #[test]
    fn looser_censored_probe_leaves_prior_flagged() {
        let mut store = seeded_store();
        store.demote_to_priors(0.5);
        // Prior at (0,2) has bound 2.5; a probe timing out at 1.0 does not
        // supersede it — the surviving 2.5 is still remembered hearsay.
        store.record_censored(0, 2, 1.0);
        assert_eq!(store.matrix().cell(0, 2), Cell::Censored(2.5));
        assert!(store.is_prior(0, 2));
        assert_eq!(store.prior_kind(0, 2), PriorKind::Bound);
    }

    #[test]
    fn discard_resized_shrinks_and_advances_epoch() {
        let mut store = seeded_store();
        store.discard_resized(1);
        assert_eq!(store.epoch(), 1, "a shrinking shift is still a shift");
        assert_eq!(store.matrix().n_rows(), 1);
        assert_eq!(store.fresh_complete_count(0), 0);
        store.record_complete(0, 0, 1.0);
        assert_eq!(store.fresh_complete_count(0), 1);
    }

    #[test]
    fn discard_resets_matrix_and_advances_epoch() {
        let mut store = seeded_store();
        store.discard_all();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.matrix().complete_count(), 0);
        assert_eq!(store.matrix().censored_count(), 0);
        assert_eq!(store.prior_count(), 0);
        assert_eq!(store.matrix().n_rows(), 2);
    }

    #[test]
    fn add_rows_extends_bookkeeping() {
        let mut store = seeded_store();
        store.add_rows(2);
        assert_eq!(store.matrix().n_rows(), 4);
        assert_eq!(store.fresh_complete_count(2), 0);
        store.record_complete(3, 0, 1.0);
        assert_eq!(store.fresh_complete_count(3), 1);
    }

    #[test]
    #[should_panic(expected = "prior decay must be in (0, 1]")]
    fn demotion_rejects_overclaiming_decay() {
        seeded_store().demote_to_priors(1.5);
    }

    #[test]
    fn row_revisions_track_observation_changes() {
        let mut store = seeded_store();
        let r0 = store.row_rev(0);
        let r1 = store.row_rev(1);
        // Probing row 0 bumps only row 0.
        store.record_complete(0, 3, 1.0);
        assert!(store.row_rev(0) > r0);
        assert_eq!(store.row_rev(1), r1);
        // A censored probe bumps too (the bound may have moved).
        let r0 = store.row_rev(0);
        store.record_censored(0, 2, 9.0);
        assert!(store.row_rev(0) > r0);
        // A shift demotion bumps every row, past all previous values.
        let before: Vec<u64> = (0..2).map(|r| store.row_rev(r)).collect();
        store.demote_to_priors(0.5);
        for (r, &b) in before.iter().enumerate() {
            assert!(store.row_rev(r) > b, "row {r} not bumped by demotion");
        }
        // Discards bump as well, and new rows arrive already stamped.
        let before = store.row_rev(0);
        store.discard_all();
        assert!(store.row_rev(0) > before);
        let newest = store.row_rev(0);
        store.add_rows(1);
        assert!(store.row_rev(2) > newest);
    }

    #[test]
    fn completion_epoch_tracks_every_fit_input_change() {
        let mut store = seeded_store();
        let e = store.completion_epoch();
        store.record_censored(0, 3, 1.0);
        assert_eq!(store.completion_epoch(), e + 1, "censored bounds feed the censored fit");
        store.record_complete(0, 3, 2.0);
        assert_eq!(store.completion_epoch(), e + 2);
        store.add_rows(1);
        assert_eq!(store.completion_epoch(), e + 2, "appended rows leave the epoch");
        store.demote_to_priors(0.5);
        assert_eq!(store.completion_epoch(), e + 3);
        store.discard_all();
        assert_eq!(store.completion_epoch(), e + 4);
    }

    #[test]
    fn demotion_preserves_shard_layout() {
        let mut store = ObservationStore::with_defaults_sharded(&[1.0; 7], 2, 3);
        let ranges = store.matrix().shard_ranges();
        store.demote_to_priors(0.5);
        assert_eq!(store.matrix().shard_ranges(), ranges);
        store.discard_resized(9);
        assert_eq!(store.matrix().n_shards(), 3);
        assert_eq!(store.matrix().n_rows(), 9);
    }

    #[test]
    fn sharded_store_roundtrips_layout_and_epochs() {
        let mut store = ObservationStore::with_defaults_sharded(&[1.0, 2.0, 3.0, 4.0, 5.0], 3, 2);
        store.record_censored(3, 1, 0.5);
        store.demote_to_priors(0.5);
        store.record_complete(0, 2, 1.0);
        let mut enc = crate::persist::Enc::new();
        store.save_state(&mut enc);
        let line = enc.finish();
        let mut dec = crate::persist::Dec::new(&line);
        let back = ObservationStore::load_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.matrix().shard_ranges(), store.matrix().shard_ranges());
        assert_eq!(back.completion_epoch(), store.completion_epoch());
        assert_eq!(back.epoch(), store.epoch());
        assert_eq!(back.prior_count(), store.prior_count());
        for r in 0..5 {
            assert_eq!(back.row_rev(r), store.row_rev(r));
            for c in 0..3 {
                assert_eq!(back.matrix().cell(r, c), store.matrix().cell(r, c));
                assert_eq!(back.prior_weight(r, c).to_bits(), store.prior_weight(r, c).to_bits());
                assert_eq!(back.prior_kind(r, c), store.prior_kind(r, c));
            }
        }
    }

    #[test]
    fn drift_policy_defaults_and_legacy() {
        let fix = DriftPolicy::default();
        assert!(fix.retain_priors && !fix.warm_start);
        assert!(fix.prior_decay > 0.0 && fix.density_gate > 0.0);
        let legacy = DriftPolicy::legacy();
        assert!(!legacy.retain_priors && !legacy.warm_start);
        assert_eq!(legacy.density_gate, 0.0);
        assert_eq!(legacy.cold_row_bonus, 0.0);
    }
}
