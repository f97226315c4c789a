//! The offline exploration harness (paper §3 "offline path" and §4.1).
//!
//! Time accounting follows Eq. 3 + Eq. 5: executing cell (i,j) with timeout
//! τ advances the offline clock by `min(true latency, τ)`; a timed-out cell
//! becomes *censored* at bound τ (see [`crate::engine::execute_probe`]).
//! The policy's own computation (matrix completion / TCNN training +
//! inference) is metered in wall-clock seconds — that is the "overhead" of
//! Figs. 7 and 13, kept separate from the simulated exploration clock
//! exactly as the paper separates them.
//!
//! The harness also implements the two dynamic events the paper studies:
//!
//! * **workload shift** (§5.3): [`Explorer::add_queries`] appends new rows;
//!   each new query's default plan is executed online (observed, but not
//!   charged to offline time),
//! * **data shift** (§5.4): [`Explorer::data_shift`] swaps the oracle for a
//!   new database state; the plan cache keeps each query's current best
//!   hint, whose latency (plus the default's) is re-observed on the new
//!   data online. What happens to every *other* observation is governed by
//!   [`ExploreConfig::retention`]: the legacy path discards them as stale,
//!   the drift-aware path demotes them to censored priors (see
//!   [`crate::store`]).

use crate::engine::{data_shift_observations, execute_probe, Action, Engine, Event};
use crate::matrix::WorkloadMatrix;
use crate::metrics::{Curve, CurvePoint};
use crate::policy::Policy;
use crate::store::{DriftPolicy, ObservationStore};
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;

/// Source of ground-truth latencies. Implementations: [`MatOracle`]
/// (matrix-backed; `limeqo-sim` produces these from its simulated DBMS).
pub trait Oracle {
    /// (queries, hints) shape.
    fn shape(&self) -> (usize, usize);

    /// True latency of cell (row, col) in seconds.
    fn true_latency(&self, row: usize, col: usize) -> f64;

    /// Optimizer-estimated plan cost per cell, if the DBMS exposes one.
    fn est_cost(&self) -> Option<&Mat> {
        None
    }
}

/// Matrix-backed oracle.
#[derive(Debug, Clone)]
pub struct MatOracle {
    latency: Mat,
    est_cost: Option<Mat>,
}

impl MatOracle {
    /// Create from a true-latency matrix and optional planner costs.
    pub fn new(latency: Mat, est_cost: Option<Mat>) -> Self {
        if let Some(e) = &est_cost {
            assert_eq!(e.shape(), latency.shape(), "est_cost shape mismatch");
        }
        MatOracle { latency, est_cost }
    }

    /// The underlying latency matrix.
    pub fn latency(&self) -> &Mat {
        &self.latency
    }

    /// Per-row optimal hint latency summed — the "Optimal" of Table 1.
    pub fn optimal_total(&self) -> f64 {
        (0..self.latency.rows())
            .map(|i| self.latency.row_min(i).map(|(_, v)| v).unwrap_or(0.0))
            .sum()
    }

    /// Default-hint (column 0) total — the "Default" of Table 1.
    pub fn default_total(&self) -> f64 {
        (0..self.latency.rows()).map(|i| self.latency[(i, 0)]).sum()
    }
}

impl Oracle for MatOracle {
    fn shape(&self) -> (usize, usize) {
        self.latency.shape()
    }

    fn true_latency(&self, row: usize, col: usize) -> f64 {
        self.latency[(row, col)]
    }

    fn est_cost(&self) -> Option<&Mat> {
        self.est_cost.as_ref()
    }
}

/// One offline cell execution, in the order the harness performed it.
/// The full `Vec<TraceEntry>` is a run's *exploration trace*: two runs are
/// behaviourally identical iff their traces are identical, which is what
/// the seed-determinism tests compare byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Query (row) executed.
    pub row: usize,
    /// Hint (column) executed.
    pub col: usize,
    /// Seconds charged to the offline clock: `min(true latency, timeout)`.
    pub charged: f64,
    /// Whether the probe hit its timeout (cell recorded as censored).
    pub censored: bool,
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Batch size m: cells executed per exploration step.
    pub batch: usize,
    /// RNG seed for policy randomness.
    pub seed: u64,
    /// Stop after this many steps even if budget remains (safety valve).
    pub max_steps: usize,
    /// What [`Explorer::data_shift`] does with stale observations. Defaults
    /// to [`DriftPolicy::legacy`] (discard) so existing harness users keep
    /// the paper's §5.4 semantics; the scenario runner threads the policy's
    /// own knobs in here.
    pub retention: DriftPolicy,
    /// Shard count for the workload matrix (1 = the unsharded layout).
    /// A pure storage knob: every run is bit-identical at any value (the
    /// sharded-equivalence contract — see ARCHITECTURE.md), sharding only
    /// changes which per-shard indexes store the matrix.
    pub shards: usize,
    /// Bounded-retry policy for probes that fail at the transport level
    /// ([`Event::ProbeFailed`]). A no-op while no probe ever fails, so the
    /// default changes nothing fault-free.
    pub retry: crate::engine::RetryPolicy,
    /// Probability that the harness *injects* a transport failure for an
    /// issued probe (chaos knob; 0 = off). At 0 the fault RNG is never
    /// drawn, so fault-free runs are bit-identical to builds without the
    /// knob.
    pub probe_fail_rate: f64,
    /// Seed component for the injected-fault stream (kept separate from
    /// `seed` so fault placement can vary against a fixed policy stream).
    pub probe_fail_seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            batch: 16,
            seed: 0,
            max_steps: 100_000,
            retention: DriftPolicy::legacy(),
            shards: 1,
            retry: crate::engine::RetryPolicy::default(),
            probe_fail_rate: 0.0,
            probe_fail_seed: 0,
        }
    }
}

/// The exploration harness: drives a [`Policy`] against an [`Oracle`],
/// maintaining the observation store (workload matrix + drift metadata),
/// the simulated offline clock, and the latency-vs-time curve.
///
/// ```
/// use limeqo_core::explore::{ExploreConfig, Explorer, MatOracle};
/// use limeqo_core::policy::RandomPolicy;
/// use limeqo_linalg::Mat;
///
/// // Two queries × three hints; column 0 is the (slow) default plan.
/// let latency = Mat::from_rows(&[&[10.0, 2.0, 4.0], &[8.0, 6.0, 1.0]]);
/// let oracle = MatOracle::new(latency, None);
/// let mut ex = Explorer::new(&oracle, Box::new(RandomPolicy), ExploreConfig::default(), 2);
/// assert_eq!(ex.workload_latency(), oracle.default_total()); // defaults pre-observed
///
/// ex.run_until(1e9); // explore until nothing is left
/// assert_eq!(ex.workload_latency(), oracle.optimal_total());
/// assert!(ex.time_spent() > 0.0, "offline probes are charged to the clock");
/// ```
///
/// Since the engine refactor this is a thin driver over
/// [`crate::engine::Engine`]: the explorer owns the oracle reference and
/// the latency-vs-time curve (both environmental), feeds the engine
/// `Tick`/`Observation`/`AddQueries`/`DataShift` events in the legacy
/// fixed order, and executes its probe directives against the oracle. The
/// event trajectory is pinned byte-identical to the old in-place loop.
pub struct Explorer<'a> {
    oracle: &'a dyn Oracle,
    /// Number of oracle rows currently active (workload shift exposes the
    /// oracle's rows incrementally).
    active_rows: usize,
    engine: Engine<'a>,
    curve: Curve,
    /// Injected probe-failure probability (chaos knob; 0 = off).
    probe_fail_rate: f64,
    /// Dedicated stream for fault placement; never drawn at rate 0.
    fault_rng: SeededRng,
    /// [`ExploreConfig::max_steps`]: the most rounds one
    /// [`Explorer::run_until`] call probes.
    max_steps: usize,
}

impl<'a> Explorer<'a> {
    /// Start exploration over the first `initial_rows` oracle rows (pass
    /// the full row count for a static workload). The default column is
    /// observed up front, uncharged: repetitive workloads have already run
    /// every query's default plan in production.
    pub fn new(
        oracle: &'a dyn Oracle,
        policy: Box<dyn Policy + 'a>,
        cfg: ExploreConfig,
        initial_rows: usize,
    ) -> Self {
        let (n, k) = oracle.shape();
        assert!(initial_rows >= 1 && initial_rows <= n, "initial rows out of range");
        let defaults: Vec<f64> = (0..initial_rows)
            .map(|i| oracle.true_latency(i, WorkloadMatrix::DEFAULT_HINT))
            .collect();
        let store = ObservationStore::with_defaults_sharded(&defaults, k, cfg.shards);
        let name = policy.name().to_string();
        let (probe_fail_rate, max_steps) = (cfg.probe_fail_rate, cfg.max_steps);
        // Fault placement draws from its own stream, never the policy's.
        let fault_rng =
            SeededRng::new(cfg.seed ^ cfg.probe_fail_seed.rotate_left(17) ^ 0xFA17_1CED);
        let engine = Engine::offline(store, policy, oracle.est_cost(), &cfg);
        let mut explorer = Explorer {
            oracle,
            active_rows: initial_rows,
            engine,
            curve: Curve::new(name),
            probe_fail_rate,
            fault_rng,
            max_steps,
        };
        explorer.record_point();
        explorer
    }

    /// The current partially observed workload matrix (owned by the
    /// observation store).
    pub fn wm(&self) -> &WorkloadMatrix {
        self.engine.wm()
    }

    /// The adaptive observation layer: matrix plus per-row freshness and
    /// prior bookkeeping.
    pub fn store(&self) -> &ObservationStore {
        self.engine.store()
    }

    /// Simulated offline exploration seconds spent (Eq. 3).
    pub fn time_spent(&self) -> f64 {
        self.engine.time_spent()
    }

    /// Wall-clock model overhead seconds (Figs. 7/13).
    pub fn overhead(&self) -> f64 {
        self.engine.overhead()
    }

    /// Cells executed so far (complete + censored executions).
    pub fn cells_executed(&self) -> usize {
        self.engine.cells_executed()
    }

    /// Every offline execution in order — the run's exploration trace.
    pub fn trace(&self) -> &[TraceEntry] {
        self.engine.trace()
    }

    /// The wrapped event-driven engine.
    pub fn engine(&self) -> &Engine<'a> {
        &self.engine
    }

    /// The workload latency metric the paper plots: the *actual* total
    /// latency of the workload when every query runs its currently best
    /// *verified* hint, evaluated against the current oracle. Before any
    /// data shift this equals `P(W̃)` (Eq. 2) exactly; after a shift,
    /// cached selections are re-priced on the new data (stale choices cost
    /// their new true latency), which is what Fig. 11 measures.
    pub fn workload_latency(&self) -> f64 {
        let wm = self.engine.wm();
        (0..wm.n_rows())
            .filter_map(|i| wm.row_best(i).map(|(col, _)| self.oracle.true_latency(i, col)))
            .sum()
    }

    /// One exploration step: a `Tick` event asks the policy for a batch
    /// (overhead-metered inside the engine), each probe directive is
    /// executed against the oracle and fed back as an `Observation`
    /// (charged to the simulated clock), then a curve point is recorded.
    /// Returns `false` when the policy has nothing left to explore.
    pub fn step(&mut self) -> bool {
        // Note: a matrix with no unobserved cells can still be worth
        // exploring — censored cells may hide better plans behind grown
        // timeouts (Algorithm 1 keeps re-probing them). The policy signals
        // completion by returning an empty selection.
        let actions = self.engine.step(Event::Tick);
        if actions.is_empty() {
            // Probes may still be waiting out a retry backoff: idle-tick
            // through the (bounded) horizon rather than declaring the run
            // complete. `max_steps` remains the safety valve.
            return self.engine.retry_pending() > 0;
        }
        for action in actions {
            let Action::Probe { row, col, timeout } = action else { continue };
            debug_assert!(row < self.active_rows);
            // Chaos knob: fail this probe at the transport level instead
            // of executing it. The rate-0 guard keeps the fault stream
            // un-drawn on fault-free runs (bit-identical goldens).
            if self.probe_fail_rate > 0.0 && self.fault_rng.chance(self.probe_fail_rate) {
                self.engine.step(Event::ProbeFailed { row, col });
                continue;
            }
            let truth = self.oracle.true_latency(row, col);
            self.engine.step(execute_probe(row, col, timeout, truth));
        }
        self.record_point();
        true
    }

    /// Explore until the simulated offline clock reaches `time_budget`
    /// seconds (or nothing is left / `max_steps` hit).
    pub fn run_until(&mut self, time_budget: f64) {
        for _ in 0..self.max_steps {
            if self.time_spent() >= time_budget || !self.step() {
                break;
            }
        }
    }

    /// Workload shift (§5.3): activate `count` more oracle rows. Each new
    /// query's default plan is observed online (uncharged).
    pub fn add_queries(&mut self, count: usize) {
        let (n, _) = self.oracle.shape();
        let new_active = (self.active_rows + count).min(n);
        let defaults: Vec<f64> = (self.active_rows..new_active)
            .map(|i| self.oracle.true_latency(i, WorkloadMatrix::DEFAULT_HINT))
            .collect();
        self.engine.step(Event::AddQueries { defaults });
        self.active_rows = new_active;
        self.record_point();
    }

    /// Data shift (§5.4): swap in a new oracle (same shape). The plan
    /// cache keeps each row's current best hint; that hint and the default
    /// are re-observed online against the new data. Every other cell's
    /// fate follows [`ExploreConfig::retention`]:
    ///
    /// * **legacy** (`retain_priors` off): reset to unobserved — stale
    ///   measurements are discarded, the paper's behavior;
    /// * **drift-aware** (`retain_priors` on): demoted to censored priors
    ///   at `prior_decay ×` their stale value, keeping the low-rank
    ///   structure as soft lower-bound anchors for the censored completer
    ///   (see [`ObservationStore::demote_to_priors`]).
    pub fn data_shift(&mut self, new_oracle: &'a dyn Oracle) {
        assert_eq!(
            new_oracle.shape().1,
            self.oracle.shape().1,
            "hint space must be unchanged across a data shift"
        );
        let wm = self.engine.wm();
        let n = wm.n_rows().min(new_oracle.shape().0);
        // Measure the online re-observations (default + cached best per
        // row, legacy order) against the new data before the store moves.
        let observations = data_shift_observations(wm, n, |r, c| new_oracle.true_latency(r, c));
        self.oracle = new_oracle;
        self.engine.set_est_cost(new_oracle.est_cost());
        self.engine.step(Event::DataShift { new_rows: n, observations });
        self.active_rows = n;
        self.record_point();
    }

    /// The recorded latency-vs-exploration-time curve.
    pub fn curve(&self) -> &Curve {
        &self.curve
    }

    /// Consume the explorer, returning its curve.
    pub fn into_curve(self) -> Curve {
        self.curve
    }

    fn record_point(&mut self) {
        let point = CurvePoint {
            time: self.engine.time_spent(),
            latency: self.workload_latency(),
            overhead: self.engine.overhead(),
            explored: self.engine.cells_executed(),
            censored: self.engine.wm().censored_count(),
        };
        self.curve.push(point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyPolicy, LimeQoPolicy, RandomPolicy};

    /// A small synthetic oracle: low-rank latencies, default column worst.
    fn toy_oracle(n: usize, k: usize, seed: u64) -> MatOracle {
        let mut rng = SeededRng::new(seed);
        let q = rng.uniform_mat(n, 3, 0.5, 2.0);
        let h = rng.uniform_mat(k, 3, 0.2, 1.5);
        let mut lat = q.matmul_t(&h).unwrap();
        // Make column 0 the default and generally slow.
        for i in 0..n {
            lat[(i, 0)] = lat[(i, 0)] * 3.0 + 1.0;
        }
        MatOracle::new(lat, None)
    }

    #[test]
    fn defaults_observed_at_start_uncharged() {
        let oracle = toy_oracle(10, 6, 40);
        let ex = Explorer::new(&oracle, Box::new(RandomPolicy), ExploreConfig::default(), 10);
        assert_eq!(ex.time_spent(), 0.0);
        assert_eq!(ex.wm().complete_count(), 10);
        assert!((ex.workload_latency() - oracle.default_total()).abs() < 1e-9);
    }

    #[test]
    fn cached_ranking_is_the_paper_ranking_in_a_fault_free_run() {
        // Every synchronous round lands at least one observation, which
        // bumps the completion epoch and empties the score cache, so the
        // cached ranking (with a periodic full re-score on top) never
        // reuses a score and traces exactly as the paper-exact one does.
        let oracle = toy_oracle(24, 8, 44);
        let trace = |cached: bool| {
            let mut policy = LimeQoPolicy::with_als(5);
            policy.rescore_changed_only = cached;
            policy.rescore_every = if cached { 2 } else { 0 };
            let cfg = ExploreConfig { batch: 2, seed: 6, ..Default::default() };
            let mut ex = Explorer::new(&oracle, Box::new(policy), cfg, 24);
            ex.run_until(oracle.default_total());
            ex.trace()
                .iter()
                .map(|t| (t.row, t.col, t.charged.to_bits(), t.censored))
                .collect::<Vec<_>>()
        };
        let paper = trace(false);
        assert!(paper.len() > 20, "the run must span many rounds, got {}", paper.len());
        assert_eq!(trace(true), paper);
    }

    #[test]
    fn latency_never_regresses_without_shift() {
        // The no-regressions guarantee: P is monotone non-increasing.
        let oracle = toy_oracle(15, 8, 41);
        let mut ex = Explorer::new(
            &oracle,
            Box::new(RandomPolicy),
            ExploreConfig { batch: 4, seed: 1, ..Default::default() },
            15,
        );
        ex.run_until(1e9);
        let lats: Vec<f64> = ex.curve().points.iter().map(|p| p.latency).collect();
        for w in lats.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "latency regressed: {w:?}");
        }
    }

    #[test]
    fn full_exploration_reaches_optimal() {
        let oracle = toy_oracle(12, 5, 42);
        let mut ex = Explorer::new(
            &oracle,
            Box::new(RandomPolicy),
            ExploreConfig { batch: 8, seed: 2, ..Default::default() },
            12,
        );
        ex.run_until(1e9);
        // With row-best timeouts, every cell is either completed or
        // censored above the row optimum — so P must reach the oracle
        // optimum.
        assert!(
            (ex.workload_latency() - oracle.optimal_total()).abs() < 1e-9,
            "got {} want {}",
            ex.workload_latency(),
            oracle.optimal_total()
        );
    }

    #[test]
    fn time_charged_is_bounded_by_timeout() {
        let oracle = toy_oracle(10, 6, 43);
        let mut ex = Explorer::new(
            &oracle,
            Box::new(GreedyPolicy),
            ExploreConfig { batch: 2, seed: 3, ..Default::default() },
            10,
        );
        // Upper bound: every executed cell costs at most its row default.
        ex.run_until(5.0);
        let max_cell: f64 = (0..10).map(|i| oracle.true_latency(i, 0)).fold(0.0, f64::max);
        assert!(ex.time_spent() <= 5.0 + 2.0 * max_cell, "overshoot too large");
    }

    #[test]
    fn timeouts_produce_censored_cells() {
        let oracle = toy_oracle(20, 8, 44);
        let mut ex = Explorer::new(
            &oracle,
            Box::new(RandomPolicy),
            ExploreConfig { batch: 8, seed: 4, ..Default::default() },
            20,
        );
        ex.run_until(1e9);
        // Plans slower than the row best must have been censored.
        assert!(ex.wm().censored_count() > 0, "expected some censored cells");
    }

    #[test]
    fn limeqo_policy_runs_and_converges() {
        let oracle = toy_oracle(20, 8, 45);
        let mut ex = Explorer::new(
            &oracle,
            Box::new(LimeQoPolicy::with_als(5)),
            ExploreConfig { batch: 4, seed: 5, ..Default::default() },
            20,
        );
        ex.run_until(1e9);
        assert!(ex.workload_latency() <= oracle.default_total());
        assert!(ex.overhead() > 0.0, "ALS overhead must be metered");
    }

    #[test]
    fn add_queries_appends_rows_with_defaults() {
        let oracle = toy_oracle(10, 6, 46);
        let mut ex = Explorer::new(
            &oracle,
            Box::new(RandomPolicy),
            ExploreConfig { batch: 2, seed: 6, ..Default::default() },
            7,
        );
        let before = ex.workload_latency();
        ex.add_queries(3);
        assert_eq!(ex.wm().n_rows(), 10);
        assert!(ex.workload_latency() > before, "new defaults add latency");
        assert_eq!(ex.time_spent(), 0.0, "online defaults are not charged");
    }

    #[test]
    fn data_shift_keeps_best_hint_and_resets_rest() {
        let oracle_a = toy_oracle(10, 6, 47);
        let oracle_b = toy_oracle(10, 6, 48);
        let mut ex = Explorer::new(
            &oracle_a,
            Box::new(RandomPolicy),
            ExploreConfig { batch: 8, seed: 7, ..Default::default() },
            10,
        );
        ex.run_until(1e9);
        let best_before: Vec<Option<usize>> =
            (0..10).map(|i| ex.wm().row_best(i).map(|(c, _)| c)).collect();
        ex.data_shift(&oracle_b);
        // Matrix now holds ≤ 2 completes per row (default + cached best).
        for i in 0..10 {
            let completes = (0..6)
                .filter(|&c| matches!(ex.wm().cell(i, c), crate::matrix::Cell::Complete(_)))
                .count();
            assert!(completes <= 2, "row {i} kept {completes} cells");
            // Cached best hint present with new-data value.
            if let Some(Some(b)) = best_before.get(i) {
                if let crate::matrix::Cell::Complete(v) = ex.wm().cell(i, *b) {
                    assert_eq!(v, oracle_b.true_latency(i, *b));
                }
            }
        }
        // Workload latency is priced on the new oracle.
        let p: f64 = ex.workload_latency();
        assert!(p > 0.0);
    }

    #[test]
    fn data_shift_with_retention_demotes_to_priors() {
        use crate::store::{DriftPolicy, PriorKind};
        let oracle_a = toy_oracle(10, 6, 50);
        let oracle_b = toy_oracle(10, 6, 51);
        let retention = DriftPolicy { prior_decay: 0.5, ..DriftPolicy::default() };
        let mut ex = Explorer::new(
            &oracle_a,
            Box::new(RandomPolicy),
            ExploreConfig { batch: 8, seed: 9, retention, ..Default::default() },
            10,
        );
        ex.run_until(1e9);
        let wm_before = ex.wm().clone();
        let completes_before: Vec<(usize, usize, f64)> = (0..10)
            .flat_map(|i| {
                let wm = &wm_before;
                (0..6).filter_map(move |c| match wm.cell(i, c) {
                    crate::matrix::Cell::Complete(v) => Some((i, c, v)),
                    _ => None,
                })
            })
            .collect();
        let best_before: Vec<Option<usize>> =
            (0..10).map(|i| wm_before.row_best(i).map(|(c, _)| c)).collect();
        ex.data_shift(&oracle_b);
        assert_eq!(ex.store().epoch(), 1);
        assert!(ex.store().prior_count() > 0, "stale observations must survive as priors");
        for (i, c, v) in completes_before {
            let freshly_reobserved =
                c == 0 || best_before[i] == Some(c) && c != WorkloadMatrix::DEFAULT_HINT;
            if freshly_reobserved {
                continue;
            }
            // Demoted: censored prior at the documented decay weight.
            assert_eq!(
                ex.wm().cell(i, c),
                crate::matrix::Cell::Censored(0.5 * v),
                "cell ({i},{c}) not demoted at prior_decay x stale value"
            );
            assert_eq!(ex.store().prior_kind(i, c), PriorKind::Value);
            assert_eq!(ex.store().prior_weight(i, c), 0.5);
        }
        // The online path still re-observes default + cached best fresh.
        for i in 0..10 {
            assert_eq!(
                ex.wm().cell(i, 0),
                crate::matrix::Cell::Complete(oracle_b.true_latency(i, 0))
            );
        }
    }

    #[test]
    fn shard_count_never_moves_a_run() {
        // The sharded-equivalence contract at the harness level: identical
        // trace (cells, charges, censor flags), clock, and curve at every
        // shard count, for a policy that exercises completion + selection.
        let oracle = toy_oracle(24, 7, 60);
        let run = |shards: usize| {
            let mut ex = Explorer::new(
                &oracle,
                Box::new(LimeQoPolicy::with_als(3)),
                ExploreConfig { batch: 4, seed: 11, shards, ..Default::default() },
                24,
            );
            ex.run_until(1e9);
            let trace: Vec<(usize, usize, u64, bool)> = ex
                .trace()
                .iter()
                .map(|t| (t.row, t.col, t.charged.to_bits(), t.censored))
                .collect();
            let curve: Vec<(u64, u64)> =
                ex.curve().points.iter().map(|p| (p.time.to_bits(), p.latency.to_bits())).collect();
            (trace, ex.time_spent().to_bits(), ex.cells_executed(), curve)
        };
        let reference = run(1);
        for shards in [2usize, 8] {
            assert_eq!(run(shards), reference, "shards={shards} diverged from unsharded run");
        }
    }

    #[test]
    fn fault_free_runs_ignore_the_retry_knobs() {
        // Bit-identity discipline for the fault axis: with no injected
        // failures the retry machinery must be fully inert — no RNG
        // draws, no action reordering — whatever the retry policy says.
        // This is what keeps every pre-fault golden in place.
        let oracle = toy_oracle(24, 7, 60);
        let run = |retry: crate::engine::RetryPolicy, probe_fail_seed: u64| {
            let cfg =
                ExploreConfig { batch: 4, seed: 11, retry, probe_fail_seed, ..Default::default() };
            let mut ex = Explorer::new(&oracle, Box::new(LimeQoPolicy::with_als(3)), cfg, 24);
            ex.run_until(1e9);
            let trace: Vec<(usize, usize, u64, bool)> = ex
                .trace()
                .iter()
                .map(|t| (t.row, t.col, t.charged.to_bits(), t.censored))
                .collect();
            (trace, ex.time_spent().to_bits(), ex.cells_executed())
        };
        let reference = run(crate::engine::RetryPolicy::default(), 0);
        // Different retry budget, different backoff, different fault seed
        // (rate stays 0): all bit-identical.
        let knobs = crate::engine::RetryPolicy { max_retries: 9, backoff_base: 7 };
        assert_eq!(run(knobs, 0xDEAD_BEEF), reference);
    }

    #[test]
    fn injected_probe_failures_still_converge() {
        // Chaos at the transport level: a double-digit failure rate slows
        // exploration (retries burn ticks) but must neither panic nor
        // wedge the run — and the same (seed, fault seed) pair replays
        // the exact same degraded trajectory.
        let oracle = toy_oracle(24, 7, 60);
        let run = || {
            let cfg = ExploreConfig {
                batch: 4,
                seed: 11,
                probe_fail_rate: 0.2,
                probe_fail_seed: 5,
                ..Default::default()
            };
            let mut ex = Explorer::new(&oracle, Box::new(LimeQoPolicy::with_als(3)), cfg, 24);
            ex.run_until(1e9);
            let trace: Vec<(usize, usize, u64, bool)> = ex
                .trace()
                .iter()
                .map(|t| (t.row, t.col, t.charged.to_bits(), t.censored))
                .collect();
            (trace, ex.engine().probe_failures(), ex.engine().probe_retries())
        };
        let (trace, failures, retries) = run();
        assert!(failures > 0, "a 20% rate over a full run must fire");
        assert!(retries > 0, "failed probes must be re-issued");
        assert!(!trace.is_empty(), "the run still explores");
        assert_eq!(run(), (trace, failures, retries), "fault injection must be replayable");
    }

    #[test]
    fn curve_records_monotone_time() {
        let oracle = toy_oracle(10, 6, 49);
        let mut ex = Explorer::new(
            &oracle,
            Box::new(RandomPolicy),
            ExploreConfig { batch: 3, seed: 8, ..Default::default() },
            10,
        );
        ex.run_until(2.0);
        let times: Vec<f64> = ex.curve().points.iter().map(|p| p.time).collect();
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
