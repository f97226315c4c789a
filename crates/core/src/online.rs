//! Online exploration over the hint space — the paper's §6 future-work
//! item ("investigate techniques for online exploration over the space of
//! hints and plans leveraging the low-rank structure, complementing the
//! offline exploration of our current approach").
//!
//! Instead of a dedicated offline window, queries are optimized *as they
//! arrive*: each arrival normally serves its best verified hint, but with
//! a small probability the system gambles on the completed matrix's best
//! predicted unverified hint — guarded by a bounded-regression timeout
//! `ρ × current best` so a wrong gamble costs at most a ρ−1 fraction of
//! the incumbent latency, after which the plan is cancelled, the incumbent
//! re-run, and the cell recorded as censored. This keeps a hard per-query
//! regression bound of `ρ×` (configurable, e.g. 1.2 = at most 20 % worse
//! than the verified plan on an exploring arrival) while steadily filling
//! the workload matrix for free.

use crate::complete::Completer;
use crate::engine::{execute_probe, Action, Engine, Event};
use crate::explore::Oracle;
use crate::matrix::WorkloadMatrix;
use crate::store::ObservationStore;

/// Configuration of the online explorer.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Probability that an arrival explores instead of serving the
    /// incumbent.
    pub explore_prob: f64,
    /// Bounded-regression factor ρ: an exploring arrival may spend at most
    /// `ρ × incumbent` before being cancelled (then the incumbent runs).
    pub rho: f64,
    /// Re-complete the matrix every this many arrivals (model refresh).
    pub refresh_every: usize,
    /// Cold-row exploration bonus weight. Under skewed (Zipf) arrivals,
    /// cold rows arrive so rarely that a flat `explore_prob` leaves them
    /// stuck on their default plan; with the bonus, query `q` explores
    /// with probability `min(1, explore_prob + cold_bonus / √(observed
    /// cells in q's row))` — rare arrivals of cold rows are spent on
    /// exploration, and the boost anneals away as the row fills in.
    /// 0 disables the bonus (the flat legacy behavior).
    pub cold_bonus: f64,
    /// RNG seed.
    pub seed: u64,
    /// Workload-matrix shard count (1 = the unsharded layout). A pure
    /// storage knob — any value serves bit-identical arrivals (the
    /// sharded equivalence contract).
    pub shards: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            explore_prob: 0.1,
            rho: 1.2,
            refresh_every: 64,
            cold_bonus: 0.0,
            seed: 0,
            shards: 1,
        }
    }
}

/// Outcome statistics of an online run.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    /// Arrivals served.
    pub arrivals: usize,
    /// Arrivals that explored an unverified hint.
    pub explored: usize,
    /// Explorations that found a faster verified plan.
    pub wins: usize,
    /// Explorations cancelled at the ρ-timeout (bounded regression paid).
    pub cancelled: usize,
    /// Total latency actually experienced by arrivals (including gamble
    /// overheads and incumbent re-runs after cancellations).
    pub total_latency: f64,
    /// Total latency if every arrival had served the default plan.
    pub default_latency: f64,
    /// Total latency if every arrival had served its current incumbent
    /// (pure exploitation).
    pub incumbent_latency: f64,
}

/// Online explorer: serves arrivals, gambles occasionally, learns always.
///
/// Since the engine refactor this is a thin driver over
/// [`crate::engine::Engine`]: each [`OnlineExplorer::serve`] feeds an
/// `Arrival` event, executes any gamble probe directive against the oracle
/// under its ρ-bounded timeout, and reports the result back as an
/// `Observation`. The event trajectory — RNG draws, refresh cadence,
/// matrix updates, statistics — is pinned byte-identical to the old
/// in-place loop.
pub struct OnlineExplorer<'a> {
    oracle: &'a dyn Oracle,
    engine: Engine<'a>,
}

impl<'a> OnlineExplorer<'a> {
    /// Create an online explorer; the default column is observed up front
    /// (it has been served before).
    pub fn new(
        oracle: &'a dyn Oracle,
        completer: Box<dyn Completer + Send>,
        cfg: OnlineConfig,
    ) -> Self {
        let (n, k) = oracle.shape();
        let defaults: Vec<f64> =
            (0..n).map(|i| oracle.true_latency(i, WorkloadMatrix::DEFAULT_HINT)).collect();
        let store = ObservationStore::with_defaults_sharded(&defaults, k, cfg.shards);
        OnlineExplorer { oracle, engine: Engine::online(store, completer, &cfg) }
    }

    /// The growing workload matrix (shared shape with the oracle).
    pub fn wm(&self) -> &WorkloadMatrix {
        self.engine.wm()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &OnlineStats {
        self.engine.stats()
    }

    /// The wrapped event-driven engine.
    pub fn engine(&self) -> &Engine<'a> {
        &self.engine
    }

    /// Serve one arrival of query `row`; returns the latency the user
    /// experienced.
    pub fn serve(&mut self, row: usize) -> f64 {
        let actions = self.engine.step(Event::Arrival { row });
        let mut experienced = None;
        for action in actions {
            match action {
                Action::Probe { row, col, timeout } => {
                    // Execute the gamble under the ρ-bounded budget.
                    let truth = self.oracle.true_latency(row, col);
                    let follow = self.engine.step(execute_probe(row, col, timeout, truth));
                    for f in follow {
                        if let Action::Recommend { latency, .. } = f {
                            experienced = Some(latency);
                        }
                    }
                }
                Action::Recommend { latency, .. } => experienced = Some(latency),
            }
        }
        experienced.expect("an arrival always resolves to a recommendation")
    }

    /// Serve a whole arrival trace.
    pub fn serve_trace(&mut self, rows: &[usize]) {
        for &r in rows {
            self.serve(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::AlsCompleter;
    use crate::explore::MatOracle;
    use limeqo_linalg::rng::SeededRng;

    fn oracle(n: usize, k: usize, seed: u64) -> MatOracle {
        let mut rng = SeededRng::new(seed);
        let q = rng.uniform_mat(n, 3, 0.5, 2.0);
        let h = rng.uniform_mat(k, 3, 0.2, 1.5);
        let mut lat = q.matmul_t(&h).unwrap();
        for i in 0..n {
            lat[(i, 0)] = lat[(i, 0)] * 2.5 + 0.5;
        }
        MatOracle::new(lat, None)
    }

    fn run(explore_prob: f64, arrivals: usize, seed: u64) -> OnlineStats {
        let o = oracle(30, 10, seed);
        let cfg = OnlineConfig { explore_prob, seed, ..Default::default() };
        let mut ex = OnlineExplorer::new(&o, Box::new(AlsCompleter::paper_default(seed)), cfg);
        let mut rng = SeededRng::new(seed ^ 77);
        let trace: Vec<usize> = (0..arrivals).map(|_| rng.index(30)).collect();
        ex.serve_trace(&trace);
        ex.stats().clone()
    }

    #[test]
    fn pure_exploitation_equals_incumbents() {
        let s = run(0.0, 500, 1);
        assert_eq!(s.explored, 0);
        assert!((s.total_latency - s.incumbent_latency).abs() < 1e-9);
        // Without exploration, incumbents stay at the default.
        assert!((s.total_latency - s.default_latency).abs() < 1e-9);
    }

    #[test]
    fn exploration_beats_default_over_time() {
        let s = run(0.15, 3000, 2);
        assert!(s.explored > 0);
        assert!(
            s.total_latency < s.default_latency,
            "online exploration should pay for itself: {} vs {}",
            s.total_latency,
            s.default_latency
        );
    }

    #[test]
    fn per_arrival_regression_bounded_by_rho() {
        // Every arrival's experienced latency is at most
        // rho * incumbent + incumbent (cancelled gamble + rerun).
        let o = oracle(20, 8, 3);
        let cfg = OnlineConfig { explore_prob: 1.0, rho: 1.2, seed: 4, ..Default::default() };
        let mut ex = OnlineExplorer::new(&o, Box::new(AlsCompleter::paper_default(5)), cfg);
        for arrival in 0..500 {
            let row = arrival % 20;
            let incumbent = ex.wm().row_best(row).unwrap().1;
            let experienced = ex.serve(row);
            assert!(
                experienced <= 1.2 * incumbent + incumbent + 1e-9,
                "arrival {arrival}: {experienced} vs bound {}",
                2.2 * incumbent
            );
        }
        assert!(ex.stats().cancelled + ex.stats().wins > 0);
    }

    #[test]
    fn cold_bonus_explores_cold_rows_harder() {
        // Zipf-like trace: rows 0-2 hot, the rest arrive once in a while.
        let o = oracle(20, 10, 11);
        let trace: Vec<usize> =
            (0..2000).map(|i| if i % 10 < 7 { i % 3 } else { 3 + i % 17 }).collect();
        let run = |cold_bonus: f64| {
            let cfg =
                OnlineConfig { explore_prob: 0.1, cold_bonus, seed: 12, ..Default::default() };
            let mut ex = OnlineExplorer::new(&o, Box::new(AlsCompleter::paper_default(13)), cfg);
            ex.serve_trace(&trace);
            // How many cold rows (3..20) found a better-than-default plan.
            (3..20).filter(|&r| ex.wm().row_best(r).is_some_and(|(c, _)| c != 0)).count()
        };
        let flat = run(0.0);
        let boosted = run(0.8);
        assert!(
            boosted > flat,
            "cold bonus should improve more cold rows: flat {flat}, boosted {boosted}"
        );
    }

    #[test]
    fn matrix_fills_up_as_a_side_effect() {
        let o = oracle(15, 8, 6);
        let cfg = OnlineConfig { explore_prob: 0.5, seed: 7, ..Default::default() };
        let mut ex = OnlineExplorer::new(&o, Box::new(AlsCompleter::paper_default(8)), cfg);
        let before = ex.wm().complete_count() + ex.wm().censored_count();
        let mut rng = SeededRng::new(9);
        let trace: Vec<usize> = (0..800).map(|_| rng.index(15)).collect();
        ex.serve_trace(&trace);
        let after = ex.wm().complete_count() + ex.wm().censored_count();
        assert!(after > before + 10, "matrix should fill: {before} -> {after}");
    }
}
