//! Executes declarative scenarios: builds the environment (oracle chain
//! across drift events, hint-shaped), fans seeded runs out with
//! [`par_map`], one worker per seed, and aggregates a deterministic
//! [`ScenarioOutcome`] per scenario.
//!
//! Everything a golden file pins must be reproducible bit for bit, so the
//! outcome deliberately excludes wall-clock quantities (the policy
//! overhead metering of Figs. 7/13 stays in the figure harness). Seed
//! runs come back in seed order and are aggregated in that order, so
//! thread scheduling cannot reorder the arithmetic.

use crate::report::Json;
use limeqo_core::explore::{ExploreConfig, Explorer, MatOracle, Oracle, TraceEntry};
use limeqo_core::online::OnlineExplorer;
use limeqo_core::scenario::{segment_monotone, PolicySpec};
use limeqo_linalg::par::par_map;
use limeqo_linalg::Mat;
use limeqo_sim::drift::{build_oracle_uncalibrated, drift_workload};
use limeqo_sim::scenario::{DriftKind, ScenarioSpec, ScenarioWorkload};

/// Deterministic summary of one scenario (seed means where applicable).
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Registry name.
    pub name: String,
    /// Policy display name.
    pub policy: &'static str,
    /// One-line scenario description.
    pub summary: String,
    /// Final matrix rows (after any `AddQueries` events).
    pub n: usize,
    /// Hint columns after the hint shape is applied.
    pub k: usize,
    /// Default total of the *initial* regime (budget basis).
    pub initial_default_total: f64,
    /// Default total of the final regime (post-drift oracle).
    pub default_total: f64,
    /// Optimal total of the final regime.
    pub optimal_total: f64,
    /// Workload latency at budget exhaustion, mean across seeds (offline
    /// scenarios; 0 for online ones, which report [`OnlineOutcome`]).
    pub final_latency: f64,
    /// Same budget under the Random baseline (offline scenarios only).
    pub random_final_latency: Option<f64>,
    /// Cells executed, mean across seeds.
    pub cells_executed: f64,
    /// Censored cells left in the matrix, mean across seeds.
    pub censored_cells: f64,
    /// Latency monotone non-increasing within every inter-event segment,
    /// for every seed.
    pub monotone_ok: bool,
    /// Online-exploration statistics, present iff the policy is online.
    pub online: Option<OnlineOutcome>,
    /// Per-seed final latencies of the named policy, in seed order
    /// (offline scenarios; empty for online ones). Diagnostic only —
    /// deliberately kept out of [`ScenarioOutcome::metrics`] so goldens
    /// pin the seed mean; the fuzzer's luck-robust median invariant
    /// reads it.
    pub seed_final_latencies: Vec<f64>,
    /// Per-seed Random-reference finals, parallel to
    /// `seed_final_latencies` (offline scenarios with a non-Random
    /// policy only).
    pub random_seed_final_latencies: Option<Vec<f64>>,
    /// Peak workload-matrix resident bytes across the named policy's
    /// seeded runs ([`limeqo_core::matrix::WorkloadMatrix::mem_bytes`]
    /// accounting, allocator-independent). Not a golden metric; the
    /// scale-tier memory-budget assertions read it.
    pub mem_bytes: u64,
}

/// Aggregated online-exploration outcome (seed means; bounds hold for
/// every seed).
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Arrivals served per seed.
    pub arrivals: f64,
    /// Arrivals that gambled on an unverified hint.
    pub explored: f64,
    /// Gambles that found a faster verified plan.
    pub wins: f64,
    /// Gambles cancelled at the ρ-timeout.
    pub cancelled: f64,
    /// Total latency experienced.
    pub total_latency: f64,
    /// Total latency had every arrival served the default plan.
    pub default_latency: f64,
    /// Total latency had every arrival served its incumbent.
    pub incumbent_latency: f64,
    /// Worst per-arrival `experienced / incumbent` ratio observed.
    pub max_regression_ratio: f64,
    /// Every arrival obeyed `experienced ≤ (ρ + 1) × incumbent`.
    pub rho_bound_ok: bool,
    /// Workload latency if every query now ran its best verified hint.
    pub final_latency: f64,
    /// Open-loop queue-wait mean per arrival (Lindley recursion over the
    /// experienced service times), present iff the spec sets an arrival
    /// `rate`. Seed mean.
    pub queue_wait_mean: Option<f64>,
    /// Worst queue wait across arrivals and seeds, present iff `rate` set.
    pub queue_wait_max: Option<f64>,
}

impl ScenarioOutcome {
    /// Flatten into `(key, value)` metric pairs — the golden-file format.
    /// Booleans encode as 0/1; every value is deterministic.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let key = |k: &str| format!("{}.{k}", self.name);
        let mut m = vec![
            (key("n"), self.n as f64),
            (key("k"), self.k as f64),
            (key("initial_default_total"), self.initial_default_total),
            (key("default_total"), self.default_total),
            (key("optimal_total"), self.optimal_total),
            (key("cells_executed"), self.cells_executed),
            (key("censored_cells"), self.censored_cells),
            (key("monotone_ok"), self.monotone_ok as u8 as f64),
        ];
        if self.online.is_none() {
            m.push((key("final_latency"), self.final_latency));
        }
        if let Some(r) = self.random_final_latency {
            m.push((key("random_final_latency"), r));
        }
        if let Some(o) = &self.online {
            m.extend([
                (key("online_arrivals"), o.arrivals),
                (key("online_explored"), o.explored),
                (key("online_wins"), o.wins),
                (key("online_cancelled"), o.cancelled),
                (key("online_total_latency"), o.total_latency),
                (key("online_default_latency"), o.default_latency),
                (key("online_incumbent_latency"), o.incumbent_latency),
                (key("online_max_regression_ratio"), o.max_regression_ratio),
                (key("online_rho_bound_ok"), o.rho_bound_ok as u8 as f64),
                (key("final_latency"), o.final_latency),
            ]);
            // Open-loop metrics only exist when the spec sets a rate, so
            // closed-loop goldens (every pre-corpus scenario) never move.
            if let Some(w) = o.queue_wait_mean {
                m.push((key("online_queue_wait_mean"), w));
            }
            if let Some(w) = o.queue_wait_max {
                m.push((key("online_queue_wait_max"), w));
            }
        }
        m
    }

    /// The scenario as a JSON object for the machine-readable report.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("policy".to_string(), Json::Str(self.policy.to_string())),
            ("summary".to_string(), Json::Str(self.summary.clone())),
        ];
        for (k, v) in self.metrics() {
            let short = k.split_once('.').map(|(_, rest)| rest.to_string()).unwrap_or(k);
            fields.push((short, Json::Num(v)));
        }
        Json::Obj(fields)
    }
}

/// The built environment: the oracle for the initial regime plus one
/// oracle per scheduled `DataShift`, in event order.
struct Env {
    oracles: Vec<MatOracle>,
    initial_rows: usize,
    budget: f64,
}

fn select_columns(m: &Mat, idx: &[usize]) -> Mat {
    Mat::from_fn(m.rows(), idx.len(), |r, c| m[(r, idx[c])])
}

fn build_env(spec: &ScenarioSpec) -> Env {
    let (oracles, n) = match &spec.workload {
        ScenarioWorkload::Sim(wspec) => {
            let mut w = wspec.build();
            let idx = spec.hint_shape.indices(w.hints.len());
            w.hints = w.hints.subset(&idx);
            let m0 = w.build_oracle();
            let mut oracles =
                vec![MatOracle::new(m0.true_latency.clone(), Some(m0.est_cost.clone()))];
            // Shifts compound: each DataShift ages the *already drifted*
            // database further, so two 365-day shifts really are 730 days.
            let mut current = w.clone();
            for (i, ev) in spec.drift.iter().enumerate() {
                if let DriftKind::DataShift { days } = ev.kind {
                    current = drift_workload(&current, days, wspec.seed ^ (i as u64 + 1));
                    let dm = build_oracle_uncalibrated(&current);
                    oracles.push(MatOracle::new(dm.true_latency, Some(dm.est_cost)));
                }
            }
            (oracles, w.n())
        }
        ScenarioWorkload::Synthetic(sspec) => {
            let full = sspec.build_latency();
            let idx = spec.hint_shape.indices(sspec.k);
            (vec![MatOracle::new(select_columns(&full, &idx), None)], sspec.n)
        }
    };
    let initial_rows = n - spec.arriving_queries();
    let budget = spec.budget_multiple * oracles[0].default_total();
    Env { oracles, initial_rows, budget }
}

/// Per-seed offline result: the summary the golden runner aggregates plus
/// the full trajectory [`verify_scenario_sharded`] compares bit for bit.
struct OfflineSeed {
    final_latency: f64,
    cells: usize,
    censored: usize,
    monotone: bool,
    mem_bytes: usize,
    trace: Vec<TraceEntry>,
    time_spent: f64,
}

fn run_offline_seed(spec: &ScenarioSpec, env: &Env, policy: &PolicySpec, seed: u64) -> OfflineSeed {
    // Each policy carries its own drift-retention knobs: the Random
    // reference keeps the legacy discard-on-shift semantics even when the
    // named policy retains priors, so the comparison isolates the policy.
    let cfg = ExploreConfig {
        batch: spec.batch,
        seed,
        retention: policy.drift(),
        max_steps: spec.max_steps,
        shards: spec.shards,
        retry: Default::default(),
        probe_fail_rate: spec.probe_fail_rate,
        probe_fail_seed: spec.probe_fail_seed,
    };
    let mut ex = Explorer::new(&env.oracles[0], policy.build_policy(seed), cfg, env.initial_rows);
    let mut monotone = true;
    let mut seg_start = 0usize;
    let mut shift_idx = 1usize;
    let check_segment = |points: &[limeqo_core::metrics::CurvePoint], from: usize| {
        let lats: Vec<f64> = points[from..].iter().map(|p| p.latency).collect();
        segment_monotone(&lats)
    };
    for ev in &spec.drift {
        ex.run_until(ev.at_frac * env.budget);
        monotone &= check_segment(&ex.curve().points, seg_start);
        match ev.kind {
            DriftKind::AddQueries { count } => ex.add_queries(count),
            DriftKind::DataShift { .. } => {
                ex.data_shift(&env.oracles[shift_idx]);
                shift_idx += 1;
            }
        }
        // The event recorded a point; the next segment starts there (the
        // event itself may raise latency, later steps must not).
        seg_start = ex.curve().points.len() - 1;
    }
    ex.run_until(env.budget);
    monotone &= check_segment(&ex.curve().points, seg_start);
    OfflineSeed {
        final_latency: ex.workload_latency(),
        cells: ex.cells_executed(),
        censored: ex.wm().censored_count(),
        monotone,
        mem_bytes: ex.wm().mem_bytes(),
        trace: ex.trace().to_vec(),
        time_spent: ex.time_spent(),
    }
}

/// Per-seed online result.
struct OnlineSeed {
    stats: limeqo_core::online::OnlineStats,
    max_ratio: f64,
    rho_ok: bool,
    final_latency: f64,
    /// Gamble executions: completed cells beyond the free defaults plus
    /// every ρ-cancellation (re-gambles on a still-censored cell count
    /// each time) — `stats.wins` misses gambles that completed slower
    /// than the incumbent.
    cells: usize,
    censored: usize,
    /// `(mean, max)` open-loop queue wait, `None` for closed-loop specs.
    queue_wait: Option<(f64, f64)>,
    mem_bytes: usize,
}

fn run_online_seed(spec: &ScenarioSpec, env: &Env, seed: u64) -> OnlineSeed {
    let oracle = &env.oracles[0];
    let mut cfg = spec.policy.online_config(seed).expect("online policy spec");
    cfg.shards = spec.shards;
    let rho = cfg.rho;
    let mut ex = OnlineExplorer::new(oracle, spec.policy.build_completer(seed), cfg);
    let arrivals = spec.arrivals.as_ref().expect("online scenario has arrivals");
    let n = ex.wm().n_rows();
    let trace = arrivals.trace(n, seed);
    let mut max_ratio = 0.0f64;
    let mut rho_ok = true;
    let mut served = Vec::with_capacity(trace.len());
    for &row in &trace {
        let incumbent = ex.wm().row_best(row).expect("default observed").1;
        let experienced = ex.serve(row);
        max_ratio = max_ratio.max(experienced / incumbent);
        rho_ok &= experienced <= (rho + 1.0) * incumbent + 1e-9;
        served.push(experienced);
    }
    // Open-loop queue accounting (rate > 0): a single-server queue where
    // arrival i waits W_i = max(0, W_{i-1} + S_{i-1} - A_i) (Lindley), with
    // exponential interarrival gaps A and the experienced latencies as
    // service times S. Derived from quantities already pinned by goldens,
    // and only emitted for specs that opt into a rate.
    let gaps = arrivals.interarrival_gaps(seed);
    let queue_wait = (!gaps.is_empty()).then(|| {
        let mut wait = 0.0f64;
        let (mut sum, mut max) = (0.0f64, 0.0f64);
        for i in 1..served.len() {
            wait = (wait + served[i - 1] - gaps[i]).max(0.0);
            sum += wait;
            max = max.max(wait);
        }
        (sum / served.len() as f64, max)
    });
    let final_latency = (0..n)
        .map(|i| {
            let (col, _) = ex.wm().row_best(i).expect("default observed");
            oracle.true_latency(i, col)
        })
        .sum();
    let censored = ex.wm().censored_count();
    // The n default cells were observed for free at construction; each
    // cancellation was a distinct execution even when it re-probed an
    // already-censored cell.
    let cells = ex.wm().complete_count() - n + ex.stats().cancelled;
    OnlineSeed {
        mem_bytes: ex.wm().mem_bytes(),
        stats: ex.stats().clone(),
        max_ratio,
        rho_ok,
        final_latency,
        cells,
        censored,
        queue_wait,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Run one scenario: build the environment once, fan the seeds out in
/// parallel, aggregate deterministically.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    spec.validate();
    let env = build_env(spec);
    let final_oracle = env.oracles.last().expect("at least one oracle");
    let (n, k) = final_oracle.shape();

    let mut outcome = ScenarioOutcome {
        name: spec.name.to_string(),
        policy: spec.policy.name(),
        summary: spec.summary.clone(),
        n,
        k,
        initial_default_total: env.oracles[0].default_total(),
        default_total: final_oracle.default_total(),
        optimal_total: final_oracle.optimal_total(),
        final_latency: 0.0,
        random_final_latency: None,
        cells_executed: 0.0,
        censored_cells: 0.0,
        monotone_ok: true,
        online: None,
        seed_final_latencies: Vec::new(),
        random_seed_final_latencies: None,
        mem_bytes: 0,
    };

    if spec.policy.is_online() {
        let seeds = spec.seeds.len();
        let runs = par_map(seeds, seeds, |i| run_online_seed(spec, &env, spec.seeds[i]));
        outcome.mem_bytes = runs.iter().map(|r| r.mem_bytes).max().unwrap_or(0) as u64;
        outcome.cells_executed = mean(&runs.iter().map(|r| r.cells as f64).collect::<Vec<_>>());
        outcome.censored_cells = mean(&runs.iter().map(|r| r.censored as f64).collect::<Vec<_>>());
        outcome.online = Some(OnlineOutcome {
            arrivals: mean(&runs.iter().map(|r| r.stats.arrivals as f64).collect::<Vec<_>>()),
            explored: mean(&runs.iter().map(|r| r.stats.explored as f64).collect::<Vec<_>>()),
            wins: mean(&runs.iter().map(|r| r.stats.wins as f64).collect::<Vec<_>>()),
            cancelled: mean(&runs.iter().map(|r| r.stats.cancelled as f64).collect::<Vec<_>>()),
            total_latency: mean(&runs.iter().map(|r| r.stats.total_latency).collect::<Vec<_>>()),
            default_latency: mean(
                &runs.iter().map(|r| r.stats.default_latency).collect::<Vec<_>>(),
            ),
            incumbent_latency: mean(
                &runs.iter().map(|r| r.stats.incumbent_latency).collect::<Vec<_>>(),
            ),
            max_regression_ratio: runs.iter().map(|r| r.max_ratio).fold(0.0, f64::max),
            rho_bound_ok: runs.iter().all(|r| r.rho_ok),
            final_latency: mean(&runs.iter().map(|r| r.final_latency).collect::<Vec<_>>()),
            queue_wait_mean: runs[0].queue_wait.map(|_| {
                mean(&runs.iter().filter_map(|r| r.queue_wait.map(|w| w.0)).collect::<Vec<_>>())
            }),
            queue_wait_max: runs[0]
                .queue_wait
                .map(|_| runs.iter().filter_map(|r| r.queue_wait.map(|w| w.1)).fold(0.0, f64::max)),
        });
        return outcome;
    }

    // Offline: the spec's policy plus a Random reference at equal budget.
    let random = PolicySpec::Random;
    let run_all = |policy: &PolicySpec| {
        let seeds = spec.seeds.len();
        par_map(seeds, seeds, |i| run_offline_seed(spec, &env, policy, spec.seeds[i]))
    };
    let runs = run_all(&spec.policy);
    outcome.seed_final_latencies = runs.iter().map(|r| r.final_latency).collect();
    outcome.mem_bytes = runs.iter().map(|r| r.mem_bytes).max().unwrap_or(0) as u64;
    outcome.final_latency = mean(&outcome.seed_final_latencies);
    outcome.cells_executed = mean(&runs.iter().map(|r| r.cells as f64).collect::<Vec<_>>());
    outcome.censored_cells = mean(&runs.iter().map(|r| r.censored as f64).collect::<Vec<_>>());
    outcome.monotone_ok = runs.iter().all(|r| r.monotone);
    if spec.policy != random {
        // Note: the reference's own monotonicity is NOT folded into
        // monotone_ok — that flag describes the named policy, and Random's
        // no-regression property is covered by core's property tests.
        let reference = run_all(&random);
        let finals: Vec<f64> = reference.iter().map(|r| r.final_latency).collect();
        outcome.random_final_latency = Some(mean(&finals));
        outcome.random_seed_final_latencies = Some(finals);
    }
    outcome
}

/// The sharded-equivalence oath: run every seed of `spec` once with the
/// unsharded workload matrix and once partitioned into `shards` shards,
/// and fail on the first bitwise divergence — trace entries, clocks,
/// cell counts, censored counts, and the final workload latency (offline)
/// or the full online statistics (online). The shard count must be a pure
/// scale-out knob; this is the check that keeps it one.
pub fn verify_scenario_sharded(spec: &ScenarioSpec, shards: usize) -> Result<(), String> {
    spec.validate();
    let mut base = spec.clone();
    base.shards = 1;
    let mut split = spec.clone();
    split.shards = shards;
    // The environment (oracle chain, budget) never depends on the shard
    // layout, so it is built once and shared by both sides.
    let env = build_env(spec);
    for &seed in &spec.seeds {
        let diverged = |what: &str, x: String, y: String| {
            Err(format!(
                "{} seed {seed}: {what} diverges (1 shard {x} vs {shards} shards {y})",
                spec.name
            ))
        };
        let pairs = if spec.policy.is_online() {
            let a = run_online_seed(&base, &env, seed);
            let b = run_online_seed(&split, &env, seed);
            let (sa, sb) = (&a.stats, &b.stats);
            vec![
                ("arrivals", sa.arrivals as f64, sb.arrivals as f64),
                ("explored", sa.explored as f64, sb.explored as f64),
                ("wins", sa.wins as f64, sb.wins as f64),
                ("cancelled", sa.cancelled as f64, sb.cancelled as f64),
                ("total_latency", sa.total_latency, sb.total_latency),
                ("default_latency", sa.default_latency, sb.default_latency),
                ("incumbent_latency", sa.incumbent_latency, sb.incumbent_latency),
                ("max_regression_ratio", a.max_ratio, b.max_ratio),
                ("final_latency", a.final_latency, b.final_latency),
                ("cells", a.cells as f64, b.cells as f64),
                ("censored", a.censored as f64, b.censored as f64),
            ]
        } else {
            let a = run_offline_seed(&base, &env, &spec.policy, seed);
            let b = run_offline_seed(&split, &env, &spec.policy, seed);
            if a.trace.len() != b.trace.len() {
                return diverged(
                    "trace length",
                    a.trace.len().to_string(),
                    b.trace.len().to_string(),
                );
            }
            let bits = |t: &TraceEntry| (t.row, t.col, t.charged.to_bits(), t.censored);
            for (i, (x, y)) in a.trace.iter().zip(b.trace.iter()).enumerate() {
                if bits(x) != bits(y) {
                    return diverged(
                        &format!("trace entry {i}"),
                        format!("{x:?}"),
                        format!("{y:?}"),
                    );
                }
            }
            vec![
                ("time_spent", a.time_spent, b.time_spent),
                ("cells", a.cells as f64, b.cells as f64),
                ("censored", a.censored as f64, b.censored as f64),
                ("final_latency", a.final_latency, b.final_latency),
            ]
        };
        for (what, x, y) in pairs {
            if x.to_bits() != y.to_bits() {
                return diverged(what, x.to_string(), y.to_string());
            }
        }
    }
    Ok(())
}

/// Run many scenarios in parallel, one worker per scenario (each scenario
/// also fans its seeds out); results come back in input order.
pub fn run_scenarios(specs: &[ScenarioSpec]) -> Vec<ScenarioOutcome> {
    par_map(specs.len(), specs.len(), |i| run_scenario(&specs[i]))
}

/// The whole report as a JSON array (one object per scenario).
pub fn report_json(outcomes: &[ScenarioOutcome]) -> Json {
    Json::Arr(outcomes.iter().map(|o| o.to_json()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use limeqo_sim::scenario::{by_name, ArrivalModel, ArrivalSpec, HintShape};

    #[test]
    fn hint_prefix_shrinks_columns() {
        let mut spec = by_name("hint-prefix-9").expect("registered");
        spec.seeds = vec![1];
        assert_eq!(spec.hint_shape, HintShape::Prefix(9));
        let out = run_scenario(&spec);
        assert_eq!(out.k, 9);
        assert!(out.final_latency <= out.default_total + 1e-9);
    }

    #[test]
    fn synthetic_scenario_runs_without_sim_layer() {
        let mut spec = by_name("censor-hostile").expect("registered");
        spec.seeds = vec![7];
        let out = run_scenario(&spec);
        assert!(out.monotone_ok);
        assert!(out.censored_cells > 0.0, "hostile regime must censor");
    }

    #[test]
    fn online_outcome_has_bounded_regression() {
        let mut spec = by_name("online-uniform").expect("registered");
        spec.seeds = vec![3];
        spec.arrivals = Some(ArrivalSpec::new(600, ArrivalModel::Uniform));
        let out = run_scenario(&spec);
        let online = out.online.expect("online outcome");
        assert!(online.rho_bound_ok);
        assert!(online.max_regression_ratio <= 1.2 + 1.0 + 1e-9);
        assert!(online.final_latency <= out.default_total + 1e-9);
    }

    #[test]
    fn data_shifts_compound() {
        use limeqo_sim::scenario::{DriftEvent, DriftKind};
        let mut single = by_name("data-shift").expect("registered");
        single.seeds = vec![1];
        single.drift =
            vec![DriftEvent { at_frac: 0.4, kind: DriftKind::DataShift { days: 365.0 } }];
        let mut double = single.clone();
        double.drift = vec![
            DriftEvent { at_frac: 0.3, kind: DriftKind::DataShift { days: 365.0 } },
            DriftEvent { at_frac: 0.6, kind: DriftKind::DataShift { days: 365.0 } },
        ];
        let one = run_scenario(&single);
        let two = run_scenario(&double);
        // Two 365-day shifts age the database ~730 days: growth compounds,
        // so the final regime's default total must exceed a single year's.
        assert!(
            two.default_total > one.default_total,
            "shifts did not compound: {} vs {}",
            two.default_total,
            one.default_total
        );
    }

    #[test]
    fn metrics_keys_are_prefixed_and_unique() {
        let mut spec = by_name("job-mini").expect("registered");
        spec.seeds = vec![1];
        let out = run_scenario(&spec);
        let metrics = out.metrics();
        let mut keys: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
        assert!(keys.iter().all(|k| k.starts_with("job-mini.")));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), metrics.len());
        let json = report_json(&[out]).render();
        assert!(json.starts_with('[') && json.contains("\"name\":\"job-mini\""));
    }
}
