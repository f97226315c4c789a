//! The golden regression suite over the scenario registry.
//!
//! Every named scenario in `limeqo_sim::scenario::registry()` runs once
//! (at its registry-defined fast budget, seeds fanned out in parallel) and
//! is then checked two ways:
//!
//! 1. **Calibrated invariants** — properties that must hold for the
//!    algorithms to be correct at all: default ≥ final ≥ optimal ordering,
//!    monotone best-so-far between drift events, LimeQO no worse than
//!    Random at equal budget (drift-free scenarios; post-shift cold
//!    restarts are a known weakness, see ROADMAP), bounded ρ-regression
//!    for the online explorer, censoring-hostile regimes actually censor.
//! 2. **The golden summary** — every deterministic metric compared with
//!    tolerance against `tests/golden/scenarios.golden`. Regenerate after
//!    an intentional behavior change with:
//!
//!    ```text
//!    LIMEQO_BLESS=1 cargo test -p limeqo-integration-tests --test scenarios
//!    ```
//!
//!    and commit the diff — the diff *is* the review artifact.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use limeqo_bench::scenario_runner::{
    run_scenario, run_scenarios, verify_scenario_sharded, ScenarioOutcome,
};
use limeqo_sim::scenario::{registry, scale_registry};

/// Run the whole registry exactly once, shared by every #[test] below.
fn outcomes() -> &'static [ScenarioOutcome] {
    static OUTCOMES: OnceLock<Vec<ScenarioOutcome>> = OnceLock::new();
    OUTCOMES.get_or_init(|| run_scenarios(&registry()))
}

/// The 100k-query scale tier, shared by the `#[ignore]`d tests (slow
/// tier, `./ci.sh --ignored`).
fn scale_outcomes() -> &'static [ScenarioOutcome] {
    static OUTCOMES: OnceLock<Vec<ScenarioOutcome>> = OnceLock::new();
    OUTCOMES.get_or_init(|| run_scenarios(&scale_registry()))
}

fn outcome(name: &str) -> &'static ScenarioOutcome {
    outcomes()
        .iter()
        .find(|o| o.name == name)
        .unwrap_or_else(|| panic!("scenario {name} missing from registry"))
}

fn scale_outcome(name: &str) -> &'static ScenarioOutcome {
    scale_outcomes()
        .iter()
        .find(|o| o.name == name)
        .unwrap_or_else(|| panic!("scenario {name} missing from scale registry"))
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(file)
}

/// Relative tolerance for golden comparison. Runs are deterministic on a
/// given platform; the slack only absorbs cross-platform float libm
/// differences.
const REL_TOL: f64 = 1e-6;

#[test]
fn registry_is_large_and_unique() {
    let specs = registry();
    assert!(specs.len() >= 8, "need >= 8 named scenarios, have {}", specs.len());
    let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), specs.len(), "duplicate scenario names");
}

#[test]
fn default_optimal_final_ordering() {
    for o in outcomes() {
        assert!(
            o.optimal_total <= o.default_total + 1e-9,
            "{}: optimal {} > default {}",
            o.name,
            o.optimal_total,
            o.default_total
        );
        let final_latency = o.online.as_ref().map(|on| on.final_latency).unwrap_or(o.final_latency);
        assert!(
            final_latency >= o.optimal_total - 1e-9,
            "{}: final {} beat the oracle optimum {}",
            o.name,
            final_latency,
            o.optimal_total
        );
        assert!(
            final_latency <= o.default_total + 1e-9,
            "{}: final {} regressed past the default {}",
            o.name,
            final_latency,
            o.default_total
        );
    }
}

#[test]
fn best_so_far_is_monotone_between_events() {
    for o in outcomes() {
        assert!(o.monotone_ok, "{}: latency regressed within a segment", o.name);
    }
}

#[test]
fn limeqo_no_worse_than_random_at_equal_budget() {
    // Scoped to drift-free scenarios at the tight 2 % tolerance; the
    // data-shift scenarios have their own invariants below (the single
    // 730-day shift must beat Random outright now that stale observations
    // are retained as censored priors; the compounding double shift gets
    // a looser bound — ROADMAP records the residual gap). The set is
    // derived from the registry so newly added drift-free LimeQO
    // scenarios are covered automatically.
    let mut covered = 0;
    for spec in registry() {
        if !(spec.policy.expects_to_beat_random() && spec.drift.is_empty()) {
            continue;
        }
        covered += 1;
        let o = outcome(&spec.name);
        let random = o.random_final_latency.expect("offline scenarios run a random reference");
        assert!(
            o.final_latency <= random * 1.02 + 1e-9,
            "{}: limeqo {} worse than random {}",
            spec.name,
            o.final_latency,
            random
        );
    }
    assert!(covered >= 6, "expected >= 6 drift-free LimeQO scenarios, found {covered}");
}

#[test]
fn tiny_headroom_degrades_gracefully() {
    let o = outcome("tiny-headroom");
    assert!(
        o.default_total / o.optimal_total < 1.25,
        "tiny-headroom grew headroom {:.2}x",
        o.default_total / o.optimal_total
    );
    // Nothing to win — but also nothing lost.
    assert!(o.final_latency <= o.default_total + 1e-9);
}

#[test]
fn censor_hostile_regime_censors_most_probes() {
    let o = outcome("censor-hostile");
    assert!(
        o.censored_cells >= 0.25 * o.cells_executed,
        "hostile regime should censor heavily: {} of {}",
        o.censored_cells,
        o.cells_executed
    );
}

#[test]
fn hint_shape_restricts_columns() {
    assert_eq!(outcome("hint-prefix-9").k, 9);
    assert_eq!(outcome("job-mini").k, 49);
}

#[test]
fn large_matrix_scales_and_improves() {
    let o = outcome("large-matrix-10k");
    assert_eq!(o.n, 10_000);
    assert!(
        o.final_latency < 0.8 * o.default_total,
        "10k matrix: limeqo should find real headroom, got {} of default {}",
        o.final_latency,
        o.default_total
    );
}

#[test]
fn online_regression_is_rho_bounded() {
    for name in ["online-uniform", "online-zipf"] {
        let o = outcome(name);
        let online = o.online.as_ref().expect("online outcome");
        assert!(online.rho_bound_ok, "{name}: an arrival exceeded the rho bound");
        // rho = 1.2: a cancelled gamble pays at most rho + 1 of the incumbent.
        assert!(
            online.max_regression_ratio <= 2.2 + 1e-9,
            "{name}: max per-arrival regression {}",
            online.max_regression_ratio
        );
        // Exploration pays for itself over the trace.
        assert!(
            online.total_latency <= online.default_latency,
            "{name}: online exploration cost more than always-default"
        );
        assert!(online.explored > 0.0 && online.wins > 0.0, "{name}: no exploration happened");
    }
}

#[test]
fn workload_shift_absorbs_new_queries() {
    let o = outcome("template-drift");
    // 16 of the 48 queries arrive mid-run; the final matrix sees them all.
    assert_eq!(o.n, 48);
    assert!(
        o.final_latency < 0.8 * o.default_total,
        "after absorbing arrivals, limeqo should still beat default clearly"
    );
}

#[test]
fn data_shift_reprices_and_recovers() {
    let o = outcome("data-shift");
    // The drifted regime is slower than the 60 s base calibration.
    assert!(o.default_total > o.initial_default_total);
    assert!(o.final_latency <= o.default_total + 1e-9);
}

#[test]
fn data_shift_retention_closes_the_random_gap() {
    // The calibrated failure this suite originally pinned: LimeQO's
    // cold restart after a data shift lost to Random (95.4 s vs 75.5 s at
    // 6x budget). With stale observations retained as censored priors and
    // the post-shift density gate, LimeQO must now be no worse than
    // Random at equal budget on the single-shift scenario.
    let o = outcome("data-shift");
    let random = o.random_final_latency.expect("offline scenario runs a random reference");
    assert!(
        o.final_latency <= random + 1e-9,
        "data-shift: limeqo {} still behind random {}",
        o.final_latency,
        random
    );
    // The compounding double-shift stress case is harder: each shift
    // demotes the recovery work of the previous segment, and LimeQO still
    // trails Random slightly there (an open ROADMAP item). Bound the gap
    // so it cannot quietly widen.
    let o2 = outcome("data-shift-retained");
    let random2 = o2.random_final_latency.expect("offline scenario runs a random reference");
    assert!(
        o2.final_latency <= random2 * 1.05 + 1e-9,
        "data-shift-retained: limeqo {} more than 5% behind random {}",
        o2.final_latency,
        random2
    );
}

#[test]
fn retention_beats_cold_restart_on_compounding_shifts() {
    // Pin the legacy behavior alongside the fix: the same double-shift
    // environment explored with the pre-retention policy (discard on
    // shift, no gate, cold ALS init) must do no better than the
    // drift-aware configuration the registry pins.
    use limeqo_core::scenario::PolicySpec;
    let mut legacy = limeqo_sim::scenario::by_name("data-shift-retained").expect("registered");
    legacy.policy = PolicySpec::limeqo_legacy();
    let legacy_out = limeqo_bench::scenario_runner::run_scenario(&legacy);
    let retained = outcome("data-shift-retained");
    assert!(
        retained.final_latency <= legacy_out.final_latency + 1e-9,
        "retention ({}) must not lose to the legacy cold restart ({})",
        retained.final_latency,
        legacy_out.final_latency
    );
}

#[test]
fn cold_row_bonus_improves_zipf_tail() {
    // online-zipf pinned 48.06 s final latency before the cold-row bonus
    // (optimal 38.7 s): cold rows arrived too rarely for a flat
    // explore_prob to ever probe them. With the bonus the scenario must
    // stay clearly below the old plateau, and the stronger-bonus variant
    // must do at least as well.
    let zipf = outcome("online-zipf").online.as_ref().expect("online outcome");
    assert!(
        zipf.final_latency < 45.0,
        "online-zipf final {} regressed toward the pre-bonus 48.06 s plateau",
        zipf.final_latency
    );
    let strong = outcome("zipf-cold-bonus").online.as_ref().expect("online outcome");
    assert!(
        strong.final_latency <= zipf.final_latency + 1e-9,
        "doubling the bonus should not lose coverage: strong {} vs base {}",
        strong.final_latency,
        zipf.final_latency
    );
    // The bonus must not break the bounded-regression economics: both
    // traces still pay for themselves vs always-default.
    assert!(strong.total_latency <= strong.default_latency);
}

/// Compare a metric map against a golden file, or re-bless it when
/// `LIMEQO_BLESS` is set. `registry_desc` names the source registry in the
/// blessed header.
fn check_golden(file: &str, registry_desc: &str, got: &BTreeMap<String, f64>) {
    let path = golden_path(file);

    if std::env::var("LIMEQO_BLESS").is_ok() {
        let mut body = format!(
            "# Golden scenario summary — deterministic metrics for every scenario in\n\
             # {registry_desc}, pinned by tests/tests/scenarios.rs.\n\
             # Regenerate intentionally with:\n\
             #   LIMEQO_BLESS=1 cargo test -p limeqo-integration-tests --test scenarios\n"
        );
        if file != "scenarios.golden" {
            body.push_str("#   (this tier runs #[ignore]d: add -- --ignored)\n");
        }
        for (k, v) in got {
            body.push_str(&format!("{k} {v}\n"));
        }
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, body).expect("write golden");
        eprintln!("blessed {} metrics into {}", got.len(), path.display());
        return;
    }

    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run LIMEQO_BLESS=1 cargo test --test scenarios",
            path.display()
        )
    });
    let mut want: BTreeMap<String, f64> = BTreeMap::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line.split_once(' ').unwrap_or_else(|| panic!("bad golden line: {line}"));
        want.insert(k.to_string(), v.parse().unwrap_or_else(|_| panic!("bad value: {line}")));
    }

    let mut failures = Vec::new();
    for (k, w) in &want {
        match got.get(k) {
            None => failures.push(format!("missing metric {k} (golden has {w})")),
            Some(g) => {
                let tol = REL_TOL * w.abs().max(1.0);
                if (g - w).abs() > tol {
                    failures.push(format!("{k}: got {g}, golden {w}"));
                }
            }
        }
    }
    for k in got.keys() {
        if !want.contains_key(k) {
            failures.push(format!("new metric {k} not in golden file"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatch in {file} ({} issues) — if intentional, re-bless and commit:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn sharded_engine_is_bit_identical_on_every_fast_scenario() {
    // The sharding layer's headline contract: the shard count is a pure
    // scale-out knob. For every fast-registry scenario, a sharded run must
    // reproduce the single-shard run bit for bit — exploration traces,
    // charged clocks, executed/censored cell counts, and final workload
    // latency all compared exactly (online scenarios additionally compare
    // the arrival-level economics). One verification thread per
    // (scenario, shard count); each builds its environment once and runs
    // both engines per seed.
    let specs = registry();
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .flat_map(|spec| {
                [2usize, 8].map(|shards| {
                    (
                        spec.name.clone(),
                        shards,
                        scope.spawn(move || verify_scenario_sharded(spec, shards)),
                    )
                })
            })
            .collect();
        let mut failures = Vec::new();
        for (name, shards, handle) in handles {
            if let Err(e) = handle.join().expect("verification thread panicked") {
                failures.push(format!("{name} at {shards} shards: {e}"));
            }
        }
        assert!(
            failures.is_empty(),
            "sharded runs diverged from the unsharded engine:\n{}",
            failures.join("\n")
        );
    });
}

#[test]
fn golden_summary_matches() {
    let mut got: BTreeMap<String, f64> = BTreeMap::new();
    for o in outcomes() {
        got.extend(o.metrics());
    }
    check_golden("scenarios.golden", "limeqo_sim::scenario::registry()", &got);
}

// ---- The 100k-query scale tier (slow; `./ci.sh --ignored`) ----

#[test]
#[ignore = "scale tier: 100k-query scenarios take minutes; run via ./ci.sh --ignored"]
fn scale_100k_limeqo_beats_random_at_equal_budget() {
    let o = scale_outcome("scale-100k");
    assert_eq!(o.n, 100_000);
    assert_eq!(o.k, 49);
    assert!(o.monotone_ok, "scale-100k latency regressed within a segment");
    assert!(o.optimal_total <= o.final_latency + 1e-9);
    assert!(o.final_latency <= o.default_total + 1e-9);
    let random = o.random_final_latency.expect("offline scenario runs a random reference");
    assert!(
        o.final_latency <= random + 1e-9,
        "scale-100k: limeqo {} worse than random {} at equal budget",
        o.final_latency,
        random
    );
}

#[test]
#[ignore = "scale tier: 100k-query scenarios take minutes; run via ./ci.sh --ignored"]
fn scale_100k_zipf_online_improves_and_bounds_regression() {
    let o = scale_outcome("scale-100k-zipf");
    let online = o.online.as_ref().expect("online outcome");
    assert!(online.rho_bound_ok, "an arrival exceeded the rho bound at scale");
    assert!(
        online.total_latency <= online.default_latency,
        "online exploration at scale cost more than always-default"
    );
    assert!(online.final_latency <= o.default_total + 1e-9);
}

#[test]
#[ignore = "scale tier: 100k-query scenarios take minutes; run via ./ci.sh --ignored"]
fn scale_goldens_match() {
    let mut got: BTreeMap<String, f64> = BTreeMap::new();
    for o in scale_outcomes() {
        got.extend(o.metrics());
    }
    check_golden("scale.golden", "limeqo_sim::scenario::scale_registry()", &got);
}

/// The `scale-1m` memory budget (PERF.md's budget table): the sparse
/// workload-matrix indices — per-row headers, observed (col, value) pairs,
/// censored bitmaps, best caches and Fenwick trees — must fit in 256 MiB
/// at 1M × 17 with the defaults column plus the ~90k budgeted probes
/// observed. The old dense 16-byte-per-cell store alone was ~272 MB.
const SCALE_1M_MEM_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

#[test]
#[ignore = "scale tier: the 1M-row scenarios take minutes; run via ./ci.sh --ignored"]
fn scale_1m_limeqo_beats_random_within_the_memory_budget() {
    for name in ["scale-1m", "scale-1m-tenants"] {
        let o = scale_outcome(name);
        assert_eq!(o.n, 1_000_000);
        assert_eq!(o.k, 17);
        assert!(o.monotone_ok, "{name}: latency regressed within a segment");
        assert!(o.optimal_total <= o.final_latency + 1e-9);
        assert!(o.final_latency <= o.default_total + 1e-9);
        let random = o.random_final_latency.expect("offline scenario runs a random reference");
        assert!(
            o.final_latency <= random + 1e-9,
            "{name}: limeqo {} worse than random {} at equal budget",
            o.final_latency,
            random
        );
        assert!(o.mem_bytes > 0, "{name}: runner must report the matrix footprint");
        assert!(
            o.mem_bytes <= SCALE_1M_MEM_BUDGET_BYTES,
            "{name}: sparse matrix cost {} bytes, budget is {}",
            o.mem_bytes,
            SCALE_1M_MEM_BUDGET_BYTES
        );
    }
}

#[test]
#[ignore = "scale tier: the 1M-row scenarios take minutes; run via ./ci.sh --ignored"]
fn scale_1m_tenant_count_never_moves_the_outcome() {
    // scale-1m (8 shards) and scale-1m-tenants (64 shards) are the same
    // spec apart from the partitioning, so every deterministic metric must
    // agree EXACTLY between them — the bit-identity contract demonstrated
    // at the full 1M-row scale without a third run.
    let a = scale_outcome("scale-1m");
    let b = scale_outcome("scale-1m-tenants");
    let strip = |o: &ScenarioOutcome| -> Vec<(String, u64)> {
        o.metrics()
            .into_iter()
            .map(|(k, v)| {
                (k.split_once('.').expect("namespaced metric").1.to_string(), v.to_bits())
            })
            .collect()
    };
    assert_eq!(strip(a), strip(b), "8-shard and 64-tenant metrics diverged at 1M rows");
}

#[test]
#[ignore = "scale tier: the 1M-row scenarios take minutes; run via ./ci.sh --ignored"]
fn scale_1m_metrics_stable_across_two_runs() {
    // Determinism at the 1M tier: a second, fresh run (its own environment
    // build and ALS fan-out) must reproduce every metric and the
    // reported matrix footprint EXACTLY.
    let first = scale_outcome("scale-1m");
    let spec = limeqo_sim::scenario::by_name("scale-1m").expect("registered");
    let second = run_scenario(&spec);
    let a: Vec<(String, u64)> =
        first.metrics().into_iter().map(|(k, v)| (k, v.to_bits())).collect();
    let b: Vec<(String, u64)> =
        second.metrics().into_iter().map(|(k, v)| (k, v.to_bits())).collect();
    assert_eq!(a, b, "scale-1m metrics differ between two runs");
    assert_eq!(first.mem_bytes, second.mem_bytes, "scale-1m footprint differs between two runs");
}

#[test]
#[ignore = "scale tier: 100k-query scenarios take minutes; run via ./ci.sh --ignored"]
fn scale_100k_goldens_stable_across_two_runs() {
    // Determinism at scale: a second, fresh run of the scenario (its own
    // environment build, seed fan-out and parallel ALS) must reproduce
    // every metric EXACTLY — not just within tolerance.
    let first = scale_outcome("scale-100k");
    let spec = limeqo_sim::scenario::by_name("scale-100k").expect("registered");
    let second = run_scenario(&spec);
    let a: Vec<(String, u64)> =
        first.metrics().into_iter().map(|(k, v)| (k, v.to_bits())).collect();
    let b: Vec<(String, u64)> =
        second.metrics().into_iter().map(|(k, v)| (k, v.to_bits())).collect();
    assert_eq!(a, b, "scale-100k metrics differ between two runs");
}
