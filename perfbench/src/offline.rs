//! The offline workload `offline-10k`: the paper's scale regime.
//!
//! It drives [`Explorer`] through its public API with the harness's own
//! round loop — [`Explorer::step`] until the simulated clock reaches the
//! budget, the same admission rule as [`Explorer::run_until`] — so every
//! round can be timed from outside.

use std::time::Instant;

use limeqo_core::complete::AlsCompleter;
use limeqo_core::explore::{ExploreConfig, Explorer, MatOracle, Oracle};
use limeqo_core::policy::{LimeQoPolicy, Policy};
use limeqo_core::scenario::{segment_monotone, PolicySpec};
use limeqo_linalg::Mat;
use limeqo_sim::scenario::{by_name, ScenarioSpec, ScenarioWorkload};

use crate::decor::{TimedCompleter, TimedOracle, TimedPolicy};
use crate::episode::{Episode, SETUPS_PER_EPISODE};
use crate::reference::{Reference, Refs, Sample};
use crate::report::{peak_rss_mb, trace_hash, Fnv};
use crate::stats::median;
use crate::trace::{self, span};

/// `offline-10k`: the registry's `large-matrix-10k` (synthetic 10k×49,
/// rank 5, batch 512, 0.25× default budget), LimeQO leg only.
pub fn offline_10k_spec() -> ScenarioSpec {
    by_name("large-matrix-10k").expect("registry has large-matrix-10k")
}

/// The built environment: the oracle, the rows explored and the budget.
pub struct Env {
    /// The synthetic workload's oracle.
    pub oracle: MatOracle,
    /// Rows explored.
    pub rows: usize,
    /// Offline budget, simulated seconds.
    pub budget: f64,
}

fn select_columns(m: &Mat, idx: &[usize]) -> Mat {
    Mat::from_fn(m.rows(), idx.len(), |r, c| m[(r, idx[c])])
}

/// Build the environment the way the scenario runner does for a synthetic
/// spec without drift events or arriving queries.
pub fn build_env(spec: &ScenarioSpec) -> Env {
    let ScenarioWorkload::Synthetic(sspec) = &spec.workload else {
        panic!("{}: the offline workload is synthetic", spec.name)
    };
    assert!(spec.drift.is_empty(), "{}: the offline workload has no drift events", spec.name);
    let full = sspec.build_latency();
    let idx = spec.hint_shape.indices(sspec.k);
    let oracle = MatOracle::new(select_columns(&full, &idx), None);
    let budget = spec.budget_multiple * oracle.default_total();
    Env { oracle, rows: sspec.n, budget }
}

/// The policy a traced episode runs: [`PolicySpec::build_policy`] with a
/// [`TimedCompleter`] inside and a [`TimedPolicy`] around. The LimeQO arm
/// repeats `build_policy`'s construction so the completer can be wrapped;
/// the traced run's bit-identity check against the untraced run pins the
/// two constructions together.
pub fn traced_policy(spec: &PolicySpec, seed: u64) -> Box<dyn Policy> {
    let inner: Box<dyn Policy> = match *spec {
        PolicySpec::LimeQoAls { rank, drift, incremental, rescore_every, incremental_als } => {
            let mut als = AlsCompleter::with_rank(rank, seed);
            als.warm_start = drift.warm_start || incremental_als;
            als.incremental = incremental_als;
            let mut p = LimeQoPolicy::new(Box::new(TimedCompleter::new(Box::new(als))), "limeqo");
            p.density_gate = drift.density_gate;
            p.cold_row_bonus = drift.cold_row_bonus;
            p.rescore_changed_only = incremental;
            p.rescore_every = rescore_every;
            p.incremental_als = incremental_als;
            Box::new(p)
        }
        _ => spec.build_policy(seed),
    };
    Box::new(TimedPolicy::new(inner))
}

/// Rounds until the clock reaches `budget`, `max_steps` rounds ran, or the
/// policy has nothing left — [`Explorer::run_until`]'s admission rule.
/// Records each round's wall time, seconds, and the probes it executed.
/// With a `reference`, one reference fit is timed after every round.
pub fn rounds_until(
    ex: &mut Explorer<'_>,
    budget: f64,
    max_steps: usize,
    rounds: &mut Rounds,
    reference: Option<&Reference>,
) {
    let mut steps = 0;
    while ex.time_spent() < budget && steps < max_steps {
        steps += 1;
        trace::set_group(rounds.secs.len() as u64);
        let before = ex.cells_executed();
        let t = Instant::now();
        let more = span("explore.round", || ex.step());
        rounds.secs.push(t.elapsed().as_secs_f64());
        rounds.probes.push(ex.cells_executed() - before);
        if let Some(r) = reference {
            rounds.refs.push(span("reference", || r.timed_fit()));
        }
        if !more {
            break;
        }
    }
}

/// Per-round wall times and probe counts, in round order.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Wall time of each [`Explorer::step`], seconds.
    pub secs: Vec<f64>,
    /// Probes each round executed.
    pub probes: Vec<usize>,
    /// Reference fits, one after each round.
    pub refs: Vec<Sample>,
}

/// Run one episode of `spec`: build the environment and the explorer,
/// then explore to the budget. `traced` swaps in the timing decorators;
/// everything else is the same code. The loop reference of `refs` is
/// timed between the rounds, and its time is not part of the loop's. An
/// untraced episode times [`SETUPS_PER_EPISODE`] set-ups, each but the
/// first followed by the set-up reference, and reports their median.
pub fn episode(
    spec: &ScenarioSpec,
    explore_seed: u64,
    traced: bool,
    refs: Option<&Refs>,
) -> Episode {
    // One build before exploring, as a user's process makes: building and
    // freeing the 10k environment before exploring slowed the exploration
    // that followed by about 15 %. The other set-ups are timed after it.
    let t0 = Instant::now();
    let env = span("setup", || build_env(spec));
    let timed = TimedOracle::new(&env.oracle, "oracle");
    let oracle: &dyn Oracle = if traced { &timed } else { &env.oracle };
    let policy = if traced {
        traced_policy(&spec.policy, explore_seed)
    } else {
        spec.policy.build_policy(explore_seed)
    };
    let cfg = explore_config(spec, explore_seed);
    let mut ex = span("setup", || Explorer::new(oracle, policy, cfg, env.rows));
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let mut ep = Episode::default();

    let mut rounds = Rounds::default();
    let t1 = Instant::now();
    let looped = refs.map(|r| &r.looped);
    span("loop", || rounds_until(&mut ex, env.budget, spec.max_steps, &mut rounds, looped));
    ep.loop_s = t1.elapsed().as_secs_f64() - rounds.refs.iter().map(|s| s.wall_s).sum::<f64>();
    for s in rounds.refs {
        ep.reference(s);
    }

    let lats: Vec<f64> = ex.curve().points.iter().map(|p| p.latency).collect();
    ep.checks.check(segment_monotone(&lats), || "the latency curve regressed".into());
    let default_total = env.oracle.default_total();
    let final_latency = ex.workload_latency();
    ep.checks.check(final_latency <= default_total + 1e-9, || {
        format!("final latency {final_latency} exceeds the default total {default_total}")
    });
    // Each round is an attempted operation; none can fail on its own.
    ep.checks.attempted += rounds.secs.len() as u64;
    ep.ratio = final_latency / default_total;
    let cells = ex.cells_executed();
    // Offline exploration serves no requests of its own: its request is
    // the round, so the request percentiles are the round's.
    ep.requests = rounds.secs.clone();
    ep.rounds = rounds.secs;
    ep.extra("probes", cells as f64, "count");
    let mut h = Fnv::default();
    h.eat(final_latency.to_bits());
    h.eat(cells as u64);
    h.eat(trace_hash(ex.trace()));
    ep.fingerprint = h.finish();
    ep.extra("final_latency", final_latency, "s");
    ep.extra("default_total", default_total, "s");
    ep.layer("store.censored_frac", ex.wm().censored_count() as f64 / cells.max(1) as f64, "frac");
    ep.layer("store.mem_mb", ex.wm().mem_bytes() as f64 / 1e6, "MB");
    ep.rss_mb = peak_rss_mb("self").unwrap_or(f64::NAN);

    drop(ex);
    let mut setup_refs = Vec::new();
    if !traced {
        while setups.len() < SETUPS_PER_EPISODE {
            setups.push({
                let t = Instant::now();
                let env = build_env(spec);
                let policy = spec.policy.build_policy(explore_seed);
                let cfg = explore_config(spec, explore_seed);
                let ex = std::hint::black_box(Explorer::new(&env.oracle, policy, cfg, env.rows));
                let secs = t.elapsed().as_secs_f64();
                drop(ex);
                secs
            });
            if let Some(r) = refs {
                setup_refs.push(r.setup.timed_fit().wall_s);
            }
        }
    }
    ep.setup_s = median(&setups);
    ep.samples.push(("setup".into(), setups));
    ep.samples.push(("setup_ref".into(), setup_refs));
    ep
}

fn explore_config(spec: &ScenarioSpec, seed: u64) -> ExploreConfig {
    ExploreConfig {
        batch: spec.batch,
        seed,
        retention: spec.policy.drift(),
        max_steps: spec.max_steps,
        shards: spec.shards,
        retry: Default::default(),
        probe_fail_rate: spec.probe_fail_rate,
        probe_fail_seed: spec.probe_fail_seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limeqo_sim::scenario::SyntheticSpec;

    fn small_spec() -> ScenarioSpec {
        let mut spec = offline_10k_spec();
        spec.workload = ScenarioWorkload::Synthetic(SyntheticSpec {
            n: 300,
            k: 12,
            rank: 3,
            default_inflation: 2.5,
            noise_sigma: 0.1,
            seed: 17,
        });
        spec.batch = 16;
        spec.budget_multiple = 0.5;
        spec
    }

    #[test]
    fn harness_round_loop_equals_run_until() {
        let spec = small_spec();
        let env = build_env(&spec);
        let cfg = || ExploreConfig {
            batch: spec.batch,
            seed: 5,
            retention: spec.policy.drift(),
            ..Default::default()
        };
        let mut reference =
            Explorer::new(&env.oracle, spec.policy.build_policy(5), cfg(), env.rows);
        reference.run_until(env.budget);
        let mut ours = Explorer::new(&env.oracle, spec.policy.build_policy(5), cfg(), env.rows);
        let mut rounds = Rounds::default();
        rounds_until(&mut ours, env.budget, cfg().max_steps, &mut rounds, None);
        assert!(rounds.secs.len() > 2, "the budget must take several rounds");
        assert_eq!(rounds.probes.iter().sum::<usize>(), ours.cells_executed());
        assert_eq!(ours.workload_latency().to_bits(), reference.workload_latency().to_bits());
        assert_eq!(ours.cells_executed(), reference.cells_executed());
        assert_eq!(trace_hash(ours.trace()), trace_hash(reference.trace()));
    }

    #[test]
    fn traced_episode_reproduces_the_untraced_one() {
        let spec = small_spec();
        let tiny = Reference { rows: 50, cols: 12, rank: 3, iters: 2, threads: 1, nominal_s: 1e-4 };
        let r = Refs { looped: tiny, setup: tiny };
        let plain = episode(&spec, 9, false, Some(&r));
        assert_eq!(plain.fingerprint, episode(&spec, 9, false, None).fingerprint);
        assert_eq!(plain.refs.len(), plain.rounds.len());
        assert_eq!(plain.sample("setup").len(), crate::episode::SETUPS_PER_EPISODE);
        assert_eq!(plain.sample("setup_ref").len(), crate::episode::SETUPS_PER_EPISODE - 1);
        trace::start();
        let traced = episode(&spec, 9, true, Some(&r));
        let rec = trace::finish();
        assert_eq!(plain.fingerprint, traced.fingerprint);
        assert_eq!(plain.checks.failed, 0);
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name).collect();
        for want in
            ["setup", "loop", "explore.round", "policy.select", "complete", "oracle", "reference"]
        {
            assert!(names.contains(&want), "no {want} span");
        }
        // The layer shares and the unattributed rest account for the loop.
        let mut ep = traced;
        let probes = ep.get("probes").unwrap() as usize;
        crate::episode::account(&mut ep, &rec, probes);
        let get = |n: &str| ep.get(n).unwrap();
        let total: f64 =
            crate::episode::LOOP_LAYERS.iter().map(|l| get(&format!("{l}.share"))).sum();
        assert!(
            (total + get("trace.unattributed_frac") - 1.0).abs() < 1e-9,
            "shares sum to {total}"
        );
        assert!(get("complete.share") > 0.0 && get("explore.oracle_per_probe") > 1.0);
        assert_eq!(get("explore.rounds") as usize, plain.rounds.len());
        // The reference fits between the rounds are not loop time.
        let ref_s: f64 = ep.refs.iter().sum();
        assert!(get("trace.loop_s") <= ep.loop_s + ref_s * 0.5, "reference time counted");
    }
}
