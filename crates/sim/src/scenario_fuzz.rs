//! Property-based scenario generation: random-but-valid [`ScenarioSpec`]s
//! and a deterministic shrinker for failures.
//!
//! The generator maps a 64-bit case seed to one spec; the same seed always
//! yields the same spec, so a failing case is replayed by its seed alone
//! (`scenario fuzz --replay SEED`). Every generated spec satisfies
//! [`ScenarioSpec::check`] by construction and is sized to run in well
//! under a second, so a CI smoke of a handful of cases stays cheap while
//! the `--ignored` tier can afford hundreds.
//!
//! Generated specs are *calibrated*: synthetic workloads keep
//! `default_inflation >= 1.4` so the "LimeQO beats Random drift-free"
//! invariant has real headroom to assert against, mirroring how the
//! hand-written registry scenarios were tuned in PRs 2–3. Claim-carrying
//! Sim workloads run 3–5 seeds so the checker can compare *medians* —
//! the luck-robust form of the invariant. The generator also fuzzes the
//! workload-matrix shard count ([`ScenarioSpec::shards`]), continuously
//! spot-checking the sharded-equivalence contract.
//!
//! The shrinker ([`shrink`]) is a fixed candidate ladder, not generic
//! structural shrinking: each rung proposes a strictly simpler spec
//! (fewer seeds, no drift, full hint space, smaller matrix, calmer
//! arrivals) and keeps it only if the caller's predicate still fails and
//! [`ScenarioSpec::check`] still passes. That is enough to turn a noisy
//! random spec into a minimal reproducer worth committing to
//! `scenarios/broken/`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::{
    ArrivalModel, ArrivalSpec, DriftEvent, DriftKind, HintShape, ScenarioSpec, ScenarioWorkload,
    SyntheticSpec,
};
use crate::workloads::WorkloadSpec;
use limeqo_core::scenario::PolicySpec;
use limeqo_core::store::DriftPolicy;

/// Domain-separation salt so fuzz streams never collide with the
/// scenario engines' own seeded streams.
const FUZZ_SALT: u64 = 0xF022_5EED;

/// Generate the random-but-valid spec for `case_seed`. Deterministic:
/// the seed is the whole reproducer.
pub fn generate(case_seed: u64) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(case_seed ^ FUZZ_SALT);
    let online = rng.gen_range(0..4u32) == 0;
    let spec =
        if online { gen_online(case_seed, &mut rng) } else { gen_offline(case_seed, &mut rng) };
    debug_assert!(spec.check().is_ok(), "generator produced an invalid spec: {:?}", spec.check());
    spec
}

fn gen_workload(rng: &mut StdRng, calibrated: bool) -> ScenarioWorkload {
    // Sim workloads pay an n_queries x 49 oracle build per seed, so they
    // stay tiny; synthetic matrices are cheap and carry the size range.
    //
    // `calibrated` marks specs whose policy carries the LimeQO-beats-
    // Random claim. Synthetic matrices are the claim's home regime (the
    // low-rank structure holds by construction, n is big enough for the
    // signal to beat sampling noise). Tiny sim workloads have heavy-tailed
    // defaults — one row can carry half the workload, so on any *single*
    // seed Random genuinely wins by luck. They still carry the claim now,
    // but only under the luck-robust multi-seed-median invariant (see
    // `gen_offline`): the median over >= 3 seeds washes out single-seed
    // luck while a policy regression (losing the low-rank signal entirely)
    // still shifts every seed and trips it.
    if calibrated && rng.gen_range(0..10u32) < 3 {
        return ScenarioWorkload::Sim(WorkloadSpec::tiny(
            rng.gen_range(24..=48usize),
            rng.gen_range(1..=1u64 << 32),
        ));
    }
    if calibrated || rng.gen_range(0..10u32) < 7 {
        let k = rng.gen_range(6..=16usize);
        ScenarioWorkload::Synthetic(SyntheticSpec {
            n: if calibrated { rng.gen_range(64..=160usize) } else { rng.gen_range(24..=120usize) },
            k,
            rank: rng.gen_range(1..=4usize.min(k - 1)),
            default_inflation: rng.gen_range(1.5..3.0),
            noise_sigma: if calibrated { rng.gen_range(0.0..0.3) } else { rng.gen_range(0.0..0.4) },
            seed: rng.gen_range(1..=1u64 << 32),
        })
    } else {
        ScenarioWorkload::Sim(WorkloadSpec::tiny(
            rng.gen_range(16..=40usize),
            rng.gen_range(1..=1u64 << 32),
        ))
    }
}

/// The shard-count axis: mostly unsharded (the historical layout), with
/// the sharded layouts mixed in. Sharding is pinned bit-identical to the
/// unsharded engine, so any invariant failure found at `shards > 1` is a
/// real policy/runner bug, not a sharding artifact — and the fuzzer
/// doubles as a continuous spot-check of that equivalence (the runner's
/// monotone/ordering invariants would catch a divergent trajectory).
fn gen_shards(rng: &mut StdRng) -> usize {
    [1usize, 1, 2, 4][rng.gen_range(0..4usize)]
}

fn gen_hint_shape(rng: &mut StdRng, workload: &ScenarioWorkload) -> HintShape {
    let full_k = match workload {
        ScenarioWorkload::Sim(_) => crate::hints::HintSpace::all().len(),
        ScenarioWorkload::Synthetic(s) => s.k,
    };
    match rng.gen_range(0..5u32) {
        0 => HintShape::Prefix(rng.gen_range(2..=full_k)),
        1 => HintShape::Strided(rng.gen_range(1..=3usize)),
        _ => HintShape::Full,
    }
}

fn gen_seeds(rng: &mut StdRng) -> Vec<u64> {
    (0..rng.gen_range(1..=2usize)).map(|_| rng.gen_range(1..10_000u64)).collect()
}

fn gen_offline(case_seed: u64, rng: &mut StdRng) -> ScenarioSpec {
    // LimeQoAlsNoCensor is deliberately absent: the no-censoring ablation
    // genuinely loses to Random on workloads where probes are expensive —
    // the fuzzer found that on its first run, and the counterexample is
    // pinned as scenarios/broken/no-censor-loses.json rather than
    // generated fresh every time.
    let policy = match rng.gen_range(0..8u32) {
        0 => PolicySpec::Random,
        1 => PolicySpec::Greedy,
        2 => PolicySpec::QoAdvisor,
        3 => PolicySpec::limeqo_legacy(),
        // Incremental Eq. 6 re-ranking at fuzzed cadences. Cached per-row
        // scores are invalidated on the store's global *completion epoch*
        // (bumped whenever any cell completes), so lazy cadences no longer
        // tunnel on a stale argmin. The fuzzer originally found that
        // collapse at `rescore_every: 8`: the cache keyed on `row_rev`
        // alone, so a cached `None` locked a row out of the candidate set
        // until its own observations changed — which never happened for a
        // row the ranking ignored. The reproducer graduated from
        // scenarios/broken/incremental-tunnel.json to the registry
        // regression scenario `incremental-tunnel` when the epoch fix
        // landed; every cadence here is in the design envelope now.
        4 => PolicySpec::LimeQoAls {
            rank: rng.gen_range(2..=5usize),
            drift: DriftPolicy::default(),
            incremental: true,
            rescore_every: [1usize, 2, 4, 8][rng.gen_range(0..4usize)],
            incremental_als: false,
        },
        _ => PolicySpec::limeqo(),
    };
    let calibrated = policy.expects_to_beat_random();
    let workload = gen_workload(rng, calibrated);
    // Rank 4–5 on a tiny Sim catalog is outside the calibrated envelope:
    // with ~30 rows and no low-rank ground truth, the over-parameterized
    // factor model fits noise and loses to Random by *median* margins
    // (the 1,200-seed sweep measured up to 2.15x) that no meaningful
    // collapse bound could absorb. Clamping after the draw keeps the RNG
    // stream — and so every other generated case — unchanged.
    let policy = match (&workload, policy) {
        (
            ScenarioWorkload::Sim(_),
            PolicySpec::LimeQoAls { rank, drift, incremental, rescore_every, incremental_als },
        ) => PolicySpec::LimeQoAls {
            rank: rank.min(3),
            drift,
            incremental,
            rescore_every,
            incremental_als,
        },
        (_, p) => p,
    };
    let hint_shape = gen_hint_shape(rng, &workload);
    // Drift only on simulated workloads (data shift needs a catalog), and
    // only sometimes — drift-free cases keep the LimeQO-vs-Random
    // invariant armed.
    let drift = if matches!(workload, ScenarioWorkload::Sim(_)) && rng.gen_range(0..5u32) < 2 {
        let n = workload.n_queries();
        let at_frac = rng.gen_range(0.2..0.8);
        let kind = if rng.gen_range(0..2u32) == 0 {
            DriftKind::DataShift { days: rng.gen_range(90.0..730.0) }
        } else {
            DriftKind::AddQueries { count: rng.gen_range(1..=(n / 4).max(1)) }
        };
        vec![DriftEvent { at_frac, kind }]
    } else {
        Vec::new()
    };
    let shaped = {
        // Probe spec for shaped_columns; fields below are placeholders.
        let probe = ScenarioSpec {
            name: "probe".into(),
            summary: String::new(),
            workload: workload.clone(),
            hint_shape,
            drift: vec![],
            policy: PolicySpec::Random,
            budget_multiple: 1.0,
            batch: 1,
            max_steps: 1,
            seeds: vec![1],
            arrivals: None,
            shards: 1,
            probe_fail_rate: 0.0,
            probe_fail_seed: 0,
        };
        probe.shaped_columns().expect("generated shape is in bounds")
    };
    let cells = workload.n_queries() * shaped;
    // Claim-carrying Sim workloads are luck-prone per seed (heavy-tailed
    // defaults), so they run 3–5 seeds and the checker compares medians;
    // synthetic claim-carriers keep the historic 2-seed mean comparison.
    let claim_seeds =
        if matches!(workload, ScenarioWorkload::Sim(_)) { rng.gen_range(3..=5usize) } else { 2 };
    let mut spec = ScenarioSpec {
        name: format!("fuzz-{case_seed:016x}"),
        summary: format!("fuzzer case {case_seed:#x} (offline)"),
        workload,
        hint_shape,
        drift,
        policy,
        // Claim-carrying specs get the budget and the seed averaging the
        // claim was calibrated with; baselines roam freely.
        budget_multiple: if calibrated { rng.gen_range(1.5..4.0) } else { rng.gen_range(0.5..4.0) },
        // Calibrated batches stay small: batch 16 against a tiny matrix
        // forces Eq. 6 to commit to 16 cells per model refit, which can
        // burn a modest budget before the completion learns anything.
        batch: if calibrated {
            [4usize, 8][rng.gen_range(0..2usize)].min(cells)
        } else {
            [4usize, 8, 16][rng.gen_range(0..3usize)].min(cells)
        },
        max_steps: 100_000,
        seeds: if calibrated {
            (0..claim_seeds).map(|_| rng.gen_range(1..10_000u64)).collect()
        } else {
            gen_seeds(rng)
        },
        arrivals: None,
        shards: gen_shards(rng),
        probe_fail_rate: 0.0,
        probe_fail_seed: 0,
    };
    // Incremental-ALS axis: the flag is drawn *after* every existing
    // offline draw, so all previously generated cases keep their specs
    // (the same stream-preserving discipline as the rank clamp above).
    // Incremental updates carry the same LimeQO-beats-Random claim as the
    // full refit — the bounded-deviation contract (PERF.md §Kernels) says
    // a dirty-row re-solve must not move the outcome past the tolerance —
    // so the fuzzer keeps the invariant armed on that path too.
    if let PolicySpec::LimeQoAls { drift, incremental_als, .. } = &mut spec.policy {
        if rng.gen_range(0..4u32) == 0 {
            *incremental_als = true;
            // Incremental fitting implies warm starting; mirror that in
            // the spec so serialized reproducers read literally.
            drift.warm_start = true;
        }
    }
    // Probe-fault axis: drawn after every existing offline draw (same
    // stream-preserving discipline as the incremental-ALS flag above).
    // Rare and mild — the claim checker still has to pass under injected
    // failures because retries re-issue the probes, but a heavy rate on a
    // tight budget would turn claim checks into coin flips.
    if rng.gen_range(0..5u32) == 0 {
        spec.probe_fail_rate = rng.gen_range(0.02..0.15);
        spec.probe_fail_seed = rng.gen_range(1..1_000_000u64);
    }
    spec
}

fn gen_online(case_seed: u64, rng: &mut StdRng) -> ScenarioSpec {
    let workload = gen_workload(rng, true);
    let n = workload.n_queries();
    let policy = PolicySpec::OnlineAls {
        rank: rng.gen_range(2..=5usize),
        explore_prob: rng.gen_range(0.05..0.3),
        rho: rng.gen_range(1.05..1.5),
        refresh_every: [16usize, 32, 64][rng.gen_range(0..3usize)],
        cold_bonus: if rng.gen_range(0..2u32) == 0 { 0.0 } else { rng.gen_range(0.01..0.1) },
    };
    let model = match rng.gen_range(0..4u32) {
        0 | 1 => ArrivalModel::Uniform,
        2 => ArrivalModel::Zipf { exponent: rng.gen_range(0.8..1.6) },
        _ => ArrivalModel::Replay {
            rows: (0..rng.gen_range(16..=64usize)).map(|_| rng.gen_range(0..n)).collect(),
        },
    };
    let replay = matches!(model, ArrivalModel::Replay { .. });
    let arrivals = ArrivalSpec {
        count: rng.gen_range(300..=1200usize),
        burst: if replay { 1 } else { rng.gen_range(1..=4usize) },
        concurrency: if replay { 1 } else { rng.gen_range(1..=3usize) },
        rate: if rng.gen_range(0..2u32) == 0 { 0.0 } else { rng.gen_range(0.5..4.0) },
        model,
    };
    ScenarioSpec {
        name: format!("fuzz-{case_seed:016x}"),
        summary: format!("fuzzer case {case_seed:#x} (online)"),
        workload,
        hint_shape: HintShape::Full,
        drift: Vec::new(),
        policy,
        budget_multiple: 0.0,
        batch: 1,
        max_steps: 100_000,
        seeds: gen_seeds(rng),
        arrivals: Some(arrivals),
        shards: gen_shards(rng),
        probe_fail_rate: 0.0,
        probe_fail_seed: 0,
    }
}

/// One rung of the shrink ladder: propose a strictly simpler spec, or
/// `None` when the rung does not apply.
type Rung = fn(&ScenarioSpec) -> Option<ScenarioSpec>;

fn rungs() -> Vec<Rung> {
    vec![
        |s| {
            (s.seeds.len() > 1).then(|| {
                let mut t = s.clone();
                t.seeds.truncate(1);
                t
            })
        },
        |s| {
            (!s.drift.is_empty()).then(|| {
                let mut t = s.clone();
                t.drift.clear();
                t
            })
        },
        // Sharding is bit-identical by contract, so a failure should
        // reproduce unsharded; if it does not, the rung is rejected and
        // the reproducer keeps its shard count — itself a loud signal.
        |s| {
            (s.shards > 1).then(|| {
                let mut t = s.clone();
                t.shards = 1;
                t
            })
        },
        // Injected probe failures perturb the exploration order, so try
        // the fault-free run early; a reproducer that keeps the rate means
        // the bug only shows under faults — worth knowing immediately.
        |s| {
            (s.probe_fail_rate != 0.0).then(|| {
                let mut t = s.clone();
                t.probe_fail_rate = 0.0;
                t.probe_fail_seed = 0;
                t
            })
        },
        // Incremental factor updates are bounded-deviation by contract, so
        // a failure should normally reproduce on the full-refit path; a
        // reproducer that keeps the flag through this rung is itself a
        // loud signal (the incremental path diverged past its bound).
        |s| match &s.policy {
            PolicySpec::LimeQoAls { incremental_als: true, .. } => {
                let mut t = s.clone();
                if let PolicySpec::LimeQoAls { incremental_als, .. } = &mut t.policy {
                    *incremental_als = false;
                }
                Some(t)
            }
            _ => None,
        },
        |s| {
            (s.hint_shape != HintShape::Full).then(|| {
                let mut t = s.clone();
                t.hint_shape = HintShape::Full;
                t
            })
        },
        |s| match &s.workload {
            ScenarioWorkload::Synthetic(w) if w.n > 8 => {
                let mut t = s.clone();
                let mut w = w.clone();
                w.n = (w.n / 2).max(8);
                w.rank = w.rank.min(w.n.min(w.k));
                t.workload = ScenarioWorkload::Synthetic(w);
                Some(t)
            }
            _ => None,
        },
        |s| match &s.workload {
            ScenarioWorkload::Synthetic(w) if w.k > 4 => {
                let mut t = s.clone();
                let mut w = w.clone();
                w.k = (w.k / 2).max(4);
                w.rank = w.rank.min(w.k - 1);
                t.workload = ScenarioWorkload::Synthetic(w);
                Some(t)
            }
            _ => None,
        },
        |s| match &s.workload {
            ScenarioWorkload::Synthetic(w) if w.noise_sigma != 0.0 => {
                let mut t = s.clone();
                let mut w = w.clone();
                w.noise_sigma = 0.0;
                t.workload = ScenarioWorkload::Synthetic(w);
                Some(t)
            }
            _ => None,
        },
        |s| match &s.workload {
            ScenarioWorkload::Sim(w) if w.n_queries > 16 => {
                let mut t = s.clone();
                t.workload =
                    ScenarioWorkload::Sim(WorkloadSpec::tiny((w.n_queries / 2).max(16), w.seed));
                Some(t)
            }
            _ => None,
        },
        |s| match &s.arrivals {
            Some(a) if a.count > 64 => {
                let mut t = s.clone();
                t.arrivals.as_mut().expect("just matched").count = (a.count / 2).max(64);
                Some(t)
            }
            _ => None,
        },
        |s| match &s.arrivals {
            Some(a) if a.burst != 1 || a.concurrency != 1 || a.rate != 0.0 => {
                let mut t = s.clone();
                let a = t.arrivals.as_mut().expect("just matched");
                a.burst = 1;
                a.concurrency = 1;
                a.rate = 0.0;
                Some(t)
            }
            _ => None,
        },
        |s| match &s.arrivals {
            Some(a) if !matches!(a.model, ArrivalModel::Uniform) => {
                let mut t = s.clone();
                t.arrivals.as_mut().expect("just matched").model = ArrivalModel::Uniform;
                Some(t)
            }
            _ => None,
        },
        |s| {
            (s.batch > 1).then(|| {
                let mut t = s.clone();
                t.batch = (t.batch / 2).max(1);
                t
            })
        },
    ]
}

/// Shrink a failing spec: repeatedly apply the simplification ladder,
/// keeping a candidate only when it is still valid and `fails` still
/// returns `true` for it. Returns the simplest failing spec found. The
/// caller guarantees `fails(spec)` is `true` on entry; `fails` is the
/// expensive part (it re-runs the scenario), so the ladder is bounded
/// and deterministic.
pub fn shrink(spec: &ScenarioSpec, fails: &mut dyn FnMut(&ScenarioSpec) -> bool) -> ScenarioSpec {
    let ladder = rungs();
    let mut best = spec.clone();
    // Each full pass can unlock further rungs (halving n twice, etc.);
    // the sizes are log-bounded so a small pass cap is plenty.
    for _ in 0..12 {
        let mut improved = false;
        for rung in &ladder {
            while let Some(candidate) = rung(&best) {
                if candidate.check().is_ok() && fails(&candidate) {
                    best = candidate;
                    improved = true;
                } else {
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_are_always_valid() {
        for seed in 0..256u64 {
            let spec = generate(seed);
            spec.check().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(generate(seed), generate(seed));
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_specs_round_trip_through_both_formats() {
        // The canonical multi-line layout and the compact one decode alike.
        use crate::scenario_file::{parse_scenario_json, to_json_string};
        use limeqo_core::json::Json;
        let label = std::path::Path::new("<fuzz>");
        for seed in 0..64u64 {
            let spec = generate(seed);
            let pretty = to_json_string(&spec);
            let back = parse_scenario_json(&pretty, label, None).unwrap();
            assert_eq!(back, spec, "JSON round trip for fuzz seed {seed}");
            let compact = Json::parse(&pretty).unwrap().render();
            let back = parse_scenario_json(&compact, label, None).unwrap();
            assert_eq!(back, spec, "compact JSON round trip for fuzz seed {seed}");
        }
    }

    #[test]
    fn generator_mixes_online_and_offline_cases() {
        let specs: Vec<_> = (0..64u64).map(generate).collect();
        assert!(specs.iter().any(|s| s.arrivals.is_some()));
        assert!(specs.iter().any(|s| s.arrivals.is_none()));
        assert!(specs.iter().any(|s| matches!(s.workload, ScenarioWorkload::Sim(_))));
        assert!(specs.iter().any(|s| matches!(s.workload, ScenarioWorkload::Synthetic(_))));
    }

    #[test]
    fn shrink_reaches_a_minimal_failing_spec() {
        // Failure predicate: any synthetic workload with n >= 16 "fails";
        // the shrinker should halve n down to the last value that still
        // satisfies the predicate and flatten every orthogonal knob.
        let start = (0..)
            .map(generate)
            .find(|s| matches!(&s.workload, ScenarioWorkload::Synthetic(w) if w.n >= 64))
            .expect("generator produces a big synthetic case");
        let mut calls = 0usize;
        let shrunk = shrink(&start, &mut |s| {
            calls += 1;
            matches!(&s.workload, ScenarioWorkload::Synthetic(w) if w.n >= 16)
        });
        match &shrunk.workload {
            ScenarioWorkload::Synthetic(w) => {
                // Halving stops when the next halving would cross the
                // predicate's n >= 16 boundary, so the result lands in
                // [16, 31].
                assert!((16..32).contains(&w.n), "n shrunk to {}", w.n);
                assert_eq!(w.noise_sigma, 0.0);
                assert_eq!(w.k, 4);
            }
            other => panic!("workload kind changed: {other:?}"),
        }
        assert_eq!(shrunk.seeds.len(), 1);
        assert!(shrunk.drift.is_empty());
        assert_eq!(shrunk.hint_shape, HintShape::Full);
        assert_eq!(shrunk.batch, 1);
        assert!(calls < 200, "shrink must stay bounded, used {calls} calls");
        shrunk.check().unwrap();
    }

    #[test]
    fn shrink_keeps_the_original_when_nothing_simpler_fails() {
        let spec = generate(7);
        let shrunk = shrink(&spec, &mut |s| s == &spec);
        assert_eq!(shrunk, spec);
    }
}
