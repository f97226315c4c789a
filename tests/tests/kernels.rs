//! Kernel-equivalence suite: the shipped ALS fit (the sparse-plus-low-rank
//! half-steps in `limeqo_core::complete::als`) against the dense three-pass
//! reference, and the incremental factor-update path against the full fit.
//!
//! Two contracts are pinned here (PERF.md §Kernels):
//!
//! 1. **One kernel, pinned two ways** — the fit is bit-identical at every
//!    thread count and shard layout, and stays within
//!    [`DENSE_REFERENCE_TOL`] (relative Frobenius) of
//!    [`dense_reference`], the same iteration in its dense form (`QHᵀ`,
//!    fill, batched ridge solve). The inputs cover ranks 1–8, censored
//!    bounds at zero, below and above the prediction, rows that hold only
//!    the default, fully observed rows, and fewer rows than threads. Exact
//!    zeros in both factors and λ = 0 on a rank-deficient factor are
//!    pinned at the half-step itself, by the unit tests in `als.rs`.
//! 2. **Bounded deviation** — the incremental path (re-solve only dirty
//!    `Q` rows against retained `H`) is *exactly* the full path when every
//!    row is dirty, and stays within the documented relative-Frobenius
//!    bound for arbitrary dirty subsets on in-model workloads.
//!
//! The `#[ignore]`d test sweeps the full registry (slow tier,
//! `./ci.sh --ignored`).

use limeqo_bench::scenario_runner::run_scenario;
use limeqo_core::complete::{dense_reference, AlsCompleter, Completer, DENSE_REFERENCE_TOL};
use limeqo_core::matrix::WorkloadMatrix;
use limeqo_core::scenario::PolicySpec;
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::{frobenius_norm, Mat};
use limeqo_sim::scenario::registry;
use proptest::prelude::*;

/// Bit-exact view of a matrix: `f64::to_bits` per element, so NaN slots
/// and signed zeros compare exactly instead of by IEEE equality.
fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Synthetic exactly-rank-`r` workload matrix observing roughly `frac` of
/// its cells plus the full default column; mirrors the core crate's
/// private test_support builder.
fn synthetic_wm(n: usize, k: usize, r: usize, frac: f64, seed: u64) -> WorkloadMatrix {
    let mut rng = SeededRng::new(seed);
    let q = rng.uniform_mat(n, r, 0.1, 2.0);
    let h = rng.uniform_mat(k, r, 0.1, 2.0);
    let truth = q.matmul_t(&h).expect("shape");
    let mut wm = WorkloadMatrix::new(n, k);
    for i in 0..n {
        wm.set_complete(i, 0, truth[(i, 0)]);
        for j in 1..k {
            if rng.chance(frac) {
                wm.set_complete(i, j, truth[(i, j)]);
            }
        }
    }
    wm
}

/// An `AlsCompleter` warm-fitted once on `wm`, ready for incremental
/// calls: low iteration count keeps the proptest sweeps fast.
fn fitted_incremental(wm: &WorkloadMatrix, rank: usize, seed: u64) -> AlsCompleter {
    let mut als = AlsCompleter::warm_started(rank, seed);
    als.iters = 10;
    als.incremental = true;
    als.incremental_threshold = 1.0;
    als.incremental_full_every = 0;
    let _ = als.complete(wm);
    als
}

/// An n×k matrix over an exactly-rank-`r` truth whose rows cycle through
/// three patterns: only the default (column 0), fully observed, and about
/// `frac` observed. An observed cell is complete, or censored at −0.0,
/// 0.0, half its truth (usually below the prediction) or twice its truth
/// plus one (above it). `shards` sets only the layout.
fn edge_case_wm(
    n: usize,
    k: usize,
    r: usize,
    frac: f64,
    seed: u64,
    shards: usize,
) -> WorkloadMatrix {
    let mut rng = SeededRng::new(seed);
    let q = rng.uniform_mat(n, r, 0.1, 2.0);
    let h = rng.uniform_mat(k, r, 0.1, 2.0);
    let truth = q.matmul_t(&h).expect("shape");
    let mut wm = WorkloadMatrix::new_sharded(n, k, shards);
    for i in 0..n {
        wm.set_complete(i, 0, truth[(i, 0)]);
        for j in 1..k {
            let observe = match i % 3 {
                0 => false,
                1 => true,
                _ => rng.chance(frac),
            };
            if !observe {
                continue;
            }
            let t = truth[(i, j)];
            match rng.index(6) {
                0 => wm.set_censored(i, j, -0.0),
                1 => wm.set_censored(i, j, 0.0),
                2 => wm.set_censored(i, j, 0.5 * t),
                3 => wm.set_censored(i, j, 2.0 * t + 1.0),
                _ => wm.set_complete(i, j, t),
            }
        }
    }
    wm
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The shipped fit at every thread count {1, 2, 8, auto} and shard
    /// count {1, 2, 8} (fewer rows than threads or shards included) is
    /// bit-identical to the serial unsharded fit, and that fit is within
    /// [`DENSE_REFERENCE_TOL`] of the dense reference.
    #[test]
    fn als_matches_the_dense_reference_at_every_thread_and_shard_count(
        dims in (1usize..30, 1usize..12, 1usize..9),
        frac in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, k, r) = dims;
        let mut config = AlsCompleter::with_rank(r, seed);
        config.iters = 20;
        config.threads = 1;
        let wm = edge_case_wm(n, k, r, frac, seed, 1);
        let serial = config.clone().complete(&wm);
        for shards in [1, 2, 8] {
            let layout = edge_case_wm(n, k, r, frac, seed, shards);
            for threads in [1, 2, 8, 0] {
                let mut als = config.clone();
                als.threads = threads;
                prop_assert_eq!(
                    bits(&als.complete(&layout)), bits(&serial),
                    "ALS diverged at shards {} threads {}", shards, threads
                );
            }
        }
        let reference = dense_reference(&config, &wm).expect("λ > 0 factors");
        let mut diff = serial.clone();
        diff.axpy(-1.0, &reference).unwrap();
        let rel = frobenius_norm(&diff) / frobenius_norm(&reference).max(1e-300);
        prop_assert!(rel <= DENSE_REFERENCE_TOL, "relative distance {} from the dense reference", rel);
    }

    /// When every row is dirty the incremental path must be *exactly* the
    /// full alternation — same factors, same completion, bit for bit.
    #[test]
    fn incremental_with_all_rows_dirty_is_exactly_the_full_path(
        dims in (4usize..24, 3usize..10),
        frac in 0.2f64..0.7,
        seed in 0u64..500,
    ) {
        let (n, k) = dims;
        let wm = synthetic_wm(n, k, 3, frac, seed);
        let mut incremental = fitted_incremental(&wm, 3, seed);
        // The documented threshold contract: an all-dirty call exceeds the
        // default 0.5 dirty fraction and falls through to the exact full
        // alternation — not an approximation of it.
        incremental.incremental_threshold = 0.5;
        let mut full = fitted_incremental(&wm, 3, seed);
        let all: Vec<usize> = (0..n).collect();
        let got = incremental.complete_dirty(&wm, Some(&all));
        let want = full.complete(&wm);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Arbitrary dirty subsets: the incremental completion stays within
    /// the documented relative-Frobenius bound of the full refit when the
    /// new observations come from the same low-rank ground truth
    /// (the convergence contract in PERF.md §Kernels).
    #[test]
    fn incremental_deviation_from_full_stays_bounded(
        dims in (8usize..24, 4usize..10),
        frac in 0.3f64..0.7,
        subset_seed in 0u64..1_000,
        seed in 0u64..500,
    ) {
        let (n, k) = dims;
        let mut rng = SeededRng::new(seed);
        let qt = rng.uniform_mat(n, 3, 0.1, 2.0);
        let ht = rng.uniform_mat(k, 3, 0.1, 2.0);
        let truth = qt.matmul_t(&ht).unwrap();
        let mut wm = WorkloadMatrix::new(n, k);
        for i in 0..n {
            wm.set_complete(i, 0, truth[(i, 0)]);
            for j in 1..k {
                if rng.chance(frac) {
                    wm.set_complete(i, j, truth[(i, j)]);
                }
            }
        }
        let mut incremental = fitted_incremental(&wm, 3, seed);
        let mut full = fitted_incremental(&wm, 3, seed);
        // Reveal one more truth cell in an arbitrary subset of rows.
        let mut sub_rng = SeededRng::new(subset_seed ^ 0xD127);
        let mut dirty = Vec::new();
        for i in 0..n {
            if !sub_rng.chance(0.3) {
                continue;
            }
            let next_unobserved = wm.unobserved_cells().find(|&(r, _)| r == i).map(|(_, j)| j);
            if let Some(j) = next_unobserved {
                wm.set_complete(i, j, truth[(i, j)]);
                dirty.push(i);
            }
        }
        let got = incremental.complete_dirty(&wm, Some(&dirty));
        let want = full.complete(&wm);
        let mut diff = got.clone();
        diff.axpy(-1.0, &want).unwrap();
        let rel = frobenius_norm(&diff) / frobenius_norm(&want).max(1e-12);
        prop_assert!(rel < 0.25, "incremental deviated {rel} from the full refit");
    }
}

/// Fast-tier registry sweep: LimeQO stays no worse than Random (at the
/// golden suite's 2 % tolerance) on every drift-free LimeQoAls scenario
/// with incremental factor updates switched on. The big 10k-row scenario
/// joins in the `#[ignore]`d full sweep below.
#[test]
fn registry_holds_limeqo_vs_random_with_incremental_updates() {
    sweep_registry_with_incremental(1_000);
}

#[test]
#[ignore = "slow tier: the full registry incl. large-matrix-10k; run via ./ci.sh --ignored"]
fn full_registry_holds_limeqo_vs_random_with_incremental_updates() {
    sweep_registry_with_incremental(usize::MAX);
}

fn sweep_registry_with_incremental(max_rows: usize) {
    let mut covered = 0;
    for mut spec in registry() {
        if spec.workload.n_queries() > max_rows {
            continue;
        }
        let PolicySpec::LimeQoAls { ref mut incremental_als, .. } = spec.policy else {
            continue;
        };
        if !spec.drift.is_empty() {
            continue;
        }
        *incremental_als = true;
        let o = run_scenario(&spec);
        let random = o.random_final_latency.expect("offline scenarios run a random reference");
        assert!(
            o.final_latency <= random * 1.02 + 1e-9,
            "{}: limeqo with incremental updates {} worse than random {}",
            spec.name,
            o.final_latency,
            random
        );
        covered += 1;
    }
    assert!(covered >= 3, "expected >= 3 drift-free LimeQoAls scenarios, found {covered}");
}
