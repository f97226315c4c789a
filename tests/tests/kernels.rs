//! Kernel-equivalence differential suite: the cache-blocked and fused
//! kernels in `limeqo_linalg::block` and the incremental factor-update
//! path in `AlsCompleter` against their reference implementations.
//!
//! Two contracts are pinned here (PERF.md §Kernels):
//!
//! 1. **Bit-identity** — the tiled product and the fused ALS half-steps
//!    replicate the three-pass reference (`par::matmul_t`, the fill, then
//!    `ridge_solve_rows_blocked` / `ridge_solve_cols`) operation for
//!    operation, so any tile size at any thread count produces
//!    byte-identical output. This is what lets `AlsKernel::Blocked` be the
//!    default without moving a single golden.
//! 2. **Bounded deviation** — the incremental path (re-solve only dirty
//!    `Q` rows against retained `H`) is *exactly* the full path when every
//!    row is dirty, and stays within the documented relative-Frobenius
//!    bound for arbitrary dirty subsets on in-model workloads.
//!
//! The `#[ignore]`d tests sweep production-sized shapes and the full
//! registry (slow tier, `./ci.sh --ignored`).

use limeqo_bench::scenario_runner::run_scenario;
use limeqo_core::complete::{AlsCompleter, AlsKernel, Completer};
use limeqo_core::matrix::WorkloadMatrix;
use limeqo_core::scenario::PolicySpec;
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::{
    cholesky, frobenius_norm, fused_h_step, fused_q_step, lu, matmul_t_tiled, par,
    ridge_solve_cols, ridge_solve_rows_blocked, Mat, Result,
};
use limeqo_sim::scenario::registry;
use proptest::prelude::*;

/// The tile sizes every differential test sweeps: degenerate (1), prime
/// (7, never divides the tested shapes evenly), large (64, usually wider
/// than the whole RHS panel), and auto (0).
const TILES: [usize; 4] = [1, 7, 64, 0];
const THREADS: [usize; 3] = [1, 2, 8];

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

/// Bit-exact view of a kernel result: the output's bits, or the error.
fn outcome(r: Result<Mat>) -> std::result::Result<Vec<u64>, String> {
    r.map(|m| bits(&m)).map_err(|e| format!("{e:?}"))
}

/// One observed cell: a completed latency, or a censored lower bound that
/// the fill raises the prediction to.
#[derive(Clone, Copy)]
enum Obs {
    Complete(f64),
    Censored(f64),
}

/// Observed cells per row, ascending by column, with the fill the ALS
/// engine applies to `QHᵀ`: completes overwrite, censored bounds above
/// zero clamp the prediction up.
struct Cells(Vec<Vec<(usize, Obs)>>);

impl Cells {
    /// A random observation pattern over `q·hᵀ`: each cell complete,
    /// censored or unobserved; censored bounds negative, zero, below the
    /// prediction (ignored) or above it (clamped); every `full_every`-th
    /// row fully observed.
    fn random(rng: &mut SeededRng, q: &Mat, h: &Mat, full_every: usize) -> Cells {
        let pred = q.matmul_t(h).unwrap();
        let rows = (0..q.rows())
            .map(|i| {
                let full = i % full_every == 0;
                (0..h.rows())
                    .filter_map(|j| {
                        let p = pred[(i, j)];
                        let obs = match rng.index(if full { 2 } else { 3 }) {
                            0 => Obs::Complete(rng.uniform(0.0, 3.0)),
                            1 => Obs::Censored(match rng.index(4) {
                                0 => -rng.uniform(0.0, 1.0),
                                1 => 0.0,
                                2 => p * 0.5,
                                _ => p.abs() * 2.0 + 1.0,
                            }),
                            _ => return None,
                        };
                        Some((j, obs))
                    })
                    .collect()
            })
            .collect();
        Cells(rows)
    }

    fn fill(&self, row: usize, lo: usize, w: &mut [f64]) {
        for &(col, obs) in &self.0[row] {
            if !(lo..lo + w.len()).contains(&col) {
                continue;
            }
            let slot = &mut w[col - lo];
            match obs {
                Obs::Complete(v) => *slot = v,
                Obs::Censored(b) => {
                    if b > 0.0 && *slot < b {
                        *slot = b;
                    }
                }
            }
        }
    }

    /// The reference `Ŵ`: `par::matmul_t`, then the fill row by row.
    fn w_hat(&self, q: &Mat, h: &Mat) -> Mat {
        let mut w = par::matmul_t(q, h, 1).unwrap();
        for row in 0..w.rows() {
            self.fill(row, 0, w.row_mut(row));
        }
        w
    }
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

/// Make `m` rank-deficient: its last column becomes a copy of its first.
fn duplicate_first_column(m: &mut Mat) {
    let last = m.cols() - 1;
    for i in 0..m.rows() {
        m[(i, last)] = m[(i, 0)];
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// `matmul_t_tiled` replicates the serial `Mat::matmul_t` FP sequence
    /// at every tile size and thread count, including shapes no tile
    /// divides evenly.
    #[test]
    fn tiled_matmul_is_bit_identical_to_naive(
        dims in (1usize..40, 1usize..20, 1usize..8),
        seed in 0u64..500,
    ) {
        let (n, k, r) = dims;
        let mut rng = SeededRng::new(seed ^ 0xB10C);
        let a = rng.gaussian_mat(n, r, 0.0, 2.0);
        let b = rng.gaussian_mat(k, r, 0.0, 2.0);
        let naive = a.matmul_t(&b).unwrap();
        for tile in TILES {
            for threads in THREADS {
                let tiled = matmul_t_tiled(&a, &b, threads, tile).unwrap();
                prop_assert_eq!(
                    bits(&tiled), bits(&naive),
                    "matmul_t diverged at tile {} threads {}", tile, threads
                );
            }
        }
        // The parallel naive kernel shares the same contract.
        prop_assert_eq!(bits(&par::matmul_t(&a, &b, 4).unwrap()), bits(&naive));
    }

    /// The fused `Q` step matches the three-pass reference (`QHᵀ`, fill,
    /// `ridge_solve_rows_blocked`) on the same block partition, bit for
    /// bit — including partitions with empty and uneven blocks. (The `Q`
    /// step has no tile: it fuses one query row at a time.)
    #[test]
    fn tiled_row_solve_is_bit_identical_to_blocked(
        dims in (2usize..24, 1usize..6, 1usize..30),
        lambda in 0.0f64..2.0,
        seed in 0u64..500,
    ) {
        let (m, p, q) = dims;
        let mut rng = SeededRng::new(seed ^ 0x50_1E);
        let h = rng.uniform_mat(m, p, 0.0, 1.5);
        let q_mat = rng.uniform_mat(q, p, 0.0, 2.0);
        let cells = Cells::random(&mut rng, &q_mat, &h, 4);
        let w_hat = cells.w_hat(&q_mat, &h);
        let split = q / 2;
        for blocks in [vec![(0, q)], vec![(0, split), (split, split), (split, q)]] {
            let naive = ridge_solve_rows_blocked(&h, &w_hat, lambda, 1, &blocks).unwrap();
            for threads in THREADS {
                let fill = |row: usize, lo: usize, w: &mut [f64]| cells.fill(row, lo, w);
                let fused = fused_q_step(&q_mat, &h, lambda, threads, &blocks, fill).unwrap();
                prop_assert_eq!(
                    bits(&fused), bits(&naive),
                    "Q step diverged at threads {} blocks {:?}", threads, blocks
                );
            }
        }
    }

    /// The fused `H` step matches the three-pass reference (`QHᵀ`, fill,
    /// `ridge_solve_cols`) bit for bit: the on-the-fly column windows and
    /// the branchless zero skip replicate the reference's FP sequence.
    #[test]
    fn tiled_col_solve_is_bit_identical_to_naive(
        dims in (2usize..24, 1usize..6, 1usize..16),
        lambda in 0.0f64..2.0,
        seed in 0u64..500,
    ) {
        let (m, p, cols) = dims;
        let mut rng = SeededRng::new(seed ^ 0xC0_15);
        let mut q = rng.uniform_mat(m, p, 0.0, 1.5);
        // Plant exact zeros so the skip predicate is exercised.
        if m > 2 {
            for j in 0..p {
                q[(2, j)] = 0.0;
            }
        }
        let h = rng.uniform_mat(cols, p, 0.0, 2.0);
        let cells = Cells::random(&mut rng, &q, &h, 4);
        let naive = ridge_solve_cols(&q, &cells.w_hat(&q, &h), lambda, 1).unwrap();
        for tile in TILES {
            for threads in THREADS {
                let fill = |row: usize, lo: usize, w: &mut [f64]| cells.fill(row, lo, w);
                let fused = fused_h_step(&q, &h, lambda, threads, tile, fill).unwrap();
                prop_assert_eq!(
                    bits(&fused), bits(&naive),
                    "H step diverged at tile {} threads {}", tile, threads
                );
            }
        }
    }

    /// The fused steps against the three-pass reference on the inputs
    /// the uniform draws above never reach: exact zeros of both signs in
    /// both factors (routine after the non-negativity clamp), censored
    /// bounds at or below zero (ignored) and above the prediction
    /// (clamped), fully observed rows, fewer rows than threads, ranks on
    /// both sides of the fixed-width r = 5 instantiation, and λ = 0 on a
    /// rank-deficient factor — where both sides must take the same LU
    /// fallback or return the same typed error.
    #[test]
    fn fused_steps_match_the_reference_on_edge_cases(
        dims in (1usize..12, 1usize..12, 1usize..9),
        zero_frac in 0.0f64..0.6,
        deficient in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let (n, k, r) = dims;
        let mut rng = SeededRng::new(seed ^ 0xED6E);
        let mut q = rng.uniform_mat(n, r, 0.0, 2.0);
        let mut h = rng.uniform_mat(k, r, 0.0, 2.0);
        plant_zeros(&mut rng, &mut q, zero_frac);
        plant_zeros(&mut rng, &mut h, zero_frac);
        // One case in three: λ = 0 on rank-deficient factors.
        let lambda = if deficient == 0 && r > 1 {
            duplicate_first_column(&mut q);
            duplicate_first_column(&mut h);
            0.0
        } else {
            rng.uniform(0.0, 1.0)
        };
        let cells = Cells::random(&mut rng, &q, &h, 3);
        let w_hat = cells.w_hat(&q, &h);
        let fill = |row: usize, lo: usize, w: &mut [f64]| cells.fill(row, lo, w);
        let split = n / 2;
        let blocks = [(0, split), (split, n)];
        let want_q = outcome(ridge_solve_rows_blocked(&h, &w_hat, lambda, 1, &blocks));
        let want_h = outcome(ridge_solve_cols(&q, &w_hat, lambda, 1));
        for threads in THREADS {
            let got = outcome(fused_q_step(&q, &h, lambda, threads, &blocks, fill));
            prop_assert_eq!(&got, &want_q, "Q step diverged at threads {}", threads);
            for tile in TILES {
                let got = outcome(fused_h_step(&q, &h, lambda, threads, tile, fill));
                prop_assert_eq!(
                    &got, &want_h,
                    "H step diverged at tile {} threads {}", tile, threads
                );
            }
        }
    }

    /// End to end through Algorithm 2: an `AlsCompleter` on the blocked
    /// kernels reproduces the naive-kernel completer byte for byte at any
    /// tile size and thread count, censored clamps and all.
    #[test]
    fn als_blocked_kernel_is_bit_identical_to_naive(
        dims in (4usize..30, 3usize..12),
        frac in 0.2f64..0.8,
        seed in 0u64..500,
    ) {
        let (n, k) = dims;
        let mut wm = synthetic_wm(n, k, 3, frac, seed);
        let first_unobserved = wm.unobserved_cells().next();
        if let Some((ci, cj)) = first_unobserved {
            wm.set_censored(ci, cj, 42.0);
        }
        let reference = {
            let mut als = AlsCompleter::with_rank(3, seed);
            als.iters = 5;
            als.kernel = AlsKernel::Naive;
            als.complete(&wm)
        };
        for tile in TILES {
            for threads in THREADS {
                let mut als = AlsCompleter::with_rank(3, seed);
                als.iters = 5;
                als.threads = threads;
                als.kernel = AlsKernel::Blocked { tile };
                prop_assert_eq!(
                    bits(&als.complete(&wm)), bits(&reference),
                    "ALS diverged at tile {} threads {}", tile, threads
                );
            }
        }
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

/// λ = 0 on a rank-deficient factor: rounding decides whether the normal
/// matrix still factors by Cholesky, fails over to LU, or is singular. The
/// fused steps must follow the reference down the same branch every time,
/// and the sweep must actually reach the LU fallback.
#[test]
fn lambda_zero_on_a_rank_deficient_factor_takes_the_same_branch() {
    let mut lu_fallbacks = 0;
    for seed in 0..200u64 {
        let mut rng = SeededRng::new(seed);
        let r = 2 + rng.index(6);
        let mut q = rng.uniform_mat(9, r, 0.0, 2.0);
        let mut h = rng.uniform_mat(7, r, 0.0, 2.0);
        duplicate_first_column(&mut q);
        duplicate_first_column(&mut h);
        let gtg = h.t_matmul(&h).unwrap();
        if cholesky(&gtg).is_err() && lu(&gtg).is_ok() {
            lu_fallbacks += 1;
        }
        let cells = Cells::random(&mut rng, &q, &h, 3);
        let w_hat = cells.w_hat(&q, &h);
        let fill = |row: usize, lo: usize, w: &mut [f64]| cells.fill(row, lo, w);
        let want = outcome(ridge_solve_rows_blocked(&h, &w_hat, 0.0, 1, &[(0, 9)]));
        for threads in THREADS {
            let got = outcome(fused_q_step(&q, &h, 0.0, threads, &[(0, 9)], fill));
            assert_eq!(got, want, "Q step, seed {seed} threads {threads}");
        }
        let want = outcome(ridge_solve_cols(&q, &w_hat, 0.0, 1));
        for threads in THREADS {
            let got = outcome(fused_h_step(&q, &h, 0.0, threads, 0, fill));
            assert_eq!(got, want, "H step, seed {seed} threads {threads}");
        }
    }
    assert!(lu_fallbacks > 0, "no seed reached the LU fallback");
}

/// Production-sized shapes for the bit-identity contract: panels far
/// larger than any cache level, deliberately non-divisible by every tile,
/// at the fixed-width rank 5 and the runtime-width rank 7.
#[test]
#[ignore = "slow tier: large-shape kernel sweep; run via ./ci.sh --ignored"]
fn large_shape_kernels_stay_bit_identical() {
    let mut rng = SeededRng::new(0xB16_5EED);
    let a = rng.gaussian_mat(2_003, 7, 0.0, 2.0);
    let b = rng.gaussian_mat(53, 7, 0.0, 2.0);
    let naive = a.matmul_t(&b).unwrap();
    for tile in [1, 83, 256, 0] {
        for threads in [1, 3, 8] {
            let tiled = matmul_t_tiled(&a, &b, threads, tile).unwrap();
            assert_eq!(bits(&tiled), bits(&naive), "matmul tile {tile} threads {threads}");
        }
    }
    for rank in [5, 7] {
        let mut q = rng.uniform_mat(2_003, rank, 0.0, 2.0);
        let mut h = rng.uniform_mat(53, rank, 0.0, 1.5);
        plant_zeros(&mut rng, &mut q, 0.2);
        plant_zeros(&mut rng, &mut h, 0.2);
        let cells = Cells::random(&mut rng, &q, &h, 50);
        let w_hat = cells.w_hat(&q, &h);
        let fill = |row: usize, lo: usize, w: &mut [f64]| cells.fill(row, lo, w);
        let blocks = [(0usize, 997usize), (997, 2_003)];
        let naive = ridge_solve_rows_blocked(&h, &w_hat, 0.2, 1, &blocks).unwrap();
        for threads in [1, 3, 8] {
            let fused = fused_q_step(&q, &h, 0.2, threads, &blocks, fill).unwrap();
            assert_eq!(bits(&fused), bits(&naive), "Q step rank {rank} threads {threads}");
        }
        let naive = ridge_solve_cols(&q, &w_hat, 0.2, 1).unwrap();
        for tile in [1, 83, 256, 0] {
            for threads in [1, 3, 8] {
                let fused = fused_h_step(&q, &h, 0.2, threads, tile, fill).unwrap();
                assert_eq!(
                    bits(&fused),
                    bits(&naive),
                    "H step rank {rank} tile {tile} threads {threads}"
                );
            }
        }
    }
}
