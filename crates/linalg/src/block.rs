//! Cache-blocked and fused variants of the kernels behind ALS.
//!
//! The reference ALS half-step is three passes: the low-rank product `QHᵀ`
//! ([`crate::par::matmul_t`], a fresh n×k matrix), a fill that overwrites
//! its observed slots, and a batched ridge solve
//! ([`ridge_solve_rows_blocked`](crate::ridge_solve_rows_blocked) or
//! [`ridge_solve_cols`](crate::ridge_solve_cols)) that reads the filled
//! matrix `Ŵ` back exactly once. [`fused_q_step`] and [`fused_h_step`] do
//! all three in one pass per factor row: each computes the row (or column
//! window) of `QHᵀ` where it is consumed, fills it through a callback,
//! accumulates the right-hand side in rank-sized accumulators and solves
//! it in place. No n×k `Ŵ` is ever written, and no solve allocates.
//! [`matmul_t_tiled`] remains for the final completion, which is the dense
//! matrix itself.
//!
//! **Determinism contract** (the same one `limeqo_linalg::par` and PERF.md
//! pin): every output element is computed with *exactly* the floating-point
//! operation sequence of the reference kernels — same additions, same
//! order, same zero-operand skips — so the result is byte-identical to the
//! naive path at **any** tile size and any thread count. Fusion, tiling and
//! threading only decide which slots are computed together; none reorders a
//! reduction. The `tests/tests/kernels.rs` differential suite holds these
//! kernels to this bit for bit.

use crate::error::{LinalgError, Result};
use crate::lstsq::{assert_row_partition, RidgeFactor};
use crate::matrix::Mat;
use crate::par::{effective_threads, par_chunks};

/// L1 data-cache budget (bytes) the auto tile targets. A deliberate
/// constant, not a machine probe: the tile size must be a pure function of
/// the problem shape so every machine runs the identical partition.
const L1_TARGET_BYTES: usize = 32 * 1024;

/// Smallest tile auto mode will pick; below this the per-tile solve
/// dispatch overhead dominates.
const MIN_AUTO_TILE: usize = 8;

/// Largest tile auto mode will pick; beyond this the output panel itself
/// outgrows L1 and blocking stops paying.
const MAX_AUTO_TILE: usize = 256;

/// The auto tile size for right-hand sides of `row_len` elements: the
/// largest tile whose operand panel (`tile × row_len` doubles) fits the L1
/// budget, clamped to `[8, 256]`.
///
/// Pure function of the shape — no machine introspection — so the chosen
/// partition (and therefore the wall-clock profile, though never the bits)
/// is reproducible everywhere.
///
/// ```
/// use limeqo_linalg::block::auto_tile;
/// assert_eq!(auto_tile(49), 83);   // the hint-dimension shape
/// assert_eq!(auto_tile(1), 256);   // clamped above
/// assert_eq!(auto_tile(100_000), 8); // clamped below
/// ```
pub fn auto_tile(row_len: usize) -> usize {
    (L1_TARGET_BYTES / (row_len.max(1) * std::mem::size_of::<f64>()))
        .clamp(MIN_AUTO_TILE, MAX_AUTO_TILE)
}

/// Resolve a tile-size knob: `0` means "auto" ([`auto_tile`] for
/// right-hand sides of `row_len` elements), anything else is taken
/// literally.
pub fn resolve_tile(tile: usize, row_len: usize) -> usize {
    if tile == 0 {
        auto_tile(row_len)
    } else {
        tile
    }
}

/// `a * bᵀ`, row-partitioned across `threads` workers with the columns of
/// each output chunk computed in `tile`-column slices (`0` = auto) so the
/// active rows of `b` stay cache-resident across the chunk.
///
/// Byte-identical to [`Mat::matmul_t`] and [`crate::par::matmul_t`] at any
/// tile size and thread count: each output element is the same
/// left-to-right dot product into a fresh accumulator; tiling only decides
/// the order elements are *visited*, which no element's value depends on.
///
/// ```
/// use limeqo_linalg::block::matmul_t_tiled;
/// use limeqo_linalg::rng::SeededRng;
///
/// let mut rng = SeededRng::new(5);
/// let a = rng.uniform_mat(13, 4, -1.0, 1.0);
/// let b = rng.uniform_mat(7, 4, -1.0, 1.0);
/// let naive = a.matmul_t(&b).unwrap();
/// for tile in [1, 3, 0] {
///     let tiled = matmul_t_tiled(&a, &b, 2, tile).unwrap();
///     assert_eq!(tiled.as_slice(), naive.as_slice());
/// }
/// ```
pub fn matmul_t_tiled(a: &Mat, b: &Mat, threads: usize, tile: usize) -> Result<Mat> {
    if a.cols() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "blocked matmul_t",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Mat::zeros(a.rows(), b.rows());
    let width = b.rows();
    if width == 0 {
        return Ok(out);
    }
    let tile = resolve_tile(tile, a.cols());
    let threads = effective_threads(threads, a.rows() * b.rows() * a.cols());
    par_chunks(out.as_mut_slice(), width, threads, |r0, chunk| {
        let mut j0 = 0;
        while j0 < width {
            let j1 = (j0 + tile).min(width);
            for (i, out_row) in chunk.chunks_mut(width).enumerate() {
                let a_row = a.row(r0 + i);
                for (j, o) in out_row[j0..j1].iter_mut().enumerate() {
                    let b_row = b.row(j0 + j);
                    let mut acc = 0.0;
                    for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
            j0 = j1;
        }
    });
    Ok(out)
}

/// The rank width of the fused kernels' inner loops. [`Fixed`] makes it a
/// compile-time constant, so every loop over a factor row unrolls and the
/// `Q`-step accumulators live in registers; [`Runtime`] runs the same
/// arithmetic, in the same order, at any width.
trait Width: Copy + Sync {
    /// A rank-sized accumulator.
    type Acc: AsMut<[f64]>;

    /// The rank r.
    fn get(self) -> usize;

    /// A zeroed accumulator.
    fn zeros(self) -> Self::Acc;

    /// The left-to-right dot product of two factor rows, as
    /// [`Mat::matmul_t`] computes it.
    #[inline(always)]
    fn dot(self, a: &[f64], b: &[f64]) -> f64 {
        let r = self.get();
        let mut acc = 0.0;
        for (&x, &y) in a[..r].iter().zip(&b[..r]) {
            acc += x * y;
        }
        acc
    }

    /// `acc += g·w`, except that an exact zero `g` adds `+0.0` where
    /// [`Mat::t_matmul`] skips the term. The two agree bit for bit: an
    /// accumulator that starts at `+0.0` never becomes `−0.0` (a sum is
    /// `−0.0` only when both addends are), and adding `+0.0` to anything
    /// else — `±∞` and NaN included — returns it unchanged. The select is
    /// branchless, so the loop vectorises and the unpredictable zero
    /// pattern the non-negativity clamp leaves in the factors costs no
    /// mispredictions.
    #[inline(always)]
    fn add_skipping_zero(self, acc: &mut [f64], g: &[f64], w: f64) {
        let r = self.get();
        for (a, &gt) in acc[..r].iter_mut().zip(&g[..r]) {
            *a += if gt != 0.0 { gt * w } else { 0.0 };
        }
    }
}

/// The paper's rank, r = 5, which every benchmark workload runs.
const FIXED_RANK: usize = 5;

/// Factor rows the fused kernels carry through their accumulation
/// together: independent rows interleave their dependency chains, and in
/// the `H` step each accumulator is loaded once per group instead of once
/// per row.
const GROUP: usize = 4;

#[derive(Clone, Copy)]
struct Fixed<const R: usize>;

impl<const R: usize> Width for Fixed<R> {
    type Acc = [f64; R];
    #[inline(always)]
    fn get(self) -> usize {
        R
    }
    fn zeros(self) -> [f64; R] {
        [0.0; R]
    }
}

#[derive(Clone, Copy)]
struct Runtime(usize);

impl Width for Runtime {
    type Acc = Vec<f64>;
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
    fn zeros(self) -> Vec<f64> {
        vec![0.0; self.0]
    }
}

/// `out[j] = a · b_j` over the rank-`width` rows `b_j` of row-major `b`.
#[inline(always)]
fn dots<W: Width>(width: W, a: &[f64], b: &[f64], out: &mut [f64]) {
    for (o, b_row) in out.iter_mut().zip(b.chunks_exact(width.get())) {
        *o = width.dot(a, b_row);
    }
}

/// The ALS `Q` half-step fused into one pass per query row:
/// `Q' = Ŵ H (HᵀH + λI)⁻¹`, where row `i` of `Ŵ` is `qᵢ·Hᵀ` with
/// `fill(i, 0, row)` applied — without ever materialising `Ŵ`.
///
/// `fill(row, lo, window)` receives the window of `Ŵ`'s row `row` that
/// starts at column `lo` (`window[j - lo]` is column `j`) and overwrites
/// the observed slots in it; the `Q` step always passes the whole row
/// (`lo = 0`). The normal matrix is factored once; each right-hand side
/// `Hᵀŵᵢ` is accumulated in rank-sized accumulators and solved in place
/// ([`RidgeFactor::solve_in_place`]), one block of `blocks` at a time,
/// with the block's rows split across `threads` workers (`0` = auto).
///
/// Byte-identical to [`crate::par::matmul_t`], the same fill, then
/// [`crate::ridge_solve_rows_blocked`] at any thread count and block
/// partition: each row's dot products, its `Hᵀŵᵢ` sums (k ascending, zero
/// entries of `H` skipped) and its triangular solves are the same
/// operations in the same order.
///
/// ```
/// use limeqo_linalg::block::fused_q_step;
/// use limeqo_linalg::rng::SeededRng;
/// use limeqo_linalg::{par, ridge_solve_rows_blocked};
///
/// let mut rng = SeededRng::new(6);
/// let q = rng.uniform_mat(21, 4, 0.0, 1.0);
/// let h = rng.uniform_mat(9, 4, 0.0, 1.0);
/// // Every row observed 1.0 in column 0.
/// let fill = |_row: usize, lo: usize, w: &mut [f64]| {
///     if lo == 0 && !w.is_empty() {
///         w[0] = 1.0;
///     }
/// };
/// let mut w_hat = par::matmul_t(&q, &h, 1).unwrap();
/// for i in 0..21 {
///     fill(i, 0, w_hat.row_mut(i));
/// }
/// let blocks = [(0, 10), (10, 21)];
/// let naive = ridge_solve_rows_blocked(&h, &w_hat, 0.2, 1, &blocks).unwrap();
/// let fused = fused_q_step(&q, &h, 0.2, 2, &blocks, fill).unwrap();
/// assert_eq!(fused.as_slice(), naive.as_slice());
/// ```
pub fn fused_q_step<F>(
    q: &Mat,
    h: &Mat,
    lambda: f64,
    threads: usize,
    blocks: &[(usize, usize)],
    fill: F,
) -> Result<Mat>
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    if q.cols() != h.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "fused Q step",
            lhs: q.shape(),
            rhs: h.shape(),
        });
    }
    assert_row_partition(blocks, q.rows());
    let factor = RidgeFactor::new(h, lambda)?;
    Ok(match h.cols() {
        0 => Mat::zeros(q.rows(), 0),
        FIXED_RANK => q_rows(Fixed::<FIXED_RANK>, q, h, &factor, threads, blocks, &fill),
        r => q_rows(Runtime(r), q, h, &factor, threads, blocks, &fill),
    })
}

fn q_rows<W: Width, F>(
    width: W,
    q: &Mat,
    h: &Mat,
    factor: &RidgeFactor,
    threads: usize,
    blocks: &[(usize, usize)],
    fill: &F,
) -> Mat
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let r = width.get();
    let k = h.rows();
    let h = h.as_slice();
    let mut out = Mat::zeros(q.rows(), r);
    for &(start, end) in blocks {
        if start == end {
            continue;
        }
        // The dominant per-row cost is the two k·r passes over H.
        let t = effective_threads(threads, (end - start) * k * r);
        par_chunks(&mut out.as_mut_slice()[start * r..end * r], r, t, |r0, chunk| {
            let mut w_rows = vec![0.0; GROUP * k];
            let mut acc: [W::Acc; GROUP] = std::array::from_fn(|_| width.zeros());
            for (g, xs) in chunk.chunks_mut(GROUP * r).enumerate() {
                let first = start + r0 + g * GROUP;
                // Ŵ's rows for the group. A short last group leaves stale
                // rows behind; their sums are computed but never stored.
                for b in 0..xs.len() / r {
                    let w_row = &mut w_rows[b * k..(b + 1) * k];
                    dots(width, q.row(first + b), h, w_row);
                    fill(first + b, 0, w_row);
                }
                for a in &mut acc {
                    a.as_mut().fill(0.0);
                }
                for (j, h_row) in h.chunks_exact(r).enumerate() {
                    for (b, a) in acc.iter_mut().enumerate() {
                        width.add_skipping_zero(a.as_mut(), h_row, w_rows[b * k + j]);
                    }
                }
                for (x, a) in xs.chunks_exact_mut(r).zip(&mut acc) {
                    x.copy_from_slice(a.as_mut());
                    factor.solve_in_place(x).expect("rank-sized right-hand side");
                }
            }
        });
    }
    out
}

/// The ALS `H` half-step fused the same way: `H' = Ŵᵀ Q (QᵀQ + λI)⁻¹`,
/// where `Ŵ = QHᵀ` with `fill` applied (see [`fused_q_step`] for the
/// `fill(row, lo, window)` convention) — again without materialising `Ŵ`.
///
/// Hint columns are split across `threads` workers (`0` = auto) and
/// taken `tile` at a time (`0` = auto, resolved against the rank so the
/// `r × tile` accumulator panel stays in L1). For each tile the reduction
/// loops over the query rows `k` outermost: the tile's window of `qₖ·Hᵀ` is
/// computed and filled on the fly, then `qₖ`'s contribution is added to
/// every column's accumulator, which is finally solved in place.
///
/// Byte-identical to [`crate::par::matmul_t`], the same fill, then
/// [`crate::ridge_solve_cols`] at any tile size and thread count: each
/// accumulator sums the same products in the same (query-ascending)
/// order, zero entries of `Q` skipped.
///
/// ```
/// use limeqo_linalg::block::fused_h_step;
/// use limeqo_linalg::rng::SeededRng;
/// use limeqo_linalg::{par, ridge_solve_cols};
///
/// let mut rng = SeededRng::new(7);
/// let q = rng.uniform_mat(20, 3, 0.0, 1.0);
/// let h = rng.uniform_mat(11, 3, 0.0, 1.0);
/// // Row 4 observed 2.0 in column 6.
/// let fill = |row: usize, lo: usize, w: &mut [f64]| {
///     if row == 4 && (lo..lo + w.len()).contains(&6) {
///         w[6 - lo] = 2.0;
///     }
/// };
/// let mut w_hat = par::matmul_t(&q, &h, 1).unwrap();
/// for i in 0..20 {
///     fill(i, 0, w_hat.row_mut(i));
/// }
/// let naive = ridge_solve_cols(&q, &w_hat, 0.2, 1).unwrap();
/// for tile in [1, 4, 0] {
///     let fused = fused_h_step(&q, &h, 0.2, 2, tile, fill).unwrap();
///     assert_eq!(fused.as_slice(), naive.as_slice());
/// }
/// ```
pub fn fused_h_step<F>(
    q: &Mat,
    h: &Mat,
    lambda: f64,
    threads: usize,
    tile: usize,
    fill: F,
) -> Result<Mat>
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    if q.cols() != h.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "fused H step",
            lhs: q.shape(),
            rhs: h.shape(),
        });
    }
    let factor = RidgeFactor::new(q, lambda)?;
    Ok(match h.cols() {
        0 => Mat::zeros(h.rows(), 0),
        FIXED_RANK => h_cols(Fixed::<FIXED_RANK>, q, h, &factor, threads, tile, &fill),
        r => h_cols(Runtime(r), q, h, &factor, threads, tile, &fill),
    })
}

fn h_cols<W: Width, F>(
    width: W,
    q: &Mat,
    h: &Mat,
    factor: &RidgeFactor,
    threads: usize,
    tile: usize,
    fill: &F,
) -> Mat
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let r = width.get();
    let (n, k) = (q.rows(), h.rows());
    let mut out = Mat::zeros(k, r);
    // The query-outer reduction streams Q once per tile, so what must stay
    // L1-resident across the whole n-long loop is the `r × tile`
    // accumulator panel — the tile resolves against `r`, not `n`.
    let tile = resolve_tile(tile, r);
    // The dominant per-column cost is the two n·r passes over Q.
    let threads = effective_threads(threads, k * n * r);
    let h = h.as_slice();
    let zero_row = vec![0.0; r];
    par_chunks(out.as_mut_slice(), r, threads, |c0, chunk| {
        let cols = chunk.len() / r;
        let w_len = tile.min(cols);
        let mut windows = vec![0.0; GROUP * w_len];
        let mut t0 = 0;
        while t0 < cols {
            let t1 = (t0 + tile).min(cols);
            let (lo, hi) = (c0 + t0, c0 + t1);
            // Row j - lo of `acc` accumulates column j's Qᵀŵⱼ, starting
            // from the zeroed output.
            let acc = &mut chunk[t0 * r..t1 * r];
            let h_tile = &h[lo * r..hi * r];
            for g0 in (0..n).step_by(GROUP) {
                // A short last group is padded with zero rows of Q, whose
                // terms are skipped like any other exact zero.
                let q_rows: [&[f64]; GROUP] =
                    std::array::from_fn(|b| if g0 + b < n { q.row(g0 + b) } else { &zero_row });
                for (b, w) in windows.chunks_exact_mut(w_len).take(n - g0).enumerate() {
                    let w = &mut w[..hi - lo];
                    dots(width, q_rows[b], h_tile, w);
                    fill(g0 + b, lo, w);
                }
                for (j, a) in acc.chunks_exact_mut(r).enumerate() {
                    for (b, q_row) in q_rows.iter().enumerate() {
                        width.add_skipping_zero(a, q_row, windows[b * w_len + j]);
                    }
                }
            }
            for x in acc.chunks_exact_mut(r) {
                factor.solve_in_place(x).expect("rank-sized right-hand side");
            }
            t0 = t1;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::{ridge_solve, ridge_solve_cols, ridge_solve_rows};
    use crate::rng::SeededRng;

    /// A fill that observes every cell of `b`, so `Ŵ = b` whatever `QHᵀ`
    /// is: the fused steps then solve against an arbitrary right-hand side.
    fn observe_all(b: &Mat) -> impl Fn(usize, usize, &mut [f64]) + Sync + '_ {
        move |row, lo, w| w.copy_from_slice(&b.row(row)[lo..lo + w.len()])
    }

    #[test]
    fn auto_tile_is_shape_monotone_and_clamped() {
        assert_eq!(auto_tile(0), MAX_AUTO_TILE);
        assert_eq!(auto_tile(1), MAX_AUTO_TILE);
        assert_eq!(auto_tile(49), 83);
        assert_eq!(auto_tile(1 << 20), MIN_AUTO_TILE);
        let mut prev = auto_tile(1);
        for row_len in 2..2048 {
            let t = auto_tile(row_len);
            assert!(t <= prev, "auto_tile must shrink as rows widen");
            assert!((MIN_AUTO_TILE..=MAX_AUTO_TILE).contains(&t));
            prev = t;
        }
        assert_eq!(resolve_tile(0, 49), auto_tile(49));
        assert_eq!(resolve_tile(17, 49), 17);
    }

    #[test]
    fn tiled_matmul_t_matches_naive_bit_for_bit() {
        let mut rng = SeededRng::new(31);
        // 23 is deliberately coprime to every tested tile size.
        let a = rng.uniform_mat(23, 5, -1.0, 1.0);
        let b = rng.uniform_mat(11, 5, -1.0, 1.0);
        let naive = a.matmul_t(&b).unwrap();
        for tile in [1, 3, 7, 11, 64, 0] {
            for threads in [1, 2, 8] {
                let tiled = matmul_t_tiled(&a, &b, threads, tile).unwrap();
                assert_eq!(tiled.as_slice(), naive.as_slice(), "tile={tile} threads={threads}");
            }
        }
    }

    /// The fused `Q` step against the one-shot serial solve, at the
    /// runtime width (rank 4) and the fixed one (rank 5).
    #[test]
    fn tiled_rows_solve_matches_serial_bit_for_bit() {
        let mut rng = SeededRng::new(32);
        for rank in [4, FIXED_RANK] {
            let h = rng.uniform_mat(9, rank, 0.0, 2.0);
            let q = rng.uniform_mat(31, rank, 0.0, 2.0);
            let b_rows = rng.uniform_mat(31, 9, 0.0, 5.0);
            let serial = ridge_solve(&h, &b_rows.transpose(), 0.2).unwrap().transpose();
            for threads in [1, 2, 8] {
                let fused =
                    fused_q_step(&q, &h, 0.2, threads, &[(0, 31)], observe_all(&b_rows)).unwrap();
                assert_eq!(fused.as_slice(), serial.as_slice(), "rank={rank} threads={threads}");
            }
        }
    }

    #[test]
    fn tiled_rows_solve_matches_for_any_block_partition() {
        let mut rng = SeededRng::new(33);
        let h = rng.uniform_mat(9, 4, 0.0, 2.0);
        let q = rng.uniform_mat(31, 4, 0.0, 2.0);
        let b_rows = rng.uniform_mat(31, 9, 0.0, 5.0);
        let whole = ridge_solve_rows(&h, &b_rows, 0.2, 1).unwrap();
        for case in 0..20 {
            let mut cuts = vec![0usize, 31];
            for _ in 0..rng.index(5) {
                cuts.push(rng.index(32));
            }
            cuts.sort_unstable();
            let blocks: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
            for threads in [1, 3] {
                let fused =
                    fused_q_step(&q, &h, 0.2, threads, &blocks, observe_all(&b_rows)).unwrap();
                assert_eq!(
                    fused.as_slice(),
                    whole.as_slice(),
                    "case {case} blocks {blocks:?} threads {threads}"
                );
            }
        }
    }

    /// The fused `H` step against the one-shot serial solve, at both
    /// widths, every tile size and thread count.
    #[test]
    fn tiled_cols_solve_matches_serial_bit_for_bit() {
        let mut rng = SeededRng::new(34);
        for rank in [3, FIXED_RANK] {
            let q = rng.uniform_mat(40, rank, 0.0, 2.0);
            let h = rng.uniform_mat(17, rank, 0.0, 2.0);
            let b = rng.uniform_mat(40, 17, 0.0, 5.0);
            let serial = ridge_solve(&q, &b, 0.2).unwrap().transpose();
            for tile in [1, 7, 17, 64, 0] {
                for threads in [1, 2, 8] {
                    let fused = fused_h_step(&q, &h, 0.2, threads, tile, observe_all(&b)).unwrap();
                    assert_eq!(
                        fused.as_slice(),
                        serial.as_slice(),
                        "rank={rank} tile={tile} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_zeros_in_g_keep_the_skip_semantics() {
        // t_matmul skips exact-zero G entries, which matters bit-wise when
        // a right-hand side holds a negative zero or an infinity (an
        // unskipped 0·∞ term would inject a NaN). The fused steps add +0.0
        // for those terms instead, which must come to the same bits; NaNs
        // compare by bit pattern here.
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let g = Mat::from_rows(&[&[0.0, 1.0], &[-0.0, 2.0], &[3.0, 0.0]]);
        let b_rows = Mat::from_rows(&[&[-0.0, f64::INFINITY, 1.0], &[1.0, -0.0, f64::INFINITY]]);
        let naive = ridge_solve_rows(&g, &b_rows, 0.5, 1).unwrap();
        let q = Mat::filled(2, 2, 1.0);
        let fused = fused_q_step(&q, &g, 0.5, 1, &[(0, 2)], observe_all(&b_rows)).unwrap();
        assert_eq!(bits(&fused), bits(&naive));
        let b = b_rows.transpose();
        let naive_cols = ridge_solve_cols(&g, &b, 0.5, 1).unwrap();
        for tile in [1, 2, 0] {
            let fused = fused_h_step(&g, &q, 0.5, 1, tile, observe_all(&b)).unwrap();
            assert_eq!(bits(&fused), bits(&naive_cols), "tile={tile}");
        }
    }

    #[test]
    fn tiled_kernels_reject_shape_mismatch() {
        let none = |_: usize, _: usize, _: &mut [f64]| {};
        assert!(matmul_t_tiled(&Mat::zeros(2, 3), &Mat::zeros(2, 4), 1, 2).is_err());
        let (q, h) = (Mat::zeros(3, 3), Mat::zeros(4, 2));
        assert!(fused_q_step(&q, &h, 0.1, 1, &[(0, 3)], none).is_err());
        assert!(fused_h_step(&q, &h, 0.1, 1, 2, none).is_err());
    }

    #[test]
    fn tiled_solvers_propagate_singular_factor_errors() {
        let none = |_: usize, _: usize, _: &mut [f64]| {};
        let g = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let other = Mat::filled(2, 2, 0.5);
        assert!(fused_q_step(&other, &g, 0.0, 1, &[(0, 2)], none).is_err());
        assert!(fused_h_step(&g, &other, 0.0, 1, 1, none).is_err());
        assert!(fused_q_step(&other, &g, 0.1, 1, &[(0, 2)], none).is_ok());
    }

    #[test]
    #[should_panic(expected = "blocks must cover")]
    fn tiled_rows_solve_rejects_short_partition() {
        let none = |_: usize, _: usize, _: &mut [f64]| {};
        let _ = fused_q_step(&Mat::zeros(5, 2), &Mat::zeros(3, 2), 0.1, 1, &[(0, 3)], none);
    }
}
