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
//! accumulates the right-hand side and solves it. No n×k `Ŵ` is ever
//! written, and no solve allocates. [`matmul_t_tiled`] remains for the
//! final completion, which is the dense matrix itself.
//!
//! The loops run SIMD lanes across independent outputs, never across a
//! reduction: hints in the dots and the `H` step's sums, query rows in the
//! `Q` step's sums and the ridge solves. Each per-chunk body is compiled
//! twice, portable and with AVX2 (never FMA), and every call picks one from
//! the CPU ([`isa`]).
//!
//! **Determinism contract** (the same one `limeqo_linalg::par` and PERF.md
//! pin): every output element is computed with *exactly* the floating-point
//! operation sequence of the reference kernels — same additions, same
//! order, same zero-operand skips — so the result is byte-identical to the
//! naive path at **any** tile size, any thread count and in either
//! instruction set. Fusion, tiling, lanes and threading only decide which
//! slots are computed together; none reorders a reduction. The
//! `tests/tests/kernels.rs` differential suite and this module's unit tests
//! hold these kernels to this bit for bit.

use crate::error::{LinalgError, Result};
use crate::lstsq::{assert_row_partition, masked_product, Masked, RidgeFactor};
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

/// Independent outputs one lane vector carries: hints in the dots and in
/// the `H` step, query rows in the `Q` step's accumulation and solve.
/// Eight `f64`s fill two AVX2 registers (four SSE2 ones), so each
/// broadcast factor entry and zero mask serves eight products; that
/// measured faster than four in both steps.
const LANES: usize = 8;

/// One lane vector: the same entry of `LANES` independent outputs.
type Lane = [f64; LANES];

/// `len` rounded up to whole lane vectors.
fn lane_len(len: usize) -> usize {
    len.div_ceil(LANES) * LANES
}

/// The rank width of the fused kernels' inner loops. [`Fixed`] makes it a
/// compile-time constant, so every loop over the rank unrolls and the `Q`
/// step's accumulators live in registers; [`Runtime`] runs the same
/// arithmetic, in the same order, at any width.
trait Width: Copy + Sync {
    /// Rank-many lane vectors: entry `t` of `LANES` right-hand sides.
    type Acc: AsMut<[Lane]>;

    /// The rank r.
    fn get(self) -> usize;

    /// A zeroed accumulator.
    fn zeros(self) -> Self::Acc;
}

/// The paper's rank, r = 5, which every benchmark workload runs.
const FIXED_RANK: usize = 5;

/// Query rows the `H` step carries through its accumulation together, so
/// each accumulator lane vector is loaded and stored once per group.
const GROUP: usize = 4;

#[derive(Clone, Copy)]
struct Fixed<const R: usize>;

impl<const R: usize> Width for Fixed<R> {
    type Acc = [Lane; R];
    #[inline(always)]
    fn get(self) -> usize {
        R
    }
    fn zeros(self) -> [Lane; R] {
        [[0.0; LANES]; R]
    }
}

#[derive(Clone, Copy)]
struct Runtime(usize);

impl Width for Runtime {
    type Acc = Vec<Lane>;
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
    fn zeros(self) -> Vec<Lane> {
        vec![[0.0; LANES]; self.0]
    }
}

/// `Hᵀ`, hint-major: row `t` holds entry `t` of every hint's factor row,
/// followed by a lane vector of zeros, so a lane vector of consecutive
/// hints can start at any hint.
struct HintMajor {
    data: Vec<f64>,
    stride: usize,
    /// The number of hints k.
    len: usize,
}

impl HintMajor {
    fn new(h: &Mat) -> Self {
        let (k, r) = h.shape();
        let stride = k + LANES;
        let mut data = vec![0.0; r * stride];
        for (j, h_row) in h.as_slice().chunks_exact(r.max(1)).enumerate() {
            for (t, &v) in h_row.iter().enumerate() {
                data[t * stride + j] = v;
            }
        }
        HintMajor { data, stride, len: k }
    }

    /// Entry `t` of hints `j..j + LANES`.
    #[inline(always)]
    fn lane(&self, t: usize, j: usize) -> &Lane {
        let at = t * self.stride + j;
        self.data[at..at + LANES].try_into().expect("a lane vector")
    }
}

/// `out[j - lo] = q_row · h_j` for hints `j` from `lo` on, `out.len()` a
/// whole number of lane vectors, lanes = hints: each lane sums
/// `0.0 + q₀h₀ + q₁h₁ + …` in rank order, the dot [`Mat::matmul_t`] forms
/// for that cell. Lanes past the last hint read the zero padding.
#[inline(always)]
fn dots<W: Width>(width: W, q_row: &[f64], ht: &HintMajor, lo: usize, out: &mut [f64]) {
    let q_row = &q_row[..width.get()];
    for (c, o) in out.chunks_exact_mut(LANES).enumerate() {
        let mut d = [0.0; LANES];
        for (t, &qt) in q_row.iter().enumerate() {
            for (d, &h) in d.iter_mut().zip(ht.lane(t, lo + c * LANES)) {
                *d += qt * h;
            }
        }
        o.copy_from_slice(&d);
    }
}

/// `acc += g·w` lane by lane, where `keep` is `g`'s zero mask: an exact
/// zero `g` adds `+0.0` where [`Mat::t_matmul`] skips the term, which
/// leaves the sum unchanged (the argument is on `Masked`). `g` is shared by
/// every lane, so one zero test decides the whole lane vector.
#[inline(always)]
fn add_scaled(acc: &mut Lane, g: f64, keep: u64, w: &Lane) {
    for (a, &w) in acc.iter_mut().zip(w) {
        *a += masked_product(g, keep, w);
    }
}

/// The instruction set a fused step's per-chunk body is compiled for. Both
/// instantiations compile the same Rust body, so every element sees the same
/// operations in the same order and the two agree bit for bit; AVX2 only
/// lets every four lanes go through one 256-bit instruction instead of two
/// 128-bit ones. FMA stays off: a fused multiply-add rounds once where the
/// reference rounds twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// The build's baseline target (SSE2 on x86-64).
    Portable,
    /// AVX2, without FMA.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

impl Isa {
    /// The widest instantiation this CPU runs. This is the only place an
    /// `Isa::Avx2` is made, and only after the CPU reported AVX2.
    fn detect() -> Isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Isa::Avx2 => "avx2",
        }
    }
}

/// The instruction set the fused ALS steps run in on this CPU: `"avx2"`
/// where it has AVX2, else `"portable"` (the build's baseline target). The
/// choice moves speed, never a bit of output.
///
/// ```
/// let isa = limeqo_linalg::block::isa();
/// assert!(isa == "avx2" || isa == "portable");
/// ```
pub fn isa() -> &'static str {
    Isa::detect().name()
}

/// A fused step's work on one worker's chunk of output rows, compiled once
/// per [`Isa`]. Implementations and the helpers their loops call are
/// `#[inline(always)]`, so that [`run_avx2`] compiles those loops for AVX2.
trait ChunkBody: Sync {
    /// Compute `chunk`, the output rows from row `c0` on.
    fn run(&self, c0: usize, chunk: &mut [f64]);
}

/// Run `body` on one chunk in the `isa` instantiation.
fn run_chunk<B: ChunkBody>(isa: Isa, body: &B, c0: usize, chunk: &mut [f64]) {
    match isa {
        Isa::Portable => body.run(c0, chunk),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => {
            // SAFETY: an `Isa::Avx2` exists only if `Isa::detect` saw
            // `is_x86_feature_detected!("avx2")` return true, so this CPU
            // executes the AVX2 instructions `run_avx2` is compiled with.
            unsafe { run_avx2(body, c0, chunk) }
        }
    }
}

/// [`ChunkBody::run`] compiled with AVX2 enabled (and FMA not).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<B: ChunkBody>(body: &B, c0: usize, chunk: &mut [f64]) {
    body.run(c0, chunk)
}

/// The ALS `Q` half-step fused into one pass per query row:
/// `Q' = Ŵ H (HᵀH + λI)⁻¹`, where row `i` of `Ŵ` is `qᵢ·Hᵀ` with
/// `fill(i, 0, row)` applied — without ever materialising `Ŵ`.
///
/// `fill(row, lo, window)` receives the window of `Ŵ`'s row `row` that
/// starts at column `lo` (`window[j - lo]` is column `j`) and overwrites
/// the observed slots in it; the `Q` step always passes the whole row
/// (`lo = 0`). The normal matrix is factored once. Query rows go eight at
/// a time: each row of `Ŵ` is computed with lanes = hints and filled, then
/// the eight are transposed so that their right-hand sides `Hᵀŵᵢ` are
/// accumulated, and solved, with lanes = rows. Blocks of `blocks` run one
/// at a time, each block's rows split across `threads` workers (`0` =
/// auto).
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
    q_step_on(Isa::detect(), q, h, lambda, threads, blocks, &fill)
}

/// [`fused_q_step`] in a given instantiation.
fn q_step_on<F>(
    isa: Isa,
    q: &Mat,
    h: &Mat,
    lambda: f64,
    threads: usize,
    blocks: &[(usize, usize)],
    fill: &F,
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
    let (r, masked, ht) = (h.cols(), Masked::new(h), HintMajor::new(h));
    let (h, ht, factor) = (&masked, &ht, &factor);
    Ok(match r {
        0 => Mat::zeros(q.rows(), 0),
        FIXED_RANK => {
            let width = Fixed::<FIXED_RANK>;
            q_rows(isa, QStep { width, q, h, ht, factor, fill, start: 0 }, threads, blocks)
        }
        r => {
            let width = Runtime(r);
            q_rows(isa, QStep { width, q, h, ht, factor, fill, start: 0 }, threads, blocks)
        }
    })
}

/// The `Q` step over one block's rows: `q`, `H` (masked for the
/// accumulation's scalars, hint-major for the dots' lanes) and `fill`.
struct QStep<'a, W, F> {
    width: W,
    q: &'a Mat,
    h: &'a Masked<'a>,
    ht: &'a HintMajor,
    factor: &'a RidgeFactor,
    fill: &'a F,
    /// The block's first row.
    start: usize,
}

fn q_rows<W: Width, F>(
    isa: Isa,
    step: QStep<'_, W, F>,
    threads: usize,
    blocks: &[(usize, usize)],
) -> Mat
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let r = step.width.get();
    let k = step.ht.len;
    let mut out = Mat::zeros(step.q.rows(), r);
    for &(start, end) in blocks {
        if start == end {
            continue;
        }
        let step = QStep { start, ..step };
        // The dominant per-row cost is the two k·r passes over H.
        let t = effective_threads(threads, (end - start) * k * r);
        par_chunks(&mut out.as_mut_slice()[start * r..end * r], r, t, |r0, chunk| {
            run_chunk(isa, &step, r0, chunk)
        });
    }
    out
}

impl<W: Width, F> ChunkBody for QStep<'_, W, F>
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    #[inline(always)]
    fn run(&self, r0: usize, chunk: &mut [f64]) {
        let r = self.width.get();
        let k = self.ht.len;
        let (h, keep) = (&self.h.val[..k * r], &self.h.keep[..k * r]);
        let row_len = lane_len(k);
        // Ŵ's rows for a group, then the same values transposed: `w_t[j]`
        // holds column j of the group's rows, lanes = rows. A short last
        // group leaves stale rows behind; their lanes are computed but
        // never stored.
        let mut w_rows = vec![0.0; LANES * row_len];
        let mut w_t = vec![[0.0; LANES]; k];
        // The group's right-hand sides are solved in their own buffer, so
        // the accumulators only ever see constant indices and stay in
        // registers.
        let mut x = vec![[0.0; LANES]; r];
        for (g, xs) in chunk.chunks_mut(LANES * r).enumerate() {
            let first = self.start + r0 + g * LANES;
            for b in 0..xs.len() / r {
                let w_row = &mut w_rows[b * row_len..(b + 1) * row_len];
                dots(self.width, self.q.row(first + b), self.ht, 0, w_row);
                (self.fill)(first + b, 0, &mut w_row[..k]);
            }
            for (b, w_row) in w_rows.chunks_exact(row_len).enumerate() {
                for (w, &v) in w_t.iter_mut().zip(w_row) {
                    w[b] = v;
                }
            }
            let mut acc = self.width.zeros();
            let acc = acc.as_mut();
            for ((h_row, keep_row), w) in h.chunks_exact(r).zip(keep.chunks_exact(r)).zip(&w_t) {
                for ((a, &g), &keep) in acc.iter_mut().zip(h_row).zip(keep_row) {
                    let mut sum = *a;
                    add_scaled(&mut sum, g, keep, w);
                    *a = sum;
                }
            }
            x.copy_from_slice(acc);
            self.factor.solve_lanes(&mut x).expect("rank-sized right-hand sides");
            for (b, out) in xs.chunks_exact_mut(r).enumerate() {
                for (o, x) in out.iter_mut().zip(&x) {
                    *o = x[b];
                }
            }
        }
    }
}

/// The ALS `H` half-step fused the same way: `H' = Ŵᵀ Q (QᵀQ + λI)⁻¹`,
/// where `Ŵ = QHᵀ` with `fill` applied (see [`fused_q_step`] for the
/// `fill(row, lo, window)` convention) — again without materialising `Ŵ`.
///
/// Hint columns are split across `threads` workers (`0` = auto) and
/// taken `tile` at a time (`0` = auto, resolved against the rank so the
/// `r × tile` accumulator panel stays in L1). For each tile the reduction
/// loops over the query rows `k` outermost: the tile's window of `qₖ·Hᵀ` is
/// computed (lanes = hints) and filled on the fly, then `qₖ[t]`·window is
/// added to the rank-major accumulators, again lanes = hints, which are
/// finally solved in place.
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
    h_step_on(Isa::detect(), q, h, lambda, threads, tile, &fill)
}

/// [`fused_h_step`] in a given instantiation.
fn h_step_on<F>(
    isa: Isa,
    q: &Mat,
    h: &Mat,
    lambda: f64,
    threads: usize,
    tile: usize,
    fill: &F,
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
    let (q, ht) = (Masked::new(q), HintMajor::new(h));
    let (q, ht, factor) = (&q, &ht, &factor);
    // The query-outer reduction streams Q once per tile, so what must stay
    // L1-resident across the whole n-long loop is the `r × tile`
    // accumulator panel — the tile resolves against `r`, not `n`.
    let tile = resolve_tile(tile, h.cols());
    Ok(match h.cols() {
        0 => Mat::zeros(h.rows(), 0),
        FIXED_RANK => {
            let width = Fixed::<FIXED_RANK>;
            h_cols(isa, HStep { width, q, ht, factor, fill, tile }, threads)
        }
        r => h_cols(isa, HStep { width: Runtime(r), q, ht, factor, fill, tile }, threads),
    })
}

/// The `H` step over a worker's hint columns, `tile` at a time.
struct HStep<'a, W, F> {
    width: W,
    q: &'a Masked<'a>,
    ht: &'a HintMajor,
    factor: &'a RidgeFactor,
    fill: &'a F,
    tile: usize,
}

fn h_cols<W: Width, F>(isa: Isa, step: HStep<'_, W, F>, threads: usize) -> Mat
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let r = step.width.get();
    let (n, k) = (step.q.val.len() / r, step.ht.len);
    let mut out = Mat::zeros(k, r);
    // The dominant per-column cost is the two n·r passes over Q.
    let threads = effective_threads(threads, k * n * r);
    par_chunks(out.as_mut_slice(), r, threads, |c0, chunk| run_chunk(isa, &step, c0, chunk));
    out
}

impl<W: Width, F> ChunkBody for HStep<'_, W, F>
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    #[inline(always)]
    fn run(&self, c0: usize, chunk: &mut [f64]) {
        let r = self.width.get();
        let n = self.q.val.len() / r;
        let cols = chunk.len() / r;
        let w_len = lane_len(self.tile.min(cols));
        let (zero_row, drop_row) = (vec![0.0; r], vec![0; r]);
        let mut windows = vec![0.0; GROUP * w_len];
        // Lane vector `c·r + t` accumulates entry t of Qᵀŵⱼ for the tile's
        // hints `j = lo + c·LANES ..`: rank-major within each lane vector
        // of hints.
        let mut panel = vec![[0.0; LANES]; w_len / LANES * r];
        let mut t0 = 0;
        while t0 < cols {
            let t1 = (t0 + self.tile).min(cols);
            let (lo, hi) = (c0 + t0, c0 + t1);
            let len = lane_len(hi - lo);
            let acc = &mut panel[..len / LANES * r];
            acc.fill([0.0; LANES]);
            for g0 in (0..n).step_by(GROUP) {
                // A short last group is padded with zero rows of Q, whose
                // terms are skipped like any other exact zero.
                let mut q_rows = [&zero_row[..r]; GROUP];
                let mut keep_rows = [&drop_row[..r]; GROUP];
                for (b, (q_row, keep_row)) in
                    q_rows.iter_mut().zip(&mut keep_rows).enumerate().take(n - g0)
                {
                    let i = (g0 + b) * r;
                    *q_row = &self.q.val[i..i + r];
                    *keep_row = &self.q.keep[i..i + r];
                }
                for (b, &q_row) in q_rows.iter().enumerate().take(n - g0) {
                    let w = &mut windows[b * w_len..b * w_len + len];
                    dots(self.width, q_row, self.ht, lo, w);
                    (self.fill)(g0 + b, lo, &mut w[..hi - lo]);
                }
                for (c, a) in acc.chunks_exact_mut(r).enumerate() {
                    let mut w = [&[0.0; LANES]; GROUP];
                    for (b, w) in w.iter_mut().enumerate() {
                        let at = b * w_len + c * LANES;
                        *w = windows[at..at + LANES].try_into().expect("a lane vector");
                    }
                    for (t, a) in a.iter_mut().enumerate() {
                        // Summed in a local copy, which the compiler keeps
                        // in a register across the group's rows.
                        let mut sum = *a;
                        for ((q_row, keep_row), w) in q_rows.iter().zip(&keep_rows).zip(w) {
                            add_scaled(&mut sum, q_row[t], keep_row[t], w);
                        }
                        *a = sum;
                    }
                }
            }
            for (c, a) in acc.chunks_exact_mut(r).enumerate() {
                self.factor.solve_lanes(a).expect("rank-sized right-hand sides");
                let j0 = t0 + c * LANES;
                let out = &mut chunk[j0 * r..(j0 + LANES).min(t1) * r];
                for (l, x) in out.chunks_exact_mut(r).enumerate() {
                    for (x, a) in x.iter_mut().zip(a.iter()) {
                        *x = a[l];
                    }
                }
            }
            t0 = t1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::cholesky;
    use crate::lstsq::{ridge_solve, ridge_solve_cols, ridge_solve_rows, ridge_solve_rows_blocked};
    use crate::lu::lu;
    use crate::par::matmul_t;
    use crate::rng::SeededRng;

    /// Every instantiation this CPU runs: the portable one always, AVX2
    /// where the CPU has it. The public steps only ever reach the widest.
    fn isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        if Isa::detect() != Isa::Portable {
            isas.push(Isa::detect());
        }
        isas
    }

    /// Raw bits, so signed zeros and NaN payloads count.
    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A result as comparable data: the bits, or the error.
    fn outcome(r: Result<Mat>) -> std::result::Result<Vec<u64>, String> {
        r.map(|m| bits(&m)).map_err(|e| e.to_string())
    }

    /// A fill that observes every cell of `b`, so `Ŵ = b` whatever `QHᵀ`
    /// is: the fused steps then solve against an arbitrary right-hand side.
    fn observe_all(b: &Mat) -> impl Fn(usize, usize, &mut [f64]) + Sync + '_ {
        move |row, lo, w| w.copy_from_slice(&b.row(row)[lo..lo + w.len()])
    }

    /// A fill that observes a fixed scatter of `b`'s cells and keeps the
    /// low-rank product elsewhere.
    fn observe_some(b: &Mat) -> impl Fn(usize, usize, &mut [f64]) + Sync + '_ {
        move |row, lo, w| {
            for (j, slot) in w.iter_mut().enumerate() {
                if (row * 7 + (lo + j) * 3) % 4 == 0 {
                    *slot = b[(row, lo + j)];
                }
            }
        }
    }

    /// The three-pass reference `Ŵ = fill(QHᵀ)`.
    fn w_hat(q: &Mat, h: &Mat, fill: &impl Fn(usize, usize, &mut [f64])) -> Mat {
        let mut w = matmul_t(q, h, 1).unwrap();
        for i in 0..w.rows() {
            fill(i, 0, w.row_mut(i));
        }
        w
    }

    /// Set about a third of `m`'s entries to exact zeros of either sign.
    fn plant_zeros(rng: &mut SeededRng, m: &mut Mat) {
        for v in m.as_mut_slice() {
            if rng.index(3) == 0 {
                *v = if rng.index(2) == 0 { 0.0 } else { -0.0 };
            }
        }
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

    #[test]
    fn the_public_steps_run_the_detected_instantiation() {
        assert_eq!(isa(), Isa::detect().name());
        assert_eq!(Isa::Portable.name(), "portable");
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
            for isa in isas() {
                for threads in [1, 2, 8] {
                    let fill = observe_all(&b_rows);
                    let fused = q_step_on(isa, &q, &h, 0.2, threads, &[(0, 31)], &fill).unwrap();
                    assert_eq!(
                        bits(&fused),
                        bits(&serial),
                        "{isa:?} rank={rank} threads={threads}"
                    );
                }
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
            for isa in isas() {
                for threads in [1, 3] {
                    let fill = observe_all(&b_rows);
                    let fused = q_step_on(isa, &q, &h, 0.2, threads, &blocks, &fill).unwrap();
                    assert_eq!(
                        bits(&fused),
                        bits(&whole),
                        "{isa:?} case {case} blocks {blocks:?} threads {threads}"
                    );
                }
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
            for isa in isas() {
                for tile in [1, 7, 17, 64, 0] {
                    for threads in [1, 2, 8] {
                        let fill = observe_all(&b);
                        let fused = h_step_on(isa, &q, &h, 0.2, threads, tile, &fill).unwrap();
                        assert_eq!(
                            bits(&fused),
                            bits(&serial),
                            "{isa:?} rank={rank} tile={tile} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_zeros_in_g_keep_the_skip_semantics() {
        // t_matmul skips exact-zero G entries, which matters bit-wise when
        // a right-hand side holds a negative zero, an infinity or a NaN (an
        // unskipped 0·∞ term would inject a NaN, and 0·NaN would carry one
        // into a sum that never saw it). The fused steps add +0.0 for those
        // terms instead, which must come to the same bits; NaNs compare by
        // bit pattern here. Each right-hand side (a row of `b_rows`) holds
        // one kind of non-finite value, so at most one NaN payload can
        // reach any sum. Five rows: the only group of eight is short.
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let g = Mat::from_rows(&[&[0.0, 1.0], &[-0.0, 2.0], &[3.0, 0.0]]);
        let b_rows = Mat::from_rows(&[
            &[-0.0, inf, 1.0],
            &[1.0, -0.0, -inf],
            &[nan, 2.0, -0.0],
            &[0.5, 0.0, nan],
            &[-0.0, -inf, inf],
        ]);
        let naive = ridge_solve_rows(&g, &b_rows, 0.5, 1).unwrap();
        let q = Mat::filled(5, 2, 1.0);
        let b = b_rows.transpose();
        let naive_cols = ridge_solve_cols(&g, &b, 0.5, 1).unwrap();
        for isa in isas() {
            let fill = observe_all(&b_rows);
            let fused = q_step_on(isa, &q, &g, 0.5, 1, &[(0, 5)], &fill).unwrap();
            assert_eq!(bits(&fused), bits(&naive), "{isa:?}");
            for tile in [1, 2, 0] {
                let fill = observe_all(&b);
                let fused = h_step_on(isa, &g, &q, 0.5, 1, tile, &fill).unwrap();
                assert_eq!(bits(&fused), bits(&naive_cols), "{isa:?} tile={tile}");
            }
        }
    }

    /// Both instantiations against the three-pass reference where uniform
    /// draws fall short: ranks 1–8 (both widths), exact zeros of both signs
    /// in both factors, query counts that leave the last group of eight
    /// short, and hint counts that leave the last lane vector part-filled.
    #[test]
    fn every_instantiation_matches_the_reference_on_edge_cases() {
        let mut rng = SeededRng::new(35);
        for rank in 1..=8 {
            for n in [1, 3, 7, 9, 13, 17] {
                let k = 1 + rng.index(19);
                let mut q = rng.uniform_mat(n, rank, 0.0, 2.0);
                let mut h = rng.uniform_mat(k, rank, 0.0, 2.0);
                plant_zeros(&mut rng, &mut q);
                plant_zeros(&mut rng, &mut h);
                let b = rng.uniform_mat(n, k, 0.0, 5.0);
                let fill = observe_some(&b);
                let w = w_hat(&q, &h, &fill);
                let cut = n / 2;
                let blocks = [(0, cut), (cut, n)];
                let want_q = outcome(ridge_solve_rows_blocked(&h, &w, 0.2, 1, &blocks));
                let want_h = outcome(ridge_solve_cols(&q, &w, 0.2, 1));
                for isa in isas() {
                    for threads in [1, 3] {
                        let got = outcome(q_step_on(isa, &q, &h, 0.2, threads, &blocks, &fill));
                        assert_eq!(
                            got, want_q,
                            "Q {isa:?} rank {rank} n {n} k {k} threads {threads}"
                        );
                        for tile in [1, 3, 8, 0] {
                            let got = outcome(h_step_on(isa, &q, &h, 0.2, threads, tile, &fill));
                            assert_eq!(
                                got, want_h,
                                "H {isa:?} rank {rank} n {n} k {k} tile {tile} threads {threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// λ = 0 on a rank-deficient factor: rounding decides whether the
    /// normal matrix factors by Cholesky, falls back to LU or is singular.
    /// Each instantiation must follow the reference down the same branch,
    /// and the sweep must reach the lane solve's LU branch.
    #[test]
    fn lambda_zero_on_a_rank_deficient_factor_reaches_the_lane_lu_branch() {
        let mut lu_fallbacks = 0;
        for seed in 0..200u64 {
            let mut rng = SeededRng::new(seed);
            let r = 2 + rng.index(6);
            let mut q = rng.uniform_mat(9, r, 0.0, 2.0);
            let mut h = rng.uniform_mat(7, r, 0.0, 2.0);
            for m in [&mut q, &mut h] {
                for i in 0..m.rows() {
                    m[(i, r - 1)] = m[(i, 0)];
                }
            }
            for g in [&q, &h] {
                let gtg = g.t_matmul(g).unwrap();
                if cholesky(&gtg).is_err() && lu(&gtg).is_ok() {
                    lu_fallbacks += 1;
                }
            }
            let b = rng.uniform_mat(9, 7, 0.0, 5.0);
            let fill = observe_some(&b);
            let w = w_hat(&q, &h, &fill);
            let want_q = outcome(ridge_solve_rows_blocked(&h, &w, 0.0, 1, &[(0, 9)]));
            let want_h = outcome(ridge_solve_cols(&q, &w, 0.0, 1));
            for isa in isas() {
                let got = outcome(q_step_on(isa, &q, &h, 0.0, 1, &[(0, 9)], &fill));
                assert_eq!(got, want_q, "Q step {isa:?} seed {seed}");
                let got = outcome(h_step_on(isa, &q, &h, 0.0, 1, 0, &fill));
                assert_eq!(got, want_h, "H step {isa:?} seed {seed}");
            }
        }
        assert!(lu_fallbacks > 0, "no seed reached the LU fallback");
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
        for isa in isas() {
            assert!(q_step_on(isa, &other, &g, 0.0, 1, &[(0, 2)], &none).is_err());
            assert!(h_step_on(isa, &g, &other, 0.0, 1, 1, &none).is_err());
            assert!(q_step_on(isa, &other, &g, 0.1, 1, &[(0, 2)], &none).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "blocks must cover")]
    fn tiled_rows_solve_rejects_short_partition() {
        let none = |_: usize, _: usize, _: &mut [f64]| {};
        let _ = fused_q_step(&Mat::zeros(5, 2), &Mat::zeros(3, 2), 0.1, 1, &[(0, 3)], none);
    }
}
