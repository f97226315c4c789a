//! Deterministic fork-join helpers: the workspace's only code that starts
//! threads.
//!
//! Everything here obeys one **determinism contract** (see PERF.md at the
//! workspace root): work is partitioned into disjoint, contiguous chunks of
//! *output* slots — one chunk per worker, each worker writing only its own
//! pre-allocated slots — and every output element is computed with exactly
//! the same floating-point operation sequence as the serial code. The
//! thread count only moves chunk boundaries; it never reorders a reduction,
//! so results are byte-identical at any thread count, including 1. No
//! helper performs a cross-chunk reduction.
//!
//! Two entry points serve every parallel stage: [`par_chunks`] hands each
//! worker a contiguous run of caller-allocated slots of any `Send` type
//! (ALS factor rows, the simulator's per-query oracle rows), and
//! [`par_map`] returns `f(0), …, f(len - 1)` in index order (TCNN gradient
//! shards and inference chunks, plan featurization, seed and scenario
//! fan-outs). Threads come from [`crossbeam::thread::scope`]: borrows are
//! scoped, and a worker's panic propagates to the caller.

use crate::error::{LinalgError, Result};
use crate::matrix::Mat;

/// Number of workers the machine can actually run in parallel (≥ 1).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolve a thread-count knob: `0` means "ask the machine"
/// ([`auto_threads`]), anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        auto_threads()
    } else {
        threads
    }
}

/// Below this many inner-loop multiply-adds, auto mode stays serial:
/// a scope that spawns two workers, as [`par_chunks`] does at two
/// threads, took about 50 µs on an idle 2-vCPU Intel Xeon host (47–58 µs;
/// one spawn plus the calling thread took 32–43 µs), and several times
/// that while another build shared the host. That dwarfs sub-threshold
/// kernels (the fast scenario registry's matrices are this small). Purely
/// a performance heuristic — chunked and serial execution are
/// byte-identical either way.
pub const MIN_PAR_WORK: usize = 262_144;

/// Worker count for a kernel performing roughly `work` multiply-adds:
/// an explicit `threads` value is honored literally (tests pin 2/8-way
/// fan-outs on small inputs); `0` (auto) declines to parallelize below
/// [`MIN_PAR_WORK`].
pub fn effective_threads(threads: usize, work: usize) -> usize {
    if threads == 0 && work < MIN_PAR_WORK {
        1
    } else {
        resolve_threads(threads)
    }
}

/// Split `len` work units into at most `chunks` contiguous, near-equal
/// `(start, end)` ranges covering `0..len` in order. Never returns an
/// empty range; returns fewer ranges when `len < chunks`.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1).min(len.max(1));
    if len == 0 {
        return vec![(0, 0)];
    }
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Partition `out` into contiguous chunks of whole `unit`-sized blocks and
/// run `f(first_unit_index, chunk)` on each, in parallel when more than one
/// worker is available. `out.len()` must be a multiple of `unit`.
///
/// Each invocation of `f` owns its chunk exclusively — this is the
/// "pre-allocated slots" half of the determinism contract. `f` must compute
/// every element the same way regardless of which chunk it lands in.
pub fn par_chunks<T, F>(out: &mut [T], unit: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert!(unit > 0 && out.len() % unit == 0, "output not unit-aligned");
    let units = out.len() / unit;
    let workers = resolve_threads(threads).min(units);
    if workers <= 1 {
        f(0, out);
        return;
    }
    let ranges = chunk_ranges(units, workers);
    crossbeam::thread::scope(|scope| {
        let mut rest = &mut *out;
        for &(start, end) in &ranges {
            let (chunk, tail) = rest.split_at_mut((end - start) * unit);
            rest = tail;
            let f = &f;
            scope.spawn(move |_| f(start, chunk));
        }
    })
    .expect("parallel chunk fan-out");
}

/// `(0..len).map(f)` across at most `threads` workers (`0` asks the
/// machine), returned in index order. Each worker evaluates one contiguous
/// index range of [`chunk_ranges`] into its own slot of [`par_chunks`], so
/// the result equals the serial map at any thread count.
pub fn par_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let ranges = chunk_ranges(len, resolve_threads(threads));
    let mut parts: Vec<Vec<T>> = ranges.iter().map(|_| Vec::new()).collect();
    par_chunks(&mut parts, 1, ranges.len(), |first, chunk| {
        for (part, &(start, end)) in chunk.iter_mut().zip(&ranges[first..]) {
            *part = (start..end).map(&f).collect();
        }
    });
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(part);
    }
    out
}

/// `a * bᵀ`, row-partitioned across `threads` workers.
///
/// Byte-identical to [`Mat::matmul_t`] at any thread count: each output
/// element is the same left-to-right dot product; the partition only
/// decides which worker writes which pre-allocated output rows.
pub fn matmul_t(a: &Mat, b: &Mat, threads: usize) -> Result<Mat> {
    if a.cols() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "par matmul_t",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Mat::zeros(a.rows(), b.rows());
    let width = b.rows();
    if width == 0 {
        return Ok(out);
    }
    let threads = effective_threads(threads, a.rows() * b.rows() * a.cols());
    par_chunks(out.as_mut_slice(), width, threads, |r0, chunk| {
        for (i, out_row) in chunk.chunks_mut(width).enumerate() {
            let a_row = a.row(r0 + i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let mut acc = 0.0;
                for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn chunk_ranges_cover_in_order() {
        assert_eq!(chunk_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(chunk_ranges(2, 8), vec![(0, 1), (1, 2)]);
        assert_eq!(chunk_ranges(0, 4), vec![(0, 0)]);
        for (len, chunks) in [(1, 1), (7, 7), (100, 9)] {
            let r = chunk_ranges(len, chunks);
            assert_eq!(r.first().unwrap().0, 0);
            assert_eq!(r.last().unwrap().1, len);
            for w in r.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must tile contiguously");
                assert!(w[0].1 > w[0].0);
            }
        }
    }

    #[test]
    fn par_chunks_writes_disjoint_slots() {
        let mut out = vec![0.0; 12];
        par_chunks(&mut out, 3, 4, |first, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (first * 3 + i) as f64;
            }
        });
        let want: Vec<f64> = (0..12).map(|i| i as f64).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn par_chunks_fills_non_f64_slots() {
        // Slots borrowing rows of two caller-allocated vectors, as the
        // simulator's oracle build uses them.
        let mut left = vec![0u32; 10];
        let mut right = vec![String::new(); 5];
        let mut slots: Vec<_> = left.chunks_mut(2).zip(right.iter_mut()).collect();
        par_chunks(&mut slots, 1, 3, |first, chunk| {
            for (i, (row, name)) in chunk.iter_mut().enumerate() {
                row.fill((first + i) as u32);
                **name = format!("row {}", first + i);
            }
        });
        drop(slots);
        assert_eq!(left, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        assert_eq!(right, ["row 0", "row 1", "row 2", "row 3", "row 4"]);
    }

    #[test]
    fn par_map_returns_index_order() {
        // Empty input, fewer items than workers, and uneven splits.
        for threads in [0, 1, 2, 3, 8] {
            for len in [0, 1, 2, 5, 17] {
                let want: Vec<String> = (0..len).map(|i| i.to_string()).collect();
                assert_eq!(par_map(len, threads, |i| i.to_string()), want, "{threads}, {len}");
            }
        }
        // Three items at three threads run on three distinct workers.
        let ids = par_map(3, 3, |_| std::thread::current().id());
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
    }

    #[test]
    fn matmul_t_matches_serial_at_any_thread_count() {
        let mut rng = SeededRng::new(7);
        let a = rng.uniform_mat(23, 5, -1.0, 1.0);
        let b = rng.uniform_mat(11, 5, -1.0, 1.0);
        let serial = a.matmul_t(&b).unwrap();
        for threads in [1, 2, 3, 8, 0] {
            let par = matmul_t(&a, &b, threads).unwrap();
            assert_eq!(par.as_slice(), serial.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn matmul_t_shape_checked() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 4);
        assert!(matmul_t(&a, &b, 2).is_err());
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn effective_threads_declines_small_auto_work_only() {
        // Auto mode: below-threshold kernels stay serial (thread spawn
        // would dwarf the compute) …
        assert_eq!(effective_threads(0, MIN_PAR_WORK - 1), 1);
        assert!(effective_threads(0, MIN_PAR_WORK) >= 1);
        // … but an explicit thread count is always honored literally —
        // the determinism tests rely on forcing real fan-outs.
        assert_eq!(effective_threads(8, 1), 8);
        assert_eq!(effective_threads(2, usize::MAX), 2);
    }
}
