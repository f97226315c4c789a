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
//! scoped, and a worker's panic propagates to the caller. An n-way fan-out
//! spawns n − 1 workers and runs its last chunk on the calling thread; a
//! panic in any chunk, the caller's included, reaches the caller once every
//! worker has joined.

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
/// a two-way [`par_chunks`], which spawns one worker and runs the other
/// chunk on the calling thread, took 18–19 µs on an idle 2-vCPU Intel Xeon
/// host, against 28–31 µs when it spawned both (2000 iterations, nine runs,
/// three processes each), and several times that while another build
/// shared the host. That dwarfs sub-threshold kernels (the fast scenario
/// registry's matrices are this small). Purely a performance heuristic —
/// chunked and serial execution are byte-identical either way.
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
    let (&(last, _), spawned) = ranges.split_last().expect("two or more chunks");
    crossbeam::thread::scope(|scope| {
        let mut rest = &mut *out;
        for &(start, end) in spawned {
            let (chunk, tail) = rest.split_at_mut((end - start) * unit);
            rest = tail;
            let f = &f;
            scope.spawn(move |_| f(start, chunk));
        }
        // The calling thread is the last worker: one spawn fewer.
        f(last, rest);
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
/// decides which worker writes which pre-allocated output rows. The dots
/// are laned across each output row: `b` is transposed once, and row i is
/// `a[i][0]·bᵀ[0] + … + a[i][r−1]·bᵀ[r−1]`, one axpy per term, so entry j
/// runs dot j's multiplies and adds in dot j's order. The first term is
/// written as `0.0 + x·y`, the dot's `acc = 0.0; acc += x·y` (a `−0.0`
/// product becomes `+0.0`), not added into the zeroed row, which would read
/// each fresh page before writing it: with a fresh mapping per product, a
/// 10k × 49 product at rank 5 took 2.5 ms that way and 1.7 ms this way.
/// Where two NaNs meet in one entry, which payload survives is left to the
/// compiler, as Rust leaves it.
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
    let b_t = b.transpose();
    let threads = effective_threads(threads, a.rows() * b.rows() * a.cols());
    par_chunks(out.as_mut_slice(), width, threads, |r0, chunk| {
        for (i, out_row) in chunk.chunks_exact_mut(width).enumerate() {
            let mut terms = a.row(r0 + i).iter().zip(b_t.as_slice().chunks_exact(width));
            if let Some((&x, b_col)) = terms.next() {
                for (o, &y) in out_row.iter_mut().zip(b_col) {
                    *o = 0.0 + x * y;
                }
            }
            for (&x, b_col) in terms {
                for (o, &y) in out_row.iter_mut().zip(b_col) {
                    *o += x * y;
                }
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
    fn one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [2, 3, 8] {
            let ids = par_map(threads, threads, |_| std::thread::current().id());
            assert_eq!(ids.iter().filter(|&&id| id == caller).count(), 1, "par_map, {threads}");
            let mut slots = vec![None; threads];
            par_chunks(&mut slots, 1, threads, |_, chunk| {
                chunk[0] = Some(std::thread::current().id());
            });
            let on_caller = slots.iter().filter(|&&id| id == Some(caller)).count();
            assert_eq!(on_caller, 1, "par_chunks, {threads}");
        }
    }

    /// Panics on a spawned worker's thread, not on `caller`'s.
    fn panic_off(caller: std::thread::ThreadId) {
        if std::thread::current().id() != caller {
            panic!("a spawned worker's chunk");
        }
    }

    /// Panics on `caller`'s thread only.
    fn panic_on(caller: std::thread::ThreadId) {
        if std::thread::current().id() == caller {
            panic!("the caller's chunk");
        }
    }

    #[test]
    #[should_panic]
    fn a_spawned_workers_panic_reaches_the_caller_through_par_chunks() {
        let caller = std::thread::current().id();
        par_chunks(&mut [0u8; 4], 1, 2, |_, _| panic_off(caller));
    }

    #[test]
    #[should_panic(expected = "the caller's chunk")]
    fn the_callers_own_panic_propagates_through_par_chunks() {
        let caller = std::thread::current().id();
        par_chunks(&mut [0u8; 4], 1, 2, |_, _| panic_on(caller));
    }

    #[test]
    #[should_panic]
    fn a_spawned_workers_panic_reaches_the_caller_through_par_map() {
        let caller = std::thread::current().id();
        par_map(4, 2, |_| panic_off(caller));
    }

    #[test]
    #[should_panic(expected = "the caller's chunk")]
    fn the_callers_own_panic_propagates_through_par_map() {
        let caller = std::thread::current().id();
        par_map(4, 2, |_| panic_on(caller));
    }

    #[test]
    fn matmul_t_matches_mat_matmul_t_bit_for_bit_on_edge_values() {
        // Every bit, signed zeros and infinities included, except a NaN's
        // payload: Rust leaves it unspecified when two NaNs meet in an add,
        // and the laned loop and the dot need not keep the same one, so a
        // NaN matches any NaN.
        let bits = |m: &Mat| {
            let bits = |v: &f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
            m.as_slice().iter().map(bits).collect::<Vec<_>>()
        };
        // A −0.0 first product: the dot starts at +0.0, so the entry is
        // +0.0 where the product alone would be −0.0.
        let a = Mat::from_rows(&[&[-1.0, 0.0], &[-0.0, -0.0]]);
        let b = Mat::from_rows(&[&[0.0, -0.0], &[2.0, 0.0], &[-0.0, 3.0]]);
        let want = a.matmul_t(&b).unwrap();
        assert_eq!(want[(0, 0)].to_bits(), 0.0f64.to_bits());
        assert_eq!(bits(&matmul_t(&a, &b, 1).unwrap()), bits(&want));
        let specials = [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e300];
        let mut non_finite = 0;
        for seed in 0..120u64 {
            let mut rng = SeededRng::new(seed ^ 0x3A7);
            // Widths 0, 1 and odd; fewer rows than threads; inner sizes 0–6.
            let (n, k, r) = (rng.index(7), [0, 1, 2, 3, 7, 49][rng.index(6)], rng.index(7));
            let mut a = rng.uniform_mat(n, r, -2.0, 2.0);
            let mut b = rng.uniform_mat(k, r, -2.0, 2.0);
            for v in a.as_mut_slice().iter_mut().chain(b.as_mut_slice()) {
                if rng.chance(0.15) {
                    *v = specials[rng.index(specials.len())];
                }
            }
            let want = a.matmul_t(&b).unwrap();
            non_finite += want.as_slice().iter().filter(|v| !v.is_finite()).count();
            for threads in [1, 2, 3, 8] {
                let got = matmul_t(&a, &b, threads).unwrap();
                assert_eq!(bits(&got), bits(&want), "seed {seed} threads {threads}");
            }
        }
        assert!(non_finite > 0, "no non-finite product to pin");
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
