//! The host-speed reference: a fixed, ALS-shaped computation that belongs
//! to the benchmark, timed between an episode's own work, in the same
//! process.
//!
//! The 2-vCPU host this benchmark was written on ran the same binary on
//! the same seeds up to 2.6× faster or slower from one quarter of an hour
//! to the next, and each vCPU's speed also flickers within a second,
//! because other guests share the physical cores. No length of run
//! averages that away. The time metrics are therefore reported at a fixed
//! host speed: raw × [`Reference::nominal_s`] ÷ the reference's mean
//! measured time in the same episode. The reference's code is frozen with
//! the benchmark, so a change to the program moves the normalised numbers,
//! while a change of host speed moves the program and the reference alike.
//!
//! The reference mirrors what dominates every loop the benchmark times
//! (ALS is about 99 % of each, see README.md): rank-`r` alternating ridge
//! solves on a dense `n × k` matrix with observed cells written back, with
//! the row range split over `threads` workers that are spawned per kernel
//! call, as `limeqo_linalg::par` does.

use std::time::Instant;

/// Shape and cost of one reference fit.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Rows and columns of the dense matrix.
    pub rows: usize,
    pub cols: usize,
    /// Factor rank.
    pub rank: usize,
    /// Alternating iterations per fit.
    pub iters: usize,
    /// Workers per kernel call; 0 takes the machine's available
    /// parallelism.
    pub threads: usize,
    /// The fit's time at the benchmark's nominal host speed, seconds:
    /// about its mean on the host this benchmark was written on, so that
    /// normalised times read close to raw ones there.
    pub nominal_s: f64,
}

/// The two references an untraced episode times, each shaped like the
/// work it normalises.
#[derive(Debug, Clone, Copy)]
pub struct Refs {
    /// Timed between the units of the loop: rounds, refreshes or ticks.
    pub looped: Reference,
    /// Timed after each set-up, with the set-up's parallelism.
    pub setup: Reference,
}

const LAMBDA: f64 = 0.2;

/// Observed cell `(row, col)` of the reference matrix: about one in five,
/// spread over rows and columns.
fn observed(r: usize, c: usize) -> bool {
    (r * 7 + c * 3).is_multiple_of(5)
}

fn value(r: usize, c: usize) -> f64 {
    1.0 + ((r * 31 + c * 17) % 97) as f64 / 97.0
}

/// Run `f(first_row, chunk)` over `out` split into whole rows of `width`,
/// one contiguous chunk per worker, each worker a fresh scoped thread.
fn par_rows(out: &mut [f64], width: usize, threads: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
    let rows = out.len() / width;
    let workers = threads.clamp(1, rows.max(1));
    if workers == 1 {
        f(0, out);
        return;
    }
    let per = rows.div_ceil(workers);
    std::thread::scope(|s| {
        for (i, chunk) in out.chunks_mut(per * width).enumerate() {
            let f = &f;
            s.spawn(move || f(i * per, chunk));
        }
    });
}

/// `out[i] = a_row(i) · bᵀ`: the `rows × b_rows` product of row-major
/// `a` (`rows × r`) and `b` (`b_rows × r`), then the observed cells
/// overwritten with the data.
fn product_filled(a: &[f64], b: &[f64], r: usize, cols: usize, threads: usize) -> Vec<f64> {
    let rows = a.len() / r;
    let mut out = vec![0.0; rows * cols];
    par_rows(&mut out, cols, threads, |r0, chunk| {
        for (i, row) in chunk.chunks_mut(cols).enumerate() {
            let ar = &a[(r0 + i) * r..(r0 + i + 1) * r];
            for (j, o) in row.iter_mut().enumerate() {
                *o = if observed(r0 + i, j) {
                    value(r0 + i, j)
                } else {
                    ar.iter().zip(&b[j * r..(j + 1) * r]).map(|(x, y)| x * y).sum()
                };
            }
        }
    });
    out
}

/// Lower Cholesky factor of `fᵀf + λI` for row-major `f` (`m × r`).
fn normal_cholesky(f: &[f64], r: usize) -> Vec<f64> {
    let mut g = vec![0.0; r * r];
    for row in f.chunks(r) {
        for a in 0..r {
            for b in 0..=a {
                g[a * r + b] += row[a] * row[b];
            }
        }
    }
    for a in 0..r {
        g[a * r + a] += LAMBDA;
    }
    let mut l = vec![0.0; r * r];
    for a in 0..r {
        for b in 0..=a {
            let s: f64 = g[a * r + b] - (0..b).map(|c| l[a * r + c] * l[b * r + c]).sum::<f64>();
            l[a * r + b] = if a == b { s.max(1e-12).sqrt() } else { s / l[b * r + b] };
        }
    }
    l
}

/// Solve `L Lᵀ x = b` in place.
fn cholesky_solve(l: &[f64], r: usize, x: &mut [f64]) {
    for a in 0..r {
        x[a] = (x[a] - (0..a).map(|c| l[a * r + c] * x[c]).sum::<f64>()) / l[a * r + a];
    }
    for a in (0..r).rev() {
        x[a] = (x[a] - (a + 1..r).map(|c| l[c * r + a] * x[c]).sum::<f64>()) / l[a * r + a];
    }
}

impl Reference {
    fn workers(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }

    /// One fit; returns a checksum of the factors so none of it is dead.
    pub fn fit(&self) -> f64 {
        let (n, k, r, t) = (self.rows, self.cols, self.rank, self.workers());
        let init = |len: usize, salt: usize| -> Vec<f64> {
            (0..len).map(|i| 0.5 + ((i * 13 + salt) % 29) as f64 / 58.0).collect()
        };
        let (mut q, mut h) = (init(n * r, 1), init(k * r, 7));
        for _ in 0..self.iters {
            // Q ← Ŵ H (HᵀH + λI)⁻¹, one ridge solve per row.
            let w = product_filled(&q, &h, r, k, t);
            let l = normal_cholesky(&h, r);
            par_rows(&mut q, r, t, |r0, chunk| {
                for (i, x) in chunk.chunks_mut(r).enumerate() {
                    let wr = &w[(r0 + i) * k..(r0 + i + 1) * k];
                    x.fill(0.0);
                    for (j, &v) in wr.iter().enumerate() {
                        for (a, xa) in x.iter_mut().enumerate() {
                            *xa += v * h[j * r + a];
                        }
                    }
                    cholesky_solve(&l, r, x);
                    x.iter_mut().for_each(|v| *v = v.max(0.0));
                }
            });
            // H ← Ŵᵀ Q (QᵀQ + λI)⁻¹, one ridge solve per column.
            let w = product_filled(&q, &h, r, k, t);
            let l = normal_cholesky(&q, r);
            par_rows(&mut h, r, t, |c0, chunk| {
                for (j, x) in chunk.chunks_mut(r).enumerate() {
                    x.fill(0.0);
                    for (qi, wi) in q.chunks(r).zip(w.chunks(k)) {
                        let v = wi[c0 + j];
                        for (a, xa) in x.iter_mut().enumerate() {
                            *xa += v * qi[a];
                        }
                    }
                    cholesky_solve(&l, r, x);
                    x.iter_mut().for_each(|v| *v = v.max(0.0));
                }
            });
        }
        q.iter().chain(&h).sum()
    }

    /// One fit, timed.
    pub fn timed_fit(&self) -> Sample {
        let (t, cpu) = (Instant::now(), thread_cpu_s());
        let sum = std::hint::black_box(self.fit());
        let sample = Sample { wall_s: t.elapsed().as_secs_f64(), cpu_s: thread_cpu_s() - cpu };
        assert!(sum.is_finite(), "the reference fit diverged");
        sample
    }
}

/// One timed reference fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// CPU time of the thread that ran it (its workers' not included),
    /// seconds.
    pub cpu_s: f64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPUTIME: i32 = 3;

extern "C" {
    /// `clock_gettime(2)` and `sched_setaffinity(2)` from the C library
    /// std already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPU time of the calling thread, seconds (NaN if the clock failed).
fn thread_cpu_s() -> f64 {
    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(THREAD_CPUTIME, &mut t) } != 0 {
        return f64::NAN;
    }
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// The CPUs this process may run on (`Cpus_allowed_list` in
/// `/proc/self/status`), in ascending order; empty if unreadable.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let mut ends = part.split('-').map(|x| x.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Restrict thread or process `pid` (0: the calling thread) to `cpus`;
/// `false` if `cpus` is empty or the kernel refused.
pub fn pin(pid: u32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &c in cpus {
        if c >= 64 * mask.len() {
            return false;
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: the mask outlives the call and its size is passed with it.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(pid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) }
            == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> Reference {
        Reference { rows: 37, cols: 11, rank: 3, iters: 4, threads, nominal_s: 1.0 }
    }

    #[test]
    fn a_serial_fit_takes_about_its_wall_time_in_cpu_time() {
        let big = Reference { rows: 400, cols: 49, rank: 5, iters: 20, threads: 1, nominal_s: 1.0 };
        let s = big.timed_fit();
        assert!(s.wall_s > 0.0 && s.cpu_s > 0.0, "{s:?}");
        assert!(s.cpu_s <= s.wall_s * 1.01 + 1e-4, "{s:?}");
    }

    #[test]
    fn the_fit_does_not_depend_on_the_worker_count() {
        let one = tiny(1).fit();
        assert!(one.is_finite() && one > 0.0);
        for t in [2, 3, 8] {
            assert_eq!(tiny(t).fit().to_bits(), one.to_bits(), "{t} workers");
        }
    }

    #[test]
    fn a_thread_can_be_pinned_to_each_allowed_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty() && cpus.windows(2).all(|w| w[0] < w[1]), "{cpus:?}");
        std::thread::spawn(move || {
            for &c in &cpus {
                assert!(pin(0, &[c]), "cpu {c}");
            }
            assert!(pin(0, &cpus) && !pin(0, &[]));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cholesky_solves_the_normal_system() {
        let f = [1.0, 2.0, 0.5, -1.0, 3.0, 0.25];
        let l = normal_cholesky(&f, 2);
        let mut x = [1.0, -2.0];
        cholesky_solve(&l, 2, &mut x);
        // (fᵀf + λI) x must give back the right-hand side.
        let g = [
            1.0 + 0.25 + 9.0 + LAMBDA,
            2.0 - 0.5 + 0.75,
            2.0 - 0.5 + 0.75,
            4.0 + 1.0 + 0.0625 + LAMBDA,
        ];
        let back = [g[0] * x[0] + g[1] * x[1], g[2] * x[0] + g[3] * x[1]];
        assert!((back[0] - 1.0).abs() < 1e-12 && (back[1] + 2.0).abs() < 1e-12, "{back:?}");
    }
}
