//! Order statistics for timings: medians, nearest-rank percentiles, and the
//! tail rule every timing is reported under.
//!
//! **The percentile rule.** A timing is reported as its median plus the
//! highest whole percentile, capped at p99, that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it. A p99 read from 200 samples rests
//! on two values and says more about luck than about the system; the rule
//! lowers the percentile instead, and the report names the percentile it
//! used together with the sample count.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent, `0 < p <= 100`) of ascending
/// `sorted` samples: the smallest sample with at least `p` % of the samples
/// at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: usize) -> usize {
    n - (p * n).div_ceil(100)
}

/// The highest whole percentile in `50..=99` with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<usize> {
    (50..=99).rev().find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median of unsorted samples (the lower middle for an even count, as the
/// nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean; NaN for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A timing summarized under the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile the rule allows (`None` below 20 samples, when
    /// `tail` falls back to the maximum).
    pub tail_pct: Option<usize>,
    /// The value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarize unsorted samples; `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len());
        let tail = match tail_pct {
            Some(p) => percentile(&v, p as f64),
            None => v[v.len() - 1],
        };
        Some(Summary { n: v.len(), p50: percentile(&v, 50.0), tail_pct, tail })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond it.
        assert_eq!(tail_percentile(1000), Some(99));
        // 999 samples leave only 9 beyond p99, so the rule steps down.
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(33), Some(69));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20 has a median tail");
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            assert!(
                p == 99 || beyond(n, p + 1) < TAIL_MIN_BEYOND,
                "n={n}: p{p} is not the highest"
            );
        }
    }

    #[test]
    fn summary_reports_median_and_ruled_tail() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (200, 100.0, Some(95), 190.0));
        let few = Summary::of(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!((few.p50, few.tail_pct, few.tail), (5.0, None, 9.0));
        assert!(Summary::of(&[]).is_none());
    }
}
