//! The sublinear candidate-selection subsystem.
//!
//! Algorithm 1 is built around cheap per-step selection — uniform fill-in
//! over the unobserved cells (line 9), top-m by the Eq. 6 ratio (line 7) —
//! yet the original implementations did O(n·k) work per step:
//! `sample_unobserved` materialized and Fisher–Yates-shuffled *every*
//! unobserved cell (4.9M tuples at the 100k×49 scale tier, ~0.19 s per
//! Random step), and the rankings fully sorted all scored rows just to
//! take `batch` of them. This module provides the two sublinear
//! replacements every selection path now routes through:
//!
//! * [`sample_ranks`] — uniform sampling *without replacement* over an
//!   abstract rank space `[0, total)` via a virtual Fisher–Yates shuffle
//!   (a sparse overlay of the swaps a real shuffle would have made), so
//!   drawing `want` of `total` candidates costs O(want) RNG draws and
//!   hash-map operations instead of O(total). Combined with the workload
//!   matrix's Fenwick rank index
//!   ([`crate::matrix::WorkloadMatrix::unobserved_at_rank`], O(log n + k)
//!   per lookup) this makes uniform unobserved-cell selection
//!   O(want·(log n + k)) with **no materialization**.
//! * [`top_m_by`] — bounded heap selection of the best m items under an
//!   explicit total order, O(n log m + m log m) instead of a full
//!   O(n log n) sort. The Eq. 6 ranking and the censored-fallback pick
//!   use it with the order (score desc, then row asc, then col asc),
//!   which reproduces the previous stable full sort's tie-breaks exactly
//!   (pinned by randomized equivalence tests).

use std::cmp::Ordering;
use std::collections::HashMap;

use limeqo_linalg::rng::SeededRng;

/// Draw up to `want` distinct ranks uniformly without replacement from
/// `[0, total)`, feeding each to `visit` in draw order. `visit` returns
/// whether the rank was *kept*; drawing continues until `want` ranks were
/// kept or the rank space is exhausted, so callers can reject candidates
/// (already-chosen cells) without biasing the remaining draws.
///
/// This is a virtual Fisher–Yates shuffle: instead of materializing
/// `0..total` and shuffling (O(total)), the swaps a real shuffle would
/// have performed are stored sparsely in a hash map, so cost is
/// O(draws) — and `draws ≤ want + rejections ≤ total`. The kept sequence
/// is distributed exactly like the prefix of a uniform random permutation
/// of the non-rejected ranks, i.e. uniform sampling without replacement.
pub fn sample_ranks(
    total: usize,
    want: usize,
    rng: &mut SeededRng,
    mut visit: impl FnMut(usize) -> bool,
) {
    let mut swapped: HashMap<usize, usize> = HashMap::new();
    let mut kept = 0usize;
    let mut i = 0usize;
    while kept < want && i < total {
        let j = i + rng.index(total - i);
        let rank = swapped.get(&j).copied().unwrap_or(j);
        let displaced = swapped.get(&i).copied().unwrap_or(i);
        swapped.insert(j, displaced);
        i += 1;
        if visit(rank) {
            kept += 1;
        }
    }
}

/// The subsystem's shared positional tie-break: a ranking score plus the
/// (row, col) the candidate targets. Implemented for the tuple shapes the
/// policies rank, so the one total order below is the single source of
/// truth for every [`top_m_by`] call site — the "heap moved no picks"
/// equivalence rests on all of them using exactly this order.
pub trait ScoredCell {
    /// The ranking score (the Eq. 6 ratio, a censored-gap, an estimated
    /// cost, …).
    fn score(&self) -> f64;
    /// The positional tie-break, compared ascending: (row, col).
    fn cell(&self) -> (usize, usize);
}

impl ScoredCell for (f64, usize, usize) {
    fn score(&self) -> f64 {
        self.0
    }
    fn cell(&self) -> (usize, usize) {
        (self.1, self.2)
    }
}

impl<T> ScoredCell for (f64, usize, usize, T) {
    fn score(&self) -> f64 {
        self.0
    }
    fn cell(&self) -> (usize, usize) {
        (self.1, self.2)
    }
}

/// The explicit total order "score **desc**, then row asc, then col asc"
/// (`f64::total_cmp` keeps the score leg total even for NaN). With one
/// candidate per (row, col) this reproduces a stable descending sort's
/// tie-breaks exactly — candidates are generated row-major, so equal
/// scores keep generation order.
pub fn score_desc<T: ScoredCell>(a: &T, b: &T) -> Ordering {
    b.score().total_cmp(&a.score()).then(a.cell().cmp(&b.cell()))
}

/// The ascending twin of [`score_desc`]: "score asc, then row/col asc"
/// (QO-Advisor's cheapest-estimated-cost-first order).
pub fn score_asc<T: ScoredCell>(a: &T, b: &T) -> Ordering {
    a.score().total_cmp(&b.score()).then(a.cell().cmp(&b.cell()))
}

/// The best `m` items of `items` under `cmp` (where [`Ordering::Less`]
/// means "better"), returned best-first — exactly the first `m` elements
/// a stable full sort by `cmp` would produce, provided `cmp` is a total
/// order that never returns [`Ordering::Equal`] for distinct items (give
/// ties an explicit positional tie-break: [`score_desc`] / [`score_asc`]
/// are the subsystem's named orders).
///
/// Cost is O(n log m + m log m): a bounded max-heap of the `m` best so
/// far (worst at the root) absorbs the stream, then the survivors are
/// sorted. The full `sort` this replaces was O(n log n) per exploration
/// step over every scored row — and because the input is consumed as an
/// iterator, callers can stream candidates straight into the heap with
/// O(m) memory instead of materializing them first.
pub fn top_m_by<T>(
    items: impl IntoIterator<Item = T>,
    m: usize,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
) -> Vec<T> {
    if m == 0 {
        return Vec::new();
    }
    // `heap` is a binary max-heap under `cmp`: the *worst* kept item sits
    // at the root, so each new candidate is compared against the bar.
    // (While fewer than m items have arrived everything is kept, so an
    // input of ≤ m items degenerates to a plain sort.)
    let mut heap: Vec<T> = Vec::with_capacity(m);
    for item in items {
        if heap.len() < m {
            heap.push(item);
            // Sift up.
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if cmp(&heap[i], &heap[parent]) == Ordering::Greater {
                    heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if cmp(&item, &heap[0]) == Ordering::Less {
            heap[0] = item;
            // Sift down.
            let mut i = 0usize;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut worst = i;
                if l < heap.len() && cmp(&heap[l], &heap[worst]) == Ordering::Greater {
                    worst = l;
                }
                if r < heap.len() && cmp(&heap[r], &heap[worst]) == Ordering::Greater {
                    worst = r;
                }
                if worst == i {
                    break;
                }
                heap.swap(i, worst);
                i = worst;
            }
        }
    }
    heap.sort_by(&mut cmp);
    heap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_ranks_draws_distinct_and_exhausts() {
        let mut rng = SeededRng::new(7);
        let mut seen = Vec::new();
        sample_ranks(10, 10, &mut rng, |r| {
            seen.push(r);
            true
        });
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "all ranks drawn exactly once: {seen:?}");
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_ranks_rejection_does_not_stall() {
        // Rejecting every even rank: the sampler must still deliver every
        // odd rank and then stop at exhaustion, not loop.
        let mut rng = SeededRng::new(8);
        let mut kept = Vec::new();
        sample_ranks(20, 10, &mut rng, |r| {
            if r % 2 == 0 {
                return false;
            }
            kept.push(r);
            true
        });
        kept.sort_unstable();
        assert_eq!(kept, (0..20).filter(|r| r % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn sample_ranks_want_zero_draws_nothing() {
        let mut rng = SeededRng::new(9);
        sample_ranks(5, 0, &mut rng, |_| panic!("no rank should be visited"));
    }

    /// The explicit total order the policies use: score desc, then
    /// positional tie-break asc.
    fn order(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
        b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
    }

    #[test]
    fn top_m_matches_full_sort_on_random_vectors_with_ties() {
        let mut rng = SeededRng::new(0x70_9A);
        for case in 0..200 {
            let n = 1 + rng.index(60);
            let m = rng.index(n + 4); // sometimes m > n, sometimes 0
            let items: Vec<(f64, usize)> = (0..n)
                // Coarse quantization forces plenty of exact ties.
                .map(|i| ((rng.uniform(0.0, 4.0) * 4.0).floor() / 4.0, i))
                .collect();
            let mut sorted = items.clone();
            sorted.sort_by(order); // stable, like the old full-sort path
            sorted.truncate(m);
            let heaped = top_m_by(items, m, order);
            assert_eq!(heaped, sorted, "case {case}: heap != stable sort prefix");
        }
    }

    #[test]
    fn top_m_edge_cases() {
        assert!(top_m_by(Vec::<(f64, usize)>::new(), 3, order).is_empty());
        assert!(top_m_by(vec![(1.0, 0)], 0, order).is_empty());
        assert_eq!(top_m_by(vec![(1.0, 0), (2.0, 1)], 5, order), vec![(2.0, 1), (1.0, 0)]);
    }

    #[test]
    fn named_orders_break_ties_by_cell() {
        // Equal scores resolve row-major — on both tuple shapes.
        let tied = vec![(1.0, 2, 0, "x"), (1.0, 0, 1, "y"), (1.0, 0, 0, "z"), (2.0, 9, 9, "w")];
        let desc = top_m_by(tied.clone(), 3, score_desc::<(f64, usize, usize, &str)>);
        assert_eq!(
            desc,
            vec![(2.0, 9, 9, "w"), (1.0, 0, 0, "z"), (1.0, 0, 1, "y")],
            "desc: best score first, ties row/col asc"
        );
        let asc = top_m_by(vec![(1.0, 1, 0), (0.5, 2, 2), (1.0, 0, 5)], 2, score_asc);
        assert_eq!(asc, vec![(0.5, 2, 2), (1.0, 0, 5)]);
    }

    #[test]
    fn top_m_streams_from_iterators() {
        // No materialized Vec: the heap consumes the iterator directly.
        let best = top_m_by((0..1000).map(|i| ((i % 97) as f64, i, 0)), 2, score_desc);
        assert_eq!(best, vec![(96.0, 96, 0), (96.0, 193, 0)]);
    }
}
