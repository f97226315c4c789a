//! The partially observed workload matrix `W̃` (paper §4.1).
//!
//! Rows are queries, columns are hints, and each cell is in one of three
//! states:
//!
//! * **unobserved** — never executed (the `∞` entries of Eq. 1),
//! * **complete** — executed to completion, latency known exactly,
//! * **censored** — executed but timed out; only a *lower bound* on the
//!   true latency is known (Eq. 5). These are the "first-class citizens"
//!   the censored techniques of §4.3 exploit.
//!
//! Column [`WorkloadMatrix::DEFAULT_HINT`] (0) is the default optimizer
//! plan; exploration harnesses observe it for every query up front, because
//! repetitive workloads execute the default plan in production anyway.
//!
//! ## Sharded sparse storage
//!
//! The matrix is partitioned into contiguous row-range **shards** (one by
//! default — the unsharded engine; N for the multi-tenant 1M-row tier,
//! where each shard is an independent tenant's row block). Each shard owns
//!
//! * a CSR-style per-row index of observed columns (sorted ascending) with
//!   a parallel per-row value array — the only cells that cost memory,
//! * a bit-packed censored mask (one bit per cell, addressed
//!   `local_row * k + col`, so inserts never shift bits),
//! * a per-row best-complete cache (O(1) [`WorkloadMatrix::row_best`]),
//! * a [`Fenwick`] tree over per-row *unobserved* counts, giving
//!   rank → (row, col) lookup in O(log rows + k) for uniform sampling
//!   without materializing the unobserved set.
//!
//! There is **no dense cell array**: at the 1M × 25 tier the old
//! 16-byte-per-cell dense store alone cost ~400 MB; the sparse layout costs
//! ~12 bytes per *observed* cell plus ~3 MB of censored bitmap and per-row
//! headers ([`WorkloadMatrix::mem_bytes`] reports the exact footprint).
//! Values stay `f64`: an `f32` store would halve that term but break the
//! bit-identity contract between sharded and unsharded runs, which is the
//! headline invariant of the sharding layer.
//!
//! Shard boundaries are pure layout: every accessor returns exactly what
//! the dense scan used to return regardless of the shard count (pinned by
//! the unit tests and by the sharded-vs-unsharded engine equivalence
//! tests). Global row-major rank order is preserved because shards are
//! contiguous and ascending, so `unobserved_at_rank` walks shards in order
//! subtracting each shard's Fenwick total.

use limeqo_linalg::Fenwick;
use limeqo_linalg::Mat;

/// Largest workload matrix, in cells (`n·k`), that a scenario spec or a
/// daemon `init` may ask for: 2^25 cells is a 256 MiB dense `f64` matrix.
/// Both check it with `checked_mul` before anything is allocated.
pub const MAX_CELLS: usize = 1 << 25;

/// State of one (query, hint) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Never executed.
    Unobserved,
    /// Executed to completion with this latency (seconds).
    Complete(f64),
    /// Timed out: true latency is strictly greater than this bound.
    Censored(f64),
}

impl Cell {
    /// True when the cell has been executed (complete or censored).
    pub fn is_observed(&self) -> bool {
        !matches!(self, Cell::Unobserved)
    }
}

/// One contiguous row-range partition of the matrix: its own observed-cell
/// CSR index, values, censored bitmap, best cache, and unobserved Fenwick.
#[derive(Debug, Clone)]
struct Shard {
    /// Global row index of this shard's local row 0.
    start: usize,
    /// Per-row observed (complete or censored) columns, sorted ascending.
    obs: Vec<Vec<u32>>,
    /// Per-row observed values, parallel to `obs`: the latency of a
    /// complete cell or the bound of a censored one.
    vals: Vec<Vec<f64>>,
    /// Bit-packed censored mask, addressed `local_row * k + col`. A set
    /// bit marks an *observed* cell as censored; bits of unobserved cells
    /// are always clear.
    cens: Vec<u64>,
    /// Per-row cached best completed cell `(col, latency)`.
    best: Vec<Option<(u32, f64)>>,
    /// Fenwick tree over per-row unobserved counts (`k - obs[r].len()`).
    unobs: Fenwick,
    n_complete: usize,
    n_censored: usize,
}

impl Shard {
    fn new(start: usize, rows: usize, k: usize) -> Self {
        Shard {
            start,
            obs: vec![Vec::new(); rows],
            vals: vec![Vec::new(); rows],
            cens: vec![0u64; (rows * k).div_ceil(64)],
            best: vec![None; rows],
            unobs: Fenwick::from_counts(&vec![k as i64; rows]),
            n_complete: 0,
            n_censored: 0,
        }
    }

    fn rows(&self) -> usize {
        self.obs.len()
    }

    #[inline]
    fn cens_bit(&self, local: usize, col: usize, k: usize) -> bool {
        let bit = local * k + col;
        self.cens[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    fn set_cens_bit(&mut self, local: usize, col: usize, k: usize, on: bool) {
        let bit = local * k + col;
        if on {
            self.cens[bit / 64] |= 1u64 << (bit % 64);
        } else {
            self.cens[bit / 64] &= !(1u64 << (bit % 64));
        }
    }

    /// Cell state of `(local, col)` via the CSR index + censored bitmap.
    fn cell(&self, local: usize, col: usize, k: usize) -> Cell {
        match self.obs[local].binary_search(&(col as u32)) {
            Err(_) => Cell::Unobserved,
            Ok(pos) => {
                let v = self.vals[local][pos];
                if self.cens_bit(local, col, k) {
                    Cell::Censored(v)
                } else {
                    Cell::Complete(v)
                }
            }
        }
    }

    fn add_rows(&mut self, count: usize, k: usize) {
        let rows = self.rows() + count;
        self.obs.extend(std::iter::repeat_with(Vec::new).take(count));
        self.vals.extend(std::iter::repeat_with(Vec::new).take(count));
        self.best.extend(std::iter::repeat(None).take(count));
        self.cens.resize((rows * k).div_ceil(64), 0);
        for _ in 0..count {
            self.unobs.append(k as i64);
        }
    }

    /// Heap footprint of this shard's indices in bytes (length-based, so
    /// the figure is deterministic across runs).
    fn mem_bytes(&self, _k: usize) -> usize {
        use std::mem::size_of;
        let per_row =
            size_of::<Vec<u32>>() + size_of::<Vec<f64>>() + size_of::<Option<(u32, f64)>>();
        let observed: usize = self.obs.iter().map(|o| o.len()).sum();
        self.rows() * per_row
            + observed * (size_of::<u32>() + size_of::<f64>())
            + self.cens.len() * size_of::<u64>()
            + (self.unobs.len() + 1) * size_of::<i64>()
    }
}

/// The partially observed workload matrix.
#[derive(Debug, Clone)]
pub struct WorkloadMatrix {
    n: usize,
    k: usize,
    /// Contiguous ascending row-range partitions; always at least one.
    shards: Vec<Shard>,
    /// Global completed-cell count.
    n_complete: usize,
    /// Global censored-cell count.
    n_censored: usize,
}

impl WorkloadMatrix {
    /// Column index of the default hint.
    pub const DEFAULT_HINT: usize = 0;

    /// Create an all-unobserved matrix with a single shard (the unsharded
    /// engine's layout).
    pub fn new(n: usize, k: usize) -> Self {
        Self::new_sharded(n, k, 1)
    }

    /// Create an all-unobserved matrix partitioned into `shards` contiguous
    /// near-equal row ranges (the first `n % shards` shards get one extra
    /// row). `shards` is clamped to at least 1; shards may be empty when
    /// `shards > n`.
    pub fn new_sharded(n: usize, k: usize, shards: usize) -> Self {
        let s = shards.max(1);
        let base = n / s;
        let rem = n % s;
        let mut out = Vec::with_capacity(s);
        let mut start = 0usize;
        for i in 0..s {
            let rows = base + usize::from(i < rem);
            out.push(Shard::new(start, rows, k));
            start += rows;
        }
        WorkloadMatrix { n, k, shards: out, n_complete: 0, n_censored: 0 }
    }

    /// Create a matrix partitioned at explicit tenant row counts: shard `i`
    /// holds `tenant_rows[i]` rows. At least one tenant is required.
    pub fn with_tenant_rows(tenant_rows: &[usize], k: usize) -> Self {
        assert!(!tenant_rows.is_empty(), "at least one tenant shard is required");
        let mut shards = Vec::with_capacity(tenant_rows.len());
        let mut start = 0usize;
        for &rows in tenant_rows {
            shards.push(Shard::new(start, rows, k));
            start += rows;
        }
        WorkloadMatrix { n: start, k, shards, n_complete: 0, n_censored: 0 }
    }

    /// Create a matrix with the default column (hint 0) observed at the
    /// given latencies — the paper's starting condition ("we initially
    /// reveal the entries corresponding to the default plan").
    pub fn with_defaults(defaults: &[f64], k: usize) -> Self {
        Self::with_defaults_sharded(defaults, k, 1)
    }

    /// [`WorkloadMatrix::with_defaults`] over a sharded layout.
    pub fn with_defaults_sharded(defaults: &[f64], k: usize, shards: usize) -> Self {
        let mut wm = WorkloadMatrix::new_sharded(defaults.len(), k, shards);
        for (i, &d) in defaults.iter().enumerate() {
            wm.set_complete(i, Self::DEFAULT_HINT, d);
        }
        wm
    }

    /// A fresh all-unobserved matrix with this matrix's exact shape *and*
    /// shard layout (used by the store's drift rebuilds, which must not
    /// change the partitioning).
    pub fn empty_like(&self) -> Self {
        let mut shards = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            shards.push(Shard::new(s.start, s.rows(), self.k));
        }
        WorkloadMatrix { n: self.n, k: self.k, shards, n_complete: 0, n_censored: 0 }
    }

    /// A fresh all-unobserved matrix with `n` rows, this matrix's column
    /// count, and the same *shard count* re-partitioned evenly (row counts
    /// per shard change with `n`; the number of tenants does not).
    pub fn empty_resized(&self, n: usize) -> Self {
        WorkloadMatrix::new_sharded(n, self.k, self.shards.len())
    }

    /// Number of queries (rows).
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Number of hints (columns).
    pub fn n_cols(&self) -> usize {
        self.k
    }

    /// Number of shards (1 = the unsharded layout).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Global `[start, end)` row range of every shard, ascending.
    pub(crate) fn shard_ranges(&self) -> Vec<(usize, usize)> {
        self.shards.iter().map(|s| (s.start, s.start + s.rows())).collect()
    }

    /// Heap footprint of the matrix's sparse indices in bytes: per-row
    /// headers, observed-cell (col, value) pairs, censored bitmaps, best
    /// caches, and Fenwick trees. Length-based (not capacity-based), so
    /// the figure is deterministic; the `scale-1m` memory-budget test
    /// asserts against it.
    pub fn mem_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.mem_bytes(self.k)).sum()
    }

    /// Shard index holding global `row`.
    #[inline]
    fn shard_of(&self, row: usize) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        self.shards.partition_point(|s| s.start <= row) - 1
    }

    /// Cell state at (row, col).
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> Cell {
        let s = &self.shards[self.shard_of(row)];
        s.cell(row - s.start, col, self.k)
    }

    /// Record a completed execution.
    pub fn set_complete(&mut self, row: usize, col: usize, latency: f64) {
        assert!(latency >= 0.0, "latency must be non-negative");
        let k = self.k;
        let si = self.shard_of(row);
        let shard = &mut self.shards[si];
        let local = row - shard.start;
        let col32 = col as u32;
        match shard.obs[local].binary_search(&col32) {
            Err(pos) => {
                shard.obs[local].insert(pos, col32);
                shard.vals[local].insert(pos, latency);
                shard.unobs.add(local, -1);
                shard.n_complete += 1;
                self.n_complete += 1;
            }
            Ok(pos) => {
                if shard.cens_bit(local, col, k) {
                    shard.set_cens_bit(local, col, k, false);
                    shard.n_censored -= 1;
                    shard.n_complete += 1;
                    self.n_censored -= 1;
                    self.n_complete += 1;
                }
                shard.vals[local][pos] = latency;
            }
        }
        // Maintain the best-complete cache with the dense scan's exact
        // semantics: ascending columns, strictly-smaller replaces (so the
        // lowest column wins ties).
        match shard.best[local] {
            None => shard.best[local] = Some((col32, latency)),
            Some((bc, bv)) if bc == col32 => {
                if latency <= bv {
                    shard.best[local] = Some((bc, latency));
                } else {
                    // The incumbent best got slower: rescan the row.
                    let rescanned = Self::rescan_best(shard, local, k);
                    shard.best[local] = rescanned;
                }
            }
            Some((bc, bv)) => {
                if latency < bv || (latency == bv && col32 < bc) {
                    shard.best[local] = Some((col32, latency));
                }
            }
        }
    }

    /// Record a timed-out execution: the true latency exceeds `bound`.
    /// A tighter (larger) bound replaces a looser one; a completed
    /// observation is never downgraded to censored.
    pub fn set_censored(&mut self, row: usize, col: usize, bound: f64) {
        assert!(bound >= 0.0, "bound must be non-negative");
        let k = self.k;
        let si = self.shard_of(row);
        let shard = &mut self.shards[si];
        let local = row - shard.start;
        let col32 = col as u32;
        match shard.obs[local].binary_search(&col32) {
            Err(pos) => {
                shard.obs[local].insert(pos, col32);
                shard.vals[local].insert(pos, bound);
                shard.set_cens_bit(local, col, k, true);
                shard.unobs.add(local, -1);
                shard.n_censored += 1;
                self.n_censored += 1;
            }
            Ok(pos) => {
                if shard.cens_bit(local, col, k) && shard.vals[local][pos] < bound {
                    shard.vals[local][pos] = bound;
                }
                // Complete cells and tighter-or-equal bounds are kept.
            }
        }
    }

    /// Append `count` unobserved rows (new queries arriving, §5.3) to the
    /// **last shard** — appended rows extend the final row range, exactly
    /// as the unsharded matrix grew at its tail.
    pub fn add_rows(&mut self, count: usize) {
        self.n += count;
        let k = self.k;
        self.shards.last_mut().expect("at least one shard").add_rows(count, k);
    }

    /// Best (minimum-latency) *completed* cell of a row, the hint the
    /// online path would serve (censored cells are excluded: a timed-out
    /// plan is unverified and using it could regress). O(1) from the
    /// incrementally maintained cache.
    pub fn row_best(&self, row: usize) -> Option<(usize, f64)> {
        let s = &self.shards[self.shard_of(row)];
        s.best[row - s.start].map(|(c, v)| (c as usize, v))
    }

    /// Observed (complete or censored) column indices of `row`, sorted
    /// ascending — the compact observed-cell index the ALS assembly, the
    /// Eq. 6 scan and the censored-fallback sweep iterate instead of the
    /// dense row.
    #[inline]
    pub fn observed_cols(&self, row: usize) -> &[u32] {
        let s = &self.shards[self.shard_of(row)];
        &s.obs[row - s.start]
    }

    /// Number of observed cells in `row` (O(1)).
    #[inline]
    pub fn row_observed_count(&self, row: usize) -> usize {
        self.observed_cols(row).len()
    }

    /// Unobserved column indices of `row`, ascending — the complement of
    /// [`WorkloadMatrix::observed_cols`], produced by merge-walking the
    /// index rather than matching every dense cell.
    pub fn unobserved_in_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        let observed = self.observed_cols(row);
        let mut next_obs = 0usize;
        (0..self.k).filter(move |&c| {
            if observed.get(next_obs).is_some_and(|&o| o as usize == c) {
                next_obs += 1;
                false
            } else {
                true
            }
        })
    }

    /// Dense-scan fallback for the best cache (only needed when the
    /// incumbent best cell is overwritten with a slower latency).
    fn rescan_best(shard: &Shard, local: usize, k: usize) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (pos, &col) in shard.obs[local].iter().enumerate() {
            if !shard.cens_bit(local, col as usize, k) {
                let v = shard.vals[local][pos];
                if best.map_or(true, |(_, b)| v < b) {
                    best = Some((col, v));
                }
            }
        }
        best
    }

    /// `P(W̃)` (Eq. 2): the workload latency under the currently best
    /// observed hints. Rows with no completed cell contribute nothing
    /// (they have not entered the workload yet).
    pub fn total_best_latency(&self) -> f64 {
        (0..self.n).filter_map(|i| self.row_best(i).map(|(_, v)| v)).sum()
    }

    /// The observed-value matrix `W̃` with unobserved/censored cells as 0
    /// (pairs with [`WorkloadMatrix::mask`] in `M ⊙ W̃`).
    pub fn values(&self) -> Mat {
        let mut m = Mat::zeros(self.n, self.k);
        for shard in &self.shards {
            for local in 0..shard.rows() {
                for (pos, &col) in shard.obs[local].iter().enumerate() {
                    if !shard.cens_bit(local, col as usize, self.k) {
                        m[(shard.start + local, col as usize)] = shard.vals[local][pos];
                    }
                }
            }
        }
        m
    }

    /// The mask matrix `M`: 1 for completed cells, 0 otherwise.
    pub fn mask(&self) -> Mat {
        let mut m = Mat::zeros(self.n, self.k);
        for shard in &self.shards {
            for local in 0..shard.rows() {
                for &col in &shard.obs[local] {
                    if !shard.cens_bit(local, col as usize, self.k) {
                        m[(shard.start + local, col as usize)] = 1.0;
                    }
                }
            }
        }
        m
    }

    /// The timeout matrix `T`: censored bounds where known, 0 elsewhere.
    pub fn timeouts(&self) -> Mat {
        let mut m = Mat::zeros(self.n, self.k);
        for shard in &self.shards {
            for local in 0..shard.rows() {
                for (pos, &col) in shard.obs[local].iter().enumerate() {
                    if shard.cens_bit(local, col as usize, self.k) {
                        m[(shard.start + local, col as usize)] = shard.vals[local][pos];
                    }
                }
            }
        }
        m
    }

    /// Count of completed cells (O(1)).
    pub fn complete_count(&self) -> usize {
        self.n_complete
    }

    /// Count of censored cells (O(1)).
    pub fn censored_count(&self) -> usize {
        self.n_censored
    }

    /// Count of unobserved cells (O(1)).
    pub fn unobserved_count(&self) -> usize {
        self.n * self.k - self.n_complete - self.n_censored
    }

    /// True when no unobserved cells remain (Algorithm 1's `M ≠ 1`
    /// termination test).
    pub fn fully_observed(&self) -> bool {
        self.unobserved_count() == 0
    }

    /// Number of unobserved cells in `row` (O(1)).
    #[inline]
    pub fn row_unobserved_count(&self, row: usize) -> usize {
        self.k - self.observed_cols(row).len()
    }

    /// The `rank`-th unobserved cell in row-major order, in
    /// O(shards + log rows + k): shards are walked in ascending row order
    /// subtracting each one's Fenwick total, then a Fenwick descent inside
    /// the owning shard finds the local row and a merge-walk over the
    /// row's sorted observed columns finds the offset-th unobserved
    /// column. Agrees exactly with `unobserved_cells().nth(rank)` (pinned
    /// by the unit tests) at every shard count.
    ///
    /// # Panics
    /// Panics if `rank >= unobserved_count()`.
    pub fn unobserved_at_rank(&self, rank: usize) -> (usize, usize) {
        let total = self.unobserved_count();
        assert!(rank < total, "rank {rank} out of {total}");
        let mut rank = rank as i64;
        for shard in &self.shards {
            let t = shard.unobs.total();
            if rank < t {
                let (local, offset) = shard.unobs.rank_select(rank);
                let row = shard.start + local;
                return (row, self.unobserved_col_at(row, offset as usize));
            }
            rank -= t;
        }
        unreachable!("rank within total but not within any shard")
    }

    /// The `offset`-th unobserved column of `row` (ascending), via the
    /// merge-walk over the row's sorted observed columns — O(k).
    ///
    /// # Panics
    /// Panics if `offset >= row_unobserved_count(row)`.
    pub fn unobserved_col_at(&self, row: usize, offset: usize) -> usize {
        let mut remaining = offset;
        let observed = self.observed_cols(row);
        let mut next_obs = 0usize;
        for col in 0..self.k {
            if observed.get(next_obs).is_some_and(|&o| o as usize == col) {
                next_obs += 1;
                continue;
            }
            if remaining == 0 {
                return col;
            }
            remaining -= 1;
        }
        panic!("offset {offset} exceeds row {row}'s unobserved count")
    }

    /// Iterate over unobserved cell coordinates in row-major order,
    /// skipping fully observed rows in O(1) via the index.
    pub fn unobserved_cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n)
            .filter(move |&r| self.row_observed_count(r) < self.k)
            .flat_map(move |r| self.unobserved_in_row(r).map(move |c| (r, c)))
    }

    /// Rows that still have at least one unobserved cell.
    pub fn rows_with_unobserved(&self) -> Vec<usize> {
        (0..self.n).filter(|&r| self.row_observed_count(r) < self.k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_initialize_column_zero() {
        let wm = WorkloadMatrix::with_defaults(&[1.0, 2.0, 3.0], 4);
        assert_eq!(wm.n_rows(), 3);
        assert_eq!(wm.n_cols(), 4);
        assert_eq!(wm.cell(1, 0), Cell::Complete(2.0));
        assert_eq!(wm.cell(1, 1), Cell::Unobserved);
        assert_eq!(wm.complete_count(), 3);
    }

    #[test]
    fn row_best_ignores_censored() {
        let mut wm = WorkloadMatrix::with_defaults(&[5.0], 3);
        wm.set_censored(0, 1, 1.0); // timed out at 1s: NOT usable
        assert_eq!(wm.row_best(0), Some((0, 5.0)));
        wm.set_complete(0, 2, 2.0);
        assert_eq!(wm.row_best(0), Some((2, 2.0)));
    }

    #[test]
    fn total_best_latency_sums_row_minima() {
        let mut wm = WorkloadMatrix::with_defaults(&[5.0, 10.0], 3);
        wm.set_complete(0, 1, 3.0);
        assert_eq!(wm.total_best_latency(), 13.0);
    }

    #[test]
    fn censored_bound_only_tightens() {
        let mut wm = WorkloadMatrix::new(1, 2);
        wm.set_censored(0, 0, 2.0);
        wm.set_censored(0, 0, 1.0); // looser: ignored
        assert_eq!(wm.cell(0, 0), Cell::Censored(2.0));
        wm.set_censored(0, 0, 3.0); // tighter: kept
        assert_eq!(wm.cell(0, 0), Cell::Censored(3.0));
    }

    #[test]
    fn complete_never_downgraded() {
        let mut wm = WorkloadMatrix::new(1, 1);
        wm.set_complete(0, 0, 4.0);
        wm.set_censored(0, 0, 10.0);
        assert_eq!(wm.cell(0, 0), Cell::Complete(4.0));
    }

    #[test]
    fn mask_values_timeouts_consistent() {
        let mut wm = WorkloadMatrix::with_defaults(&[1.0, 2.0], 3);
        wm.set_censored(0, 1, 0.5);
        wm.set_complete(1, 2, 4.0);
        let m = wm.mask();
        let v = wm.values();
        let t = wm.timeouts();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 0.0); // censored is NOT in the mask
        assert_eq!(v[(0, 1)], 0.0);
        assert_eq!(t[(0, 1)], 0.5);
        assert_eq!(v[(1, 2)], 4.0);
        assert_eq!(t[(1, 2)], 0.0);
    }

    #[test]
    fn add_rows_extends_unobserved() {
        let mut wm = WorkloadMatrix::with_defaults(&[1.0], 2);
        wm.add_rows(2);
        assert_eq!(wm.n_rows(), 3);
        assert_eq!(wm.cell(2, 0), Cell::Unobserved);
        // New rows without observations do not contribute to P.
        assert_eq!(wm.total_best_latency(), 1.0);
    }

    #[test]
    fn fully_observed_counts() {
        let mut wm = WorkloadMatrix::new(1, 2);
        assert!(!wm.fully_observed());
        wm.set_complete(0, 0, 1.0);
        wm.set_censored(0, 1, 2.0);
        assert!(wm.fully_observed());
        assert_eq!(wm.unobserved_count(), 0);
        assert_eq!(wm.censored_count(), 1);
    }

    /// Naive dense re-implementations of the indexed accessors, for
    /// equivalence pinning.
    fn naive_row_best(wm: &WorkloadMatrix, row: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for col in 0..wm.n_cols() {
            if let Cell::Complete(v) = wm.cell(row, col) {
                if best.map_or(true, |(_, b)| v < b) {
                    best = Some((col, v));
                }
            }
        }
        best
    }

    fn dense_counts(wm: &WorkloadMatrix) -> (usize, usize) {
        let mut complete = 0;
        let mut censored = 0;
        for r in 0..wm.n_rows() {
            for c in 0..wm.n_cols() {
                match wm.cell(r, c) {
                    Cell::Complete(_) => complete += 1,
                    Cell::Censored(_) => censored += 1,
                    Cell::Unobserved => {}
                }
            }
        }
        (complete, censored)
    }

    fn exercise_random_mutation(shards: usize) {
        use limeqo_linalg::rng::SeededRng;
        let mut rng = SeededRng::new(0xC5_11);
        let (n, k) = (17, 7);
        let mut wm = WorkloadMatrix::new_sharded(n, k, shards);
        for step in 0..600 {
            let row = rng.index(wm.n_rows());
            let col = rng.index(k);
            let v = rng.uniform(0.1, 10.0);
            if rng.chance(0.6) {
                wm.set_complete(row, col, v);
            } else {
                wm.set_censored(row, col, v);
            }
            if step % 97 == 0 {
                wm.add_rows(1);
            }
            // Cached row_best == dense scan, with identical tie-breaks.
            for r in 0..wm.n_rows() {
                assert_eq!(wm.row_best(r), naive_row_best(&wm, r), "row {r} at step {step}");
                // Index sorted, complete, and consistent with the cells.
                let obs = wm.observed_cols(r);
                assert!(obs.windows(2).all(|w| w[0] < w[1]), "unsorted index");
                let dense: Vec<u32> =
                    (0..k).filter(|&c| wm.cell(r, c).is_observed()).map(|c| c as u32).collect();
                assert_eq!(obs, dense.as_slice());
                let unob: Vec<usize> = wm.unobserved_in_row(r).collect();
                let dense_unob: Vec<usize> =
                    (0..k).filter(|&c| !wm.cell(r, c).is_observed()).collect();
                assert_eq!(unob, dense_unob);
            }
            // O(1) counters == dense counts.
            let (complete, censored) = dense_counts(&wm);
            assert_eq!(wm.complete_count(), complete);
            assert_eq!(wm.censored_count(), censored);
            assert_eq!(wm.unobserved_count(), wm.n_rows() * k - complete - censored);
            // Fenwick rank lookup == row-major enumeration, at every rank.
            if step % 23 == 0 {
                let dense: Vec<(usize, usize)> = wm.unobserved_cells().collect();
                assert_eq!(dense.len(), wm.unobserved_count());
                for (rank, &cell) in dense.iter().enumerate() {
                    assert_eq!(wm.unobserved_at_rank(rank), cell, "rank {rank} at step {step}");
                }
            }
        }
    }

    #[test]
    fn index_matches_dense_scans_under_random_mutation() {
        exercise_random_mutation(1);
    }

    #[test]
    fn index_matches_dense_scans_under_random_mutation_sharded() {
        exercise_random_mutation(3);
        exercise_random_mutation(8);
        // More shards than rows: trailing shards start empty.
        exercise_random_mutation(23);
    }

    /// The same mutation sequence applied at different shard counts must
    /// produce identical observable state — shard boundaries are layout,
    /// not semantics.
    #[test]
    fn shard_count_is_invisible_to_every_accessor() {
        use limeqo_linalg::rng::SeededRng;
        let (n, k) = (29, 5);
        let build = |shards: usize| {
            let mut rng = SeededRng::new(0xABCD);
            let mut wm = WorkloadMatrix::new_sharded(n, k, shards);
            for step in 0..400 {
                let row = rng.index(wm.n_rows());
                let col = rng.index(k);
                let v = rng.uniform(0.1, 10.0);
                if rng.chance(0.55) {
                    wm.set_complete(row, col, v);
                } else {
                    wm.set_censored(row, col, v);
                }
                if step % 131 == 0 {
                    wm.add_rows(2);
                }
            }
            wm
        };
        let reference = build(1);
        for shards in [2, 3, 8] {
            let wm = build(shards);
            assert_eq!(wm.n_shards(), shards);
            assert_eq!(wm.n_rows(), reference.n_rows());
            assert_eq!(wm.complete_count(), reference.complete_count());
            assert_eq!(wm.censored_count(), reference.censored_count());
            assert_eq!(wm.total_best_latency().to_bits(), reference.total_best_latency().to_bits());
            for r in 0..reference.n_rows() {
                assert_eq!(wm.row_best(r), reference.row_best(r));
                assert_eq!(wm.observed_cols(r), reference.observed_cols(r));
                for c in 0..k {
                    assert_eq!(wm.cell(r, c), reference.cell(r, c), "cell ({r},{c})");
                }
            }
            for rank in 0..reference.unobserved_count() {
                assert_eq!(wm.unobserved_at_rank(rank), reference.unobserved_at_rank(rank));
            }
        }
    }

    #[test]
    fn tenant_partition_and_rebuilds_preserve_layout() {
        let wm = WorkloadMatrix::with_tenant_rows(&[3, 0, 5], 4);
        assert_eq!(wm.n_rows(), 8);
        assert_eq!(wm.n_shards(), 3);
        assert_eq!(wm.shard_ranges(), vec![(0, 3), (3, 3), (3, 8)]);
        let like = wm.empty_like();
        assert_eq!(like.shard_ranges(), wm.shard_ranges());
        assert_eq!(like.unobserved_count(), 8 * 4);
        let resized = wm.empty_resized(9);
        assert_eq!(resized.n_shards(), 3);
        assert_eq!(resized.n_rows(), 9);
        assert_eq!(resized.shard_ranges(), vec![(0, 3), (3, 6), (6, 9)]);
    }

    #[test]
    fn mem_bytes_tracks_observed_cells() {
        let mut wm = WorkloadMatrix::new_sharded(64, 8, 4);
        let empty = wm.mem_bytes();
        assert!(empty > 0);
        for r in 0..64 {
            wm.set_complete(r, 0, 1.0);
        }
        let filled = wm.mem_bytes();
        assert!(filled > empty, "observed cells must cost memory");
        assert_eq!(filled - empty, 64 * 12, "12 bytes per observed cell");
    }

    #[test]
    fn unobserved_rank_lookup_covers_edges() {
        let mut wm = WorkloadMatrix::with_defaults(&[1.0, 1.0, 1.0], 3);
        // Rows 0..3 each have cols {1,2} unobserved: ranks enumerate
        // row-major.
        assert_eq!(wm.unobserved_at_rank(0), (0, 1));
        assert_eq!(wm.unobserved_at_rank(3), (1, 2));
        assert_eq!(wm.unobserved_at_rank(5), (2, 2));
        // Empty a middle row: its ranks vanish, later rows shift down.
        wm.set_complete(1, 1, 1.0);
        wm.set_censored(1, 2, 0.5);
        assert_eq!(wm.unobserved_at_rank(2), (2, 1));
        // Appended rows join the rank space at the tail.
        wm.add_rows(1);
        assert_eq!(wm.unobserved_at_rank(4), (3, 0));
        assert_eq!(wm.row_unobserved_count(3), 3);
        assert_eq!(wm.row_unobserved_count(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn unobserved_rank_out_of_range_panics() {
        let wm = WorkloadMatrix::with_defaults(&[1.0], 2);
        wm.unobserved_at_rank(1);
    }

    #[test]
    fn best_cache_survives_overwrite_of_the_incumbent() {
        let mut wm = WorkloadMatrix::with_defaults(&[5.0], 3);
        wm.set_complete(0, 1, 2.0);
        assert_eq!(wm.row_best(0), Some((1, 2.0)));
        // Overwrite the incumbent best with a slower value: the cache must
        // rescan and fall back to the default column.
        wm.set_complete(0, 1, 9.0);
        assert_eq!(wm.row_best(0), Some((0, 5.0)));
        // Ties resolve to the lowest column, exactly like the dense scan.
        wm.set_complete(0, 2, 5.0);
        assert_eq!(wm.row_best(0), Some((0, 5.0)));
        wm.set_complete(0, 1, 5.0);
        assert_eq!(wm.row_best(0), Some((0, 5.0)));
        wm.set_complete(0, 2, 4.0);
        assert_eq!(wm.row_best(0), Some((2, 4.0)));
    }

    #[test]
    fn observed_count_tracks_index() {
        let mut wm = WorkloadMatrix::with_defaults(&[1.0, 2.0], 4);
        assert_eq!(wm.row_observed_count(0), 1);
        wm.set_censored(0, 2, 0.5);
        assert_eq!(wm.row_observed_count(0), 2);
        assert_eq!(wm.observed_cols(0), &[0, 2]);
        // Re-observing an already observed cell does not grow the index.
        wm.set_complete(0, 2, 1.0);
        assert_eq!(wm.row_observed_count(0), 2);
    }

    #[test]
    fn unobserved_iteration_and_rows() {
        let mut wm = WorkloadMatrix::with_defaults(&[1.0, 1.0], 3);
        wm.set_complete(0, 1, 1.0);
        wm.set_complete(0, 2, 1.0);
        let cells: Vec<_> = wm.unobserved_cells().collect();
        assert_eq!(cells, vec![(1, 1), (1, 2)]);
        assert_eq!(wm.rows_with_unobserved(), vec![1]);
    }
}
