//! The scenario engine's environment side: declarative [`ScenarioSpec`]s —
//! workload × drift schedule × hint-space shape × policy + budget × seeds —
//! and a registry of named scenarios well beyond the paper's four
//! workloads.
//!
//! The paper certifies LimeQO on exactly four workload points (Table 1).
//! Offline optimizers live or die on everything those four points hold
//! fixed: query-frequency skew, latency tail shape, mid-run drift, hint
//! availability, exploration-budget regimes. Each [`ScenarioSpec`] in
//! [`registry`] pins one of those axes; the bench crate's scenario runner
//! executes them and `tests/tests/scenarios.rs` locks their summaries in a
//! golden file so later scale/speed PRs regress against the whole matrix,
//! not just the paper's tables.
//!
//! This module is *data only*: building oracles, running policies, and
//! aggregating metrics live in `limeqo-bench::scenario_runner`. The
//! registry itself is data too: each scenario is defined once, as a file
//! under `scenarios/` (fast tier) or `scenarios/scale/`, compiled in with
//! `include_str!` and parsed by [`crate::scenario_file`]. Pinning a new
//! scenario is: drop in the file, add its line to the file table below,
//! re-bless the golden (see README.md).

use std::path::Path;

use crate::scenario_file::parse_scenario;
use crate::workloads::WorkloadSpec;
use limeqo_core::scenario::PolicySpec;
use limeqo_core::MAX_CELLS;
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;

/// The most tables a simulated catalog or one of its query classes may
/// have. The registry's largest catalog has 21. The catalog is built table
/// by table before anything runs, so an unbounded count in a spec file
/// would be an allocation abort in the runner rather than a load error.
pub(crate) const MAX_TABLES: usize = 64;

/// The most arrivals an online trace may request. The trace is drawn in
/// full before the first arrival, eight bytes per arrival. The registry's
/// largest trace has 6000 arrivals, the fuzzer draws at most 1200, and the
/// benchmark of record raises `online-zipf` to 30 000.
pub(crate) const MAX_ARRIVALS: usize = 1 << 20;

/// The environment a scenario explores.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioWorkload {
    /// A full simulated-DBMS workload (catalog, optimizer, executor).
    Sim(WorkloadSpec),
    /// A synthetic low-rank latency matrix with no planner behind it —
    /// used where the DBMS layer is irrelevant noise: scale scenarios
    /// (10 k-query matrices) and censoring-shape scenarios that need exact
    /// control over the default column's position in each row.
    Synthetic(SyntheticSpec),
}

impl ScenarioWorkload {
    /// Row count the scenario's matrix will have.
    pub fn n_queries(&self) -> usize {
        match self {
            ScenarioWorkload::Sim(spec) => spec.n_queries,
            ScenarioWorkload::Synthetic(spec) => spec.n,
        }
    }

    /// Hint columns of the full hint space, before any [`HintShape`].
    pub(crate) fn full_columns(&self) -> usize {
        match self {
            // The simulated DBMS always exposes the 49-hint interface.
            ScenarioWorkload::Sim(_) => crate::hints::HintSpace::all().len(),
            ScenarioWorkload::Synthetic(spec) => spec.k,
        }
    }
}

/// Generator for a synthetic low-rank true-latency matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Rows (queries).
    pub n: usize,
    /// Columns (hints) before the hint shape is applied.
    pub k: usize,
    /// Rank of the noise-free base `Q Hᵀ`.
    pub rank: usize,
    /// Multiplier applied to column 0 — the synthetic headroom knob.
    /// Values near 1 make the default nearly optimal per row, which is the
    /// censoring-hostile regime: almost every probe exceeds the row-best
    /// timeout and lands as a censored cell.
    pub default_inflation: f64,
    /// Lognormal σ of the per-cell noise on top of the low-rank base.
    pub noise_sigma: f64,
    /// Generator seed (independent of the exploration seeds).
    pub seed: u64,
}

impl SyntheticSpec {
    /// Materialize the true-latency matrix.
    pub fn build_latency(&self) -> Mat {
        let mut rng = SeededRng::new(self.seed ^ 0x5CE7_A210);
        let q = rng.uniform_mat(self.n, self.rank, 0.5, 2.0);
        let h = rng.uniform_mat(self.k, self.rank, 0.2, 1.5);
        let mut lat = q.matmul_t(&h).expect("rank dims agree");
        if self.noise_sigma > 0.0 {
            for v in lat.as_mut_slice() {
                *v *= rng.log_normal(0.0, self.noise_sigma);
            }
        }
        for i in 0..self.n {
            lat[(i, 0)] *= self.default_inflation;
        }
        lat
    }
}

/// Which columns of the full hint space a scenario exposes.
///
/// Real deployments rarely expose all 49 hint sets — fleet operators vet a
/// handful of safe configurations. The shape is applied before the oracle
/// is built, so both the exploration matrix and the optimal total are
/// defined over the restricted space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintShape {
    /// The full space (49 hints for the simulator).
    Full,
    /// The first `n` hints (default always included).
    Prefix(usize),
    /// Every `stride`-th hint starting at the default.
    Strided(usize),
}

impl HintShape {
    /// Column indices into the full `k`-wide space this shape keeps.
    pub fn indices(&self, full_k: usize) -> Vec<usize> {
        match *self {
            HintShape::Full => (0..full_k).collect(),
            HintShape::Prefix(n) => {
                assert!(n >= 2 && n <= full_k, "prefix must keep >= 2 of {full_k} hints");
                (0..n).collect()
            }
            HintShape::Strided(stride) => {
                assert!(stride >= 1, "stride must be >= 1");
                (0..full_k).step_by(stride).collect()
            }
        }
    }
}

/// One scheduled mid-run change of the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// When the event fires, as a fraction of the offline budget.
    pub at_frac: f64,
    /// What changes.
    pub kind: DriftKind,
}

/// The two drift flavours the paper studies (§5.3, §5.4), schedulable at
/// any budget fraction and composable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftKind {
    /// §5.4 complete data shift: the database ages `days` (growth +
    /// selectivity walk); the oracle is rebuilt uncalibrated and swapped
    /// in, keeping each query's cached best hint.
    DataShift {
        /// Simulated days between the snapshots.
        days: f64,
    },
    /// §5.3 workload shift: `count` held-back queries arrive; their
    /// default plans are observed online (uncharged).
    AddQueries {
        /// Number of arriving queries.
        count: usize,
    },
}

/// Arrival process for online-exploration scenarios.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalModel {
    /// Every query equally likely per arrival.
    Uniform,
    /// Zipf-skewed query frequencies: query popularity rank `r` (a seeded
    /// permutation of the rows) arrives with probability ∝ `1/r^exponent`.
    /// Production workloads are almost never uniform; skew concentrates
    /// observations on hot rows and starves the matrix of cold-row cells.
    Zipf {
        /// Skew exponent (1.0–1.3 is typical of production query logs).
        exponent: f64,
    },
    /// Replay an explicit row trace — e.g. loaded from a CSV query log via
    /// the scenario-file loader's `replay_csv` key. The trace cycles when
    /// `count` exceeds its length, so a captured log can drive arbitrarily
    /// long runs.
    Replay {
        /// Row indices in arrival order.
        rows: Vec<usize>,
    },
}

/// Arrival trace configuration for online scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSpec {
    /// Arrivals served per seeded run.
    pub count: usize,
    /// Which rows arrive how often.
    pub model: ArrivalModel,
    /// Consecutive arrivals that repeat each drawn row (≥ 1). Models
    /// clients that re-issue the same query in quick succession — bursts
    /// concentrate observations even under a uniform row draw. `1` is the
    /// historical one-draw-per-arrival behaviour and leaves traces
    /// bit-identical to earlier releases.
    pub burst: usize,
    /// Independent client streams interleaved round-robin (≥ 1). Each
    /// stream draws rows from its own derived RNG; stream 0 uses the
    /// historical seed, so `1` reproduces the single-stream traces
    /// bit for bit.
    pub concurrency: usize,
    /// Mean arrival rate in queries per simulated second for open-loop
    /// queue-wait accounting; `0` is the historical closed loop (no
    /// queueing metrics). The interarrival RNG is salted separately from
    /// the row draws, so enabling a rate never changes which rows arrive.
    pub rate: f64,
}

impl ArrivalSpec {
    /// An arrival spec with the default knobs: single stream, no bursts,
    /// closed loop. This is the shape every pre-corpus scenario used.
    pub fn new(count: usize, model: ArrivalModel) -> Self {
        ArrivalSpec { count, model, burst: 1, concurrency: 1, rate: 0.0 }
    }

    /// Generate the deterministic arrival trace for one seeded run.
    pub fn trace(&self, n_rows: usize, seed: u64) -> Vec<usize> {
        assert!(n_rows > 0, "arrival trace needs at least one query");
        if let ArrivalModel::Replay { rows } = &self.model {
            // Replay is literal: the trace IS the data, cycled to `count`.
            assert!(!rows.is_empty(), "replay trace must not be empty");
            assert!(rows.iter().all(|&r| r < n_rows), "replay rows in range");
            return (0..self.count).map(|i| rows[i % rows.len()]).collect();
        }
        if self.concurrency <= 1 {
            return self.stream(n_rows, seed ^ 0xA221_7AB5, self.count);
        }
        // `concurrency` independent client streams with derived seeds,
        // merged round-robin so the interleaving is deterministic. Extra
        // arrivals (count % c) go to the earliest streams.
        let c = self.concurrency;
        let streams: Vec<Vec<usize>> = (0..c)
            .map(|i| {
                let len = self.count / c + usize::from(i < self.count % c);
                let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64);
                self.stream(n_rows, seed ^ 0xA221_7AB5 ^ salt, len)
            })
            .collect();
        let mut merged = Vec::with_capacity(self.count);
        let mut idx = 0;
        while merged.len() < self.count {
            let (stream, pos) = (idx % c, idx / c);
            if pos < streams[stream].len() {
                merged.push(streams[stream][pos]);
            }
            idx += 1;
        }
        merged
    }

    /// One client stream: `count` arrivals drawn from `model`, repeating
    /// each draw `burst` times. `burst == 1` performs exactly one RNG draw
    /// per arrival — the historical trace sequence.
    fn stream(&self, n_rows: usize, seed: u64, count: usize) -> Vec<usize> {
        let mut rng = SeededRng::new(seed);
        let burst = self.burst.max(1);
        let mut out = Vec::with_capacity(count);
        match &self.model {
            ArrivalModel::Uniform => {
                while out.len() < count {
                    let row = rng.index(n_rows);
                    for _ in 0..burst {
                        if out.len() == count {
                            break;
                        }
                        out.push(row);
                    }
                }
            }
            ArrivalModel::Zipf { exponent } => {
                // Popularity rank -> row via a seeded permutation, then
                // inverse-CDF sampling over the Zipf weights.
                let mut rows: Vec<usize> = (0..n_rows).collect();
                rng.shuffle(&mut rows);
                let weights: Vec<f64> =
                    (0..n_rows).map(|r| 1.0 / ((r + 1) as f64).powf(*exponent)).collect();
                let total: f64 = weights.iter().sum();
                let mut cdf = Vec::with_capacity(n_rows);
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cdf.push(acc);
                }
                while out.len() < count {
                    let x = rng.uniform(0.0, 1.0);
                    let rank = cdf.partition_point(|&c| c < x).min(n_rows - 1);
                    let row = rows[rank];
                    for _ in 0..burst {
                        if out.len() == count {
                            break;
                        }
                        out.push(row);
                    }
                }
            }
            ArrivalModel::Replay { .. } => unreachable!("replay handled in trace()"),
        }
        out
    }

    /// Exponential interarrival gaps (simulated seconds) for the open-loop
    /// queue model; empty when `rate == 0` (closed loop). Salted apart
    /// from the row draws so turning the rate on never shifts the trace.
    pub fn interarrival_gaps(&self, seed: u64) -> Vec<f64> {
        if self.rate <= 0.0 {
            return Vec::new();
        }
        let mut rng = SeededRng::new(seed ^ 0x0B5E_41E5);
        (0..self.count).map(|_| -(1.0 - rng.uniform(0.0, 1.0)).ln() / self.rate).collect()
    }
}

/// A fully declarative scenario: everything the runner needs to reproduce
/// a run bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique registry name (metrics keys derive from it).
    pub name: String,
    /// One-line description shown by `scenario --list`.
    pub summary: String,
    /// The environment.
    pub workload: ScenarioWorkload,
    /// Hint-space shape applied before the oracle is built.
    pub hint_shape: HintShape,
    /// Mid-run drift events, fired in `at_frac` order.
    pub drift: Vec<DriftEvent>,
    /// The exploration technique.
    pub policy: PolicySpec,
    /// Offline budget as a multiple of the workload's default total
    /// (ignored by online scenarios, which are arrival-bounded).
    pub budget_multiple: f64,
    /// Exploration batch m (cells per step).
    pub batch: usize,
    /// Hard cap on offline exploration steps, threaded into
    /// `ExploreConfig::max_steps`. The budget is the intended stop; the
    /// cap bounds worst-case runtime when α-clamped timeouts make each
    /// step arbitrarily cheap (which matters at the 100k-query scale).
    /// Use `100_000` (the harness default) when no cap is wanted.
    pub max_steps: usize,
    /// Seeds; deterministic per-seed runs, metrics are seed means.
    pub seeds: Vec<u64>,
    /// Arrival process — present iff `policy.is_online()`.
    pub arrivals: Option<ArrivalSpec>,
    /// Workload-matrix shard count (1 = the unsharded layout). Purely a
    /// scale-out knob: any value produces a bit-identical run (the sharded
    /// equivalence contract pinned by the runner's sharded verifier), so
    /// this never moves a golden — it only changes which per-shard indexes
    /// store the matrix.
    pub shards: usize,
    /// Probability that an issued offline probe fails at the transport
    /// level instead of returning a latency (chaos knob; 0 = off, the
    /// default, under which runs are bit-identical to specs written
    /// before the knob existed). Failed probes are retried with bounded
    /// deterministic backoff; see `ExploreConfig::probe_fail_rate`.
    pub probe_fail_rate: f64,
    /// Seed component for the injected-fault stream, letting fault
    /// placement vary independently of the policy seed.
    pub probe_fail_seed: u64,
}

impl ScenarioSpec {
    /// Total queries scheduled to arrive via `AddQueries` events.
    pub fn arriving_queries(&self) -> usize {
        self.drift
            .iter()
            .map(|e| match e.kind {
                DriftKind::AddQueries { count } => count,
                DriftKind::DataShift { .. } => 0,
            })
            .sum()
    }

    /// Number of hint columns the scenario's matrix will have after the
    /// hint shape is applied, or an error when the shape is out of bounds
    /// for the workload's full hint space.
    pub fn shaped_columns(&self) -> Result<usize, String> {
        let full_k = self.workload.full_columns();
        match self.hint_shape {
            HintShape::Full => Ok(full_k),
            HintShape::Prefix(n) => {
                if n < 2 || n > full_k {
                    Err(format!("hint_shape: prefix must keep >= 2 of {full_k} hints, got {n}"))
                } else {
                    Ok(n)
                }
            }
            HintShape::Strided(stride) => {
                if stride < 1 {
                    Err("hint_shape: stride must be >= 1".into())
                } else {
                    Ok((0..full_k).step_by(stride).len())
                }
            }
        }
    }

    /// Check the spec's internal consistency, returning an actionable
    /// message that names the offending field. This is the load-time gate
    /// for corpus files and the fuzzer's validity filter; [`Self::validate`]
    /// is the panicking wrapper the scenario runner uses.
    pub fn check(&self) -> Result<(), String> {
        let fail = |msg: String| -> Result<(), String> { Err(format!("{}: {msg}", self.name)) };
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if self.seeds.is_empty() {
            return fail("seeds: at least one seed".into());
        }
        // JSON numbers are f64; a seed above 2^53 would not survive the
        // spec -> file -> spec round trip exactly.
        const MAX_EXACT: u64 = 1 << 53;
        for &s in &self.seeds {
            if s > MAX_EXACT {
                return fail(format!("seeds: seed {s} exceeds 2^53 (not exact in a config file)"));
            }
        }
        if self.batch < 1 {
            return fail("batch: batch >= 1".into());
        }
        if self.max_steps < 1 {
            return fail("max_steps: max_steps >= 1".into());
        }
        if self.shards < 1 || self.shards > 1 << 16 {
            return fail(format!("shards: shards must be in 1..=65536, got {}", self.shards));
        }
        if !self.probe_fail_rate.is_finite()
            || self.probe_fail_rate < 0.0
            || self.probe_fail_rate > 0.9
        {
            return fail(format!(
                "probe_fail_rate: must be finite and in 0.0..=0.9, got {}",
                self.probe_fail_rate
            ));
        }
        if self.probe_fail_rate > 0.0 && self.policy.is_online() {
            return fail("probe_fail_rate: offline probe-fault injection only".into());
        }
        if self.probe_fail_seed > MAX_EXACT {
            return fail("probe_fail_seed: exceeds 2^53 (not exact in a config file)".into());
        }
        match &self.workload {
            ScenarioWorkload::Sim(spec) => {
                if spec.n_queries == 0 {
                    return fail("workload: n_queries >= 1".into());
                }
                if spec.catalog.n_tables == 0 {
                    return fail("workload.catalog.n_tables: at least one table".into());
                }
                if spec.catalog.n_tables > MAX_TABLES {
                    return fail(format!(
                        "workload.catalog.n_tables: {} exceeds the {MAX_TABLES}-table limit",
                        spec.catalog.n_tables
                    ));
                }
                if let Some(c) = spec.class_mix.iter().find(|c| c.n_tables.1 > MAX_TABLES) {
                    return fail(format!(
                        "workload.class_mix.n_tables: {} exceeds the {MAX_TABLES}-table limit",
                        c.n_tables.1
                    ));
                }
                if spec.seed > MAX_EXACT {
                    return fail("workload.seed: exceeds 2^53 (not exact in a config file)".into());
                }
            }
            ScenarioWorkload::Synthetic(spec) => {
                if spec.n == 0 {
                    return fail("workload.n: n >= 1".into());
                }
                if spec.k < 2 {
                    return fail("workload.k: need the default plus >= 1 hint column".into());
                }
                if spec.rank < 1 || spec.rank > spec.n.min(spec.k) {
                    return fail(format!(
                        "workload.rank: rank must be in 1..=min(n, k), got {}",
                        spec.rank
                    ));
                }
                if !spec.default_inflation.is_finite() || spec.default_inflation <= 0.0 {
                    return fail("workload.default_inflation: must be finite and > 0".into());
                }
                if !spec.noise_sigma.is_finite() || spec.noise_sigma < 0.0 {
                    return fail("workload.noise_sigma: must be finite and >= 0".into());
                }
                if spec.seed > MAX_EXACT {
                    return fail("workload.seed: exceeds 2^53 (not exact in a config file)".into());
                }
            }
        }
        let n = self.workload.n_queries();
        let shaped_k = match self.shaped_columns() {
            Ok(k) => k,
            Err(msg) => return fail(msg),
        };
        // The oracle is built at the full hint width before the shape
        // selects columns, so the bound is on that matrix; the shaped one
        // is no larger.
        let full_k = self.workload.full_columns();
        if n.checked_mul(full_k).map_or(true, |cells| cells > MAX_CELLS) {
            return fail(format!(
                "workload: a {n}x{full_k} matrix exceeds the {MAX_CELLS}-cell limit"
            ));
        }
        if self.batch > n * shaped_k {
            return fail(format!(
                "batch: batch {} exceeds the {n}x{shaped_k} matrix size",
                self.batch
            ));
        }
        if self.policy.is_online() != self.arrivals.is_some() {
            return fail("arrivals: arrivals present iff the policy is online".into());
        }
        if self.policy.is_online() {
            // The online runner is arrival-driven and does not process
            // drift schedules; a drift event there would be silently
            // ignored, which is worse than rejecting the spec.
            if !self.drift.is_empty() {
                return fail("drift: drift schedules are not supported for online policies".into());
            }
        } else if !self.budget_multiple.is_finite() || self.budget_multiple <= 0.0 {
            return fail("budget_multiple: positive budget".into());
        }
        if let Some(arrivals) = &self.arrivals {
            if arrivals.count == 0 {
                return fail("arrivals.count: at least one arrival".into());
            }
            if arrivals.count > MAX_ARRIVALS {
                return fail(format!(
                    "arrivals.count: {} exceeds the {MAX_ARRIVALS}-arrival limit",
                    arrivals.count
                ));
            }
            if arrivals.burst < 1 {
                return fail("arrivals.burst: burst >= 1".into());
            }
            if arrivals.concurrency < 1 {
                return fail("arrivals.concurrency: concurrency >= 1".into());
            }
            if !arrivals.rate.is_finite() || arrivals.rate < 0.0 {
                return fail("arrivals.rate: must be finite and >= 0".into());
            }
            match &arrivals.model {
                ArrivalModel::Uniform => {}
                ArrivalModel::Zipf { exponent } => {
                    if !exponent.is_finite() || *exponent <= 0.0 {
                        return fail(
                            "arrivals.model.exponent: zipf exponent must be finite and > 0".into(),
                        );
                    }
                }
                ArrivalModel::Replay { rows } => {
                    if rows.is_empty() {
                        return fail("arrivals.model.rows: replay trace must not be empty".into());
                    }
                    if let Some(&bad) = rows.iter().find(|&&r| r >= n) {
                        return fail(format!(
                            "arrivals.model.rows: replay row {bad} out of range for {n} queries"
                        ));
                    }
                    if arrivals.burst != 1 || arrivals.concurrency != 1 {
                        return fail(
                            "arrivals.model: replay traces fix burst and concurrency at 1".into(),
                        );
                    }
                }
            }
        }
        if self.arriving_queries() >= n {
            return fail("drift: arriving queries must leave an initial workload".into());
        }
        let mut last = 0.0;
        for e in &self.drift {
            if !(e.at_frac > 0.0 && e.at_frac < 1.0) {
                return fail("drift: drift events fire strictly inside the budget".into());
            }
            if e.at_frac < last {
                return fail("drift: drift events sorted by at_frac".into());
            }
            last = e.at_frac;
            if matches!(e.kind, DriftKind::DataShift { .. })
                && !matches!(self.workload, ScenarioWorkload::Sim(_))
            {
                return fail("drift: data shift needs a simulated workload".into());
            }
        }
        Ok(())
    }

    /// Sanity-check the spec's internal consistency (panics on violation).
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

/// The checked-in scenario files, as `(path under scenarios/, contents)`
/// pairs compiled into the crate. `scenarios/README.md` records why
/// individual specs are shaped the way they are.
macro_rules! scenario_files {
    ($($file:literal),* $(,)?) => {
        &[$(($file, include_str!(concat!("../../../scenarios/", $file)))),*]
    };
}

/// The files behind [`registry`], in registry order.
const FAST_FILES: &[(&str, &str)] = scenario_files![
    "job-mini.json",
    "heavy-tail.json",
    "tiny-headroom.json",
    "template-drift.json",
    "data-shift.json",
    "growing-catalog.json",
    "hint-prefix-9.json",
    "censor-hostile.json",
    "large-matrix-10k.json",
    "online-uniform.json",
    "online-zipf.json",
    "data-shift-retained.json",
    "incremental-tunnel.json",
    "zipf-cold-bonus.json",
    "incremental-als.json",
];

/// The files behind [`scale_registry`], in registry order.
const SCALE_FILES: &[(&str, &str)] = scenario_files![
    "scale/scale-100k.json",
    "scale/scale-100k-zipf.json",
    "scale/scale-1m.json",
    "scale/scale-1m-tenants.json",
];

/// Parse and validate compiled-in scenario files with the corpus loader.
/// A checked-in file that does not load is broken data, not user input,
/// so it panics with the loader's `scenarios/<file>:<line>` message.
fn parse_files(files: &[(&str, &str)]) -> Vec<ScenarioSpec> {
    files
        .iter()
        .map(|&(file, src)| {
            parse_scenario(src, &Path::new("scenarios").join(file), None)
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .collect()
}

/// The named scenario registry — the matrix the golden suite pins, read
/// from the top level of `scenarios/`.
///
/// Every entry must stay fast enough for `cargo test` (a few seconds at
/// opt-level 2); heavyweight scenarios belong in [`scale_registry`].
pub fn registry() -> Vec<ScenarioSpec> {
    parse_files(FAST_FILES)
}

/// Scenarios too heavy for the per-`cargo test` golden suite, read from
/// `scenarios/scale/`: the 100k-query production-scale regime the
/// parallel completion engine exists for, and the sharded 1M-row tier.
/// Run with `scenario --scale`; pinned by the `#[ignore]`d golden tests in
/// `tests/tests/scenarios.rs` (slow tier, `./ci.sh --ignored`) against
/// `tests/golden/scale.golden`.
pub fn scale_registry() -> Vec<ScenarioSpec> {
    parse_files(SCALE_FILES)
}

/// The fast registry plus the scale registry, in that order.
pub fn full_registry() -> Vec<ScenarioSpec> {
    let mut specs = registry();
    specs.extend(scale_registry());
    specs
}

/// Look a scenario up by name (fast and scale registries).
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    full_registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_enough() {
        let specs = registry();
        assert!(specs.len() >= 8, "registry must stay ahead of the paper's four workloads");
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }

    #[test]
    fn by_name_roundtrip() {
        for spec in full_registry() {
            assert_eq!(by_name(&spec.name).expect("present").name, spec.name);
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn scale_registry_is_at_100k_and_distinct() {
        let scale = scale_registry();
        assert!(scale.iter().any(|s| s.name == "scale-100k"));
        for s in &scale {
            assert!(s.workload.n_queries() >= 100_000, "{} is not scale", s.name);
        }
        // The offline scale scenario must carry a real step cap — it is
        // what bounds the slow tier's worst case.
        let offline = by_name("scale-100k").unwrap();
        assert!(offline.max_steps < 100_000);
        assert!(matches!(offline.policy, PolicySpec::LimeQoAls { incremental: true, .. }));
        // Names must stay unique across BOTH registries.
        let names_owned = full_registry();
        let mut names: Vec<&str> = names_owned.iter().map(|s| s.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn synthetic_latency_is_positive_and_deterministic() {
        let spec = SyntheticSpec {
            n: 50,
            k: 12,
            rank: 3,
            default_inflation: 2.0,
            noise_sigma: 0.2,
            seed: 9,
        };
        let a = spec.build_latency();
        let b = spec.build_latency();
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.as_slice().iter().all(|&v| v > 0.0));
        assert_eq!(a.shape(), (50, 12));
    }

    #[test]
    fn hint_shapes_index_correctly() {
        assert_eq!(HintShape::Full.indices(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(HintShape::Prefix(3).indices(49), vec![0, 1, 2]);
        assert_eq!(HintShape::Strided(20).indices(49), vec![0, 20, 40]);
    }

    #[test]
    fn zipf_trace_is_skewed_and_seeded() {
        let spec = ArrivalSpec::new(4000, ArrivalModel::Zipf { exponent: 1.2 });
        let a = spec.trace(30, 5);
        let b = spec.trace(30, 5);
        let c = spec.trace(30, 6);
        assert_eq!(a, b, "same seed, same trace");
        assert_ne!(a, c, "different seed, different trace");
        assert!(a.iter().all(|&r| r < 30));
        // The hottest row must dominate a uniform share by a wide margin.
        let mut counts = vec![0usize; 30];
        for &r in &a {
            counts[r] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 3 * a.len() / 30, "zipf skew too weak: max count {max}");
    }

    #[test]
    fn uniform_trace_covers_rows() {
        let spec = ArrivalSpec::new(2000, ArrivalModel::Uniform);
        let t = spec.trace(20, 3);
        let mut seen = [false; 20];
        for &r in &t {
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn arriving_queries_counted() {
        let spec = by_name("template-drift").unwrap();
        assert_eq!(spec.arriving_queries(), 16);
        assert_eq!(by_name("job-mini").unwrap().arriving_queries(), 0);
    }

    #[test]
    fn trace_knob_defaults_are_bit_compatible() {
        // burst = 1, concurrency = 1 must reproduce the historical trace
        // sequence exactly — the golden suite depends on it.
        for model in [ArrivalModel::Uniform, ArrivalModel::Zipf { exponent: 1.1 }] {
            let spec = ArrivalSpec::new(500, model);
            let knobbed = ArrivalSpec { burst: 1, concurrency: 1, rate: 2.0, ..spec.clone() };
            assert_eq!(spec.trace(40, 9), knobbed.trace(40, 9), "rate must not move the trace");
        }
    }

    #[test]
    fn burst_repeats_rows_in_blocks() {
        let base = ArrivalSpec::new(300, ArrivalModel::Uniform);
        let bursty = ArrivalSpec { burst: 3, ..base.clone() };
        let t = bursty.trace(25, 4);
        assert_eq!(t.len(), 300);
        for chunk in t.chunks(3) {
            assert!(chunk.iter().all(|&r| r == chunk[0]), "burst blocks repeat one row");
        }
        // The underlying draw sequence is the historical one: taking every
        // 3rd element reproduces the burst-free trace's first 100 draws.
        let plain = base.trace(25, 4);
        let firsts: Vec<usize> = t.chunks(3).map(|c| c[0]).collect();
        assert_eq!(firsts, plain[..100].to_vec());
    }

    #[test]
    fn concurrency_interleaves_independent_streams() {
        let base = ArrivalSpec::new(401, ArrivalModel::Uniform);
        let multi = ArrivalSpec { concurrency: 3, ..base.clone() };
        let t = multi.trace(30, 7);
        assert_eq!(t.len(), 401);
        assert!(t.iter().all(|&r| r < 30));
        // Stream 0 keeps the historical seed: its draws are a prefix of
        // the single-stream trace.
        let solo = base.trace(30, 7);
        let stream0: Vec<usize> = t.iter().copied().step_by(3).collect();
        assert_eq!(stream0.len(), 134);
        assert_eq!(stream0[..], solo[..134]);
        // The derived streams are genuinely different draws.
        let stream1: Vec<usize> = t.iter().copied().skip(1).step_by(3).collect();
        assert_ne!(stream0[..133], stream1[..133]);
    }

    #[test]
    fn replay_trace_cycles_and_is_literal() {
        let spec = ArrivalSpec::new(7, ArrivalModel::Replay { rows: vec![3, 1, 4] });
        assert_eq!(spec.trace(10, 99), vec![3, 1, 4, 3, 1, 4, 3]);
        // Seed-independent: the trace is data, not a draw.
        assert_eq!(spec.trace(10, 1), spec.trace(10, 2));
    }

    #[test]
    fn interarrival_gaps_follow_rate() {
        let closed = ArrivalSpec::new(1000, ArrivalModel::Uniform);
        assert!(closed.interarrival_gaps(3).is_empty());
        let open = ArrivalSpec { rate: 4.0, ..closed };
        let gaps = open.interarrival_gaps(3);
        assert_eq!(gaps.len(), 1000);
        assert!(gaps.iter().all(|&g| g.is_finite() && g >= 0.0));
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.25).abs() < 0.05, "mean gap {mean} should be ~1/rate");
        assert_eq!(gaps, open.interarrival_gaps(3), "seeded and deterministic");
    }

    fn base_offline() -> ScenarioSpec {
        by_name("censor-hostile").unwrap()
    }

    #[test]
    fn check_rejects_empty_seeds() {
        let mut spec = base_offline();
        spec.seeds.clear();
        assert!(spec.check().unwrap_err().contains("seeds"));
    }

    #[test]
    fn check_rejects_nonpositive_budget() {
        let mut spec = base_offline();
        spec.budget_multiple = 0.0;
        assert!(spec.check().unwrap_err().contains("budget"));
        spec.budget_multiple = f64::NAN;
        assert!(spec.check().unwrap_err().contains("budget"));
    }

    #[test]
    fn check_rejects_bad_zipf_exponent() {
        let mut spec = by_name("online-zipf").unwrap();
        spec.arrivals = Some(ArrivalSpec::new(100, ArrivalModel::Zipf { exponent: 0.0 }));
        assert!(spec.check().unwrap_err().contains("exponent"));
        spec.arrivals = Some(ArrivalSpec::new(100, ArrivalModel::Zipf { exponent: f64::INFINITY }));
        assert!(spec.check().unwrap_err().contains("exponent"));
    }

    #[test]
    fn check_rejects_batch_larger_than_matrix() {
        let mut spec = base_offline();
        spec.batch = 400 * 49 + 1;
        assert!(spec.check().unwrap_err().contains("batch"));
        spec.batch = 400 * 49;
        assert!(spec.check().is_ok());
    }

    #[test]
    fn check_rejects_zero_batch_and_steps() {
        let mut spec = base_offline();
        spec.batch = 0;
        assert!(spec.check().unwrap_err().contains("batch"));
        let mut spec = base_offline();
        spec.max_steps = 0;
        assert!(spec.check().unwrap_err().contains("max_steps"));
    }

    #[test]
    fn check_rejects_oversized_seed() {
        let mut spec = base_offline();
        spec.seeds = vec![(1u64 << 53) + 1];
        assert!(spec.check().unwrap_err().contains("2^53"));
    }

    #[test]
    fn check_rejects_bad_synthetic_fields() {
        let synth = |f: &dyn Fn(&mut SyntheticSpec)| {
            let mut spec = base_offline();
            if let ScenarioWorkload::Synthetic(s) = &mut spec.workload {
                f(s);
            }
            spec.check().unwrap_err()
        };
        assert!(synth(&|s| s.n = 0).contains("workload.n"));
        assert!(synth(&|s| s.k = 1).contains("workload.k"));
        assert!(synth(&|s| s.rank = 0).contains("rank"));
        assert!(synth(&|s| s.rank = 50).contains("rank"));
        assert!(synth(&|s| s.default_inflation = 0.0).contains("default_inflation"));
        assert!(synth(&|s| s.noise_sigma = -0.1).contains("noise_sigma"));
    }

    #[test]
    fn check_bounds_the_matrix_without_overflowing() {
        let mut spec = base_offline();
        let ScenarioWorkload::Synthetic(w) = &mut spec.workload else { panic!("synthetic") };
        // n·k overflows usize: an error, not a debug-build panic.
        (w.n, w.k) = (1 << 40, 1 << 40);
        assert!(spec.check().unwrap_err().contains("cell limit"));
        // The bound is inclusive.
        let ScenarioWorkload::Synthetic(w) = &mut spec.workload else { panic!("synthetic") };
        (w.n, w.k) = (MAX_CELLS / 32, 32);
        assert_eq!(spec.check(), Ok(()));
        let ScenarioWorkload::Synthetic(w) = &mut spec.workload else { panic!("synthetic") };
        w.n += 1;
        assert!(spec.check().unwrap_err().contains("cell limit"));
        // A simulated workload is bounded at the full 49-hint width.
        let mut sim = by_name("job-mini").unwrap();
        let ScenarioWorkload::Sim(w) = &mut sim.workload else { panic!("sim") };
        w.n_queries = MAX_CELLS / 49 + 1;
        assert!(sim.check().unwrap_err().contains("cell limit"));
    }

    #[test]
    fn check_bounds_the_catalog_and_the_arrival_trace() {
        let sim = |f: &dyn Fn(&mut WorkloadSpec)| {
            let mut spec = by_name("job-mini").unwrap();
            let ScenarioWorkload::Sim(w) = &mut spec.workload else { panic!("sim") };
            f(w);
            spec.check()
        };
        // The bounds are inclusive; an empty catalog has no table to join.
        assert_eq!(sim(&|w| w.catalog.n_tables = MAX_TABLES), Ok(()));
        assert_eq!(sim(&|w| w.catalog.n_tables = 1), Ok(()));
        assert!(sim(&|w| w.catalog.n_tables = 0).unwrap_err().contains("at least one table"));
        assert!(sim(&|w| w.catalog.n_tables = MAX_TABLES + 1).unwrap_err().contains("table limit"));
        assert_eq!(sim(&|w| w.class_mix[0].n_tables.1 = MAX_TABLES), Ok(()));
        let err = sim(&|w| w.class_mix[0].n_tables = (1, 1_000_000_000)).unwrap_err();
        assert!(err.contains("class_mix.n_tables"), "{err}");
        let arrivals = |count: usize| {
            let mut spec = by_name("online-uniform").unwrap();
            spec.arrivals.as_mut().expect("online").count = count;
            spec.check()
        };
        assert_eq!(arrivals(MAX_ARRIVALS), Ok(()));
        assert!(arrivals(MAX_ARRIVALS + 1).unwrap_err().contains("arrival limit"));
    }

    #[test]
    fn check_rejects_bad_hint_shape() {
        let mut spec = base_offline();
        spec.hint_shape = HintShape::Prefix(1);
        assert!(spec.check().unwrap_err().contains("hint_shape"));
        spec.hint_shape = HintShape::Prefix(50);
        assert!(spec.check().unwrap_err().contains("hint_shape"));
    }

    #[test]
    fn check_rejects_bad_arrival_knobs() {
        let online = |f: &dyn Fn(&mut ArrivalSpec)| {
            let mut spec = by_name("online-uniform").unwrap();
            if let Some(a) = &mut spec.arrivals {
                f(a);
            }
            spec.check().unwrap_err()
        };
        assert!(online(&|a| a.count = 0).contains("arrivals.count"));
        assert!(online(&|a| a.burst = 0).contains("burst"));
        assert!(online(&|a| a.concurrency = 0).contains("concurrency"));
        assert!(online(&|a| a.rate = -1.0).contains("rate"));
        assert!(online(&|a| a.model = ArrivalModel::Replay { rows: vec![] }).contains("replay"));
        assert!(
            online(&|a| a.model = ArrivalModel::Replay { rows: vec![32] }).contains("out of range")
        );
        assert!(online(&|a| {
            a.model = ArrivalModel::Replay { rows: vec![0] };
            a.burst = 2;
        })
        .contains("burst"));
    }

    #[test]
    #[should_panic(expected = "arrivals present iff")]
    fn validate_rejects_offline_spec_with_arrivals() {
        let mut spec = by_name("job-mini").unwrap();
        spec.arrivals = Some(ArrivalSpec::new(10, ArrivalModel::Uniform));
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "drift schedules are not supported for online")]
    fn validate_rejects_online_spec_with_drift() {
        let mut spec = by_name("online-uniform").unwrap();
        spec.drift = vec![DriftEvent { at_frac: 0.5, kind: DriftKind::DataShift { days: 365.0 } }];
        spec.validate();
    }
}
