//! Workload construction and multi-seed technique runs.
//!
//! Figure binaries all follow the same pattern: build a workload oracle
//! (cached in-process), run each technique for several seeds, one worker
//! per seed, and sample the curves at the paper's budget multiples.

use limeqo_core::explore::{ExploreConfig, Explorer, MatOracle};
use limeqo_core::metrics::Curve;
use limeqo_core::policy::{
    BaoCachePolicy, BayesQoRunner, GreedyPolicy, LimeQoPolicy, Policy, QoAdvisorPolicy,
    RandomPolicy,
};
use limeqo_core::AlsCompleter;
use limeqo_linalg::par::par_map;
use limeqo_sim::workloads::{OracleMatrices, Workload, WorkloadSpec};
use limeqo_tcnn::{PlainTcnnCompleter, TcnnConfig, TransductiveTcnnCompleter};

/// Which paper workload to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// JOB: 113 queries, IMDb-like.
    Job,
    /// CEB: 3133 queries, IMDb-like.
    Ceb,
    /// Stack 2019: 6191 queries.
    Stack,
    /// Stack 2017 snapshot (data-shift experiments).
    Stack2017,
    /// DSB: 1040 queries from 52 templates.
    Dsb,
}

impl WorkloadKind {
    /// The generator spec.
    pub fn spec(&self) -> WorkloadSpec {
        match self {
            WorkloadKind::Job => WorkloadSpec::job(),
            WorkloadKind::Ceb => WorkloadSpec::ceb(),
            WorkloadKind::Stack => WorkloadSpec::stack(),
            WorkloadKind::Stack2017 => WorkloadSpec::stack_2017(),
            WorkloadKind::Dsb => WorkloadSpec::dsb(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Job => "JOB",
            WorkloadKind::Ceb => "CEB",
            WorkloadKind::Stack => "Stack",
            WorkloadKind::Stack2017 => "Stack-2017",
            WorkloadKind::Dsb => "DSB",
        }
    }

    /// Paper Table 1 `(queries, default seconds, optimal seconds)`.
    pub fn paper_stats(&self) -> (usize, f64, f64) {
        match self {
            WorkloadKind::Job => (113, 181.0, 68.0),
            WorkloadKind::Ceb => (3133, 2.94 * 3600.0, 1.02 * 3600.0),
            WorkloadKind::Stack => (6191, 1.46 * 3600.0, 1.09 * 3600.0),
            WorkloadKind::Stack2017 => (6191, 1.16 * 3600.0, 0.90 * 3600.0),
            WorkloadKind::Dsb => (1040, 4.75 * 3600.0, 2.74 * 3600.0),
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "job" => Some(WorkloadKind::Job),
            "ceb" => Some(WorkloadKind::Ceb),
            "stack" => Some(WorkloadKind::Stack),
            "stack2017" | "stack-2017" => Some(WorkloadKind::Stack2017),
            "dsb" => Some(WorkloadKind::Dsb),
            _ => None,
        }
    }
}

/// Build a workload (optionally scaled down) and its oracle matrices.
pub fn build_oracle(kind: WorkloadKind, scale: f64) -> (Workload, OracleMatrices, MatOracle) {
    let spec = if scale < 1.0 { kind.spec().scaled(scale) } else { kind.spec() };
    let mut w = spec.build();
    let o = w.build_oracle();
    let mat = MatOracle::new(o.true_latency.clone(), Some(o.est_cost.clone()));
    (w, o, mat)
}

/// The six techniques of Fig. 5 plus the plain-TCNN ablation of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Random unobserved cells.
    Random,
    /// Longest-running-query-first.
    Greedy,
    /// Lowest-optimizer-cost-first (QO-Advisor adapted).
    QoAdvisor,
    /// Bao adapted to offline exploration (plain TCNN model).
    BaoCache,
    /// LimeQO: Algorithm 1 + censored ALS.
    LimeQo,
    /// LimeQO without the censored technique (Fig. 16 ablation).
    LimeQoNoCensor,
    /// LimeQO+: Algorithm 1 + transductive TCNN.
    LimeQoPlus,
    /// LimeQO+ without the censored loss (Fig. 16 ablation).
    LimeQoPlusNoCensor,
    /// Pure TCNN inside Algorithm 1 (Fig. 12 ablation: no embeddings).
    Tcnn,
}

impl Technique {
    /// Display name (figure legends).
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Random => "Random",
            Technique::Greedy => "Greedy",
            Technique::QoAdvisor => "QO-Advisor",
            Technique::BaoCache => "Bao-Cache",
            Technique::LimeQo => "LimeQO",
            Technique::LimeQoNoCensor => "LimeQO(wocensored)",
            Technique::LimeQoPlus => "LimeQO+",
            Technique::LimeQoPlusNoCensor => "LimeQO+(wocensored)",
            Technique::Tcnn => "TCNN",
        }
    }

    /// The Fig. 5 six.
    pub fn fig5() -> [Technique; 6] {
        [
            Technique::QoAdvisor,
            Technique::BaoCache,
            Technique::Random,
            Technique::Greedy,
            Technique::LimeQo,
            Technique::LimeQoPlus,
        ]
    }

    /// Whether this technique trains a neural network each step.
    pub fn is_neural(&self) -> bool {
        matches!(
            self,
            Technique::BaoCache
                | Technique::LimeQoPlus
                | Technique::LimeQoPlusNoCensor
                | Technique::Tcnn
        )
    }
}

/// Construct the policy for a technique. Neural techniques featurize the
/// workload's plans (one-off cost, included in the policy's first-step
/// overhead in the paper's accounting; we meter it separately at build).
pub fn technique_policy<'a>(
    technique: Technique,
    workload: &'a Workload,
    rank: usize,
    seed: u64,
    tcnn_cfg: &TcnnConfig,
) -> Box<dyn Policy + 'a> {
    match technique {
        Technique::Random => Box::new(RandomPolicy),
        Technique::Greedy => Box::new(GreedyPolicy),
        Technique::QoAdvisor => Box::new(QoAdvisorPolicy),
        Technique::LimeQo => {
            Box::new(LimeQoPolicy::new(Box::new(AlsCompleter::with_rank(rank, seed)), "limeqo"))
        }
        Technique::LimeQoNoCensor => Box::new(LimeQoPolicy::new(
            Box::new(AlsCompleter::without_censoring(seed)),
            "limeqo-wocensored",
        )),
        Technique::BaoCache => Box::new(BaoCachePolicy::new(Box::new(PlainTcnnCompleter::new(
            workload,
            tcnn_cfg.clone(),
            seed,
        )))),
        Technique::LimeQoPlus => Box::new(LimeQoPolicy::new(
            Box::new(TransductiveTcnnCompleter::new(workload, rank, tcnn_cfg.clone(), seed)),
            "limeqo+",
        )),
        Technique::LimeQoPlusNoCensor => {
            let mut cfg = tcnn_cfg.clone();
            cfg.censored_loss = false;
            Box::new(LimeQoPolicy::new(
                Box::new(TransductiveTcnnCompleter::new(workload, rank, cfg, seed)),
                "limeqo+wocensored",
            ))
        }
        Technique::Tcnn => Box::new(LimeQoPolicy::new(
            Box::new(PlainTcnnCompleter::new(workload, tcnn_cfg.clone(), seed)),
            "tcnn",
        )),
    }
}

/// Run one technique for one seed up to `time_budget` exploration seconds.
#[allow(clippy::too_many_arguments)]
pub fn run_technique(
    technique: Technique,
    workload: &Workload,
    oracle: &MatOracle,
    time_budget: f64,
    batch: usize,
    rank: usize,
    seed: u64,
    tcnn_cfg: &TcnnConfig,
) -> Curve {
    let policy = technique_policy(technique, workload, rank, seed, tcnn_cfg);
    let cfg = ExploreConfig { batch, seed, ..Default::default() };
    let n = oracle.latency().rows();
    let mut explorer = Explorer::new(oracle, policy, cfg, n);
    explorer.run_until(time_budget);
    let mut curve = explorer.into_curve();
    curve.name = technique.name().to_string();
    curve
}

/// Run a technique across seeds in parallel, returning one curve per seed.
#[allow(clippy::too_many_arguments)]
pub fn run_techniques(
    technique: Technique,
    workload: &Workload,
    oracle: &MatOracle,
    time_budget: f64,
    batch: usize,
    rank: usize,
    seeds: &[u64],
    tcnn_cfg: &TcnnConfig,
) -> Vec<Curve> {
    par_map(seeds.len(), seeds.len(), |i| {
        run_technique(technique, workload, oracle, time_budget, batch, rank, seeds[i], tcnn_cfg)
    })
}

/// Run the BayesQO baseline (per-query budgets; §5.6).
pub fn run_bayes_qo(oracle: &MatOracle, per_query_budget: f64, seed: u64) -> Curve {
    BayesQoRunner { per_query_budget, ..BayesQoRunner::paper_default(seed) }.run(oracle)
}
