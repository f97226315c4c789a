//! Fig. 16: censored-technique ablation — LimeQO and LimeQO+ with and
//! without censored handling, on CEB.
//!
//! Shape to reproduce: the censored variants converge faster with less
//! variance (the paper's LimeQO+ with censoring needed 0.5 h of
//! exploration for the 2× reduction vs 0.9 h without — a 1.8× gap).
//!
//! Extra ablations beyond the paper: `--nonneg` also runs
//! ALS without the non-negativity projection; `--alphas` sweeps the
//! timeout multiplier α.

use crate::figures::FigOpts;
use crate::harness::{build_oracle, run_techniques, technique_policy, Technique, WorkloadKind};
use crate::report::{fmt_secs, write_csv, Table};
use limeqo_core::explore::{ExploreConfig, Explorer};
use limeqo_core::metrics::mean_std;
use limeqo_core::policy::LimeQoPolicy;
use limeqo_core::AlsCompleter;

/// Regenerate Fig. 16.
pub fn run(opts: &FigOpts) {
    let extra_nonneg = std::env::args().any(|a| a == "--nonneg");
    let extra_alpha = std::env::args().any(|a| a == "--alphas");
    let kind = WorkloadKind::Ceb;
    let scale = opts.scale_for(kind);
    let (workload, matrices, oracle) = build_oracle(kind, scale);
    let horizon = 2.04 * matrices.default_total;
    let grid: Vec<f64> = (0..=16).map(|i| horizon * i as f64 / 16.0).collect();
    let tcnn_cfg = opts.tcnn_cfg();

    let mut csv = vec![vec![
        "series".to_string(),
        "explore_time_s".to_string(),
        "latency_mean_s".to_string(),
        "latency_std_s".to_string(),
    ]];
    let mut table = Table::new(
        "Fig 16 — censored ablation (CEB)",
        &["series", "latency@0.5x", "latency@1x", "latency@2x", "std@1x"],
    );
    let pairs = [
        Technique::LimeQo,
        Technique::LimeQoNoCensor,
        Technique::LimeQoPlus,
        Technique::LimeQoPlusNoCensor,
    ];
    for technique in pairs {
        let seeds = opts.seeds(technique.is_neural());
        let curves = run_techniques(
            technique, &workload, &oracle, horizon, opts.batch, opts.rank, &seeds, &tcnn_cfg,
        );
        for &t in &grid {
            let vals: Vec<f64> = curves.iter().map(|c| c.latency_at(t)).collect();
            let (mean, std) = mean_std(&vals);
            csv.push(vec![
                technique.name().into(),
                format!("{t:.1}"),
                format!("{mean:.3}"),
                format!("{std:.3}"),
            ]);
        }
        let stat = |frac: f64| {
            let vals: Vec<f64> =
                curves.iter().map(|c| c.latency_at(frac * matrices.default_total)).collect();
            mean_std(&vals)
        };
        table.row(&[
            technique.name().to_string(),
            fmt_secs(stat(0.5).0),
            fmt_secs(stat(1.0).0),
            fmt_secs(stat(2.0).0),
            fmt_secs(stat(1.0).1),
        ]);
    }
    table.print();

    if extra_nonneg {
        let mut t2 = Table::new(
            "extra ablation — ALS non-negativity projection",
            &["series", "latency@1x", "latency@2x"],
        );
        for nonneg in [true, false] {
            let seeds = opts.seeds(false);
            let curves: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let mut als = AlsCompleter::paper_default(seed);
                    als.nonneg = nonneg;
                    let policy =
                        LimeQoPolicy::new(Box::new(als), if nonneg { "nn" } else { "raw" });
                    let cfg = ExploreConfig { batch: opts.batch, seed, ..Default::default() };
                    let mut ex = Explorer::new(&oracle, Box::new(policy), cfg, workload.n());
                    ex.run_until(horizon);
                    ex.into_curve()
                })
                .collect();
            let at = |f: f64| {
                fmt_secs(
                    curves.iter().map(|c| c.latency_at(f * matrices.default_total)).sum::<f64>()
                        / curves.len() as f64,
                )
            };
            t2.row(&[format!("nonneg={nonneg}"), at(1.0), at(2.0)]);
        }
        t2.print();
    }
    if extra_alpha {
        let mut t3 = Table::new(
            "extra ablation — timeout multiplier alpha",
            &["alpha", "latency@1x", "latency@2x"],
        );
        for alpha in [2.0, 5.0, 10.0, f64::INFINITY] {
            let seeds = opts.seeds(false);
            let curves: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let mut policy = LimeQoPolicy::with_als(seed);
                    policy.alpha = alpha;
                    let cfg = ExploreConfig { batch: opts.batch, seed, ..Default::default() };
                    let mut ex = Explorer::new(&oracle, Box::new(policy), cfg, workload.n());
                    ex.run_until(horizon);
                    ex.into_curve()
                })
                .collect();
            let at = |f: f64| {
                fmt_secs(
                    curves.iter().map(|c| c.latency_at(f * matrices.default_total)).sum::<f64>()
                        / curves.len() as f64,
                )
            };
            t3.row(&[format!("{alpha}"), at(1.0), at(2.0)]);
        }
        t3.print();
    }
    // Silence unused warning when extras are off.
    let _ = technique_policy;
    let p = write_csv("fig16", &csv).expect("fig16 csv");
    println!("[fig16] wrote {}", p.display());
}
