//! Sweep Algorithm 1's timeout multiplier α on JOB and CEB-small to pick
//! the default (diagnostic).

use limeqo_bench::harness::{build_oracle, WorkloadKind};
use limeqo_bench::report::fmt_secs;
use limeqo_core::explore::{ExploreConfig, Explorer};
use limeqo_core::policy::LimeQoPolicy;

fn main() {
    for (kind, scale) in [(WorkloadKind::Job, 1.0), (WorkloadKind::Ceb, 0.2)] {
        let (w, m, oracle) = build_oracle(kind, scale);
        println!(
            "\n{} n={} default={} optimal={}",
            kind.name(),
            w.n(),
            fmt_secs(m.default_total),
            fmt_secs(m.optimal_total)
        );
        let budgets = [0.25, 0.5, 1.0, 2.0, 4.0].map(|x| x * m.default_total);
        for alpha in [1.5, 2.0, 3.0, 5.0, 10.0, f64::INFINITY] {
            let mut lats = vec![];
            for seed in 0..3u64 {
                let mut policy = LimeQoPolicy::with_als(seed * 31 + 7);
                policy.alpha = alpha;
                let mut ex = Explorer::new(
                    &oracle,
                    Box::new(policy),
                    ExploreConfig { batch: 16, seed, ..Default::default() },
                    w.n(),
                );
                ex.run_until(budgets[4]);
                lats.push(ex.into_curve());
            }
            let at = |b: f64| {
                let v: f64 = lats.iter().map(|c| c.latency_at(b)).sum::<f64>() / lats.len() as f64;
                fmt_secs(v)
            };
            println!(
                "  alpha={alpha:>5}: {:>8} {:>8} {:>8} {:>8} {:>8}",
                at(budgets[0]),
                at(budgets[1]),
                at(budgets[2]),
                at(budgets[3]),
                at(budgets[4])
            );
        }
    }
}
