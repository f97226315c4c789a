//! One module per paper table/figure. Each exposes `run(&FigOpts)`; the
//! `src/bin/` binaries are thin wrappers, and `bin/all` chains everything.

pub mod fig05;
pub mod fig06_07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12_13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod table1;

use crate::harness::WorkloadKind;
use limeqo_tcnn::TcnnConfig;

/// Common figure options, parsed from CLI args.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// Reduced scales/seeds for CI-style smoke runs (`--fast`).
    pub fast: bool,
    /// Paper-faithful scales and five seeds (`--full`; hours of CPU).
    pub full: bool,
    /// Seeds for linear techniques.
    pub seeds_linear: usize,
    /// Seeds for neural techniques (TCNN training is the expensive part).
    pub seeds_neural: usize,
    /// Exploration batch m (cells per step).
    pub batch: usize,
    /// Rank r for ALS and embeddings (paper default 5).
    pub rank: usize,
    /// Test-suite mode ([`FigOpts::smoke`]): tiny workloads, test-scale
    /// TCNN, and figure-level floors relaxed — numbers are meaningless,
    /// only the code paths are exercised.
    pub smoke: bool,
    /// Force this workload scale regardless of figure-level defaults.
    pub scale_override: Option<f64>,
}

impl Default for FigOpts {
    fn default() -> Self {
        FigOpts {
            fast: false,
            full: false,
            seeds_linear: 3,
            seeds_neural: 1,
            batch: 32,
            rank: 5,
            smoke: false,
            scale_override: None,
        }
    }
}

impl FigOpts {
    /// Options for the `figures_fast` integration tests: one seed, a large
    /// batch, a tiny forced scale and the test-scale TCNN, so every figure
    /// module's full code path runs in seconds.
    pub fn smoke() -> Self {
        FigOpts {
            fast: true,
            smoke: true,
            seeds_linear: 1,
            seeds_neural: 1,
            batch: 64,
            scale_override: Some(0.03),
            ..Default::default()
        }
    }

    /// Parse `--fast`, `--full`, `--seeds N`, `--batch N`, `--rank N`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut o = FigOpts::default();
        let mut it = args.iter().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--fast" => o.fast = true,
                "--full" => {
                    o.full = true;
                    o.seeds_linear = 5;
                    o.seeds_neural = 5;
                }
                "--seeds" => {
                    if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                        o.seeds_linear = v;
                        o.seeds_neural = v;
                    }
                }
                "--batch" => {
                    if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                        o.batch = v;
                    }
                }
                "--rank" => {
                    if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                        o.rank = v;
                    }
                }
                _ => {}
            }
        }
        if o.fast {
            o.seeds_linear = o.seeds_linear.min(2);
            o.seeds_neural = 1;
        }
        o
    }

    /// Workload down-scaling for exploration experiments. Full runs use the
    /// paper's query counts; the default keeps neural experiments tractable
    /// on CPU.
    pub fn scale_for(&self, kind: WorkloadKind) -> f64 {
        if self.full {
            return 1.0;
        }
        if let Some(scale) = self.scale_override {
            return scale.clamp(0.001, 1.0);
        }
        let base = match kind {
            WorkloadKind::Job => 1.0,
            WorkloadKind::Ceb => 0.25,
            WorkloadKind::Stack | WorkloadKind::Stack2017 => 0.12,
            WorkloadKind::Dsb => 0.4,
        };
        if self.fast {
            (base * 0.35_f64).clamp(0.02, 1.0)
        } else {
            base
        }
    }

    /// Seeds for a technique.
    pub fn seeds(&self, neural: bool) -> Vec<u64> {
        let count = if neural { self.seeds_neural } else { self.seeds_linear };
        (0..count as u64).map(|s| 1000 + 17 * s).collect()
    }

    /// TCNN configuration.
    pub fn tcnn_cfg(&self) -> TcnnConfig {
        if self.smoke {
            TcnnConfig::test_scale()
        } else if self.full {
            TcnnConfig::paper_scale()
        } else if self.fast {
            TcnnConfig { max_epochs: 20, warm_epochs: 8, ..TcnnConfig::default() }
        } else {
            TcnnConfig::default()
        }
    }
}

/// The paper's Fig. 5 budget multiples of the default workload time.
pub const BUDGET_MULTIPLES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_sane() {
        let o = FigOpts::default();
        assert!(o.seeds_linear >= 1 && o.rank == 5);
        assert!(o.scale_for(WorkloadKind::Job) == 1.0);
        assert!(o.scale_for(WorkloadKind::Ceb) < 1.0);
    }

    #[test]
    fn full_uses_unit_scale() {
        let o = FigOpts { full: true, ..Default::default() };
        for k in [WorkloadKind::Job, WorkloadKind::Ceb, WorkloadKind::Stack, WorkloadKind::Dsb] {
            assert_eq!(o.scale_for(k), 1.0);
        }
    }

    #[test]
    fn seeds_distinct() {
        let o = FigOpts::default();
        let s = o.seeds(false);
        let mut d = s.clone();
        d.dedup();
        assert_eq!(s.len(), d.len());
    }
}
