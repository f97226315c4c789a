//! Workload generators calibrated to the paper's Table 1, and the oracle
//! matrices that drive offline exploration.
//!
//! | Workload | Queries | Default | Optimal | Headroom |
//! |----------|---------|---------|---------|----------|
//! | JOB      | 113     | 181 s   | 68 s    | 2.66×    |
//! | CEB      | 3133    | 2.94 h  | 1.02 h  | 2.88×    |
//! | Stack    | 6191    | 1.46 h  | 1.09 h  | 1.34×    |
//! | DSB      | 1040    | 4.75 h  | 2.74 h  | 1.73×    |
//!
//! Each generator draws queries from a mixture of [`QueryClass`]es whose
//! estimation-error profiles reproduce the workload's headroom, then
//! calibrates the simulator's machine speed
//! ([`crate::cost::CostParams::time_per_cost_unit`]) so the default-hint
//! total matches Table 1 exactly. The *optimal* total and the per-hint
//! structure are emergent.
//!
//! [`Workload::build_oracle`] plans and "executes" every (query, hint) cell
//! in parallel, producing the full true-latency matrix `W` (which real
//! deployments never see — exploration observes it cell by cell) together
//! with the optimizer's estimated cost matrix (used by the QO-Advisor
//! baseline and the TCNN features).

use crate::catalog::{Catalog, CatalogSpec};
use crate::executor::{Executor, STARTUP_SECONDS};
use crate::hints::HintSpace;
use crate::optimizer::Optimizer;
use crate::plan::PlanTree;
use crate::query::{generate_query, JoinShape, Query, QueryClass, QueryGenParams};
use limeqo_linalg::par::par_chunks;
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;

/// One component of a workload's query-class mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMix {
    /// Query class (error profile).
    pub class: QueryClass,
    /// Relative weight within the mixture.
    pub weight: f64,
    /// Join graph shape for queries of this component.
    pub shape: JoinShape,
    /// Range of table counts (inclusive).
    pub n_tables: (usize, usize),
    /// Log-uniform range of true predicate selectivities.
    pub pred_sel_range: (f64, f64),
    /// Log-normal `(mu, sigma)` of join-edge fanout for this component.
    pub fanout: (f64, f64),
    /// Probability that a table carries a local predicate.
    pub pred_prob: f64,
}

/// Specification of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (`job`, `ceb`, `stack`, `dsb`, ...).
    pub name: String,
    /// Number of queries (workload matrix rows).
    pub n_queries: usize,
    /// Catalog shape.
    pub catalog: CatalogSpec,
    /// Query class mixture.
    pub class_mix: Vec<ClassMix>,
    /// Target total latency of the default hint, in seconds (Table 1's
    /// "Default" column); the machine-speed knob is calibrated to hit it.
    pub target_default_total: f64,
    /// If set, generate this many templates and instantiate
    /// `n_queries / templates` parameterized variants of each (DSB-style).
    pub templates: Option<usize>,
    /// Master seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// JOB-like workload: 113 queries on an IMDb-like catalog, dominated by
    /// correlated-join underestimation (the nested-loop trap).
    pub fn job() -> Self {
        WorkloadSpec {
            name: "job".into(),
            n_queries: 113,
            catalog: imdb_catalog_spec(),
            class_mix: imdb_class_mix(0.36),
            target_default_total: 181.0,
            templates: None,
            seed: 0x150459, // calibrated: headroom 2.81x vs paper 2.66x
        }
    }

    /// CEB-like workload: 3133 queries on the same IMDb-like catalog.
    pub fn ceb() -> Self {
        WorkloadSpec {
            name: "ceb".into(),
            n_queries: 3133,
            catalog: imdb_catalog_spec(),
            class_mix: imdb_class_mix(0.52),
            target_default_total: 2.94 * 3600.0,
            templates: None,
            seed: 0x9f05b, // calibrated: headroom 2.89x vs paper 2.88x
        }
    }

    /// Stack-like workload (2019 snapshot): 6191 mostly well-estimated
    /// queries — small headroom (1.34×).
    pub fn stack() -> Self {
        WorkloadSpec {
            name: "stack".into(),
            n_queries: 6191,
            catalog: CatalogSpec {
                name: "stack-sim".into(),
                n_tables: 14,
                rows_range: (5e4, 4e7),
                width_range: (60.0, 500.0),
                index_prob: 0.6,
                fact_fraction: 0.3,
            },
            class_mix: vec![
                ClassMix {
                    class: QueryClass::WellEstimated,
                    weight: 0.75,
                    shape: JoinShape::Chain,
                    n_tables: (2, 6),
                    pred_sel_range: (2e-4, 0.05),
                    fanout: (0.3, 0.5),
                    pred_prob: 0.6,
                },
                ClassMix {
                    class: QueryClass::NestLoopTrap,
                    weight: 0.07,
                    shape: JoinShape::Chain,
                    n_tables: (3, 5),
                    pred_sel_range: (0.02, 0.4),
                    fanout: (0.35, 0.5),
                    pred_prob: 0.35,
                },
                ClassMix {
                    class: QueryClass::IndexTrap,
                    weight: 0.10,
                    shape: JoinShape::Chain,
                    n_tables: (2, 5),
                    pred_sel_range: (0.01, 0.2),
                    fanout: (0.3, 0.5),
                    pred_prob: 0.85,
                },
                ClassMix {
                    class: QueryClass::MissedIndex,
                    weight: 0.08,
                    shape: JoinShape::Chain,
                    n_tables: (2, 5),
                    pred_sel_range: (2e-4, 5e-3),
                    fanout: (0.3, 0.5),
                    pred_prob: 0.9,
                },
            ],
            target_default_total: 1.46 * 3600.0,
            templates: None,
            seed: 0xf5e3, // calibrated: headroom 1.28x vs paper 1.34x
        }
    }

    /// Stack 2017 snapshot: same query set, smaller database (the paper's
    /// default total was 1.16 h vs 1.46 h for 2019). Used by the data-shift
    /// experiments together with [`crate::drift`].
    pub fn stack_2017() -> Self {
        let mut s = Self::stack();
        s.name = "stack-2017".into();
        s.target_default_total = 1.16 * 3600.0;
        s
    }

    /// DSB-like workload: 52 templates × 20 parameterized instances on a
    /// star-schema catalog.
    pub fn dsb() -> Self {
        WorkloadSpec {
            name: "dsb".into(),
            n_queries: 1040,
            catalog: CatalogSpec {
                name: "dsb-sim".into(),
                n_tables: 16,
                rows_range: (1e4, 3e7),
                width_range: (80.0, 350.0),
                index_prob: 0.55,
                fact_fraction: 0.25,
            },
            class_mix: vec![
                ClassMix {
                    class: QueryClass::WellEstimated,
                    weight: 0.30,
                    shape: JoinShape::Star,
                    n_tables: (3, 8),
                    pred_sel_range: (1e-3, 0.1),
                    fanout: (0.3, 0.5),
                    pred_prob: 0.6,
                },
                ClassMix {
                    class: QueryClass::NestLoopTrap,
                    weight: 0.32,
                    shape: JoinShape::Snowflake,
                    n_tables: (4, 9),
                    pred_sel_range: (0.02, 0.4),
                    fanout: (0.8, 0.6),
                    pred_prob: 0.35,
                },
                ClassMix {
                    class: QueryClass::MissedIndex,
                    weight: 0.22,
                    shape: JoinShape::Star,
                    n_tables: (3, 7),
                    pred_sel_range: (2e-4, 5e-3),
                    fanout: (0.3, 0.5),
                    pred_prob: 0.9,
                },
                ClassMix {
                    class: QueryClass::IndexTrap,
                    weight: 0.16,
                    shape: JoinShape::Star,
                    n_tables: (3, 7),
                    pred_sel_range: (0.01, 0.2),
                    fanout: (0.3, 0.5),
                    pred_prob: 0.85,
                },
            ],
            target_default_total: 4.75 * 3600.0,
            templates: Some(52),
            seed: 0x149c9, // calibrated: headroom 1.72x vs paper 1.73x
        }
    }

    /// Shrink the workload to `frac` of its queries (and default total),
    /// preserving the class mixture — used to keep neural experiments
    /// tractable on CPU. `--full` flags on the figure binaries restore 1.0.
    pub fn scaled(mut self, frac: f64) -> Self {
        assert!(frac > 0.0 && frac <= 1.0);
        let n = ((self.n_queries as f64 * frac).round() as usize).max(8);
        self.target_default_total *= n as f64 / self.n_queries as f64;
        self.n_queries = n;
        if let Some(t) = self.templates {
            self.templates = Some(((t as f64 * frac).round() as usize).clamp(2, n));
        }
        self
    }

    /// Small synthetic workload for unit/integration tests.
    pub fn tiny(n_queries: usize, seed: u64) -> Self {
        WorkloadSpec {
            name: format!("tiny-{n_queries}"),
            n_queries,
            catalog: CatalogSpec {
                name: "tiny-sim".into(),
                n_tables: 8,
                rows_range: (1e4, 3e6),
                width_range: (50.0, 200.0),
                index_prob: 0.5,
                fact_fraction: 0.3,
            },
            class_mix: vec![
                ClassMix {
                    class: QueryClass::NestLoopTrap,
                    weight: 0.4,
                    shape: JoinShape::Chain,
                    n_tables: (3, 6),
                    pred_sel_range: (0.02, 0.4),
                    fanout: (0.6, 0.6),
                    pred_prob: 0.35,
                },
                ClassMix {
                    class: QueryClass::WellEstimated,
                    weight: 0.4,
                    shape: JoinShape::Chain,
                    n_tables: (2, 5),
                    pred_sel_range: (1e-3, 0.2),
                    fanout: (0.3, 0.5),
                    pred_prob: 0.6,
                },
                ClassMix {
                    class: QueryClass::MissedIndex,
                    weight: 0.2,
                    shape: JoinShape::Chain,
                    n_tables: (2, 5),
                    pred_sel_range: (2e-4, 5e-3),
                    fanout: (0.3, 0.5),
                    pred_prob: 0.9,
                },
            ],
            target_default_total: 60.0,
            templates: None,
            seed,
        }
    }

    /// Materialize the workload: catalog + queries (not yet the oracle).
    pub fn build(&self) -> Workload {
        let mut rng = SeededRng::new(self.seed);
        let catalog = Catalog::generate(&self.catalog, &mut rng.fork(1));
        let mut qrng = rng.fork(2);

        let total_w: f64 = self.class_mix.iter().map(|c| c.weight).sum();
        let pick_mix = |r: &mut SeededRng| -> &ClassMix {
            let mut x = r.uniform(0.0, total_w);
            for m in &self.class_mix {
                if x < m.weight {
                    return m;
                }
                x -= m.weight;
            }
            self.class_mix.last().expect("non-empty mix")
        };

        let mut queries = Vec::with_capacity(self.n_queries);
        match self.templates {
            None => {
                for id in 0..self.n_queries {
                    let mix = pick_mix(&mut qrng);
                    let params = QueryGenParams {
                        class: mix.class,
                        n_tables: qrng.index(mix.n_tables.1 - mix.n_tables.0 + 1) + mix.n_tables.0,
                        shape: mix.shape,
                        pred_sel_range: mix.pred_sel_range,
                        fanout: mix.fanout,
                        pred_prob: mix.pred_prob,
                        template: id,
                    };
                    queries.push(generate_query(id, &params, &catalog, &mut qrng));
                }
            }
            Some(n_templates) => {
                // DSB style: generate templates, then parameterized
                // instances that share structure but re-draw selectivities.
                let per = self.n_queries.div_ceil(n_templates);
                let mut id = 0;
                for t in 0..n_templates {
                    let mix = pick_mix(&mut qrng);
                    let params = QueryGenParams {
                        class: mix.class,
                        n_tables: qrng.index(mix.n_tables.1 - mix.n_tables.0 + 1) + mix.n_tables.0,
                        shape: mix.shape,
                        pred_sel_range: mix.pred_sel_range,
                        fanout: mix.fanout,
                        pred_prob: mix.pred_prob,
                        template: t,
                    };
                    let proto = generate_query(id, &params, &catalog, &mut qrng);
                    for _ in 0..per {
                        if id >= self.n_queries {
                            break;
                        }
                        queries.push(instantiate_template(&proto, id, &mut qrng));
                        id += 1;
                    }
                }
            }
        }
        Workload { spec: self.clone(), catalog, queries, hints: HintSpace::all() }
    }
}

/// Derive a parameterized instance of a template query: same join graph,
/// jittered predicate selectivities, freshly drawn estimation errors.
fn instantiate_template(proto: &Query, id: usize, rng: &mut SeededRng) -> Query {
    let profile = proto.class.error_profile();
    let mut q = proto.clone();
    q.id = id;
    for t in &mut q.tables {
        t.sel_true = (t.sel_true * rng.log_normal(0.0, 0.6)).clamp(1e-8, 1.0);
        let err = rng.log_normal(profile.pred_err_mu, profile.pred_err_sigma);
        t.sel_est = (t.sel_true * err).clamp(1e-8, 1.0);
    }
    for e in &mut q.joins {
        e.sel_true = (e.sel_true * rng.log_normal(0.0, 0.25)).clamp(1e-12, 1.0);
        let err = rng.log_normal(profile.join_err_mu, profile.join_err_sigma);
        e.sel_est = (e.sel_true * err).clamp(1e-12, 1.0);
    }
    q.noise_seed = rng.raw().next_u64();
    q
}

use rand::RngCore;

/// A fully materialized workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The spec this workload was built from.
    pub spec: WorkloadSpec,
    /// Generated catalog (with calibrated machine speed after
    /// [`Workload::build_oracle`] runs).
    pub catalog: Catalog,
    /// Queries (workload matrix rows).
    pub queries: Vec<Query>,
    /// The 49-hint space (workload matrix columns).
    pub hints: HintSpace,
}

/// Ground-truth matrices for a workload — the quantities exploration
/// observes cell by cell.
#[derive(Debug, Clone)]
pub struct OracleMatrices {
    /// True latency (seconds) of every (query, hint) cell.
    pub true_latency: Mat,
    /// Optimizer-estimated plan cost of every cell (includes disable
    /// penalties when the optimizer was forced into a disabled operator).
    pub est_cost: Mat,
    /// Total default-hint latency (column 0 sum).
    pub default_total: f64,
    /// Total latency under the per-row best hint (Table 1's "Optimal").
    pub optimal_total: f64,
}

impl OracleMatrices {
    /// Headroom ratio Default/Optimal.
    pub fn headroom(&self) -> f64 {
        self.default_total / self.optimal_total
    }
}

impl Workload {
    /// Number of queries (matrix rows).
    pub fn n(&self) -> usize {
        self.queries.len()
    }

    /// Number of hints (matrix columns, 49).
    pub fn k(&self) -> usize {
        self.hints.len()
    }

    /// Append a write-bound ETL query (paper §5.1's Greedy-trap experiment:
    /// a 576.5 s COPY-style query whose latency no hint can improve).
    pub fn add_etl_query(&mut self, write_seconds: f64) {
        let id = self.queries.len();
        let mut rng = SeededRng::new(self.spec.seed ^ 0xE71 ^ id as u64);
        let params = QueryGenParams {
            class: QueryClass::Etl,
            n_tables: 2,
            shape: JoinShape::Chain,
            pred_sel_range: (0.5, 1.0),
            fanout: QueryGenParams::DEFAULT_FANOUT,
            pred_prob: QueryGenParams::DEFAULT_PRED_PROB,
            template: id,
        };
        let mut q = generate_query(id, &params, &self.catalog, &mut rng);
        q.etl_write_seconds = write_seconds;
        self.queries.push(q);
    }

    /// Plan cell (query `qi`, hint `hi`) and annotate both worlds — used for
    /// on-demand TCNN featurization without storing 300 k plan trees.
    pub fn plan_cell(&self, qi: usize, hi: usize) -> PlanTree {
        let q = &self.queries[qi];
        let mut plan = Optimizer::new(&self.catalog).plan(q, self.hints.get(hi));
        Executor::new(&self.catalog).annotate_true(&mut plan, q);
        plan
    }

    /// Plan and execute every cell, calibrating the machine-speed constant
    /// so the default-hint total equals the spec target. Parallelized over
    /// queries with [`par_chunks`].
    pub fn build_oracle(&mut self) -> OracleMatrices {
        let n = self.n();
        let k = self.k();
        // Pass 1: true cost units, noise factors, estimated costs.
        let mut cost_units = vec![0.0f64; n * k];
        let mut noise = vec![0.0f64; n * k];
        let mut est_cost = vec![0.0f64; n * k];
        // One slot per query: its rows of the three vectors.
        let mut slots: Vec<_> =
            cost_units.chunks_mut(k).zip(noise.chunks_mut(k)).zip(est_cost.chunks_mut(k)).collect();
        let (catalog, hints, queries) = (&self.catalog, &self.hints, &self.queries);
        par_chunks(&mut slots, 1, 0, |first, chunk| {
            let opt = Optimizer::new(catalog);
            let exec = Executor::new(catalog);
            for (((cu, nz), ec), q) in chunk.iter_mut().zip(&queries[first..]) {
                for h in 0..k {
                    let mut plan = opt.plan(q, hints.get(h));
                    let est = plan.est();
                    let stats = exec.annotate_true(&mut plan, q);
                    cu[h] = stats.cost;
                    nz[h] = crate::executor::noise_factor(q.noise_seed, h);
                    ec[h] = est.cost;
                }
            }
        });

        // Calibrate seconds-per-cost-unit against the default column:
        //   target = Σ_i etl_i + noise_i0·(cu_i0·tpu + STARTUP)
        let mut fixed = 0.0;
        let mut weighted_cu = 0.0;
        for (i, q) in self.queries.iter().enumerate() {
            fixed += q.etl_write_seconds + noise[i * k] * STARTUP_SECONDS;
            weighted_cu += noise[i * k] * cost_units[i * k];
        }
        let target = self.spec.target_default_total;
        let tpu = ((target - fixed) / weighted_cu).max(1e-12);
        self.catalog.params.time_per_cost_unit = tpu;

        let mut lat = Mat::zeros(n, k);
        for i in 0..n {
            let etl = self.queries[i].etl_write_seconds;
            for h in 0..k {
                lat[(i, h)] =
                    etl + noise[i * k + h] * (cost_units[i * k + h] * tpu + STARTUP_SECONDS);
            }
        }
        let est = Mat::from_vec(n, k, est_cost).expect("shape");
        let default_total: f64 = (0..n).map(|i| lat[(i, 0)]).sum();
        let optimal_total: f64 =
            (0..n).map(|i| lat.row_min(i).map(|(_, v)| v).unwrap_or(0.0)).sum();
        OracleMatrices { true_latency: lat, est_cost: est, default_total, optimal_total }
    }
}

fn imdb_catalog_spec() -> CatalogSpec {
    CatalogSpec {
        name: "imdb-sim".into(),
        n_tables: 21,
        rows_range: (1e4, 4e7),
        width_range: (40.0, 300.0),
        index_prob: 0.5,
        fact_fraction: 0.25,
    }
}

fn imdb_class_mix(nl_weight: f64) -> Vec<ClassMix> {
    vec![
        ClassMix {
            class: QueryClass::NestLoopTrap,
            weight: nl_weight,
            shape: JoinShape::Snowflake,
            n_tables: (4, 10),
            pred_sel_range: (0.02, 0.4),
            fanout: (0.6, 0.6),
            pred_prob: 0.35,
        },
        ClassMix {
            class: QueryClass::IndexTrap,
            weight: 0.15,
            shape: JoinShape::Chain,
            n_tables: (3, 8),
            pred_sel_range: (0.01, 0.2),
            fanout: (0.3, 0.5),
            pred_prob: 0.85,
        },
        ClassMix {
            class: QueryClass::MissedIndex,
            weight: 0.15,
            shape: JoinShape::Chain,
            n_tables: (3, 8),
            pred_sel_range: (2e-4, 5e-3),
            fanout: (0.3, 0.5),
            pred_prob: 0.9,
        },
        ClassMix {
            class: QueryClass::WellEstimated,
            weight: 1.0 - nl_weight - 0.30,
            shape: JoinShape::Chain,
            n_tables: (3, 9),
            pred_sel_range: (1e-3, 0.1),
            fanout: (0.3, 0.5),
            pred_prob: 0.6,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_builds() {
        let mut w = WorkloadSpec::tiny(20, 7).build();
        assert_eq!(w.n(), 20);
        assert_eq!(w.k(), 49);
        let o = w.build_oracle();
        assert_eq!(o.true_latency.shape(), (20, 49));
        assert!(o.default_total > 0.0);
        assert!(o.optimal_total > 0.0);
        assert!(o.optimal_total <= o.default_total + 1e-9);
    }

    #[test]
    fn default_total_calibrated_to_target() {
        let mut w = WorkloadSpec::tiny(25, 8).build();
        let o = w.build_oracle();
        let target = w.spec.target_default_total;
        assert!(
            (o.default_total - target).abs() / target < 1e-6,
            "default {} target {}",
            o.default_total,
            target
        );
    }

    #[test]
    fn oracle_is_deterministic() {
        let mut w1 = WorkloadSpec::tiny(15, 9).build();
        let mut w2 = WorkloadSpec::tiny(15, 9).build();
        let o1 = w1.build_oracle();
        let o2 = w2.build_oracle();
        assert_eq!(o1.true_latency.as_slice(), o2.true_latency.as_slice());
        assert_eq!(o1.est_cost.as_slice(), o2.est_cost.as_slice());
    }

    #[test]
    fn all_latencies_positive() {
        let mut w = WorkloadSpec::tiny(15, 10).build();
        let o = w.build_oracle();
        assert!(o.true_latency.as_slice().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn workload_has_headroom() {
        let mut w = WorkloadSpec::tiny(40, 11).build();
        let o = w.build_oracle();
        assert!(o.headroom() > 1.1, "headroom {}", o.headroom());
    }

    #[test]
    fn etl_query_appended_and_flat() {
        let mut w = WorkloadSpec::tiny(10, 12).build();
        w.add_etl_query(500.0);
        assert_eq!(w.n(), 11);
        let o = w.build_oracle();
        let row = 10;
        let mut min = f64::MAX;
        let mut max: f64 = 0.0;
        for h in 0..w.k() {
            let v = o.true_latency[(row, h)];
            min = min.min(v);
            max = max.max(v);
        }
        assert!(min > 450.0);
        assert!(max / min < 1.25, "etl spread {min}..{max}");
    }

    #[test]
    fn scaled_spec_shrinks() {
        let s = WorkloadSpec::ceb().scaled(0.1);
        assert!((s.n_queries as f64 - 313.0).abs() <= 1.0);
        assert!(s.target_default_total < 0.11 * 2.94 * 3600.0);
    }

    #[test]
    fn template_instances_share_structure() {
        let mut spec = WorkloadSpec::tiny(20, 13);
        spec.templates = Some(4);
        let w = spec.build();
        assert_eq!(w.n(), 20);
        // Instances of the same template join identical table sets.
        let by_template: Vec<Vec<&Query>> =
            (0..4).map(|t| w.queries.iter().filter(|q| q.template == t).collect()).collect();
        for group in by_template {
            assert!(!group.is_empty());
            let tables: Vec<usize> = group[0].tables.iter().map(|t| t.table).collect();
            for q in &group {
                let qt: Vec<usize> = q.tables.iter().map(|t| t.table).collect();
                assert_eq!(qt, tables);
            }
        }
    }

    #[test]
    fn plan_cell_annotates_both_worlds() {
        let w = WorkloadSpec::tiny(5, 14).build();
        let plan = w.plan_cell(0, 3);
        assert!(plan.est().cost > 0.0);
        assert!(plan.actual().cost > 0.0);
    }
}
