//! Per-workload plan featurization for the TCNNs.
//!
//! Materializes the featurized plan tree for every (query, hint) cell of a
//! workload, in parallel. The neural methods "assume query plan features
//! are available (e.g., cost and cardinality estimates), and that the
//! underlying query optimizer generates tree-structured plans" (§4.3.2) —
//! this is exactly the extra information LimeQO's linear method does *not*
//! need, and it is the reason the neural variant is tied to the DBMS while
//! the linear one is not.

use limeqo_linalg::par::par_map;
use limeqo_sim::features::{featurize_plan, FeatureNorm, PlanFeatures};
use limeqo_sim::workloads::Workload;
use std::sync::Arc;

/// Featurized plans for all n × k cells of a workload.
#[derive(Debug, Clone)]
pub struct WorkloadFeatures {
    /// Number of queries.
    pub n: usize,
    /// Number of hints.
    pub k: usize,
    /// Trees in row-major cell order.
    pub trees: Vec<PlanFeatures>,
    /// Normalization used (fitted on a plan sample).
    pub norm: FeatureNorm,
}

impl WorkloadFeatures {
    /// Featurize every cell of the workload, in parallel.
    pub fn build(workload: &Workload) -> Arc<WorkloadFeatures> {
        let n = workload.n();
        let k = workload.k();
        // Fit normalization on a deterministic sample of plans.
        let sample: Vec<_> = (0..n.min(64))
            .map(|i| workload.plan_cell(i * n.max(1) / n.clamp(1, 64) % n, (i * 7) % k))
            .collect();
        let norm = FeatureNorm::fit(&sample);

        let trees = par_map(n * k, 0, |cell| {
            featurize_plan(&workload.plan_cell(cell / k, cell % k), &norm)
        });
        Arc::new(WorkloadFeatures { n, k, trees, norm })
    }

    /// Tree for cell (row, col).
    #[inline]
    pub fn tree(&self, row: usize, col: usize) -> &PlanFeatures {
        &self.trees[row * self.k + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limeqo_sim::features::NODE_FEATURE_DIM;
    use limeqo_sim::workloads::WorkloadSpec;

    #[test]
    fn builds_all_cells() {
        let w = WorkloadSpec::tiny(6, 70).build();
        let f = WorkloadFeatures::build(&w);
        assert_eq!(f.n, 6);
        assert_eq!(f.k, 49);
        assert_eq!(f.trees.len(), 6 * 49);
        for t in &f.trees {
            assert!(!t.is_empty());
            assert_eq!(t.nodes.cols(), NODE_FEATURE_DIM);
        }
    }

    #[test]
    fn deterministic() {
        let w = WorkloadSpec::tiny(4, 71).build();
        let a = WorkloadFeatures::build(&w);
        let b = WorkloadFeatures::build(&w);
        for (ta, tb) in a.trees.iter().zip(b.trees.iter()) {
            assert_eq!(ta.nodes.as_slice(), tb.nodes.as_slice());
            assert_eq!(ta.left, tb.left);
        }
    }

    #[test]
    fn trees_differ_across_hints() {
        // At least some hints must change the plan for some query.
        let w = WorkloadSpec::tiny(8, 72).build();
        let f = WorkloadFeatures::build(&w);
        let mut any_diff = false;
        for q in 0..8 {
            let base = f.tree(q, 0);
            for h in 1..49 {
                let t = f.tree(q, h);
                if t.len() != base.len() || t.nodes.as_slice() != base.nodes.as_slice() {
                    any_diff = true;
                    break;
                }
            }
        }
        assert!(any_diff, "hints never changed any plan");
    }
}
