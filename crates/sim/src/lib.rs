//! Simulated DBMS substrate for the LimeQO reproduction.
//!
//! The paper evaluates against PostgreSQL 16.1 on the IMDb, StackExchange,
//! and DSB datasets. This crate replaces that stack with a self-contained,
//! deterministic simulator that preserves everything LimeQO actually relies
//! on (see DESIGN.md §3):
//!
//! * a **catalog** of tables with row counts, widths, index metadata and
//!   statistics ([`catalog`]),
//! * an **SPJ query model** with join graphs, predicate selectivities, and a
//!   per-query *cardinality-estimation error profile* ([`query`]) — the
//!   error profile is what opens the gap between PostgreSQL's default plan
//!   and the best hinted plan,
//! * the **49-hint interface**: six `enable_*` operator knobs, all
//!   combinations that keep at least one join and one scan operator
//!   ([`hints`]),
//! * a **Selinger-style dynamic-programming optimizer** that plans with
//!   *estimated* cardinalities and honors hint configurations through
//!   PostgreSQL's `disable_cost` mechanism ([`optimizer`]),
//! * an **executor** that charges the same cost formulas with *true*
//!   cardinalities and converts cost units to seconds ([`executor`]),
//! * **workload generators** calibrated to the paper's Table 1 — JOB, CEB,
//!   Stack and DSB lookalikes ([`workloads`]),
//! * a **data drift model** that grows tables and perturbs selectivities
//!   over simulated days ([`drift`]),
//! * a **scenario engine** of declarative workload × drift × hint-shape ×
//!   policy specs and a registry of named scenarios beyond the paper's
//!   four workloads ([`scenario`]),
//! * **plan featurization** for the tree convolutional neural networks
//!   ([`features`]).
//!
//! The main entry point is [`workloads::Workload`]: build one from a spec,
//! then call [`workloads::Workload::build_oracle`] to materialize the true
//! latency and estimated cost matrices that drive offline exploration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cost;
pub mod drift;
pub mod executor;
pub mod features;
pub mod hints;
pub mod optimizer;
pub mod plan;
pub mod query;
pub mod scenario;
pub mod scenario_file;
pub mod scenario_fuzz;
pub mod workloads;

pub use catalog::{Catalog, Column, Table};
pub use cost::CostParams;
pub use executor::Executor;
pub use features::{featurize_plan, FeatureNorm, PlanFeatures, NODE_FEATURE_DIM};
pub use hints::{HintConfig, HintSpace};
pub use optimizer::Optimizer;
pub use plan::{JoinMethod, PlanTree, ScanMethod};
pub use query::{JoinEdge, Query, QueryClass, TableRef};
pub use scenario::{
    ArrivalModel, ArrivalSpec, DriftEvent, DriftKind, HintShape, ScenarioSpec, ScenarioWorkload,
    SyntheticSpec,
};
pub use scenario_file::{load_corpus, load_scenario, to_json_string, to_toml_string, LoadError};
pub use workloads::{OracleMatrices, Workload, WorkloadSpec};
