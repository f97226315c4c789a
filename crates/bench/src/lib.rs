//! Experiment harness for regenerating every table and figure of the
//! LimeQO paper.
//!
//! * [`harness`] — workload construction (with caching), technique
//!   registry, multi-seed exploration runs, one worker per seed,
//! * [`scenario_runner`] — executes the declarative scenario matrix of
//!   `limeqo-sim::scenario` (drift schedules, hint shapes, online
//!   arrivals) and aggregates deterministic summaries for the golden
//!   regression suite (`src/bin/scenario.rs` is the CLI),
//! * [`fuzz`] — property-based scenario fuzzing: runs generated specs
//!   (from `limeqo_sim::scenario_fuzz`) through the runner, asserts the
//!   calibrated invariants, minimizes and dumps failures for replay,
//! * [`report`] — text tables, CSV and JSON emission under
//!   `bench-results/`; its [`Json`] is `limeqo_core::json`'s, re-exported,
//! * [`perf`] — the tracked perf trajectory: one-shot hot-path
//!   measurements emitted as `bench-results/BENCH_policy.json`
//!   (see PERF.md at the workspace root),
//! * one binary per table/figure in `src/bin/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod fuzz;
pub mod harness;
pub mod perf;
pub mod report;
pub mod scenario_runner;

pub use harness::{
    build_oracle, run_bayes_qo, run_technique, run_techniques, technique_policy, Technique,
    WorkloadKind,
};
pub use report::{write_csv, write_json, Json, Table};
pub use scenario_runner::{run_scenario, run_scenarios, verify_scenario_sharded, ScenarioOutcome};
