//! LimeQO core: offline query optimization via low-rank matrix completion.
//!
//! This crate implements the paper's contribution:
//!
//! * [`matrix::WorkloadMatrix`] — the partially observed workload matrix
//!   `W̃` with complete, censored (timed-out) and unobserved cells, plus the
//!   derived mask matrix `M` and timeout matrix `T` (paper Eqs. 1–5),
//! * [`complete`] — predictive models that fill in the unobserved cells:
//!   censored alternating least squares (Algorithm 2), singular value
//!   thresholding, and nuclear-norm minimization via Soft-Impute (§5.5.5),
//! * [`policy`] — active-learning exploration policies: Random, Greedy,
//!   LimeQO (Algorithm 1), and the QO-Advisor / Bao-Cache / BayesQO
//!   baselines of §5,
//! * [`engine`] — the tick-driven exploration engine: an event-step state
//!   machine (`step(Event) -> Vec<Action>`) that both harnesses and the
//!   `limeqo-svc` daemon drive,
//! * [`explore`] — the offline exploration harness: simulated-time
//!   accounting (each executed cell charges `min(true latency, timeout)`
//!   seconds, Eq. 3), wall-clock overhead metering for the predictive
//!   models, workload shift (§5.3) and data shift (§5.4) events,
//! * [`fault`] — deterministic fault injection: the [`fault::Storage`]
//!   trait persist talks to disk through, the real [`fault::FsStorage`],
//!   and the scripted [`fault::FaultStorage`] wrapper chaos tests use to
//!   inject replayable I/O failures,
//! * [`persist`] — durable engine state: an append-only, checksummed
//!   journal of input events plus periodic full-state snapshots with GC;
//!   [`persist::DurableEngine`] recovers from any kill point and resumes
//!   bit-identically,
//! * [`store`] — the adaptive observation layer: [`store::ObservationStore`]
//!   wraps the matrix with drift-aware bookkeeping (censored priors demoted
//!   from stale observations, per-row fresh-density counts, shift epochs)
//!   and [`store::DriftPolicy`] carries the retention / density-gate /
//!   cold-row-bonus / warm-start knobs,
//! * [`select`] — the sublinear candidate-selection subsystem: uniform
//!   sampling without replacement over the matrix's Fenwick rank index
//!   (no candidate materialization) and bounded top-m heap selection,
//!   which every policy's selection path routes through,
//! * [`metrics`] — latency-vs-exploration-time curves and the summary
//!   statistics the paper's figures report,
//! * [`json`] — the workspace's one JSON codec: the [`json::Json`] value,
//!   the line-tracking parser the scenario loader reports errors through,
//!   and the compact and multi-line writers,
//! * [`scenario`] — declarative [`scenario::PolicySpec`]s, the policy side
//!   of the scenario engine (`limeqo-sim` declares the environments, the
//!   bench runner executes the cross product).
//!
//! The crate is DBMS-agnostic: the exploration harness only sees an
//! [`explore::Oracle`] of true latencies, which `limeqo-sim` provides from
//! its simulated PostgreSQL, and which tests provide from synthetic
//! matrices. This mirrors the paper's design constraint that LimeQO "does
//! not make assumptions about the underlying DBMS".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod complete;
pub mod engine;
pub mod explore;
pub mod fault;
pub mod json;
pub mod matrix;
pub mod metrics;
pub mod online;
pub mod persist;
pub mod policy;
pub mod scenario;
pub mod select;
pub mod store;

pub use complete::{AlsCompleter, Completer, NucCompleter, SvtCompleter};
pub use engine::{execute_probe, Action, Engine, Event, RetryPolicy};
pub use explore::{ExploreConfig, Explorer, MatOracle, Oracle, TraceEntry};
pub use fault::{
    FaultAt, FaultKind, FaultProbe, FaultScript, FaultStorage, FsStorage, OpClass, ScriptedFault,
    Storage, StorageFile,
};
pub use json::Json;
pub use matrix::{Cell, WorkloadMatrix, MAX_CELLS};
pub use metrics::{Curve, CurvePoint};
pub use online::{OnlineConfig, OnlineExplorer, OnlineStats};
pub use persist::{DurableConfig, DurableEngine, PersistError};
pub use policy::{CellChoice, Policy, PolicyCtx};
pub use scenario::PolicySpec;
pub use store::{DriftPolicy, ObservationError, ObservationStore, PriorKind};
