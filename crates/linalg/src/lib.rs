//! Dense linear algebra substrate for LimeQO.
//!
//! The paper implements its linear methods "using standard linear algebra
//! libraries, specifically NumPy's `numpy.linalg` which uses LAPACK at core"
//! (§5). No mature offline linalg crate is available in this environment, so
//! this crate provides the subset of LAPACK functionality LimeQO needs, from
//! scratch:
//!
//! * [`Mat`] — a dense, row-major, `f64` matrix with the elementwise and
//!   broadcast operations used by the matrix-completion algorithms,
//! * [`matmul`](Mat::matmul) and friends — cache-friendly blocked matrix
//!   multiplication,
//! * [`mod@cholesky`] / [`mod@lu`] — factorizations backing the ridge-regularized
//!   normal-equation solves inside alternating least squares,
//! * [`eigen`] — cyclic Jacobi eigendecomposition of symmetric matrices,
//! * [`svd`] — thin singular value decomposition built on the Gram-matrix
//!   eigendecomposition (exact and fast for the tall-skinny workload
//!   matrices LimeQO manipulates: the hint dimension is 49),
//! * [`rng`] — seeded random number helpers (uniform/Gaussian fills) so
//!   every experiment in the reproduction is deterministic,
//! * [`par`] — deterministic fork-join helpers (contiguous output chunks,
//!   one scoped worker per chunk, no cross-chunk reductions) behind the
//!   batched ridge solvers [`ridge_solve_rows`] / [`ridge_solve_cols`],
//! * [`block`] — the fused ALS half-steps and a cache-blocked `QHᵀ`,
//!   byte-identical to the naive paths at any tile size and thread count,
//!   whose per-chunk bodies are also compiled for AVX2 and picked per call
//!   from the CPU ([`block::isa`]),
//! * [`mod@fenwick`] — a Fenwick (binary indexed) tree over integer counts,
//!   the rank-selection substrate of the sublinear candidate-selection
//!   subsystem in `limeqo_core`.
//!
//! All routines are deterministic given their inputs; the parallel ones are
//! additionally byte-identical to their serial counterparts at any thread
//! count (see PERF.md at the workspace root for the contract). None
//! allocate outside of construction paths that return new matrices.

#![warn(missing_docs)]
// The only `unsafe` in the workspace's crates is the AVX2 call site in
// `block`; the other crates forbid `unsafe` outright.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod block;
pub mod cholesky;
pub mod eigen;
pub mod error;
pub mod fenwick;
pub mod lstsq;
pub mod lu;
pub mod matrix;
pub mod norms;
pub mod par;
pub mod rng;
pub mod svd;

pub use block::{fused_h_step, fused_q_step, matmul_t_tiled};
pub use cholesky::{cholesky, cholesky_solve, CholeskyFactor};
pub use eigen::{eigen_sym, EigenSym};
pub use error::{LinalgError, Result};
pub use fenwick::Fenwick;
pub use lstsq::{
    lstsq, ridge_solve, ridge_solve_cols, ridge_solve_rows, ridge_solve_rows_blocked, RidgeFactor,
};
pub use lu::{lu, lu_solve, LuFactor};
pub use matrix::Mat;
pub use norms::{frobenius_norm, masked_mse, max_abs_diff};
pub use svd::{svd_thin, Svd};
