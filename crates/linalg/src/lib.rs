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
//!   batched ridge solvers [`ridge_solve_rows`] / [`ridge_solve_cols`] and
//!   the ALS fit in `limeqo_core`,
//! * [`RidgeFactor`] — the factored ridge normal matrix `GᵀG + λI`, whose
//!   [`inverse`](RidgeFactor::inverse) the ALS half-step applies to every
//!   factor row as an r×r matrix-vector product,
//! * [`mod@fenwick`] — a Fenwick (binary indexed) tree over integer counts,
//!   the rank-selection substrate of the sublinear candidate-selection
//!   subsystem in `limeqo_core`.
//!
//! All routines are deterministic given their inputs; the parallel ones are
//! additionally byte-identical to their serial counterparts at any thread
//! count (see PERF.md at the workspace root for the contract). None
//! allocate outside of construction paths that return new matrices.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

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

pub use cholesky::{cholesky, cholesky_solve, CholeskyFactor};
pub use eigen::{eigen_sym, EigenSym};
pub use error::{LinalgError, Result};
pub use fenwick::Fenwick;
pub use lstsq::{lstsq, ridge_solve, ridge_solve_cols, ridge_solve_rows, RidgeFactor};
pub use lu::{lu, lu_solve, LuFactor};
pub use matrix::Mat;
pub use norms::{frobenius_norm, masked_mse, max_abs_diff};
pub use svd::{svd_thin, Svd};
