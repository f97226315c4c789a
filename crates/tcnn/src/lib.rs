//! Tree convolutional neural networks for LimeQO+ (paper §4.3.2).
//!
//! PyTorch is not available offline, so this crate implements the needed
//! neural stack from scratch with manual backpropagation:
//!
//! * [`batch`] — flattening plan trees into batched node arrays so the
//!   tree convolution runs as dense matrix multiplies,
//! * [`net`] — the network: three tree-convolution layers (Mou et al.'s
//!   continuous binary tree convolution, as in Neo/Bao) with dropout
//!   between them, dynamic max pooling, and a fully connected head;
//!   the *transductive* variant concatenates learned query/hint
//!   embeddings (the low-rank `Q`/`H` of Fig. 4) before the head,
//! * [`loss`] — standard MSE plus the censored loss of Eq. 8
//!   (`1{ŷ<τ} · (ŷ−τ)²` for timed-out cells),
//! * [`adam`] — the Adam optimizer,
//! * [`trainer`] — minibatch training with the paper's convergence rule
//!   and crossbeam data-parallel gradient shards,
//! * [`features`] — per-workload featurization of all (query, hint) plans,
//! * [`completer`] — [`PlainTcnnCompleter`] (Bao-style TCNN) and
//!   [`TransductiveTcnnCompleter`] (LimeQO+) implementing
//!   `limeqo_core::Completer`, so Algorithm 1 can swap them in directly.
//!
//! Channel widths default smaller than Bao's 256/128/64 to keep the full
//! experiment suite tractable on CPU (see DESIGN.md §3.6); the widths are
//! configurable through [`TcnnConfig`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adam;
pub mod batch;
pub mod completer;
pub mod config;
pub mod features;
pub mod loss;
pub mod net;
pub mod trainer;

pub use completer::{PlainTcnnCompleter, TransductiveTcnnCompleter};
pub use config::TcnnConfig;
pub use features::WorkloadFeatures;
pub use net::TcnnNet;
pub use trainer::TcnnTrainer;
