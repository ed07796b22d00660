//! # hignn-tensor
//!
//! Dense-tensor and automatic-differentiation substrate for the HiGNN
//! reproduction (Li et al., *Hierarchical Bipartite Graph Neural Networks*,
//! ICDE 2020).
//!
//! The Rust ecosystem has no mature sparse-GNN training stack, so this
//! crate provides the full training substrate from scratch:
//!
//! * [`Matrix`] — dense row-major `f32` matrices with the fused products
//!   (`A·Bᵀ`, `Aᵀ·B`) backward passes need.
//! * [`tape::Tape`] — reverse-mode autodiff over an explicit op enum,
//!   covering linear algebra, concatenation, row gather (embedding
//!   lookup), fixed-fanout and segment mean aggregation (GraphSAGE), the
//!   paper's activations, and stable BCE-with-logits.
//! * [`param::ParamStore`] / [`param::Gradients`] — shared trainable state:
//!   workers borrow the store immutably, build private tapes, and their
//!   per-shard gradients are reduced before one optimizer step.
//! * [`parallel::ParallelExecutor`] — scoped-thread data parallelism
//!   (`std::thread::scope`, no extra dependencies) with a determinism
//!   contract: work is decomposed into thread-count-independent shards
//!   and reduced in a fixed tree order, so an N-worker run is
//!   bit-identical to a 1-worker run.
//! * [`optim`] — Adam with decoupled weight decay.
//! * [`nn`] — [`nn::Linear`] / [`nn::Mlp`] building blocks.
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test suite for every op.
//!
//! ## Example
//!
//! ```
//! use hignn_tensor::{Matrix, ParamStore, Tape};
//! use hignn_tensor::nn::{Activation, Mlp};
//! use hignn_tensor::optim::Adam;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let mlp = Mlp::new(&mut store, "head", &[4, 16, 1], Activation::LeakyRelu, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! let x = hignn_tensor::init::xavier_uniform(8, 4, &mut rng);
//! let y = vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
//! for _ in 0..10 {
//!     let mut tape = Tape::new(&store);
//!     let xv = tape.input(x.clone());
//!     let logits = mlp.forward(&mut tape, xv);
//!     let loss = tape.bce_with_logits(logits, &y);
//!     let grads = tape.backward(loss);
//!     opt.step(&mut store, &grads);
//! }
//! assert!(store.all_finite());
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
pub mod init;
pub mod matrix;
pub mod nn;
pub mod optim;
pub mod parallel;
pub mod param;
pub mod serialize;
pub mod simd;
pub mod tape;
pub mod workspace;

pub use matrix::Matrix;
pub use parallel::ParallelExecutor;
pub use param::{Gradients, ParamId, ParamStore};
pub use simd::{PackedRows, SimdBackend};
pub use tape::{stable_sigmoid, Tape, Var};
pub use workspace::{AlignedBuf, Workspace, WorkspaceStats};
