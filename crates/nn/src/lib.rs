//! Tape-based automatic differentiation and neural-network layers for the
//! DeepOD travel-time-estimation stack.
//!
//! The paper's model (SIGMOD '20) is built from a small, fixed set of
//! operations: fully-connected layers, an LSTM, 2-D convolutions with
//! `(3,1)`/`(1,1)` kernels, batch normalization, embedding lookups, average
//! pooling, concatenation, and two losses (MAE and a Euclidean
//! representation-binding loss), all trained with Adam. This crate
//! implements exactly that set as a define-by-run tape:
//!
//! * [`ParamStore`] owns all trainable tensors and their Adam state.
//! * [`Graph`] records a forward computation over [`VarId`] handles; calling
//!   [`Graph::backward`] produces [`Gradients`] keyed by parameter.
//! * [`AdamOptimizer`] applies updates (with lazy/sparse handling for
//!   embedding rows so a lookup of 3 segments does not touch a 10 000-row
//!   matrix).
//! * The `layers` module packages the paper's recurring blocks: two-layer
//!   MLPs (Eq. 11/17/18/19/20), the LSTM unit (Eq. 12–16), the ResNet-style
//!   interval convolution block (Eq. 5–8) and batch normalization.
//!
//! Every op's backward pass is verified against central finite differences
//! in `gradcheck` tests.
//!
//! # Example: fit a line
//!
//! ```
//! use deepod_nn::{Graph, ParamStore, AdamOptimizer};
//! use deepod_tensor::{Tensor, rng_from_seed};
//!
//! let mut rng = rng_from_seed(0);
//! let mut store = ParamStore::new();
//! let w = store.register("w", Tensor::rand_uniform(&[1, 1], -0.1, 0.1, &mut rng));
//! let b = store.register("b", Tensor::zeros(&[1]));
//! let mut opt = AdamOptimizer::new(0.05);
//!
//! for _ in 0..300 {
//!     let mut g = Graph::new();
//!     let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]));
//!     let y = g.input(Tensor::from_vec(vec![3.0, 5.0, 7.0], &[3, 1]));
//!     let wv = g.param(&store, w);
//!     let bv = g.param(&store, b);
//!     let xw = g.matmul(x, wv);
//!     let pred = g.add_bias_rows(xw, bv);
//!     let loss = g.mean_abs_error(pred, y);
//!     let grads = g.backward(loss);
//!     opt.step(&mut store, &grads);
//! }
//! let wv = store.value(w).as_slice()[0];
//! assert!((wv - 2.0).abs() < 0.2, "w = {wv}");
//! ```

mod backward;
mod conv;
mod graph;
mod lstm;
mod optim;
mod param;

pub mod layers;

pub use backward::{GradSlot, Gradients};
pub use conv::{conv2d_forward, conv2d_grad_input, conv2d_grad_kernel};
pub use graph::{Graph, VarId};
pub use optim::{AdamOptimizer, AdamParamState, AdamSnapshot, LrSchedule, SgdOptimizer};
pub use param::{ParamId, ParamStore};

#[cfg(test)]
mod gradcheck;
#[cfg(test)]
mod layers_tests;
