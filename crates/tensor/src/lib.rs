//! Minimal dense tensor library with reverse-mode automatic
//! differentiation — the neural-network substrate of the MPLD workspace
//! (standing in for PyTorch, per DESIGN.md).
//!
//! Three pieces:
//!
//! - [`Matrix`] — dense row-major `f32` matrices with the linear algebra
//!   the GNNs need;
//! - [`Graph`] — a tape recording forward ops, with [`Graph::backward`]
//!   producing exact gradients (validated against finite differences in
//!   tests);
//! - [`ParamSet`] — cross-pass parameter storage with SGD/[`Optimizer::Adam`]
//!   updates.
//!
//! # Example
//!
//! ```
//! use mpld_tensor::{Graph, Matrix};
//!
//! let mut g = Graph::new();
//! let x = g.param(Matrix::from_rows(&[&[1.0, -2.0]]));
//! let y = g.relu(x);
//! let ones = g.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
//! let s = g.matmul(y, ones);
//! assert_eq!(g.value(s).scalar(), 1.0);
//! g.backward(s);
//! assert_eq!(g.grad(x).row(0), &[1.0, 0.0]);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod graph;
pub mod infer;
mod matrix;
mod optim;
mod pca;

pub use graph::{Adjacency, Graph, VarId};
pub use infer::Precision;
pub use matrix::Matrix;
pub use optim::{Optimizer, ParamId, ParamSet};
pub use pca::pca2;
