//! Layout graph model for multiple patterning layout decomposition (MPLD).
//!
//! The MPLD problem is a variation of graph coloring over a *heterogeneous*
//! layout graph whose nodes are (sub)features and whose edges are of two
//! kinds: **conflict** edges between features closer than the minimum
//! coloring distance, and **stitch** edges between subfeatures of one
//! feature split by a stitch candidate. The objective (Eq. 1 of the paper)
//! minimizes `conflicts + alpha * stitches` over all k-colorings.
//!
//! This crate provides:
//!
//! - [`LayoutGraph`] — the heterogeneous graph with its node → parent
//!   feature map and validated edge sets;
//! - [`Coloring`] and [`CostBreakdown`] with the exact paper cost function;
//! - [`Decomposer`] — the trait every decomposition engine in the workspace
//!   implements;
//! - [`audit`] — independent re-verification of any decomposition against
//!   the raw conflict/stitch edges (and, behind the `failpoints` feature,
//!   `failpoints` — deterministic fault injection for chaos tests);
//! - [`fnv64`], [`Fnv64`] and [`splitmix64`] — the workspace's one copy of
//!   the hashes whose values are on disk (store names, job ids, journal
//!   fingerprints), and [`graph_fingerprint`] / [`graphs_identical`], the
//!   structural identity every graph-keyed memo verifies;
//! - [`simplify`] — the OpenMPL-style simplification pipeline (independent
//!   component computation, hide-small-degree, biconnected decomposition)
//!   together with sound color recovery.
//!
//! # Example
//!
//! ```
//! use mpld_graph::{CostBreakdown, LayoutGraph};
//!
//! // A triangle of three features: 3-colorable with zero cost.
//! let g = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
//! let coloring = vec![0, 1, 2];
//! let cost = g.evaluate(&coloring, 0.1);
//! assert_eq!(cost, CostBreakdown { conflicts: 0, stitches: 0 });
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
mod bicc;
mod budget;
mod coloring;
mod decomposer;
mod error;
#[cfg(feature = "failpoints")]
pub mod failpoints;
mod fingerprint;
mod hash;
mod hetero;
pub mod simplify;

pub use audit::{audit_coloring, audit_decomposition, AuditError};
pub use bicc::{biconnected_components, BlockCutTree};
pub use budget::{Budget, BudgetGauge, Clock, MockClock, SystemClock};
pub use coloring::{Coloring, CostBreakdown};
pub use decomposer::{greedy_coloring, Certainty, DecomposeParams, Decomposer, Decomposition};
pub use error::MpldError;
pub use fingerprint::{graph_fingerprint, graphs_identical};
pub use hash::{fnv64, splitmix64, Fnv64};
pub use hetero::{EdgeKind, GraphError, LayoutGraph, NodeId};

/// Default relative weight of a stitch versus a conflict (the paper and all
/// prior TPL work set `alpha = 0.1`).
pub const DEFAULT_ALPHA: f64 = 0.1;

/// Default number of masks (triple patterning).
pub const DEFAULT_MASKS: u8 = 3;
