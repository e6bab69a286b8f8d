//! Isomorphism-free graph library construction and graph matching for
//! MPLD (Sections IV-C and IV-D-1 of the paper).
//!
//! - [`canonical_form`] / [`are_isomorphic`] — exact canonical labeling
//!   for small heterogeneous graphs;
//! - [`enumerate_parent_graphs`] — all irreducible non-stitch graphs
//!   under a size bound (23 for triple patterning below seven nodes);
//! - [`enumerate_stitch_variants`] — valid stitch-split variants under the
//!   paper's layout-graph rules;
//! - [`GraphLibrary`] — embedding-indexed library with optimal ILP
//!   solutions and verified embedding-guided solution transfer;
//! - [`find_isomorphism`] — the exact VF2-style fallback.
//!
//! # Example
//!
//! ```
//! use mpld_gnn::RgcnClassifier;
//! use mpld_graph::{DecomposeParams, LayoutGraph};
//! use mpld_matching::{GraphLibrary, LibraryConfig};
//!
//! let embedder = RgcnClassifier::selector(1);
//! let cfg = LibraryConfig { max_parent_size: 4, max_splits: 1, max_nodes: 5, stitches: false };
//! let lib = GraphLibrary::build(&embedder, &cfg, &DecomposeParams::tpl());
//! // K4 is the only irreducible 4-node graph.
//! assert_eq!(lib.len(), 1);
//! let k4 = LayoutGraph::homogeneous(
//!     4,
//!     vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
//! ).unwrap();
//! let d = lib.lookup(&embedder, &k4).expect("K4 is in the library");
//! assert_eq!(d.cost.conflicts, 1); // K4 at k = 3: one unavoidable conflict
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod canon;
mod enumerate;
mod library;
mod sharded;
mod vf2;

pub use canon::{are_isomorphic, canonical_form, canonical_form_labeled, CanonicalForm};
pub use enumerate::{enumerate_parent_graphs, enumerate_stitch_variants, is_valid_parent};
pub use library::{GraphLibrary, LibraryConfig, LibraryEntry, LibraryStats};
pub use mpld_graph::{graph_fingerprint, graphs_identical};
pub use sharded::{ShardedGraphMap, ShardedMapStats, DEFAULT_SHARDS};
pub use vf2::{find_isomorphism, full_candidates};
