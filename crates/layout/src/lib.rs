//! Benchmark layouts and layout → graph construction for MPLD.
//!
//! Three pieces:
//!
//! - [`iscas_suite`] — the 15 deterministic synthetic circuits standing in
//!   for the paper's scaled ISCAS benchmarks (see DESIGN.md for the
//!   substitution rationale);
//! - [`Layout::to_conflict_graph`] — features → homogeneous conflict graph
//!   at the minimum coloring distance, via the grid spatial index;
//! - [`insert_stitch_candidates`] — projection-based stitch candidate
//!   generation per simplified component, producing the heterogeneous
//!   graph the decomposers consume.
//!
//! # Example
//!
//! ```
//! use mpld_layout::circuit_by_name;
//!
//! let layout = circuit_by_name("C432").expect("known circuit").generate();
//! let graph = layout.to_conflict_graph();
//! assert_eq!(graph.num_nodes(), layout.features.len());
//! assert!(!graph.conflict_edges().is_empty());
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod circuits;
mod generator;
mod io;
mod stitch;

pub use circuits::{circuit_by_name, iscas_suite, Circuit};
pub use generator::{generate_layout, generate_layout_streaming, GeneratorParams};
pub use io::{
    read_layout, read_layout_limited, read_layout_streaming, write_layout, LayoutHeader,
    LayoutWriter, ParseLayoutError, ReadLimits,
};
pub use stitch::{
    insert_stitch_candidates, insert_stitch_candidates_masked, StitchedComponent,
    MAX_STITCHES_PER_FEATURE,
};

use mpld_geometry::{Feature, GridIndex, Rect};
use mpld_graph::LayoutGraph;

/// A routed-layer layout: named geometry plus its coloring distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Circuit name ("C432", ...).
    pub name: String,
    /// Minimum coloring distance in nanometres.
    pub d: i64,
    /// Polygonal features with dense ids `0..len`.
    pub features: Vec<Feature>,
}

impl Layout {
    /// Builds the homogeneous conflict graph: one node per feature, an
    /// edge per pair closer than `d`.
    pub fn to_conflict_graph(&self) -> LayoutGraph {
        #[allow(clippy::expect_used)] // the grid index yields valid, deduplicated pairs
        LayoutGraph::homogeneous(self.features.len(), self.conflict_edges())
            .expect("generated layouts produce valid conflict graphs")
    }

    /// The conflict graph's edges from one whole-layout spatial sweep:
    /// every pair of feature ids closer than `d`, sorted, each once.
    pub fn conflict_edges(&self) -> Vec<(u32, u32)> {
        let index = GridIndex::build(&self.features, self.d);
        let pairs = index.conflict_pairs(&self.features, self.d);
        pairs
            .into_iter()
            .map(|(a, b)| (a as u32, b as u32))
            .collect()
    }
}

/// Squared gap distance between two rectangles (convenience alias used by
/// stitch insertion).
pub(crate) fn rect_distance_sq(a: &Rect, b: &Rect) -> i64 {
    mpld_geometry::gap_distance_sq(a, b)
}

/// 1-D interval gap, crate-internal helper for projection computations.
pub(crate) fn axis_gap_pub(al: i64, ah: i64, bl: i64, bh: i64) -> i64 {
    if bh < al {
        al - bh
    } else if ah < bl {
        bl - ah
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_graph_nodes_match_features() {
        let layout = circuit_by_name("C432").expect("exists").generate();
        let g = layout.to_conflict_graph();
        assert_eq!(g.num_nodes(), layout.features.len());
        // Sanity: the layout is neither empty nor fully connected.
        let comps = g.connected_components();
        assert!(comps.len() > 1);
        assert!(comps.iter().any(|c| c.len() > 2));
    }

    #[test]
    fn all_circuits_generate_nonempty_graphs() {
        for c in iscas_suite().iter().take(3) {
            let layout = c.generate();
            assert!(!layout.features.is_empty(), "{} empty", c.name);
            let g = layout.to_conflict_graph();
            assert!(
                !g.conflict_edges().is_empty(),
                "{} has no conflicts",
                c.name
            );
        }
    }
}
