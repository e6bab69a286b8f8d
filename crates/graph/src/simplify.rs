//! Graph simplification pipeline and color recovery.
//!
//! The paper (Fig. 7) simplifies the raw layout graph before any
//! decomposition with the standard OpenMPL level-3 techniques:
//!
//! 1. **Independent component computation (ICC)** — connected components
//!    are decomposed independently.
//! 2. **Hide small degree** — a node with conflict degree `< k` can always
//!    be colored after its neighbors, so it is removed and pushed on a
//!    stack; recovery pops the stack and picks any free mask.
//! 3. **Biconnected decomposition** — components are further split at
//!    articulation points; block colorings are merged back by color
//!    permutation at the shared articulation points.
//!
//! All three run in the graph's own node ids: after hiding, one Tarjan
//! walk of the remaining (active) subgraph visits each connected component
//! as one DFS tree and emits its blocks. Each block's sorted node list is
//! a [`DecompUnit`]; no per-component or per-unit conflict graph is built.
//! After each unit is decomposed (by any engine), [`Simplified::recover`]
//! merges the unit colorings over the block-cut tree of those same lists
//! and reassembles a full coloring whose cost is exactly the sum of unit
//! costs — hidden nodes and cut-vertex merging never introduce additional
//! conflicts.

use crate::bicc::{active_blocks, merge_blocks, UNCOLORED};
use crate::{LayoutGraph, NodeId};

/// Which simplification steps to run (ICC always runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplifyOptions {
    /// Iteratively hide nodes with conflict degree `< k`.
    pub hide_small_degree: bool,
    /// Split components at articulation points.
    pub biconnected: bool,
}

impl Default for SimplifyOptions {
    /// OpenMPL simplification level 3: everything on.
    fn default() -> Self {
        SimplifyOptions {
            hide_small_degree: true,
            biconnected: true,
        }
    }
}

/// One independent decomposition unit: a block of the graph left after
/// hiding (a whole connected component without the biconnected split).
/// Its conflict graph is the original graph induced on `global_nodes`.
#[derive(Debug, Clone)]
pub struct DecompUnit {
    /// The unit's nodes, sorted by global id: `global_nodes[local]` =
    /// global node id.
    pub global_nodes: Vec<NodeId>,
}

impl AsRef<[NodeId]> for DecompUnit {
    fn as_ref(&self) -> &[NodeId] {
        &self.global_nodes
    }
}

/// The output of [`simplify`]: decomposition units plus everything needed
/// for recovery.
#[derive(Debug, Clone)]
pub struct Simplified {
    /// The units in emission order; they are also the blocks that
    /// recovery merges over.
    units: Vec<DecompUnit>,
    /// Hidden nodes in hiding order (recovered in reverse).
    hidden: Vec<NodeId>,
    num_nodes: usize,
}

/// The reassembled global coloring.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Global node → mask.
    pub coloring: Vec<u8>,
    /// For each unit, the color permutation applied during merging
    /// (`perm[unit_color] = final_color`). Needed by callers that keep
    /// finer-grained colorings (e.g. stitch subfeatures) per unit.
    pub unit_permutations: Vec<[u8; 8]>,
}

/// Runs the simplification pipeline on a homogeneous conflict graph.
///
/// # Panics
///
/// Panics if `g` contains stitch edges (simplification precedes stitch
/// insertion) or if `k == 0`.
///
/// # Example
///
/// ```
/// use mpld_graph::simplify::{simplify, SimplifyOptions};
/// use mpld_graph::LayoutGraph;
///
/// // A path hangs off a K4; the path is hidden (degree < 3) and the K4
/// // remains as the single unit to decompose.
/// let g = LayoutGraph::homogeneous(
///     6,
///     vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
/// ).unwrap();
/// let s = simplify(&g, 3, SimplifyOptions::default());
/// assert_eq!(s.units().len(), 1);
/// assert_eq!(g.induced_subgraph(&s.units()[0].global_nodes).0.num_nodes(), 4);
/// ```
pub fn simplify(g: &LayoutGraph, k: u8, opts: SimplifyOptions) -> Simplified {
    assert!(
        !g.has_stitches(),
        "simplify operates on the homogeneous graph"
    );
    assert!(k > 0, "at least one mask required");
    let n = g.num_nodes();
    let mut active = vec![true; n];
    let mut degree: Vec<usize> = (0..n as u32).map(|v| g.conflict_degree(v)).collect();
    let mut hidden = Vec::new();

    if opts.hide_small_degree {
        let mut queue: Vec<NodeId> = (0..n as u32)
            .filter(|&v| degree[v as usize] < k as usize)
            .collect();
        while let Some(v) = queue.pop() {
            if !active[v as usize] {
                continue;
            }
            active[v as usize] = false;
            hidden.push(v);
            for &w in g.conflict_neighbors(v) {
                if active[w as usize] {
                    degree[w as usize] -= 1;
                    if degree[w as usize] < k as usize {
                        queue.push(w);
                    }
                }
            }
        }
    }

    let units = active_blocks(g, &active, opts.biconnected)
        .blocks
        .into_iter()
        .map(|global_nodes| DecompUnit { global_nodes })
        .collect();
    Simplified {
        units,
        hidden,
        num_nodes: n,
    }
}

impl Simplified {
    /// The independent units to decompose, in a stable order.
    pub fn units(&self) -> &[DecompUnit] {
        &self.units
    }

    /// Nodes removed by hide-small-degree, in hiding order.
    pub fn hidden_nodes(&self) -> &[NodeId] {
        &self.hidden
    }

    /// Number of nodes of the original graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Reassembles a full coloring from per-unit (parent/feature-level)
    /// colorings: merges the units over their block-cut tree via color
    /// permutation, then recovers hidden nodes greedily against the
    /// original graph `g`.
    ///
    /// The total cost of the returned coloring equals the sum of unit
    /// costs: block merging is cost-preserving and hidden nodes always find
    /// a free mask (their live degree is `< k`).
    ///
    /// # Panics
    ///
    /// Panics if `unit_colorings.len() != self.units().len()`, a unit
    /// coloring has the wrong length or colors `>= k`, `k > 8`, or `g` is
    /// not the graph this simplification was built from.
    pub fn recover(&self, g: &LayoutGraph, k: u8, unit_colorings: &[Vec<u8>]) -> Recovered {
        assert_eq!(
            unit_colorings.len(),
            self.units.len(),
            "one coloring per unit"
        );
        assert_eq!(g.num_nodes(), self.num_nodes, "graph mismatch");
        let mut coloring = vec![UNCOLORED; self.num_nodes];
        let unit_permutations = merge_blocks(&self.units, k, unit_colorings, &mut coloring);

        // Hidden nodes, reverse hiding order: all conflict neighbors that
        // were active at hiding time are already colored.
        for &v in self.hidden.iter().rev() {
            let mut used = [false; 256];
            for &w in g.conflict_neighbors(v) {
                if coloring[w as usize] != UNCOLORED {
                    used[coloring[w as usize] as usize] = true;
                }
            }
            coloring[v as usize] = (0..k).find(|&c| !used[c as usize]).unwrap_or(0);
        }

        Recovered {
            coloring,
            unit_permutations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostBreakdown;

    fn decompose_greedy(g: &LayoutGraph, k: u8) -> Vec<u8> {
        // Greedy coloring good enough for tests on tiny blocks.
        let mut coloring = vec![0u8; g.num_nodes()];
        for v in 0..g.num_nodes() as u32 {
            let mut used = [false; 16];
            for &w in g.conflict_neighbors(v) {
                if w < v {
                    used[coloring[w as usize] as usize] = true;
                }
            }
            coloring[v as usize] = (0..k).find(|&c| !used[c as usize]).unwrap_or(0);
        }
        coloring
    }

    #[test]
    fn hide_small_degree_strips_trees() {
        // A pure tree: everything hidden, no units remain.
        let g = LayoutGraph::homogeneous(5, vec![(0, 1), (1, 2), (1, 3), (3, 4)]).unwrap();
        let s = simplify(&g, 3, SimplifyOptions::default());
        assert!(s.units().is_empty());
        assert_eq!(s.hidden_nodes().len(), 5);
        let rec = s.recover(&g, 3, &[]);
        assert_eq!(g.evaluate(&rec.coloring, 0.1), CostBreakdown::default());
    }

    #[test]
    fn triangle_is_fully_hidden_at_k3() {
        // Every triangle node has degree 2 < 3, so the whole component is
        // recovered greedily with zero cost.
        let g = LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let s = simplify(&g, 3, SimplifyOptions::default());
        assert!(s.units().is_empty());
        let rec = s.recover(&g, 3, &[]);
        assert_eq!(g.evaluate(&rec.coloring, 0.1), CostBreakdown::default());
    }

    #[test]
    fn k4_with_pendant_survives_and_recovers() {
        let g = LayoutGraph::homogeneous(
            5,
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)],
        )
        .unwrap();
        let s = simplify(&g, 3, SimplifyOptions::default());
        assert_eq!(s.units().len(), 1);
        assert_eq!(
            g.induced_subgraph(&s.units()[0].global_nodes).0.num_nodes(),
            4
        );
        let colorings: Vec<Vec<u8>> = s
            .units()
            .iter()
            .map(|u| decompose_greedy(&g.induced_subgraph(&u.global_nodes).0, 3))
            .collect();
        let unit_conflicts: u32 = s
            .units()
            .iter()
            .zip(&colorings)
            .map(|(u, c)| {
                g.induced_subgraph(&u.global_nodes)
                    .0
                    .evaluate(c, 0.1)
                    .conflicts
            })
            .sum();
        let rec = s.recover(&g, 3, &colorings);
        // K4 at k = 3 forces exactly the unit's conflicts; recovery adds none.
        assert_eq!(g.evaluate(&rec.coloring, 0.1).conflicts, unit_conflicts);
    }

    #[test]
    fn k4_is_one_unit_with_unavoidable_conflict_at_k3() {
        let g = LayoutGraph::homogeneous(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        let s = simplify(&g, 3, SimplifyOptions::default());
        assert_eq!(s.units().len(), 1);
        assert_eq!(
            g.induced_subgraph(&s.units()[0].global_nodes).0.num_nodes(),
            4
        );
        assert!(s.hidden_nodes().is_empty());
    }

    #[test]
    fn recovery_cost_equals_unit_cost_sum() {
        // Two K4s joined by a path; hide strips the path, bcc keeps the K4s
        // apart. Greedy gives each K4 one conflict at k = 3.
        let mut edges = vec![];
        for &(a, b) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            edges.push((a, b));
            edges.push((a + 4, b + 4));
        }
        edges.push((3, 8)); // path node 8
        edges.push((8, 4));
        let g = LayoutGraph::homogeneous(9, edges).unwrap();
        let s = simplify(&g, 3, SimplifyOptions::default());
        assert_eq!(s.units().len(), 2);
        let colorings: Vec<Vec<u8>> = s
            .units()
            .iter()
            .map(|u| decompose_greedy(&g.induced_subgraph(&u.global_nodes).0, 3))
            .collect();
        let unit_cost: u32 = s
            .units()
            .iter()
            .zip(&colorings)
            .map(|(u, c)| {
                g.induced_subgraph(&u.global_nodes)
                    .0
                    .evaluate(c, 0.1)
                    .conflicts
            })
            .sum();
        let rec = s.recover(&g, 3, &colorings);
        let total = g.evaluate(&rec.coloring, 0.1);
        assert_eq!(total.conflicts, unit_cost);
    }

    #[test]
    fn biconnected_split_reduces_unit_size() {
        // Bow tie: two triangles sharing a vertex.
        let g = LayoutGraph::homogeneous(5, vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
            .unwrap();
        let s = simplify(
            &g,
            3,
            SimplifyOptions {
                hide_small_degree: false,
                biconnected: true,
            },
        );
        assert_eq!(s.units().len(), 2);
        assert!(s
            .units()
            .iter()
            .all(|u| g.induced_subgraph(&u.global_nodes).0.num_nodes() == 3));
        let colorings: Vec<Vec<u8>> = s
            .units()
            .iter()
            .map(|u| decompose_greedy(&g.induced_subgraph(&u.global_nodes).0, 3))
            .collect();
        let rec = s.recover(&g, 3, &colorings);
        assert_eq!(g.evaluate(&rec.coloring, 0.1).conflicts, 0);
    }

    #[test]
    fn no_simplification_keeps_whole_components() {
        let g = LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let opts = SimplifyOptions {
            hide_small_degree: false,
            biconnected: false,
        };
        let s = simplify(&g, 3, opts);
        assert_eq!(s.units().len(), 1);
        assert_eq!(
            g.induced_subgraph(&s.units()[0].global_nodes).0.num_nodes(),
            4
        );
    }

    #[test]
    fn unit_global_nodes_are_consistent() {
        // Two disjoint K4s; hide-small-degree removes nothing at k = 3.
        let mut edges = vec![];
        for &(a, b) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            edges.push((a, b));
            edges.push((a + 4, b + 4));
        }
        let g = LayoutGraph::homogeneous(8, edges).unwrap();
        let s = simplify(&g, 3, SimplifyOptions::default());
        assert_eq!(s.units().len(), 2);
        let mut all: Vec<u32> = s
            .units()
            .iter()
            .flat_map(|u| u.global_nodes.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<u32>>());
    }
}
