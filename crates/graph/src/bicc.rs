//! Biconnected-component decomposition (Tarjan) and block-cut-tree color
//! merging.
//!
//! Splitting a conflict graph at articulation points lets each biconnected
//! block be decomposed independently: conflict edges belong to exactly one
//! block, so the total cost is the sum of block costs, and block colorings
//! can always be reconciled at the shared cut vertex by a color
//! permutation (mask names are interchangeable).

use crate::{LayoutGraph, NodeId};
use std::collections::VecDeque;

/// The biconnected structure of a homogeneous conflict graph.
#[derive(Debug, Clone)]
pub struct BlockCutTree {
    /// Each block as a sorted node list. Isolated nodes form singleton
    /// blocks so that every node appears in at least one block.
    pub blocks: Vec<Vec<NodeId>>,
    /// `is_articulation[v]` — whether `v` is a cut vertex.
    pub is_articulation: Vec<bool>,
}

/// Computes the biconnected components of the conflict graph (stitch edges,
/// if any, are ignored — simplification runs before stitch insertion).
///
/// # Example
///
/// ```
/// use mpld_graph::{biconnected_components, LayoutGraph};
/// // Two triangles sharing node 2 ("bow tie"): node 2 is an articulation.
/// let g = LayoutGraph::homogeneous(
///     5,
///     vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
/// ).unwrap();
/// let bct = biconnected_components(&g);
/// assert_eq!(bct.blocks.len(), 2);
/// assert!(bct.is_articulation[2]);
/// ```
pub fn biconnected_components(g: &LayoutGraph) -> BlockCutTree {
    active_blocks(g, &vec![true; g.num_nodes()], true)
}

/// Tarjan's walk over the subgraph induced by the `active` nodes, in
/// global ids. Roots go in ascending id and neighbors in sorted adjacency
/// order, both skipping inactive nodes; a root with no active neighbor
/// is a singleton block. With `split`, each DFS tree is cut into its
/// blocks at articulation points, in Tarjan's emission order; without
/// it, each DFS tree is one block and no node is an articulation point.
/// Inactive nodes are in no block.
pub(crate) fn active_blocks(g: &LayoutGraph, active: &[bool], split: bool) -> BlockCutTree {
    let n = g.num_nodes();
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![u32::MAX; n];
    let mut is_articulation = vec![false; n];
    let mut blocks: Vec<Vec<NodeId>> = Vec::new();
    let mut edge_stack: Vec<(NodeId, NodeId)> = Vec::new();
    let mut timer = 0u32;

    struct Frame {
        v: NodeId,
        parent: Option<NodeId>,
        ai: usize,
        skipped_parent: bool,
    }

    for root in 0..n as u32 {
        if !active[root as usize] || disc[root as usize] != u32::MAX {
            continue;
        }
        disc[root as usize] = timer;
        low[root as usize] = timer;
        timer += 1;
        if !g
            .conflict_neighbors(root)
            .iter()
            .any(|&w| active[w as usize])
        {
            blocks.push(vec![root]);
            continue;
        }
        let mut stack = vec![Frame {
            v: root,
            parent: None,
            ai: 0,
            skipped_parent: false,
        }];
        let mut root_children = 0u32;

        while let Some(frame) = stack.last_mut() {
            let v = frame.v;
            let adj = g.conflict_neighbors(v);
            if frame.ai < adj.len() {
                let w = adj[frame.ai];
                frame.ai += 1;
                if !active[w as usize] {
                    continue;
                }
                if Some(w) == frame.parent && !frame.skipped_parent {
                    frame.skipped_parent = true;
                    continue;
                }
                if disc[w as usize] == u32::MAX {
                    if v == root {
                        root_children += 1;
                    }
                    edge_stack.push((v, w));
                    disc[w as usize] = timer;
                    low[w as usize] = timer;
                    timer += 1;
                    stack.push(Frame {
                        v: w,
                        parent: Some(v),
                        ai: 0,
                        skipped_parent: false,
                    });
                } else if disc[w as usize] < disc[v as usize] {
                    // Back edge.
                    edge_stack.push((v, w));
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
            } else {
                // Invariant: a frame is pushed for every visit before this pop.
                #[allow(clippy::expect_used)]
                let finished = stack.pop().expect("frame exists");
                if let Some(p) = finished.parent {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                    if split && low[v as usize] >= disc[p as usize] {
                        if p != root {
                            is_articulation[p as usize] = true;
                        }
                        // The block's edges run from the tree edge (p, v),
                        // pushed when v was discovered, to the stack's top.
                        #[allow(clippy::expect_used)]
                        let from = edge_stack
                            .iter()
                            .rposition(|&e| e == (p, v))
                            .expect("tree edge is on the edge stack");
                        blocks.push(drain_block(&mut edge_stack, from));
                    }
                }
            }
        }
        if split && root_children >= 2 {
            is_articulation[root as usize] = true;
        }
        if !split {
            blocks.push(drain_block(&mut edge_stack, 0));
        }
    }

    BlockCutTree {
        blocks,
        is_articulation,
    }
}

/// Drains `edges[from..]` into a block's sorted node list.
fn drain_block(edges: &mut Vec<(NodeId, NodeId)>, from: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = edges.drain(from..).flat_map(|(a, b)| [a, b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Marks a node no block has colored yet.
pub(crate) const UNCOLORED: u8 = u8::MAX;

/// Merges independent per-block colorings into `coloring`, whose entries
/// start as [`UNCOLORED`], permuting block colors so shared articulation
/// nodes agree, and returns, for each block, the color permutation that
/// was applied to it (`perm[old_color] = new_color`).
///
/// `block_colorings[i][j]` is the color of `blocks[i][j]`. Blocks are
/// taken breadth first over each connected region of the block-cut tree,
/// starting at the region's first block. A later block meets the blocks
/// merged before it in exactly one articulation node (the tree has no
/// cycles), and one color swap makes it agree there; since mask names are
/// interchangeable, every block keeps its internal cost. Callers that hold
/// finer-grained (e.g. subfeature-level) colorings for a block can
/// re-apply its permutation to stay consistent with the merged result.
///
/// # Panics
///
/// Panics if a coloring's length does not match its block, a color is
/// `>= k`, `k > 8`, or a block node is out of `coloring`'s range.
pub(crate) fn merge_blocks<B: AsRef<[NodeId]>>(
    blocks: &[B],
    k: u8,
    block_colorings: &[Vec<u8>],
    coloring: &mut [u8],
) -> Vec<[u8; 8]> {
    assert_eq!(
        block_colorings.len(),
        blocks.len(),
        "one coloring per block"
    );
    assert!(k <= 8, "at most 8 masks supported by permutation tracking");
    for (b, c) in blocks.iter().zip(block_colorings) {
        assert_eq!(
            b.as_ref().len(),
            c.len(),
            "coloring length must match block size"
        );
        assert!(c.iter().all(|&x| x < k), "color out of range");
    }

    // Every node's blocks in one flat list: node v's blocks, ascending,
    // are `of[start[v]..start[v + 1]]`. Only articulation nodes have more
    // than one.
    let mut start = vec![0u32; coloring.len() + 1];
    for b in blocks {
        for &v in b.as_ref() {
            start[v as usize] += 1;
        }
    }
    let mut total = 0;
    for s in &mut start {
        total += *s;
        *s = total;
    }
    let mut of = vec![0u32; total as usize];
    for (bi, b) in blocks.iter().enumerate().rev() {
        for &v in b.as_ref() {
            start[v as usize] -= 1;
            of[start[v as usize] as usize] = bi as u32;
        }
    }

    let mut permutations = vec![[0, 1, 2, 3, 4, 5, 6, 7]; blocks.len()];
    let mut done = vec![false; blocks.len()];
    let mut queue = VecDeque::new();
    for first in 0..blocks.len() {
        if done[first] {
            continue;
        }
        done[first] = true;
        queue.push_back(first);
        while let Some(bi) = queue.pop_front() {
            let (block, colors) = (blocks[bi].as_ref(), &block_colorings[bi]);
            let perm = &mut permutations[bi];
            if let Some(pos) = block
                .iter()
                .position(|&v| coloring[v as usize] != UNCOLORED)
            {
                perm.swap(coloring[block[pos] as usize] as usize, colors[pos] as usize);
            }
            for (&v, &c) in block.iter().zip(colors) {
                let c = perm[c as usize];
                debug_assert!(
                    coloring[v as usize] == UNCOLORED || coloring[v as usize] == c,
                    "cut vertex color mismatch after permutation"
                );
                coloring[v as usize] = c;
                for &nb in &of[start[v as usize] as usize..start[v as usize + 1] as usize] {
                    if !done[nb as usize] {
                        done[nb as usize] = true;
                        queue.push_back(nb as usize);
                    }
                }
            }
        }
    }
    permutations
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn path(n: usize) -> LayoutGraph {
        let edges = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        LayoutGraph::homogeneous(n, edges).unwrap()
    }

    #[test]
    fn triangle_is_one_block() {
        let g = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let bct = biconnected_components(&g);
        assert_eq!(bct.blocks, vec![vec![0, 1, 2]]);
        assert!(bct.is_articulation.iter().all(|&a| !a));
    }

    #[test]
    fn path_every_edge_is_a_block() {
        let bct = biconnected_components(&path(4));
        let mut blocks = bct.blocks.clone();
        blocks.sort();
        assert_eq!(blocks, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        assert_eq!(bct.is_articulation, vec![false, true, true, false]);
    }

    #[test]
    fn bow_tie_splits_at_center() {
        let g = LayoutGraph::homogeneous(5, vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
            .unwrap();
        let bct = biconnected_components(&g);
        assert_eq!(bct.blocks.len(), 2);
        assert!(bct.is_articulation[2]);
        assert_eq!(bct.is_articulation.iter().filter(|&&a| a).count(), 1);
    }

    #[test]
    fn isolated_nodes_are_singleton_blocks() {
        let g = LayoutGraph::homogeneous(3, vec![(0, 1)]).unwrap();
        let bct = biconnected_components(&g);
        let mut blocks = bct.blocks.clone();
        blocks.sort();
        assert_eq!(blocks, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn merge_reconciles_cut_vertex() {
        // Bow tie; color each triangle independently with clashing colors at
        // the cut vertex, then merge.
        let g = LayoutGraph::homogeneous(5, vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
            .unwrap();
        let bct = biconnected_components(&g);
        // Identify which block is which.
        let colorings: Vec<Vec<u8>> = bct
            .blocks
            .iter()
            .map(|b| (0..b.len() as u8).collect())
            .collect();
        let mut merged = vec![UNCOLORED; 5];
        merge_blocks(&bct.blocks, 3, &colorings, &mut merged);
        let cost = g.evaluate(&merged, 0.1);
        assert_eq!(cost.conflicts, 0);
    }

    #[test]
    fn merge_preserves_block_costs_on_path() {
        let g = path(5);
        let bct = biconnected_components(&g);
        let colorings: Vec<Vec<u8>> = bct.blocks.iter().map(|_| vec![0, 1]).collect();
        let mut merged = vec![UNCOLORED; 5];
        merge_blocks(&bct.blocks, 3, &colorings, &mut merged);
        assert_eq!(g.evaluate(&merged, 0.1).conflicts, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn active_walk_equals_blocks_of_the_induced_active_subgraph(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1u32..20);
            let p = rng.gen_range(0.1..0.5);
            let edges = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|_| rng.gen_bool(p))
                .collect();
            let g = LayoutGraph::homogeneous(n as usize, edges).unwrap();
            let active: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.75)).collect();

            let walk = active_blocks(&g, &active, true);
            let kept: Vec<NodeId> = (0..n).filter(|&v| active[v as usize]).collect();
            let (sub, map) = g.induced_subgraph(&kept);
            let want = biconnected_components(&sub);
            let blocks: Vec<Vec<NodeId>> = want
                .blocks
                .iter()
                .map(|b| b.iter().map(|&l| map[l as usize]).collect())
                .collect();
            prop_assert_eq!(walk.blocks, blocks);
            let mut is_articulation = vec![false; n as usize];
            for (&v, &a) in map.iter().zip(&want.is_articulation) {
                is_articulation[v as usize] = a;
            }
            prop_assert_eq!(walk.is_articulation, is_articulation);
        }
    }

    #[test]
    #[should_panic(expected = "one coloring per block")]
    fn merge_rejects_wrong_block_count() {
        let bct = biconnected_components(&path(3));
        let _ = merge_blocks(&bct.blocks, 3, &[vec![0, 1]], &mut [UNCOLORED; 3]);
    }
}
