//! Embedding/logit memoization and batch planning for the routing stage.
//!
//! Real layouts repeat small units constantly (the same 2–6-node motifs
//! occur hundreds of times per circuit), so running the GNN forward pass
//! once per *distinct* unit and scattering the result is a large win.
//! [`EmbeddingMemo`] keys units on the matcher's structural
//! [`graph_fingerprint`](mpld_matching::graph_fingerprint) and — because
//! GNN readouts are not bitwise permutation-invariant and hashes can in
//! principle collide — verifies every hit with exact structural equality
//! ([`graphs_identical`](mpld_matching::graphs_identical)) before it
//! serves a cached slot. A hit therefore means *the same graph*, so the
//! representative's probabilities and embeddings are bit-identical to
//! what a fresh forward pass on the duplicate would have produced.

use mpld_graph::LayoutGraph;
use mpld_matching::{graph_fingerprint, graphs_identical};
use std::collections::HashMap;

/// Deduplication memo mapping structurally identical unit graphs to a
/// shared "representative" slot (an index the caller assigns, typically
/// into a batched inference result).
#[derive(Debug, Default)]
pub struct EmbeddingMemo<'a> {
    buckets: HashMap<u64, Vec<(&'a LayoutGraph, usize)>>,
    hits: usize,
}

impl<'a> EmbeddingMemo<'a> {
    /// Empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a graph; on a verified hit returns the representative slot
    /// and counts it. A fingerprint match with a structurally different
    /// graph is *not* a hit.
    pub fn find(&mut self, g: &LayoutGraph) -> Option<usize> {
        let fp = graph_fingerprint(g);
        let slot = self
            .buckets
            .get(&fp)?
            .iter()
            .find(|(rep, _)| graphs_identical(rep, g))
            .map(|&(_, slot)| slot)?;
        self.hits += 1;
        Some(slot)
    }

    /// Register `g` as the representative for its structure class,
    /// associated with `slot`.
    pub fn insert(&mut self, g: &'a LayoutGraph, slot: usize) {
        self.buckets
            .entry(graph_fingerprint(g))
            .or_default()
            .push((g, slot));
    }

    /// Verified hits served so far.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

/// Default node budget per planned inference batch. Small enough that a
/// batch's transient backbone scratch stays cache-resident, large enough
/// that per-batch dispatch overhead is negligible for the unit-graph
/// sizes real layouts produce.
pub const DEFAULT_MAX_BATCH_NODES: usize = 2048;

/// Size-bucketed batch plan for the frozen routing passes.
///
/// A single block-diagonal batch over every representative unit peaks its
/// transient scratch at the *sum* of all unit sizes. The planner instead
/// buckets items into power-of-two (node-count, edge-count) bands — so
/// each emitted batch holds similarly-shaped graphs — and splits each
/// band at a node budget, so the peak live scratch is that of the largest
/// emitted batch.
///
/// The plan is deterministic: bands are visited in ascending
/// (node-band, edge-band) order and items keep their input order inside a
/// band, so batch composition — and therefore f32 summation order — is a
/// pure function of the item sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Item indices per emitted batch (indices into the caller's slice).
    pub batches: Vec<Vec<usize>>,
}

/// Power-of-two size band: 0, {1}, {2,3}, {4..7}, ... Graphs in one band
/// differ by at most 2x in the banded dimension.
fn size_band(x: usize) -> u32 {
    usize::BITS - x.leading_zeros()
}

impl BatchPlan {
    /// Plans the subset `items` (indices into `sizes`, each a
    /// `(nodes, edges)` pair) into size-banded batches of at most
    /// `max_batch_nodes` nodes. An item larger than the budget still gets
    /// a (singleton) batch; every item appears in exactly one batch.
    pub fn new(items: &[usize], sizes: &[(usize, usize)], max_batch_nodes: usize) -> Self {
        let budget = max_batch_nodes.max(1);
        let mut banded: Vec<(u32, u32, usize)> = items
            .iter()
            .map(|&i| (size_band(sizes[i].0), size_band(sizes[i].1), i))
            .collect();
        // Stable: equal bands keep input order.
        banded.sort_by_key(|&(nb, eb, _)| (nb, eb));

        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut cur: Vec<usize> = Vec::new();
        let mut cur_nodes = 0usize;
        let mut cur_band = None;
        for &(nb, eb, i) in &banded {
            let nodes = sizes[i].0;
            if cur_band != Some((nb, eb)) || (cur_nodes + nodes > budget && !cur.is_empty()) {
                if !cur.is_empty() {
                    batches.push(std::mem::take(&mut cur));
                }
                cur_nodes = 0;
                cur_band = Some((nb, eb));
            }
            cur.push(i);
            cur_nodes += nodes;
        }
        if !cur.is_empty() {
            batches.push(cur);
        }
        Self { batches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_graph_hits_and_counts() {
        let a = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2)]).unwrap();
        let b = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2)]).unwrap();
        let mut memo = EmbeddingMemo::new();
        assert_eq!(memo.find(&a), None);
        memo.insert(&a, 7);
        assert_eq!(memo.find(&b), Some(7));
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn different_graph_misses() {
        let a = LayoutGraph::homogeneous(3, vec![(0, 1)]).unwrap();
        let b = LayoutGraph::homogeneous(3, vec![(1, 2)]).unwrap();
        let mut memo = EmbeddingMemo::new();
        memo.insert(&a, 0);
        assert_eq!(memo.find(&b), None);
        assert_eq!(memo.hits(), 0);
    }

    #[test]
    fn fingerprint_collision_is_rejected_by_equality_check() {
        // Force a synthetic collision by inserting under the *wrong*
        // bucket: find() must still refuse to serve a structurally
        // different graph even when the fingerprints agree.
        let a = LayoutGraph::homogeneous(4, vec![(0, 1), (2, 3)]).unwrap();
        let b = LayoutGraph::homogeneous(4, vec![(0, 2), (1, 3)]).unwrap();
        let mut memo = EmbeddingMemo::new();
        memo.buckets
            .entry(graph_fingerprint(&b))
            .or_default()
            .push((&a, 3));
        assert_eq!(memo.find(&b), None);
    }

    #[test]
    fn plan_partitions_every_item_exactly_once() {
        let sizes: Vec<(usize, usize)> = (0..50).map(|i| (1 + i % 17, (i * 3) % 29)).collect();
        let items: Vec<usize> = (0..sizes.len()).collect();
        let plan = BatchPlan::new(&items, &sizes, 16);
        let mut seen: Vec<usize> = plan.batches.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, items);
    }

    #[test]
    fn plan_respects_node_budget_and_bands() {
        let sizes: Vec<(usize, usize)> = vec![(3, 2); 10];
        let items: Vec<usize> = (0..10).collect();
        let plan = BatchPlan::new(&items, &sizes, 9);
        for b in &plan.batches {
            let nodes: usize = b.iter().map(|&i| sizes[i].0).sum();
            assert!(nodes <= 9, "batch exceeds node budget: {nodes}");
        }
        // Band homogeneity: all members of a batch share both size bands.
        let sizes2: Vec<(usize, usize)> = vec![(2, 1), (200, 1), (3, 1), (180, 1)];
        let plan2 = BatchPlan::new(&[0, 1, 2, 3], &sizes2, 4096);
        for b in &plan2.batches {
            let bands: Vec<(u32, u32)> = b
                .iter()
                .map(|&i| (super::size_band(sizes2[i].0), super::size_band(sizes2[i].1)))
                .collect();
            assert!(bands.windows(2).all(|w| w[0] == w[1]), "mixed bands: {b:?}");
        }
        assert_eq!(plan2.batches, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn oversized_item_still_gets_a_batch() {
        let sizes = vec![(5000, 10)];
        let plan = BatchPlan::new(&[0], &sizes, 64);
        assert_eq!(plan.batches, vec![vec![0]]);
    }
}
