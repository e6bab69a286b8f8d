//! Structural graph fingerprinting shared by every identity-keyed memo
//! (routing, matching, ColorGNN streams, tail caches, job journals).
//!
//! A fingerprint is a cheap FNV-1a hash over a [`LayoutGraph`]'s exact
//! structure (node count, per-node feature labels, both sorted edge
//! lists). Two *identical* graphs always collide; two different graphs
//! almost never do — but callers that key caches on it must still verify
//! a hit with [`graphs_identical`] before reusing anything
//! order-sensitive (GNN embeddings are not bitwise
//! permutation-invariant, so only exact structural equality licenses
//! reuse).

use crate::{Fnv64, LayoutGraph};

/// FNV-1a structural fingerprint of a layout graph.
///
/// Identical graphs (same node order, features and edge lists) hash
/// equally; job journals, the framework's embedding memo and ColorGNN's
/// per-graph streams all key on this, so its values are on disk and must
/// never change.
pub fn graph_fingerprint(g: &LayoutGraph) -> u64 {
    let mut h = Fnv64::new();
    h.word(g.num_nodes() as u64);
    for v in 0..g.num_nodes() as u32 {
        h.word(u64::from(g.feature_of(v)) + 1);
    }
    for &(u, v) in g.conflict_edges() {
        h.word((u64::from(u) << 32) | u64::from(v));
    }
    h.word(0x5711);
    for &(u, v) in g.stitch_edges() {
        h.word((u64::from(u) << 32) | u64::from(v));
    }
    h.finish()
}

/// Exact structural equality: same node count, same feature labels in
/// the same order, same (sorted) conflict and stitch edge lists. This is
/// the verification a fingerprint hit must pass before an embedding or
/// logit may be reused — stricter than isomorphism on purpose.
pub fn graphs_identical(a: &LayoutGraph, b: &LayoutGraph) -> bool {
    a.num_nodes() == b.num_nodes()
        && a.conflict_edges() == b.conflict_edges()
        && a.stitch_edges() == b.stitch_edges()
        && (0..a.num_nodes() as u32).all(|v| a.feature_of(v) == b.feature_of(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_graphs_share_a_fingerprint() {
        let a = LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let b = LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        assert!(graphs_identical(&a, &b));
    }

    #[test]
    fn relabeled_graphs_differ() {
        // Isomorphic but differently labeled: equality must fail (and the
        // fingerprints differ, though that is not load-bearing).
        let a = LayoutGraph::homogeneous(3, vec![(0, 1)]).unwrap();
        let b = LayoutGraph::homogeneous(3, vec![(1, 2)]).unwrap();
        assert!(!graphs_identical(&a, &b));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
    }

    #[test]
    fn features_distinguish_graphs() {
        let a = LayoutGraph::new(vec![0, 1], vec![(0, 1)], vec![]).unwrap();
        let b = LayoutGraph::new(vec![1, 0], vec![(0, 1)], vec![]).unwrap();
        assert!(!graphs_identical(&a, &b));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
    }
}
