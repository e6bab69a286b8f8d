//! Property-based tests for the graph substrate: cost function,
//! biconnected decomposition, and simplification + recovery.

use mpld_graph::simplify::{simplify, SimplifyOptions};
use mpld_graph::{biconnected_components, CostBreakdown, LayoutGraph};
use proptest::prelude::*;
use std::collections::HashSet;

/// Random homogeneous graph on up to 14 nodes.
fn arb_graph() -> impl Strategy<Value = LayoutGraph> {
    (2usize..14).prop_flat_map(|n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .collect();
        prop::collection::vec(prop::bool::ANY, pairs.len()).prop_map(move |mask| {
            let edges = pairs
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m)
                .map(|(&e, _)| e)
                .collect();
            LayoutGraph::homogeneous(n, edges).expect("valid random graph")
        })
    })
}

/// Greedy coloring used as the per-unit decomposer in recovery tests.
fn greedy(g: &LayoutGraph, k: u8) -> Vec<u8> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_is_invariant_under_color_permutation(g in arb_graph(), seed in 0u64..1000) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let coloring: Vec<u8> = (0..g.num_nodes()).map(|_| rng.gen_range(0..3)).collect();
        let perm = [2u8, 0, 1];
        let permuted: Vec<u8> = coloring.iter().map(|&c| perm[c as usize]).collect();
        prop_assert_eq!(g.evaluate(&coloring, 0.1), g.evaluate(&permuted, 0.1));
    }

    #[test]
    fn conflict_count_is_bounded_by_edges(g in arb_graph()) {
        let all_same = vec![0u8; g.num_nodes()];
        let cost = g.evaluate(&all_same, 0.1);
        prop_assert_eq!(cost.conflicts as usize, g.conflict_edges().len());
        prop_assert_eq!(cost.stitches, 0);
    }

    #[test]
    fn biconnected_blocks_partition_the_edges(g in arb_graph()) {
        let bct = biconnected_components(&g);
        // Every edge appears in exactly one block.
        let mut edge_seen: HashSet<(u32, u32)> = HashSet::new();
        for block in &bct.blocks {
            let set: HashSet<u32> = block.iter().copied().collect();
            for &(u, v) in g.conflict_edges() {
                if set.contains(&u) && set.contains(&v) {
                    // An edge internal to a block: record, detect double.
                    if !edge_seen.insert((u, v)) {
                        // An edge may lie in two blocks only if both its
                        // endpoints are articulation points of a bridge —
                        // impossible: blocks share at most one vertex.
                        prop_assert!(false, "edge ({u},{v}) in two blocks");
                    }
                }
            }
        }
        prop_assert_eq!(edge_seen.len(), g.conflict_edges().len());
        // Every node appears in some block.
        let covered: HashSet<u32> = bct.blocks.iter().flatten().copied().collect();
        prop_assert_eq!(covered.len(), g.num_nodes());
    }

    #[test]
    fn articulation_points_match_bruteforce(g in arb_graph()) {
        let bct = biconnected_components(&g);
        let base = g.connected_components().len();
        for v in 0..g.num_nodes() as u32 {
            // Remove v: does the component count (ignoring v) grow?
            let keep: Vec<u32> =
                (0..g.num_nodes() as u32).filter(|&u| u != v).collect();
            let (sub, _) = g.induced_subgraph(&keep);
            let removed_isolated = g.conflict_degree(v) == 0;
            let after = sub.connected_components().len();
            let expect_cut = after > base - usize::from(removed_isolated);
            prop_assert_eq!(
                bct.is_articulation[v as usize],
                expect_cut,
                "articulation mismatch at {} (base {}, after {})",
                v, base, after
            );
        }
    }

    #[test]
    fn recovery_cost_equals_sum_of_unit_costs(g in arb_graph()) {
        let k = 3u8;
        let s = simplify(&g, k, SimplifyOptions::default());
        let colorings: Vec<Vec<u8>> =
            s.units().iter().map(|u| greedy(&g.induced_subgraph(&u.global_nodes).0, k)).collect();
        let unit_total = s
            .units()
            .iter()
            .zip(&colorings)
            .map(|(u, c)| g.induced_subgraph(&u.global_nodes).0.evaluate(c, 0.1))
            .fold(CostBreakdown::default(), |a, b| a.combine(b));
        let rec = s.recover(&g, k, &colorings);
        let total = g.evaluate(&rec.coloring, 0.1);
        prop_assert_eq!(
            total.conflicts, unit_total.conflicts,
            "hidden-node recovery or block merging changed the cost"
        );
    }

    #[test]
    fn simplification_units_have_min_degree_k(g in arb_graph()) {
        let k = 3u8;
        let s = simplify(&g, k, SimplifyOptions::default());
        for unit in s.units() {
            let unit_graph = g.induced_subgraph(&unit.global_nodes).0;
            for v in 0..unit_graph.num_nodes() as u32 {
                prop_assert!(unit_graph.conflict_degree(v) >= k as usize);
            }
        }
    }

    #[test]
    fn merge_stitch_edges_preserves_feature_conflicts(g in arb_graph()) {
        // Build a heterogeneous variant by splitting node 0 when possible,
        // then check the parent graph round-trips.
        if g.num_nodes() < 2 || g.conflict_degree(0) < 2 {
            return Ok(());
        }
        let n = g.num_nodes() as u32;
        let mut feat: Vec<u32> = (0..n).collect();
        feat.push(0);
        let mut ce: Vec<(u32, u32)> = Vec::new();
        for (i, &(u, v)) in g.conflict_edges().iter().enumerate() {
            // Alternate node 0's edges between its two subfeatures.
            if u == 0 && i % 2 == 0 {
                ce.push((n, v));
            } else {
                ce.push((u, v));
            }
        }
        let h = LayoutGraph::new(feat, ce, vec![(0, n)]).expect("valid split");
        let (parent, map) = h.merge_stitch_edges();
        prop_assert_eq!(parent.num_nodes(), g.num_nodes());
        prop_assert_eq!(map.len(), h.num_nodes());
        for &(u, v) in g.conflict_edges() {
            prop_assert!(parent.conflict_neighbors(u).contains(&v));
        }
    }
}
