//! Property tests: the frozen (tape-free) inference engines are
//! bit-identical to the autodiff-tape oracles.
//!
//! This is the contract that lets the adaptive framework route on frozen
//! inference without changing a single decision: same GEMM microkernel,
//! same accumulation orders, same RNG draw order — so outputs match to
//! the last ulp, not within a tolerance.

use mpld_gnn::{ColorGnn, InferBatch, RgcnClassifier};
use mpld_graph::{Budget, DecomposeParams, Decomposer, LayoutGraph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// Random heterogeneous layout graph on 1..=10 nodes: every vertex pair
/// is independently a conflict edge, a stitch edge, or absent — so
/// single-node units and empty-stitch (homogeneous) units both occur.
fn arb_layout() -> impl Strategy<Value = LayoutGraph> {
    (1usize..=10).prop_flat_map(|n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .collect();
        let np = pairs.len();
        (
            prop::collection::vec(proptest::prelude::prop::bool::ANY, np.max(1)),
            prop::collection::vec(0u32..3, n),
        )
            .prop_map(move |(present, feats)| {
                // A pair's edge type follows the feature labels (the
                // layout-graph invariant: conflicts join different
                // features, stitches join same-feature nodes), so graphs
                // with no stitch edges arise whenever features are all
                // distinct.
                let mut conflict = Vec::new();
                let mut stitch = Vec::new();
                for (&(u, v), &keep) in pairs.iter().zip(&present) {
                    if !keep {
                        continue;
                    }
                    if feats[u as usize] == feats[v as usize] {
                        stitch.push((u, v));
                    } else {
                        conflict.push((u, v));
                    }
                }
                LayoutGraph::new(feats, conflict, stitch).expect("valid random graph")
            })
    })
}

/// Random homogeneous (no-stitch) graph for ColorGNN, which rejects
/// stitch edges.
fn arb_homogeneous() -> impl Strategy<Value = LayoutGraph> {
    (1usize..=9).prop_flat_map(|n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .collect();
        prop::collection::vec(proptest::prelude::prop::bool::ANY, pairs.len().max(1)).prop_map(
            move |mask| {
                let edges = pairs
                    .iter()
                    .zip(&mask)
                    .filter(|(_, &m)| m)
                    .map(|(&e, _)| e)
                    .collect();
                LayoutGraph::homogeneous(n, edges).expect("valid random graph")
            },
        )
    })
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Router (sum readout, linear head) and redundancy (max readout,
    /// MLP head): frozen single-graph forwards equal the tape bitwise.
    #[test]
    fn frozen_rgcn_single_matches_tape(g in arb_layout(), seed in 0u64..500) {
        for model in [RgcnClassifier::selector(seed), RgcnClassifier::redundancy(seed)] {
            let frozen = model.freeze();
            assert_bits_eq(&frozen.predict(&g), &model.predict(&g), "probs");
            assert_bits_eq(
                &frozen.graph_embedding(&g),
                &model.graph_embedding(&g),
                "graph embedding",
            );
            let fn_nodes = frozen.node_embeddings(&g);
            let tp_nodes = model.node_embeddings(&g);
            prop_assert_eq!(fn_nodes.rows(), tp_nodes.rows());
            assert_bits_eq(fn_nodes.as_slice(), tp_nodes.as_slice(), "node embeddings");
        }
    }

    /// Batched (block-diagonal) frozen forwards equal the tape's batched
    /// forwards bitwise, for both heads, including the single-pass
    /// embeddings that replace the tape's separate second traversal.
    #[test]
    fn frozen_rgcn_batch_matches_tape(
        gs in prop::collection::vec(arb_layout(), 1..5),
        seed in 0u64..500,
    ) {
        let refs: Vec<&LayoutGraph> = gs.iter().collect();
        for model in [RgcnClassifier::selector(seed), RgcnClassifier::redundancy(seed)] {
            let frozen = model.freeze();
            let enc = InferBatch::new(&refs);
            let out = frozen.infer_encoded(&enc);

            let tape_probs = model.predict_batch(&refs);
            prop_assert_eq!(out.probs.len(), tape_probs.len());
            for (f, t) in out.probs.iter().zip(&tape_probs) {
                assert_bits_eq(f, t, "batched probs");
            }

            let tape_embs = model.embeddings_batch(&refs);
            prop_assert_eq!(out.graph_embeddings.len(), tape_embs.len());
            for ((fe, fnodes), (te, tnodes)) in out
                .graph_embeddings
                .iter()
                .zip(&out.node_embeddings)
                .zip(tape_embs.iter().map(|(e, n)| (e, n)))
            {
                assert_bits_eq(fe, te, "batched graph embedding");
                prop_assert_eq!(fnodes.rows(), tnodes.rows());
                assert_bits_eq(fnodes.as_slice(), tnodes.as_slice(), "batched node embeddings");
            }
        }
    }

    /// The batched tape path (which carves per-graph embeddings out of
    /// the batch's node matrix without intermediate copies) agrees
    /// bitwise with the per-graph tape forwards on a batch of one — the
    /// two code paths share every accumulation order.
    #[test]
    fn embeddings_batch_matches_per_graph(g in arb_layout(), seed in 0u64..500) {
        for model in [RgcnClassifier::selector(seed), RgcnClassifier::redundancy(seed)] {
            let batched = model.embeddings_batch(&[&g]);
            prop_assert_eq!(batched.len(), 1);
            let (emb, nodes) = &batched[0];
            assert_bits_eq(emb, &model.graph_embedding(&g), "graph embedding");
            let single_nodes = model.node_embeddings(&g);
            prop_assert_eq!(nodes.rows(), single_nodes.rows());
            assert_bits_eq(nodes.as_slice(), single_nodes.as_slice(), "node embeddings");
        }
    }

    /// ColorGNN: from the same reseeded model stream, the frozen engine
    /// (the `Decomposer::decompose` default) and the tape oracle take
    /// the same draw and sample the same per-graph stream, so they
    /// produce identical colorings, costs and certainty; and a batch
    /// from that stream state is the per-graph map of the tape oracle.
    #[test]
    fn frozen_colorgnn_matches_tape(
        gs in prop::collection::vec(arb_homogeneous(), 1..4),
        seed in 0u64..500,
    ) {
        let refs: Vec<&LayoutGraph> = gs.iter().collect();
        let gnn = ColorGnn::new(seed);
        let params = DecomposeParams::tpl();
        let budget = Budget::unlimited();

        for g in &gs {
            gnn.reseed(seed ^ 0x3C);
            let t = gnn.decompose_tape(g, &params, &budget).expect("tape decompose");
            gnn.reseed(seed ^ 0x3C);
            let f = gnn.decompose(g, &params, &budget).expect("frozen decompose");
            prop_assert_eq!(t.coloring, f.coloring);
            prop_assert_eq!(t.cost, f.cost);
            prop_assert_eq!(t.certainty, f.certainty);
        }

        gnn.reseed(seed ^ 0xA5);
        let batch = gnn.decompose_batch(&refs, &params, &budget);
        prop_assert_eq!(batch.len(), gs.len());
        for (g, b) in gs.iter().zip(&batch) {
            gnn.reseed(seed ^ 0xA5);
            let t = gnn.decompose_tape(g, &params, &budget).expect("tape decompose");
            prop_assert_eq!(&t.coloring, &b.coloring);
            prop_assert_eq!(t.cost, b.cost);
            prop_assert_eq!(t.certainty, b.certainty);
        }
    }

    /// A ColorGNN coloring is a function of (graph, draw) alone: a batch
    /// takes exactly one draw from its RNG and gives every member what
    /// `decompose_seeded` gives that graph under the draw, whatever the
    /// order, the duplicates and the other members of the batch.
    #[test]
    fn colorgnn_batch_is_the_per_graph_map(
        gs in prop::collection::vec(arb_homogeneous(), 1..5),
        others in prop::collection::vec(arb_homogeneous(), 0..4),
        seed in 0u64..500,
    ) {
        let frozen = ColorGnn::new(seed).freeze();
        let params = DecomposeParams::tpl();
        let budget = Budget::unlimited();
        let stream = || SmallRng::seed_from_u64(seed ^ 0x77);
        let draw = stream().next_u64();

        // Every graph twice, plus other members, in a shuffled order.
        let mut batch: Vec<&LayoutGraph> = gs.iter().chain(&gs).chain(&others).collect();
        batch.shuffle(&mut SmallRng::seed_from_u64(seed));
        let mut rng = stream();
        let out = frozen.decompose_batch_with_rng(&batch, &params, &budget, &mut rng);
        let mut one_draw = stream();
        one_draw.next_u64();
        prop_assert_eq!(rng.next_u64(), one_draw.next_u64());
        prop_assert_eq!(out.len(), batch.len());
        for (g, d) in batch.iter().zip(&out) {
            let alone = frozen
                .decompose_seeded(g, &params, &budget, draw)
                .expect("non-stitch graph");
            prop_assert_eq!(d, &alone);
        }
    }
}
