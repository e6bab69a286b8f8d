//! Parity of the precision-taking frozen entry points: `Precision` has
//! the single value `F32`, and `infer_encoded_with` /
//! `predict_encoded_with` under it are bit-identical to the default
//! `infer_encoded` / `predict_encoded` path.

use mpld_gnn::{InferBatch, RgcnClassifier};
use mpld_graph::LayoutGraph;
use mpld_tensor::Precision;
use proptest::prelude::*;

/// Random heterogeneous layout graph on 1..=10 nodes (same shape as the
/// frozen-equivalence generator).
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

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Precision::F32` through the precision-taking entry points is the
    /// same code path as the default ones — bitwise equal probabilities,
    /// graph embeddings and node embeddings.
    #[test]
    fn f32_precision_is_bit_identical(
        gs in prop::collection::vec(arb_layout(), 1..5),
        seed in 0u64..500,
    ) {
        let refs: Vec<&LayoutGraph> = gs.iter().collect();
        for model in [RgcnClassifier::selector(seed), RgcnClassifier::redundancy(seed)] {
            let frozen = model.freeze();
            let enc = InferBatch::new(&refs);
            let base = frozen.infer_encoded(&enc);
            let via = frozen.infer_encoded_with(&enc, Precision::F32);
            let predicted = frozen.predict_encoded_with(&enc, Precision::F32);
            prop_assert_eq!(via.probs.len(), base.probs.len());
            prop_assert_eq!(predicted.probs.len(), base.probs.len());
            for (i, b) in base.probs.iter().enumerate() {
                prop_assert_eq!(bits(&via.probs[i]), bits(b));
                prop_assert_eq!(bits(&predicted.probs[i]), bits(b));
                prop_assert_eq!(
                    bits(&via.graph_embeddings[i]),
                    bits(&base.graph_embeddings[i])
                );
                prop_assert_eq!(
                    bits(&predicted.graph_embeddings[i]),
                    bits(&base.graph_embeddings[i])
                );
                prop_assert_eq!(
                    bits(via.node_embeddings[i].as_slice()),
                    bits(base.node_embeddings[i].as_slice())
                );
            }
        }
    }
}
