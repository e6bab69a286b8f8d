//! Property-based tests for the exact engines: both must be optimal
//! (checked against exhaustive search) and must agree with each other on
//! arbitrary heterogeneous layout graphs.

use mpld_graph::{DecomposeParams, Decomposer, LayoutGraph};
use mpld_ilp::encode::BipDecomposer;
use mpld_ilp::{brute_force, IlpDecomposer};
use proptest::prelude::*;

/// Random heterogeneous layout graph: up to 7 features, some split in two
/// subfeatures with a stitch edge.
fn arb_hetero() -> impl Strategy<Value = LayoutGraph> {
    (
        2usize..7,
        prop::collection::vec(prop::bool::ANY, 8),
        0u64..10_000,
    )
        .prop_map(|(nf, splits, seed)| {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut node_feature = Vec::new();
            let mut stitch = Vec::new();
            let mut nodes_of = Vec::new();
            for f in 0..nf {
                let start = node_feature.len() as u32;
                if splits.get(f).copied().unwrap_or(false) {
                    node_feature.extend([f as u32; 2]);
                    stitch.push((start, start + 1));
                    nodes_of.push(vec![start, start + 1]);
                } else {
                    node_feature.push(f as u32);
                    nodes_of.push(vec![start]);
                }
            }
            let mut conflicts = Vec::new();
            for a in 0..nf {
                for b in (a + 1)..nf {
                    for &u in &nodes_of[a] {
                        for &v in &nodes_of[b] {
                            if rng.gen_bool(0.4) {
                                conflicts.push((u, v));
                            }
                        }
                    }
                }
            }
            LayoutGraph::new(node_feature, conflicts, stitch).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn colorbb_is_optimal(g in arb_hetero()) {
        if g.num_nodes() > 10 {
            return Ok(());
        }
        let p = DecomposeParams::tpl();
        let d = IlpDecomposer::new().decompose_unbounded(&g, &p);
        let bf = brute_force(&g, &p);
        prop_assert!((d.cost.value(0.1) - bf.cost.value(0.1)).abs() < 1e-9);
        // Reported cost matches independent evaluation.
        prop_assert_eq!(d.cost, g.evaluate(&d.coloring, 0.1));
    }

    #[test]
    fn both_exact_engines_agree(g in arb_hetero()) {
        let p = DecomposeParams::tpl();
        let a = IlpDecomposer::new().decompose_unbounded(&g, &p);
        let b = BipDecomposer::new().decompose_unbounded(&g, &p);
        prop_assert!((a.cost.value(0.1) - b.cost.value(0.1)).abs() < 1e-9,
            "BB {:?} vs BIP {:?}", a.cost, b.cost);
    }

    #[test]
    fn quadruple_never_costs_more_than_triple(g in arb_hetero()) {
        let t = IlpDecomposer::new().decompose_unbounded(&g, &DecomposeParams::tpl());
        let q = IlpDecomposer::new().decompose_unbounded(&g, &DecomposeParams::qpl());
        prop_assert!(q.cost.value(0.1) <= t.cost.value(0.1) + 1e-9);
    }

    #[test]
    fn colorings_are_always_in_range(g in arb_hetero()) {
        let p = DecomposeParams::tpl();
        let d = IlpDecomposer::new().decompose_unbounded(&g, &p);
        prop_assert_eq!(d.coloring.len(), g.num_nodes());
        prop_assert!(d.coloring.iter().all(|&c| c < p.k));
    }
}
