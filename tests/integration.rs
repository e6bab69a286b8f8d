//! Cross-crate integration tests: the preprocessing pipeline, the four
//! decomposition engines, and the graph library must agree on the same
//! benchmark data.

use mpld::{prepare, run_pipeline, PreparedLayout};
use mpld_ec::EcDecomposer;
use mpld_gnn::RgcnClassifier;
use mpld_graph::{DecomposeParams, Decomposer};
use mpld_ilp::encode::BipDecomposer;
use mpld_ilp::IlpDecomposer;
use mpld_layout::circuit_by_name;
use mpld_matching::{GraphLibrary, LibraryConfig};
use mpld_sdp::SdpDecomposer;

fn prep(name: &str) -> PreparedLayout {
    let layout = circuit_by_name(name).expect("known circuit").generate();
    prepare(&layout, &DecomposeParams::tpl())
}

#[test]
fn every_engine_produces_valid_colorings() {
    let params = DecomposeParams::tpl();
    let p = prep("C432");
    let engines: Vec<Box<dyn Decomposer>> = vec![
        Box::new(IlpDecomposer::new()),
        Box::new(SdpDecomposer::new()),
        Box::new(EcDecomposer::new()),
    ];
    for engine in &engines {
        let r = run_pipeline(&p, engine.as_ref(), &params);
        assert_eq!(r.decomposition.feature_colors.len(), p.graph.num_nodes());
        assert!(r.decomposition.feature_colors.iter().all(|&c| c < params.k));
        for (u, coloring) in p
            .units
            .iter()
            .zip(&r.decomposition.unit_subfeature_colorings)
        {
            assert_eq!(coloring.len(), u.hetero.num_nodes());
        }
    }
}

#[test]
fn exact_engines_agree_and_heuristics_never_beat_them() {
    let params = DecomposeParams::tpl();
    let p = prep("C432");
    let bb = run_pipeline(&p, &IlpDecomposer::new(), &params);
    let bip = run_pipeline(&p, &BipDecomposer::new(), &params);
    let ec = run_pipeline(&p, &EcDecomposer::new(), &params);
    let sdp = run_pipeline(&p, &SdpDecomposer::new(), &params);
    let a = params.alpha;
    assert!(
        (bb.cost.value(a) - bip.cost.value(a)).abs() < 1e-9,
        "exact engines disagree"
    );
    assert!(ec.cost.value(a) >= bb.cost.value(a) - 1e-9);
    assert!(sdp.cost.value(a) >= bb.cost.value(a) - 1e-9);
}

#[test]
fn unit_costs_sum_to_total() {
    let params = DecomposeParams::tpl();
    let p = prep("C499");
    let r = run_pipeline(&p, &IlpDecomposer::new(), &params);
    let sum = r
        .unit_costs
        .iter()
        .fold(mpld_graph::CostBreakdown::default(), |acc, &c| {
            acc.combine(c)
        });
    assert_eq!(r.cost, sum);
}

#[test]
fn library_matches_are_exactly_optimal_on_real_units() {
    // Every library hit on real benchmark units must equal the exact
    // optimum — matching can accelerate, never degrade.
    let params = DecomposeParams::tpl();
    let p = prep("C432");
    let embedder = RgcnClassifier::selector(0xBEEF);
    let cfg = LibraryConfig::default();
    let library = GraphLibrary::build(&embedder, &cfg, &params);
    let ilp = IlpDecomposer::new();
    let mut hits = 0;
    for unit in &p.units {
        if let Some(d) = library.lookup(&embedder, &unit.hetero) {
            let opt = ilp.decompose_unbounded(&unit.hetero, &params);
            assert_eq!(
                d.cost.value(params.alpha),
                opt.cost.value(params.alpha),
                "library transfer is suboptimal on a real unit"
            );
            hits += 1;
        }
    }
    assert!(hits > 0, "the library never matched anything on C432");
}

#[test]
fn stitch_insertion_only_splits_within_components() {
    let p = prep("C880");
    for (unit, s) in p.units.iter().zip(p.simplified.units()) {
        let s_graph = p.graph.induced_subgraph(&s.global_nodes).0;
        // Subfeature count >= feature count; features map into the unit.
        assert!(unit.hetero.num_nodes() >= s_graph.num_nodes());
        assert_eq!(unit.hetero.num_features(), s_graph.num_nodes());
        // Feature-level conflict structure is preserved: merging stitch
        // edges yields at least the unit's conflict edges.
        let (parent, _) = unit.hetero.merge_stitch_edges();
        assert_eq!(parent.num_nodes(), s_graph.num_nodes());
        for &(a, b) in s_graph.conflict_edges() {
            assert!(
                parent.conflict_neighbors(a).contains(&b),
                "feature-level conflict lost by stitch insertion"
            );
        }
    }
}

#[test]
fn quadruple_patterning_costs_at_most_triple() {
    let p = prep("C499");
    let tpl = run_pipeline(&p, &IlpDecomposer::new(), &DecomposeParams::tpl());
    // Note: stitch insertion was done for TPL, but more masks can only help
    // the coloring stage.
    let qpl = run_pipeline(&p, &IlpDecomposer::new(), &DecomposeParams::qpl());
    assert!(qpl.cost.value(0.1) <= tpl.cost.value(0.1) + 1e-9);
}
