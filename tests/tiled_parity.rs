//! Tiled preprocessing against the whole-layout oracle.
//!
//! The tiling contract has two halves, and both are tested here:
//!
//! 1. **Edge exactness** — for any halo ≥ d and any tile span, the tiled
//!    conflict-edge set equals the monolithic [`GridIndex`] sweep's,
//!    emitted exactly once. Exercised with a halo-width × tile-span
//!    sweep over benchmark circuits, hand-built layouts whose features
//!    straddle tile edges, and seeded generator layouts (a deterministic
//!    property sweep).
//! 2. **End-to-end parity** — because the reconstructed
//!    [`PreparedLayout`] is bit-identical, a tiled run through the
//!    service [`Engine`] reproduces the serial oracle's decomposition,
//!    cost, engines, and usage exactly.

use mpld::{
    prepare, prepare_tiled, train_framework, AdaptiveResult, Engine, OfflineConfig, Session,
    TiledProgress, TilingConfig, TrainingData,
};
use mpld_geometry::{Feature, GridIndex, Rect};
use mpld_graph::DecomposeParams;
use mpld_layout::{circuit_by_name, generate_layout, GeneratorParams, Layout};

mod oracle;

const SEED: u64 = 0xD15EA5E;

fn quiet() -> impl Fn(TiledProgress) + Sync {
    |_| {}
}

/// The oracle: one flat spatial sweep over the whole layout.
fn oracle_edges(layout: &Layout) -> Vec<(u32, u32)> {
    let index = GridIndex::build(&layout.features, layout.d);
    index
        .conflict_pairs(&layout.features, layout.d)
        .into_iter()
        .map(|(a, b)| (a as u32, b as u32))
        .collect()
}

#[test]
fn halo_and_span_sweep_matches_the_oracle_on_circuits() {
    let params = DecomposeParams::tpl();
    for name in ["C432", "C499"] {
        let layout = circuit_by_name(name).expect("exists").generate();
        let d = layout.d;
        let oracle = oracle_edges(&layout);
        let mono = prepare(&layout, &params);
        for halo in [0, d, d + d / 2, 2 * d, 4 * d] {
            for span in [2 * d, 7 * d, 48 * d] {
                let config = TilingConfig {
                    tile_span: span,
                    halo,
                    threads: 1,
                };
                let tp = prepare_tiled(&layout, &params, &config, &quiet());
                assert_eq!(
                    tp.prep.graph.conflict_edges(),
                    oracle.as_slice(),
                    "{name}: halo {halo}, span {span}"
                );
                assert_eq!(tp.stats.edges, oracle.len());
                // Bit-identical prepared layout, not merely the same edges.
                assert_eq!(
                    tp.prep.graph, mono.graph,
                    "{name}: halo {halo}, span {span}"
                );
                assert_eq!(tp.prep.units.len(), mono.units.len());
                for (a, b) in tp.prep.units.iter().zip(&mono.units) {
                    assert_eq!(a.hetero, b.hetero);
                    assert_eq!(a.unit_index, b.unit_index);
                }
            }
        }
    }
}

#[test]
fn features_straddling_tile_edges_keep_their_conflicts() {
    let d = 100i64;
    let span = 2 * d; // tiny tiles: every feature below touches a boundary
                      // A horizontal bar crossing several tile columns, with close
                      // neighbors above it in different tiles, plus a pair whose gap
                      // straddles a tile edge exactly.
    let features = vec![
        Feature::new(0, vec![Rect::new(-350, 0, 950, 40)]),
        Feature::new(1, vec![Rect::new(-300, 90, -200, 130)]),
        Feature::new(2, vec![Rect::new(180, 90, 260, 130)]),
        Feature::new(3, vec![Rect::new(820, 90, 940, 130)]),
        // Gap of d-1 across x = 400 (a tile edge for span 200).
        Feature::new(4, vec![Rect::new(340, 400, 399, 440)]),
        Feature::new(5, vec![Rect::new(498, 400, 560, 440)]),
        // Far-away feature: must stay isolated.
        Feature::new(6, vec![Rect::new(5000, 5000, 5050, 5050)]),
    ];
    let layout = Layout {
        name: "straddle".into(),
        d,
        features,
    };
    let oracle = oracle_edges(&layout);
    assert!(
        oracle.contains(&(0, 1)) && oracle.contains(&(0, 2)) && oracle.contains(&(0, 3)),
        "the bar must conflict with all three neighbors: {oracle:?}"
    );
    assert!(oracle.contains(&(4, 5)), "cross-edge pair: {oracle:?}");
    assert!(oracle.iter().all(|&(a, b)| a != 6 && b != 6));

    let params = DecomposeParams::tpl();
    let config = TilingConfig {
        tile_span: span,
        halo: 0,
        threads: 1,
    };
    let tp = prepare_tiled(&layout, &params, &config, &quiet());
    assert_eq!(tp.prep.graph.conflict_edges(), oracle.as_slice());
    assert!(tp.stats.tiles_x >= 6, "the bar spans many tile columns");
    assert!(tp.stats.boundary_edges > 0);
}

/// Deterministic property sweep: seeded generator layouts of varying
/// shapes, checked at a tile span small enough to force heavy
/// replication. Any dropped or duplicated halo edge fails here.
#[test]
fn generated_layouts_match_the_oracle_across_seeds() {
    let params = DecomposeParams::tpl();
    for seed in 1..=8u64 {
        let d = 100;
        let gen_params = GeneratorParams {
            tracks: 12 + (seed as usize % 5),
            track_units: 20,
            seed,
            ..Default::default()
        };
        let layout = generate_layout("sweep", d, &gen_params);
        let oracle = oracle_edges(&layout);
        assert!(!oracle.is_empty(), "seed {seed} generated no conflicts");
        for span in [2 * d, 5 * d] {
            let config = TilingConfig {
                tile_span: span,
                halo: 0,
                threads: 2, // edge discovery is pure geometry: thread-count independent
            };
            let tp = prepare_tiled(&layout, &params, &config, &quiet());
            assert_eq!(
                tp.prep.graph.conflict_edges(),
                oracle.as_slice(),
                "seed {seed}, span {span}"
            );
        }
    }
}

#[test]
fn undersized_halo_is_clamped_to_the_soundness_minimum() {
    let layout = circuit_by_name("C432").expect("exists").generate();
    let params = DecomposeParams::tpl();
    let config = TilingConfig {
        tile_span: 3 * layout.d,
        halo: 1, // far below d: must be clamped, not trusted
        threads: 1,
    };
    let tp = prepare_tiled(&layout, &params, &config, &quiet());
    assert_eq!(tp.stats.halo, layout.d);
    assert_eq!(tp.prep.graph, prepare(&layout, &params).graph);
}

/// End-to-end: a tiled prepared layout pushed through the service engine
/// reproduces the serial oracle bit for bit, boundary re-solves and all.
#[test]
fn tiled_run_reproduces_the_serial_oracle_digest() {
    let params = DecomposeParams::tpl();
    let train = prepare(
        &circuit_by_name("C499").expect("exists").generate(),
        &params,
    );
    let mut data = TrainingData::default();
    data.add_layout_capped(&train, &params, 40);
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 2;
    cfg.colorgnn.epochs = 1;
    let fw = train_framework(&data, &params, &cfg);

    let layout = circuit_by_name("C432").expect("exists").generate();
    let config = TilingConfig {
        tile_span: 2 * layout.d, // force many tiles and boundary units
        halo: 0,
        threads: 2,
    };
    let tp = prepare_tiled(&layout, &params, &config, &quiet());
    assert!(
        tp.stats.boundary_resolves > 0,
        "want boundary units in play"
    );

    // Each run solves its tail on its own cold engine.
    let serial = Engine::new(oracle::cold_copy(&fw))
        .decompose(&prepare(&layout, &params), &mut Session::new(SEED))
        .expect("decomposes");
    let tiled = Engine::new(fw)
        .decompose(&tp.prep, &mut Session::new(SEED))
        .expect("decomposes");

    let digest = |r: &AdaptiveResult| {
        (
            r.pipeline.decomposition.clone(),
            r.pipeline.cost,
            r.unit_engines.clone(),
            r.usage,
        )
    };
    assert_eq!(digest(&tiled), digest(&serial));

    // The independent Eq. 1 audit agrees with every boundary unit's
    // reported cost.
    let (audited, clean) =
        mpld::audit_boundary_units(&tp.prep, &tiled, &tp.boundary_units, params.k);
    assert_eq!(audited, tp.boundary_units.len());
    assert!(clean);
}
