//! Both preparation entry points against a reference flow that shares no
//! tail with them.
//!
//! [`prepare`] (a whole in-memory sweep) and [`prepare_tiled_file`] (a
//! layout file streamed through the tiler) hand their edges to one shared
//! preparation tail, so comparing them with each other no longer checks
//! the tail. Each is compared here with [`reference_prepare`], a whole
//! sweep with its own graph construction, occurrence count and stitch
//! loop, written out in this file.
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
//!    service [`Engine`] reproduces the reference flow's decomposition,
//!    cost, engines, and usage exactly.
//!
//! The chip-scale comparison (the 100k-rect layout of
//! `scripts/chip_scale_smoke.sh`, plus every suite circuit) is
//! `#[ignore]`d; run it in release with
//! `cargo test --release -p mpld --test tiled_parity -- --include-ignored`.

use mpld::{
    prepare, prepare_tiled_file, train_framework, AdaptiveResult, Engine, OfflineConfig,
    PreparedLayout, Session, TiledPrepared, TiledProgress, TilingConfig, TrainingData,
    UnitInstance,
};
use mpld_geometry::{Feature, GridIndex, Rect};
use mpld_graph::simplify::{simplify, SimplifyOptions};
use mpld_graph::{DecomposeParams, LayoutGraph};
use mpld_layout::{
    circuit_by_name, generate_layout, generate_layout_streaming, insert_stitch_candidates_masked,
    iscas_suite, read_layout, write_layout, GeneratorParams, Layout, LayoutWriter, ReadLimits,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The reference flow: graph from the oracle sweep, level-3
/// simplification, then stitch insertion unit by unit with articulation
/// features (present in more than one unit) kept whole.
fn reference_prepare(layout: &Layout, params: &DecomposeParams) -> PreparedLayout {
    let graph = LayoutGraph::homogeneous(layout.features.len(), oracle_edges(layout))
        .expect("the oracle sweep yields a valid graph");
    let simplified = simplify(&graph, params.k, SimplifyOptions::default());

    let mut occurrences: HashMap<u32, usize> = HashMap::new();
    for unit in simplified.units() {
        for &g in &unit.global_nodes {
            *occurrences.entry(g).or_insert(0) += 1;
        }
    }

    let mut units = Vec::new();
    for unit in simplified.units() {
        let feats: Vec<Feature> = unit
            .global_nodes
            .iter()
            .map(|&g| layout.features[g as usize].clone())
            .collect();
        let splittable: Vec<bool> = unit
            .global_nodes
            .iter()
            .map(|g| occurrences[g] == 1)
            .collect();
        let stitched = insert_stitch_candidates_masked(&feats, layout.d, &splittable)
            .expect("unit geometry is valid");
        units.push(UnitInstance {
            hetero: stitched.graph,
        });
    }

    PreparedLayout {
        name: layout.name.clone(),
        graph,
        simplified,
        units,
        d: layout.d,
    }
}

/// Field-by-field equality of two prepared layouts.
fn assert_same_prep(got: &PreparedLayout, want: &PreparedLayout, what: &str) {
    assert_eq!(got.name, want.name, "{what}: name");
    assert_eq!(got.d, want.d, "{what}: d");
    assert_eq!(got.graph, want.graph, "{what}: graph");
    assert_eq!(got.units.len(), want.units.len(), "{what}: unit count");
    for (i, (a, b)) in got.units.iter().zip(&want.units).enumerate() {
        assert_eq!(a.hetero, b.hetero, "{what}: unit {i} hetero");
    }
}

/// A fresh path under the system temp dir, removed on drop.
struct TempLayout(PathBuf);

impl TempLayout {
    fn new() -> TempLayout {
        static FILES: AtomicU64 = AtomicU64::new(0);
        TempLayout(std::env::temp_dir().join(format!(
            "mpld-tiled-parity-{}-{}.mpld",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        )))
    }

    /// `layout` written to a fresh temp file.
    fn write(layout: &Layout) -> TempLayout {
        let file = TempLayout::new();
        let mut buf = Vec::new();
        write_layout(layout, &mut buf).expect("write");
        std::fs::write(&file.0, &buf).expect("write file");
        file
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempLayout {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Prepares the layout file through the tiler.
fn tiled(file: &TempLayout, config: &TilingConfig) -> TiledPrepared {
    prepare_tiled_file(
        file.path(),
        &ReadLimits::unlimited(),
        &DecomposeParams::tpl(),
        config,
        &quiet(),
    )
    .expect("tiled prepare")
}

/// `layout` with its features renumbered in a shuffled order, so the id
/// lists of tiles and units break into many short runs.
fn shuffled(layout: &Layout, seed: u64) -> Layout {
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut order: Vec<&Feature> = layout.features.iter().collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    Layout {
        name: layout.name.clone(),
        d: layout.d,
        features: order
            .iter()
            .enumerate()
            .map(|(id, f)| Feature::new(id as u32, f.rects().to_vec()))
            .collect(),
    }
}

/// Asserts that [`prepare`] and the tiler at threads 1 and 2 (default
/// tiling) each equal the reference flow on `layout`; returns the tiler's
/// output at threads 2.
fn assert_both_paths_match_the_reference(layout: &Layout) -> TiledPrepared {
    let params = DecomposeParams::tpl();
    let reference = reference_prepare(layout, &params);
    assert_same_prep(&prepare(layout, &params), &reference, "prepare");
    let file = TempLayout::write(layout);
    let [one, two] = [1, 2].map(|threads| {
        let tp = tiled(
            &file,
            &TilingConfig {
                threads,
                ..TilingConfig::default()
            },
        );
        assert_same_prep(&tp.prep, &reference, &format!("tiler, {threads} threads"));
        tp
    });
    assert_eq!(one.stats, two.stats);
    assert_eq!(one.boundary_units, two.boundary_units);
    two
}

/// Two biconnected blocks that survive degree pruning and share one long
/// wire, feature 0. Block A is a ring: feature 0, a parallel wire 1 above
/// it, and two pairs of squares between them at the left and right ends,
/// so stitch insertion within block A would find a cut in the middle of
/// either wire. Block B is a K4 of feature 0 and three squares below its
/// middle. Feature 0 is an articulation feature and must stay whole.
fn articulation_layout() -> Layout {
    let rect = |x0, y0, x1, y1| vec![Rect::new(x0, y0, x1, y1)];
    let rects = [
        rect(0, 0, 1000, 40),    // 0: the shared wire
        rect(0, 190, 1000, 230), // 1: block A's upper wire
        rect(0, 90, 40, 130),    // 2, 3: block A, left pair
        rect(80, 90, 120, 130),
        rect(880, 90, 920, 130), // 4, 5: block A, right pair
        rect(960, 90, 1000, 130),
        rect(440, -70, 470, -50), // 6, 7, 8: block B
        rect(490, -70, 520, -50),
        rect(465, -120, 495, -95),
    ];
    Layout {
        name: "articulation".into(),
        d: 100,
        features: rects
            .into_iter()
            .enumerate()
            .map(|(id, r)| Feature::new(id as u32, r))
            .collect(),
    }
}

#[test]
fn prepare_and_the_tiler_match_the_reference_flow() {
    let c432 = circuit_by_name("C432").expect("exists").generate();
    let c499 = circuit_by_name("C499").expect("exists").generate();
    let articulation = articulation_layout();
    for layout in [&c432, &c499, &shuffled(&c432, 7), &articulation] {
        assert_both_paths_match_the_reference(layout);
    }
    // The shared wire sits in both blocks' units, and block A's upper
    // wire, present in one unit only, is split there.
    let prep = prepare(&articulation, &DecomposeParams::tpl());
    let units = prep.simplified.units();
    assert_eq!(units.len(), 2);
    let holding = |f: u32| units.iter().filter(|u| u.global_nodes.contains(&f)).count();
    assert_eq!((holding(0), holding(1)), (2, 1));
    assert!(prep
        .units
        .iter()
        .any(|u| !u.hetero.stitch_edges().is_empty()));
}

#[test]
fn halo_and_span_sweep_matches_the_oracle_on_circuits() {
    let params = DecomposeParams::tpl();
    for name in ["C432", "C499"] {
        let layout = circuit_by_name(name).expect("exists").generate();
        let d = layout.d;
        let oracle = oracle_edges(&layout);
        let reference = reference_prepare(&layout, &params);
        let file = TempLayout::write(&layout);
        for halo in [0, d, d + d / 2, 2 * d, 4 * d] {
            for span in [2 * d, 7 * d, 48 * d] {
                let config = TilingConfig {
                    tile_span: span,
                    halo,
                    threads: 1,
                };
                let tp = tiled(&file, &config);
                assert_eq!(
                    tp.prep.graph.conflict_edges(),
                    oracle.as_slice(),
                    "{name}: halo {halo}, span {span}"
                );
                assert_eq!(tp.stats.edges, oracle.len());
                // Bit-identical prepared layout, not merely the same edges.
                assert_same_prep(
                    &tp.prep,
                    &reference,
                    &format!("{name}: halo {halo}, span {span}"),
                );
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

    let config = TilingConfig {
        tile_span: span,
        halo: 0,
        threads: 1,
    };
    let tp = tiled(&TempLayout::write(&layout), &config);
    assert_eq!(tp.prep.graph.conflict_edges(), oracle.as_slice());
    assert!(tp.stats.tiles_x >= 6, "the bar spans many tile columns");
    assert!(tp.stats.boundary_edges > 0);
}

/// Deterministic property sweep: seeded generator layouts of varying
/// shapes, checked at a tile span small enough to force heavy
/// replication. Any dropped or duplicated halo edge fails here.
#[test]
fn generated_layouts_match_the_oracle_across_seeds() {
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
        let file = TempLayout::write(&layout);
        for span in [2 * d, 5 * d] {
            let config = TilingConfig {
                tile_span: span,
                halo: 0,
                threads: 2, // edge discovery is pure geometry: thread-count independent
            };
            let tp = tiled(&file, &config);
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
    let tp = tiled(&TempLayout::write(&layout), &config);
    assert_eq!(tp.stats.halo, layout.d);
    assert_eq!(tp.prep.graph, reference_prepare(&layout, &params).graph);
}

/// End-to-end: a tiled prepared layout pushed through the service engine
/// reproduces the reference flow's run bit for bit, boundary re-solves
/// and all.
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
    let tp = tiled(&TempLayout::write(&layout), &config);
    assert!(
        tp.stats.boundary_resolves > 0,
        "want boundary units in play"
    );

    // Each run solves its tail on its own cold engine.
    let serial = Engine::new(oracle::cold_copy(&fw))
        .decompose(
            &reference_prepare(&layout, &params),
            &mut Session::new(SEED),
        )
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

/// Chip scale: the layout `mpld gen --rects 100000 --seed 5` writes
/// (d = 100, stopped at 100,000 rects as `mpld gen` stops), through the
/// tiler at threads 1 and 2 and through [`prepare`], each equal to the
/// reference flow; then every suite circuit the same way.
#[test]
#[ignore = "chip scale: run in release with --include-ignored"]
fn chip_scale_layout_and_the_suite_match_the_reference_flow() {
    const RECTS: u64 = 100_000;
    let file = TempLayout::new();
    {
        let out = std::fs::File::create(file.path()).expect("create layout");
        let mut writer =
            LayoutWriter::new(std::io::BufWriter::new(out), "chip", 100).expect("header");
        let mut written = 0u64;
        generate_layout_streaming(100, &GeneratorParams::sized(RECTS, 5), |f| {
            writer.feature(&f).expect("write feature");
            written += f.rects().len() as u64;
            written < RECTS
        });
        writer.finish().expect("finish layout");
        assert!(written >= RECTS, "generator sizing underestimated {RECTS}");
    }
    let layout = read_layout(std::io::BufReader::new(
        std::fs::File::open(file.path()).expect("layout readable"),
    ))
    .expect("layout parses");
    drop(file);

    let tp = assert_both_paths_match_the_reference(&layout);
    assert!(
        tp.stats.tiles_x * tp.stats.tiles_y > 1,
        "the chip degenerated to one tile"
    );
    assert!(
        !tp.boundary_units.is_empty(),
        "the chip has no unit on a tile boundary"
    );

    for c in iscas_suite() {
        assert_both_paths_match_the_reference(&c.generate());
    }
}
