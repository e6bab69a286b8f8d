//! Routing is decided per distinct graph, and the decisions do not depend
//! on which batch computed a graph's frozen outputs.
//!
//! A graph's frozen RGCN outputs depend on its row offset in the batch by
//! a few ulps, so a routing-memo hit (computed in another request's
//! batch) is not always bitwise what this request's forward would give.
//! The memo is still safe because no decision sits that close to a bar:
//! every representative of the fifteen suite circuits routes the same way
//! from its planned batch as from a forward of its own — same selector
//! and redundancy decisions, same library transfer.
//! And `AdaptiveFramework::route`'s one lookup per representative matches
//! exactly the units a lookup per unit matches.

use std::sync::OnceLock;

use mpld::{
    prepare, train_framework, AdaptiveFramework, BatchPlan, EmbeddingMemo, EngineKind,
    OfflineConfig, PreparedLayout, TrainingData, DEFAULT_MAX_BATCH_NODES,
};
use mpld_gnn::{FrozenOutputs, InferBatch};
use mpld_graph::{audit_decomposition, DecomposeParams, Decomposition, LayoutGraph};
use mpld_layout::{circuit_by_name, iscas_suite};

/// A quickly trained model with the default graph library, and the
/// prepared suite.
fn fixture() -> &'static (AdaptiveFramework, Vec<PreparedLayout>) {
    static FIXTURE: OnceLock<(AdaptiveFramework, Vec<PreparedLayout>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = DecomposeParams::tpl();
        let mut data = TrainingData::default();
        for name in ["C432", "C499"] {
            let prep = prepare(&circuit_by_name(name).expect("exists").generate(), &params);
            data.add_layout_capped(&prep, &params, 40);
        }
        let mut cfg = OfflineConfig::default();
        cfg.rgcn.epochs = 2;
        cfg.colorgnn.epochs = 1;
        let fw = train_framework(&data, &params, &cfg);
        let preps = iscas_suite()
            .iter()
            .map(|c| prepare(&c.generate(), &params))
            .collect();
        (fw, preps)
    })
}

/// One representative's routing outputs.
struct Routed {
    sel: Vec<f32>,
    red: Vec<f32>,
    graph_emb: Vec<f32>,
    node_emb: mpld_tensor::Matrix,
}

fn take(sel: &mut FrozenOutputs, red: &mut FrozenOutputs, bi: usize) -> Routed {
    Routed {
        sel: std::mem::take(&mut sel.probs[bi]),
        red: std::mem::take(&mut red.probs[bi]),
        graph_emb: std::mem::take(&mut sel.graph_embeddings[bi]),
        node_emb: std::mem::replace(
            &mut sel.node_embeddings[bi],
            mpld_tensor::Matrix::zeros(0, 0),
        ),
    }
}

/// The structurally distinct units of `prep` (in first-seen order), each
/// unit's representative slot, and the representatives' outputs from the
/// batch plan routing runs.
fn planned<'a>(
    fw: &AdaptiveFramework,
    prep: &'a PreparedLayout,
) -> (Vec<&'a LayoutGraph>, Vec<usize>, Vec<Routed>) {
    let mut memo = EmbeddingMemo::new();
    let mut reps: Vec<&LayoutGraph> = Vec::new();
    let mut slot = Vec::new();
    for u in &prep.units {
        slot.push(match memo.find(&u.hetero) {
            Some(s) => s,
            None => {
                memo.insert(&u.hetero, reps.len());
                reps.push(&u.hetero);
                reps.len() - 1
            }
        });
    }
    let sizes: Vec<(usize, usize)> = reps
        .iter()
        .map(|g| {
            (
                g.num_nodes(),
                g.conflict_edges().len() + g.stitch_edges().len(),
            )
        })
        .collect();
    let items: Vec<usize> = (0..reps.len()).collect();
    let plan = BatchPlan::new(&items, &sizes, DEFAULT_MAX_BATCH_NODES);
    let (sel, red) = (fw.selector.freeze(), fw.redundancy.freeze());
    let mut out: Vec<Option<Routed>> = (0..reps.len()).map(|_| None).collect();
    for batch in &plan.batches {
        let gs: Vec<&LayoutGraph> = batch.iter().map(|&s| reps[s]).collect();
        let enc = InferBatch::new(&gs);
        let (mut s, mut r) = (sel.infer_encoded(&enc), red.predict_encoded(&enc));
        for (bi, &slot) in batch.iter().enumerate() {
            out[slot] = Some(take(&mut s, &mut r, bi));
        }
    }
    let out = out
        .into_iter()
        .map(|o| o.expect("every representative is planned"))
        .collect();
    (reps, slot, out)
}

/// The audited library transfer `route` keeps for `g`.
fn library_match(fw: &AdaptiveFramework, g: &LayoutGraph, r: &Routed) -> Option<Decomposition> {
    if g.num_nodes() > fw.library.max_nodes() {
        return None;
    }
    fw.library
        .lookup_with_embeddings(g, &r.graph_emb, &r.node_emb)
        .filter(|d| audit_decomposition(g, d, fw.params.k).is_ok())
}

#[test]
fn batched_and_single_forwards_route_every_representative_alike() {
    let (fw, preps) = fixture();
    let (sel, red) = (fw.selector.freeze(), fw.redundancy.freeze());
    let mut bits_differ = 0usize;
    for prep in preps {
        let (reps, _, batched) = planned(fw, prep);
        for (g, b) in reps.iter().zip(&batched) {
            let enc = InferBatch::single(g);
            let alone = take(
                &mut sel.infer_encoded(&enc),
                &mut red.predict_encoded(&enc),
                0,
            );
            bits_differ += usize::from(b.sel != alone.sel || b.red != alone.red);
            assert_eq!(
                b.sel[1] > fw.ec_threshold,
                alone.sel[1] > fw.ec_threshold,
                "{}: selector decision moved ({} vs {})",
                prep.name,
                b.sel[1],
                alone.sel[1]
            );
            assert_eq!(
                b.red[0] > fw.redundancy_bar,
                alone.red[0] > fw.redundancy_bar,
                "{}: redundancy decision moved ({} vs {})",
                prep.name,
                b.red[0],
                alone.red[0]
            );
            assert_eq!(
                library_match(fw, g, b),
                library_match(fw, g, &alone),
                "{}: library match moved",
                prep.name
            );
        }
    }
    // The bits do move with the batch; only the decisions may not.
    assert!(bits_differ > 0, "no representative's bits moved");
}

#[test]
fn one_lookup_per_representative_matches_the_per_unit_lookups() {
    let (fw, preps) = fixture();
    let mut matched = 0usize;
    for prep in preps {
        let (_, slot, routed) = planned(fw, prep);
        let r = fw.decompose_prepared(prep);
        for (i, u) in prep.units.iter().enumerate() {
            let per_unit = library_match(fw, &u.hetero, &routed[slot[i]]);
            assert_eq!(
                per_unit.is_some(),
                r.unit_engines[i] == EngineKind::Matching,
                "{} unit {i}",
                prep.name
            );
            matched += usize::from(per_unit.is_some());
        }
        assert_eq!(
            r.usage.matching,
            r.unit_engines
                .iter()
                .filter(|&&e| e == EngineKind::Matching)
                .count()
        );
    }
    assert!(matched > 0, "the suite must exercise library matching");
}
