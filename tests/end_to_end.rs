//! End-to-end test of the adaptive framework: offline training on a few
//! circuits, online decomposition of a held-out circuit, checked against
//! the exact optimum.

use mpld::{prepare, run_pipeline, train_framework, Engine, OfflineConfig, Session, TrainingData};
use mpld_gnn::TrainConfig;
use mpld_graph::DecomposeParams;
use mpld_ilp::IlpDecomposer;
use mpld_layout::iscas_suite;

mod oracle;

fn quick_config() -> OfflineConfig {
    OfflineConfig {
        rgcn: TrainConfig {
            epochs: 4,
            lr: 0.01,
            batch: 16,
            balance: true,
        },
        ..OfflineConfig::default()
    }
}

#[test]
fn adaptive_framework_is_optimal_on_held_out_circuit() {
    let params = DecomposeParams::tpl();
    let suite = iscas_suite();

    // Train on C499 + C880, hold out C432.
    let train_preps: Vec<_> = suite[1..3]
        .iter()
        .map(|c| prepare(&c.generate(), &params))
        .collect();
    let mut data = TrainingData::default();
    for p in &train_preps {
        data.add_layout_capped(p, &params, 60);
    }
    let fw = train_framework(&data, &params, &quick_config());

    let test = prepare(&suite[0].generate(), &params);
    let adaptive = fw.decompose_prepared(&test);
    let optimal = run_pipeline(&test, &IlpDecomposer::new(), &params);

    // The paper's headline: the adaptive framework preserves optimality.
    assert_eq!(
        adaptive.pipeline.cost.value(params.alpha),
        optimal.cost.value(params.alpha),
        "adaptive decomposition is not optimal: {:?} vs {:?}",
        adaptive.pipeline.cost,
        optimal.cost
    );

    // Every unit was routed somewhere and the counts add up.
    let u = &adaptive.usage;
    assert_eq!(u.matching + u.colorgnn + u.ilp + u.ec, test.units.len());
    assert!(
        u.colorgnn + u.matching > 0,
        "no GNN-driven decompositions at all"
    );
}

#[test]
fn batched_framework_agrees_with_the_per_unit_oracle() {
    let params = DecomposeParams::tpl();
    let suite = iscas_suite();
    let train_prep = prepare(&suite[1].generate(), &params);
    let mut data = TrainingData::default();
    data.add_layout_capped(&train_prep, &params, 50);
    let fw = train_framework(&data, &params, &quick_config());

    let test = prepare(&suite[0].generate(), &params);
    let batched = fw.decompose_prepared(&test);
    let unbatched = oracle::decompose_per_unit(&fw, &test);
    // Engines may differ only through ColorGNN randomness; the cost value
    // must agree because both paths guard ColorGNN results and fall back
    // to exact engines otherwise.
    assert_eq!(
        batched.pipeline.cost.value(params.alpha),
        unbatched.pipeline.cost.value(params.alpha)
    );
    assert_eq!(batched.usage.matching, unbatched.matched);
}

#[test]
fn parallel_adaptive_matches_serial_across_thread_counts() {
    let params = DecomposeParams::tpl();
    let suite = iscas_suite();
    let train_prep = prepare(&suite[1].generate(), &params);
    let mut data = TrainingData::default();
    data.add_layout_capped(&train_prep, &params, 50);
    let fw = train_framework(&data, &params, &quick_config());
    let test = prepare(&suite[0].generate(), &params);

    // Every run starts the same ColorGNN stream on its own cold engine,
    // so every tail solves afresh and any difference could only come
    // from the tail's thread count.
    let run = |threads: usize| {
        let mut session = Session::new(99);
        session.threads = threads;
        Engine::new(oracle::cold_copy(&fw))
            .decompose(&test, &mut session)
            .expect("decomposes")
    };
    let serial = run(1);
    assert!(
        serial.unit_outcomes.iter().any(|o| !o.time.is_zero()),
        "the tail must solve something"
    );
    let optimal = run_pipeline(&test, &IlpDecomposer::new(), &params);
    assert_eq!(
        serial.pipeline.cost.value(params.alpha),
        optimal.cost.value(params.alpha)
    );

    for threads in [1usize, 2, 8] {
        let par = run(threads);
        assert_eq!(
            par.pipeline.decomposition, serial.pipeline.decomposition,
            "coloring diverged at {threads} threads"
        );
        assert_eq!(
            par.usage, serial.usage,
            "usage diverged at {threads} threads"
        );
        assert_eq!(
            par.unit_engines, serial.unit_engines,
            "per-unit engines diverged at {threads} threads"
        );
        assert_eq!(
            par.memo_hits, serial.memo_hits,
            "memo transfers diverged at {threads} threads"
        );
        // Memoized transfers are re-verified against each member's own
        // cost function inside the framework; check the assembled
        // coloring is valid end to end as well.
        assert_eq!(
            par.pipeline
                .decomposition
                .feature_colors
                .iter()
                .filter(|&&c| usize::from(c) >= usize::from(params.k))
                .count(),
            0
        );
    }
}

#[test]
fn memo_cache_transfers_are_reverified_and_optimal() {
    // C880 has the largest unit tail of the suite generators, so it is the
    // layout where isomorphic-unit dedup actually triggers.
    let params = DecomposeParams::tpl();
    let suite = iscas_suite();
    let train_prep = prepare(&suite[0].generate(), &params);
    let mut data = TrainingData::default();
    data.add_layout_capped(&train_prep, &params, 50);
    let mut fw = train_framework(&data, &params, &quick_config());
    // ColorGNN off: every unmatched unit reaches the tail, so whether the
    // tail holds isomorphic units does not depend on which units the
    // session's ColorGNN draw happens to color.
    fw.use_colorgnn = false;

    let test = prepare(&suite[2].generate(), &params);
    let mut session = Session::new(7);
    session.threads = 2;
    let par = Engine::new(oracle::cold_copy(&fw))
        .decompose(&test, &mut session)
        .expect("decomposes");
    assert!(
        par.memo_hits > 0,
        "C880's tail must transfer isomorphic units"
    );
    let optimal = run_pipeline(&test, &IlpDecomposer::new(), &params);
    // Every transferred coloring passed the member-graph re-verification,
    // so the assembled cost must still be exactly optimal.
    assert_eq!(
        par.pipeline.cost.value(params.alpha),
        optimal.cost.value(params.alpha)
    );
    // A cold tail on the calling thread answers every unit identically.
    let serial = Engine::new(fw)
        .decompose(&test, &mut Session::new(7))
        .expect("decomposes");
    assert_eq!(serial.pipeline.decomposition, par.pipeline.decomposition);
    assert_eq!(serial.memo_hits, par.memo_hits);
}

#[test]
fn quadruple_patterning_pipeline_is_trivially_free() {
    // At k = 4 the hide-small-degree rule (conflict degree < 4) strips the
    // benchmark layouts almost entirely — greedy recovery colors them with
    // zero cost. This is the "more masks make decomposition easy" story
    // behind the paper's flexibility claim.
    let params = DecomposeParams::qpl();
    let suite = iscas_suite();
    let mut tpl_total = 0.0;
    for circuit in &suite[..3] {
        let prep = prepare(&circuit.generate(), &params);
        let r = run_pipeline(&prep, &IlpDecomposer::new(), &params);
        assert_eq!(
            r.cost.value(params.alpha),
            0.0,
            "{} should be free at k = 4, got {}",
            circuit.name,
            r.cost
        );
        assert!(r.decomposition.feature_colors.iter().all(|&c| c < 4));
        // The TPL decomposition of the same circuits costs something.
        let tpl_prep = prepare(&circuit.generate(), &DecomposeParams::tpl());
        let tpl = run_pipeline(&tpl_prep, &IlpDecomposer::new(), &DecomposeParams::tpl());
        tpl_total += tpl.cost.value(0.1);
    }
    // Which individual circuit is non-free at k = 3 depends on the
    // generator's RNG stream, but the suite as a whole must not be: if
    // every layout were free at TPL the benchmark would say nothing.
    assert!(
        tpl_total > 0.0,
        "all of C432/C499/C880 unexpectedly free at k = 3"
    );
}

#[test]
fn disabling_colorgnn_preserves_cost() {
    let params = DecomposeParams::tpl();
    let suite = iscas_suite();
    let train_prep = prepare(&suite[2].generate(), &params);
    let mut data = TrainingData::default();
    data.add_layout_capped(&train_prep, &params, 50);
    let mut fw = train_framework(&data, &params, &quick_config());

    let test = prepare(&suite[0].generate(), &params);
    fw.use_colorgnn = true;
    let with_gnn = fw.decompose_prepared(&test);
    fw.use_colorgnn = false;
    let without = fw.decompose_prepared(&test);
    assert_eq!(
        with_gnn.pipeline.cost.value(params.alpha),
        without.pipeline.cost.value(params.alpha),
        "'Ours' and 'Ours w. GNN' must both stay optimal"
    );
    assert_eq!(without.usage.colorgnn, 0);
}
