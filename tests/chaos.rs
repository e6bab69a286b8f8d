//! Chaos suite: under random deterministic fault injection (panics,
//! engine errors, delays, and wrong colorings at every named failpoint
//! site), the adaptive pipeline must still return `Ok`, every final
//! per-unit coloring must pass the independent audit, and no panic may
//! escape to the caller.
//!
//! Compiled only with `--features failpoints`; without the feature this
//! binary is empty.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

/// Serializes the tests in this binary: the failpoint registry and the
/// panic hook are process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

use mpld::{
    prepare, train_framework, AdaptiveFramework, AdaptiveResult, Engine, EngineKind,
    LayoutDecomposition, OfflineConfig, PreparedLayout, Session, TrainingData,
};
use mpld_graph::{audit_coloring, failpoints, graphs_identical, DecomposeParams, LayoutGraph};
use mpld_layout::circuit_by_name;

mod oracle;

fn offline_config() -> OfflineConfig {
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 1;
    cfg.colorgnn.epochs = 1;
    cfg.library = mpld_matching::LibraryConfig {
        max_parent_size: 4,
        max_splits: 1,
        max_nodes: 5,
        stitches: false,
    };
    cfg
}

/// Serialized model + test layout, trained once for the file.
fn fixture() -> &'static (Vec<u8>, PreparedLayout) {
    static FIXTURE: OnceLock<(Vec<u8>, PreparedLayout)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = DecomposeParams::tpl();
        let layout = circuit_by_name("C432").expect("exists").generate();
        let prep = prepare(&layout, &params);
        let mut data = TrainingData::default();
        data.add_layout_capped(&prep, &params, 8);
        let fw = train_framework(&data, &params, &offline_config());
        let mut bytes = Vec::new();
        fw.save(&mut bytes).expect("serialize to Vec");
        (bytes, prep)
    })
}

/// A fresh copy of the fixture model (the tiny library rebuilds fast;
/// the rebuild runs the exact engine, so failpoints must be off).
fn framework() -> AdaptiveFramework {
    let (bytes, _) = fixture();
    AdaptiveFramework::load(bytes.as_slice(), &DecomposeParams::tpl(), &offline_config())
        .expect("fixture model loads")
}

/// Every final per-unit coloring covers its unit and passes the audit.
fn assert_audit_clean(prep: &PreparedLayout, decomposition: &LayoutDecomposition) {
    for (u, coloring) in prep
        .units
        .iter()
        .zip(&decomposition.unit_subfeature_colorings)
    {
        assert_eq!(coloring.len(), u.hetero.num_nodes(), "full coverage");
        audit_coloring(&u.hetero, coloring, DecomposeParams::tpl().k)
            .expect("every final coloring passes the independent audit");
    }
}

/// The chaos invariants for one faulted run.
fn assert_chaos_contract(prep: &PreparedLayout, r: &AdaptiveResult) {
    assert_audit_clean(prep, &r.pipeline.decomposition);
    let b = &r.budget;
    assert_eq!(
        b.certified + b.heuristic + b.budget_exhausted + b.quarantined,
        prep.units.len(),
        "every unit has exactly one certainty"
    );
    // Every quarantine record names a unit that actually exists.
    for (unit, _) in &r.quarantines {
        assert!(*unit < prep.units.len());
    }
}

/// One test function (not several) because the process-global quiet panic
/// hook and the process-global failpoint state must not race across the
/// harness's test threads.
#[test]
fn chaos_injection_never_escapes_and_results_stay_audit_clean() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, prep) = fixture();
    // Injected panics are expected; silence the default hook's backtrace
    // spam while the chaos rounds run.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut hits = 0u64;

        // Two tail workers, a sweep of injection seeds at 5%, each on a
        // cold engine so every tail unit is solved under injection.
        for seed in 0..6u64 {
            failpoints::disable();
            let engine = Engine::new(framework());
            failpoints::configure(seed, 0.05);
            let mut session = Session::new(seed ^ 0x5EED);
            session.threads = 2;
            let r = engine
                .decompose(prep, &mut session)
                .expect("faults must degrade units, never fail the layout");
            assert_chaos_contract(prep, &r);
            hits += failpoints::total_hits();
        }

        // The tail on the calling thread.
        failpoints::disable();
        let engine = Engine::new(framework());
        failpoints::configure(101, 0.05);
        let r = engine
            .decompose(prep, &mut Session::new(0xA))
            .expect("faults must degrade units, never fail the layout");
        assert_chaos_contract(prep, &r);
        hits += failpoints::total_hits();

        // The per-unit oracle shares the engines, so it must survive
        // injection too.
        failpoints::disable();
        let fw = framework();
        failpoints::configure(202, 0.05);
        let r = oracle::decompose_per_unit(&fw, prep);
        assert_audit_clean(prep, &r.pipeline.decomposition);
        hits += failpoints::total_hits();

        assert!(
            hits > 0,
            "the sweep must actually inject faults (0 hits means the \
             failpoint sites were never reached)"
        );
    }));
    failpoints::disable();
    std::panic::set_hook(hook);
    if let Err(p) = outcome {
        std::panic::resume_unwind(p);
    }
}

/// Rate 0 must be a true no-op even with the feature compiled in: results
/// are bit-identical to a run with failpoints disabled.
#[test]
fn zero_rate_is_bit_identical_to_disabled() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, prep) = fixture();
    failpoints::disable();
    let run = || {
        Engine::new(framework())
            .decompose(prep, &mut Session::new(77))
            .expect("decomposes")
    };
    let off = run();
    failpoints::configure(1234, 0.0);
    let zero = run();
    failpoints::disable();
    assert_eq!(off.pipeline.decomposition, zero.pipeline.decomposition);
    assert_eq!(off.pipeline.cost, zero.pipeline.cost);
    assert_eq!(off.unit_engines, zero.unit_engines);
    assert_eq!(zero.budget.quarantined, 0);
    assert_eq!(zero.budget.audit_rejections, 0);
}

/// ColorGNN samples each distinct merged parent as its own job, so a job
/// that panics costs a guard fallback for the units of that parent only:
/// every other parent's units keep the coloring a fault-free run gives
/// them.
#[test]
fn panicking_colorgnn_job_falls_back_only_its_own_units() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, prep) = fixture();
    failpoints::disable();
    let (clean_fw, faulted_fw) = (framework(), framework());
    let clean = Engine::new(clean_fw)
        .decompose(prep, &mut Session::new(31))
        .expect("decomposes");

    // The units ColorGNN colored, grouped by identical merged parent.
    let mut groups: Vec<(LayoutGraph, Vec<usize>)> = Vec::new();
    for (i, u) in prep.units.iter().enumerate() {
        if clean.unit_engines[i] != EngineKind::ColorGnn {
            continue;
        }
        let (parent, _) = u.hetero.merge_stitch_edges();
        match groups
            .iter_mut()
            .find(|(p, _)| graphs_identical(p, &parent))
        {
            Some((_, members)) => members.push(i),
            None => groups.push((parent, vec![i])),
        }
    }

    // Panics (and harmless delays) at ColorGNN's restart site only; one
    // worker, so the fault schedule is deterministic.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    failpoints::configure_filtered(5, 0.5, &["colorgnn.restart"]);
    let faulted = Engine::new(faulted_fw).decompose(prep, &mut Session::new(31));
    failpoints::disable();
    std::panic::set_hook(hook);
    let faulted = faulted.expect("a panicking job must not fail the layout");
    assert_audit_clean(prep, &faulted.pipeline.decomposition);

    let (mut kept, mut fell_back) = (0, 0);
    for (_, members) in &groups {
        let colored = |i: &usize| faulted.unit_engines[*i] == EngineKind::ColorGnn;
        if members.iter().all(colored) {
            kept += 1;
            for &i in members {
                assert!(
                    oracle::same_up_to_relabeling(
                        &faulted.pipeline.decomposition.unit_subfeature_colorings[i],
                        &clean.pipeline.decomposition.unit_subfeature_colorings[i],
                    ),
                    "unit {i} of an unfaulted parent"
                );
            }
        } else {
            assert!(
                !members.iter().any(colored),
                "a parent's units fall back together: {members:?}"
            );
            fell_back += members.len();
        }
    }
    assert!(kept > 0, "some parent must survive the injection");
    assert!(fell_back > 0, "some parent's job must panic");
    assert_eq!(
        faulted.usage.colorgnn_fallbacks,
        clean.usage.colorgnn_fallbacks + fell_back
    );
}
