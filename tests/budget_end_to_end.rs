//! Budget-aware adaptive decomposition, end to end: anytime behavior
//! (every unit keeps a full valid coloring no matter how tight the
//! budget), bit-identical results under an unlimited policy, and a run
//! whose deadline has passed before it starts.
//!
//! Every run decomposes through a cold [`Engine`] with its own
//! [`Session`] seed, so concurrent tests never share an RNG stream and
//! no run's tail is answered from another run's solution cache.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mpld::{
    prepare, train_framework, AdaptiveFramework, AdaptiveResult, BudgetPolicy, Engine,
    OfflineConfig, PreparedLayout, Recovery, Session, TrainingData,
};
use mpld_graph::{Certainty, Clock, DecomposeParams, MockClock};
use mpld_layout::circuit_by_name;
use proptest::prelude::*;

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

/// A fresh copy of the fixture model (the tiny library rebuilds fast).
fn framework() -> AdaptiveFramework {
    let (bytes, _) = fixture();
    AdaptiveFramework::load(bytes.as_slice(), &DecomposeParams::tpl(), &offline_config())
        .expect("fixture model loads")
}

/// One run on a cold engine.
fn run(session: &mut Session<'_>) -> AdaptiveResult {
    Engine::new(framework())
        .decompose(&fixture().1, session)
        .expect("budget exhaustion is not an error")
}

/// The anytime contract: whatever the budget, every unit ends with a
/// full-coverage coloring whose values lie in `0..k` and whose summed
/// cost matches the per-unit costs.
fn assert_anytime_contract(r: &AdaptiveResult) {
    let prep = &fixture().1;
    let k = DecomposeParams::tpl().k;
    assert_eq!(r.unit_outcomes.len(), prep.units.len());
    assert_eq!(
        r.pipeline.decomposition.unit_subfeature_colorings.len(),
        prep.units.len()
    );
    for (u, coloring) in prep
        .units
        .iter()
        .zip(&r.pipeline.decomposition.unit_subfeature_colorings)
    {
        assert_eq!(coloring.len(), u.hetero.num_nodes(), "full coverage");
        assert!(coloring.iter().all(|&c| c < k), "colors in 0..k");
    }
    assert!(r
        .pipeline
        .decomposition
        .feature_colors
        .iter()
        .all(|&c| c < k));
    let b = &r.budget;
    assert_eq!(
        b.certified + b.heuristic + b.budget_exhausted + b.quarantined,
        prep.units.len(),
        "every unit has exactly one certainty"
    );
    assert_eq!(
        b.budget_fallbacks,
        r.unit_outcomes.iter().filter(|o| o.budget_fallback).count()
    );
    assert_eq!(
        b.audit_rejections,
        r.unit_outcomes.iter().filter(|o| o.audit_rejected).count()
    );
    // Every reported per-unit coloring must survive the independent
    // audit's validity checks, faults or not.
    for (u, coloring) in prep
        .units
        .iter()
        .zip(&r.pipeline.decomposition.unit_subfeature_colorings)
    {
        mpld_graph::audit_coloring(&u.hetero, coloring, k)
            .expect("reported coloring must be audit-valid");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Budget-exhausted adaptive runs still produce full-coverage
    /// colorings in `0..k`, for a sweep of mock-clock speeds and
    /// per-unit deadlines (several of which expire almost immediately).
    #[test]
    fn budget_exhausted_runs_keep_valid_colorings(
        tick_us in 1u64..400,
        per_unit_us in 1u64..200,
        total_sel in 0u8..2,
    ) {
        let total = total_sel == 1;
        let clock = Arc::new(MockClock::ticking(Duration::from_micros(tick_us)));
        let policy = BudgetPolicy {
            total: total.then(|| Duration::from_micros(per_unit_us * 4)),
            per_unit: Some(Duration::from_micros(per_unit_us)),
            clock: Some(clock as Arc<dyn Clock>),
        };
        let r = run(&mut Session::with_policy(0xC432, policy));
        assert_anytime_contract(&r);
    }
}

#[test]
fn unlimited_policy_is_bit_identical_to_legacy_entry_point() {
    let params = DecomposeParams::tpl();
    let plain = run(&mut Session::new(7));
    let budgeted = run(&mut Session::with_policy(7, BudgetPolicy::unlimited()));
    assert_eq!(
        plain.pipeline.decomposition, budgeted.pipeline.decomposition,
        "unlimited policy must be bit-identical"
    );
    assert_eq!(plain.pipeline.cost, budgeted.pipeline.cost);
    assert_eq!(plain.unit_engines, budgeted.unit_engines);
    assert_eq!(plain.usage, budgeted.usage);
    assert_eq!(budgeted.budget.budget_exhausted, 0);
    assert_eq!(budgeted.budget.budget_fallbacks, 0);
    // The always-on audit layer must be invisible on an honest run.
    assert_eq!(budgeted.budget.audit_rejections, 0);
    assert_eq!(budgeted.budget.quarantined, 0);
    assert!(budgeted.quarantines.is_empty());
    assert_eq!(budgeted.resumed_units, 0);
    assert_eq!(
        plain.pipeline.cost.value(params.alpha),
        budgeted.pipeline.cost.value(params.alpha)
    );
}

/// The equivalence perfbench and `perf_baseline` rely on: reseeding the
/// model's ColorGNN stream and calling a framework entry point equals an
/// engine session started from the same seed, bit for bit.
#[test]
fn reseed_plus_framework_entry_point_equals_session_seed() {
    let (_, prep) = fixture();
    let fw = framework();
    fw.colorgnn.reseed(0x5EED);
    let framework_run = fw
        .decompose_prepared_parallel_recoverable(
            prep,
            2,
            &BudgetPolicy::unlimited(),
            Recovery::default(),
        )
        .expect("unlimited policy cannot fail");
    let session_run = run(&mut Session::new(0x5EED));
    assert_eq!(
        framework_run.pipeline.decomposition,
        session_run.pipeline.decomposition
    );
    assert_eq!(framework_run.unit_engines, session_run.unit_engines);
    assert_eq!(framework_run.usage, session_run.usage);
    assert_eq!(framework_run.budget, session_run.budget);
    assert_eq!(framework_run.memo_hits, session_run.memo_hits);
}

#[test]
fn expired_run_still_covers_every_unit() {
    // A zero deadline on a frozen clock: expired before the run starts.
    let policy = BudgetPolicy {
        total: Some(Duration::ZERO),
        per_unit: None,
        clock: Some(Arc::new(MockClock::new()) as Arc<dyn Clock>),
    };
    let r = run(&mut Session::with_policy(11, policy));
    assert_anytime_contract(&r);
    // An expired deadline can only downgrade certainty (searches that finish
    // within one gauge stride may still certify); every downgraded unit
    // must still carry a recorded engine.
    assert_eq!(r.unit_engines.len(), r.unit_outcomes.len());
    for (e, o) in r.unit_engines.iter().zip(&r.unit_outcomes) {
        assert_eq!(*e, o.engine);
        assert!(o.certainty != Certainty::Certified || !o.budget_fallback);
    }
}

#[test]
fn tight_budget_parallel_matches_contract_and_reports_fallbacks() {
    let clock = Arc::new(MockClock::ticking(Duration::from_micros(300)));
    let policy = BudgetPolicy {
        total: None,
        per_unit: Some(Duration::from_micros(1)),
        clock: Some(clock as Arc<dyn Clock>),
    };
    let mut session = Session::with_policy(23, policy);
    session.threads = 2;
    assert_anytime_contract(&run(&mut session));
}
