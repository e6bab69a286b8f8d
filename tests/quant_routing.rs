//! Suite-level guarantee of the quantized routing tier: under `F16` or
//! `Int8` precision, every routing *decision* — engine choice, cost,
//! per-unit engine assignment — is identical to the f32 run. The trust
//! ladder (library pinning + margin-gated f32 re-inference) is what makes
//! that hold; these tests assert both the equality and the ladder's
//! bookkeeping, plus (behind `--features failpoints`) that a forced
//! distrust storm routes every quantized unit through the f32 fallback.

use mpld::{
    prepare, train_framework, AdaptiveFramework, AdaptiveResult, Engine, OfflineConfig, Precision,
    PreparedLayout, Session, TrainingData,
};
use mpld_graph::DecomposeParams;
use mpld_layout::iscas_suite;
use std::sync::RwLock;

mod oracle;

/// The failpoint registry is process-global: the test that arms it takes
/// this lock exclusively, so no other test of this binary trains or
/// decomposes while faults are injected.
static FAILPOINT_SCOPE: RwLock<()> = RwLock::new(());

fn trained_framework(params: &DecomposeParams) -> (AdaptiveFramework, Vec<mpld::PreparedLayout>) {
    let suite = iscas_suite();
    let preps: Vec<_> = suite[..3]
        .iter()
        .map(|c| prepare(&c.generate(), params))
        .collect();
    let mut data = TrainingData::default();
    for p in &preps {
        data.add_layout_capped(p, params, 30);
    }
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 2;
    cfg.colorgnn.epochs = 1;
    (train_framework(&data, params, &cfg), preps)
}

/// One run of `fw`'s model at `precision`, on a cold engine over a copy
/// of the model (same weights, same library entries).
fn run_at(fw: &AdaptiveFramework, precision: Precision, prep: &PreparedLayout) -> AdaptiveResult {
    let mut copy = oracle::cold_copy(fw);
    copy.precision = precision;
    // Every run samples ColorGNN from the same session stream (precision
    // never touches ColorGNN).
    Engine::new(copy)
        .decompose(prep, &mut Session::new(42))
        .expect("decomposes")
}

#[test]
fn quantized_routing_matches_f32_decisions() {
    let _scope = FAILPOINT_SCOPE.read().unwrap_or_else(|e| e.into_inner());
    let params = DecomposeParams::tpl();
    let (fw, preps) = trained_framework(&params);

    for prep in &preps {
        let base = run_at(&fw, Precision::F32, prep);
        assert_eq!(base.inference.precision, Precision::F32);
        assert_eq!(base.inference.quantized_units, 0);
        assert_eq!(base.inference.f32_fallbacks, 0);

        for precision in [Precision::F16, Precision::Int8] {
            let q = run_at(&fw, precision, prep);

            // The tier's contract: identical decisions and cost, not
            // merely similar ones.
            assert_eq!(
                q.pipeline.cost, base.pipeline.cost,
                "{precision} cost diverged from f32"
            );
            assert_eq!(
                q.unit_engines, base.unit_engines,
                "{precision} routed a unit to a different engine"
            );
            assert_eq!(q.usage, base.usage, "{precision} usage breakdown diverged");

            // Trust-ladder bookkeeping: every representative is in
            // exactly one lane, and the planner actually planned.
            let s = &q.inference;
            assert_eq!(s.precision, precision);
            assert_eq!(
                s.quantized_units + s.f32_fallbacks + s.pinned_f32,
                s.units_inferred,
                "lane counts must partition the representatives"
            );
            assert!(
                s.quantized_units > 0,
                "{precision}: no unit actually ran quantized"
            );
            assert!(s.batches_planned >= 1);
            assert!(!s.kernel_f32.is_empty() && !s.kernel_quant.is_empty());
            assert_ne!(
                s.kernel_quant, s.kernel_f32,
                "{precision} must report a distinct quantized kernel"
            );
            assert!(
                s.padding_waste_after_bytes <= s.padding_waste_before_bytes,
                "bucketed plan must not raise peak scratch"
            );
            assert_eq!(s.memo_hits, base.inference.memo_hits);
            assert_eq!(s.units_inferred, base.inference.units_inferred);
        }
    }
}

#[test]
fn planner_reduces_padding_waste_on_real_layouts() {
    let _scope = FAILPOINT_SCOPE.read().unwrap_or_else(|e| e.into_inner());
    let params = DecomposeParams::tpl();
    let (fw, preps) = trained_framework(&params);
    // On a real circuit the units span size bands, so the bucketed plan's
    // peak batch must be strictly smaller than the old single union.
    let r = fw.decompose_prepared(&preps[0]);
    assert!(r.inference.batches_planned > 1, "expected multiple batches");
    assert!(r.inference.padding_waste_after_bytes < r.inference.padding_waste_before_bytes);
}

/// With fault injection at rate 1.0, the `route.quant_trust` failpoint
/// distrusts *every* quantized score: each one must be transparently
/// re-inferred at f32 (counted as fallbacks, zero trusted quantized
/// units) and the layout must still come out whole.
#[cfg(feature = "failpoints")]
#[test]
fn forced_distrust_falls_back_every_quantized_unit() {
    let _scope = FAILPOINT_SCOPE.write().unwrap_or_else(|e| e.into_inner());
    let params = DecomposeParams::tpl();
    let (mut fw, preps) = trained_framework(&params);
    fw.precision = Precision::Int8;

    mpld_graph::failpoints::configure(7, 1.0);
    let r = fw.decompose_prepared(&preps[0]);
    mpld_graph::failpoints::disable();

    let s = &r.inference;
    assert!(s.f32_fallbacks > 0, "no forced fallback fired");
    assert_eq!(s.quantized_units, 0, "a distrusted unit stayed quantized");
    assert_eq!(s.f32_fallbacks + s.pinned_f32, s.units_inferred);
    assert_eq!(r.unit_engines.len(), preps[0].units.len());
}
