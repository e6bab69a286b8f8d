//! One decomposition path: every entry point reaches the same ILP/EC
//! tail executor, so with an unlimited budget and a fixed seed the
//! framework wrappers (serial, and parallel at 1 and 2 threads), a cold
//! engine, the same engine warm, and an engine session with two tail
//! workers all return the same colorings, engines, usage and budget
//! counts bit for bit. S38584's tail has isomorphic units, so the memo
//! transfers are part of what is compared.

use mpld::{
    prepare, train_framework, AdaptiveFramework, AdaptiveResult, Engine, EngineKind, OfflineConfig,
    Progress, Session, TrainingData,
};
use mpld_graph::DecomposeParams;
use mpld_layout::circuit_by_name;

mod oracle;

const SEED: u64 = 0x5150;

fn trained_framework(params: &DecomposeParams) -> AdaptiveFramework {
    let mut data = TrainingData::default();
    for name in ["C432", "C499"] {
        let prep = prepare(&circuit_by_name(name).expect("exists").generate(), params);
        data.add_layout_capped(&prep, params, 40);
    }
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 2;
    cfg.colorgnn.epochs = 1;
    train_framework(&data, params, &cfg)
}

#[test]
fn every_entry_point_returns_the_same_decomposition() {
    let params = DecomposeParams::tpl();
    let fw = trained_framework(&params);
    let prep = prepare(
        &circuit_by_name("S38584").expect("exists").generate(),
        &params,
    );

    let mut runs: Vec<(&str, AdaptiveResult)> = Vec::new();
    fw.colorgnn.reseed(SEED);
    runs.push(("framework serial", fw.decompose_prepared(&prep)));
    for threads in [1, 2] {
        fw.colorgnn.reseed(SEED);
        let name = if threads == 1 {
            "framework parallel, 1 thread"
        } else {
            "framework parallel, 2 threads"
        };
        runs.push((name, fw.decompose_prepared_parallel(&prep, threads)));
    }

    let engine = Engine::new(oracle::cold_copy(&fw));
    let mut events = Vec::new();
    let cold = engine
        .decompose_with_progress(&prep, &mut Session::new(SEED), &mut |e| events.push(e))
        .expect("decomposes");
    assert!(
        cold.memo_hits > 0,
        "a cold engine must transfer isomorphic tail units"
    );
    // One event per tail unit; `cached` exactly when no solve ran, which
    // is exactly when the unit's solver time is zero.
    let mut seen = vec![false; prep.units.len()];
    for e in &events {
        if let Progress::Unit { index, cached, .. } = *e {
            assert!(
                !std::mem::replace(&mut seen[index], true),
                "unit {index} reported twice"
            );
            assert_eq!(
                cached,
                cold.unit_outcomes[index].time.is_zero(),
                "unit {index}"
            );
        }
    }
    let tail = |e: &EngineKind| matches!(e, EngineKind::Ilp | EngineKind::Ec);
    for (i, e) in cold.unit_engines.iter().enumerate() {
        assert_eq!(
            seen[i],
            tail(e),
            "unit {i}: an event exactly for tail units"
        );
    }
    let cached = events
        .iter()
        .filter(|e| matches!(e, Progress::Unit { cached: true, .. }))
        .count();
    assert_eq!(cached, cold.memo_hits);
    runs.push(("cold engine", cold));

    let mut events = Vec::new();
    let warm = engine
        .decompose_with_progress(&prep, &mut Session::new(SEED), &mut |e| events.push(e))
        .expect("decomposes");
    let tail_units = warm.usage.ilp + warm.usage.ec;
    let unit_events: Vec<Progress> = events
        .into_iter()
        .filter(|e| matches!(e, Progress::Unit { .. }))
        .collect();
    assert_eq!(unit_events.len(), tail_units, "one event per tail unit");
    assert!(
        unit_events
            .iter()
            .all(|e| matches!(e, Progress::Unit { cached: true, .. })),
        "a warm request solves nothing"
    );
    assert!((warm.timing.ilp + warm.timing.ec).is_zero());
    assert!(warm.unit_outcomes.iter().all(|o| o.time.is_zero()));
    assert_eq!(warm.memo_hits, tail_units);
    runs.push(("warm engine", warm));

    let mut two_workers = Session::new(SEED);
    two_workers.threads = 2;
    let parallel = Engine::new(fw)
        .decompose(&prep, &mut two_workers)
        .expect("decomposes");
    runs.push(("cold engine, 2 tail workers", parallel));

    let (_, reference) = &runs[0];
    assert!(
        reference
            .unit_engines
            .iter()
            .any(|&e| matches!(e, EngineKind::Ilp | EngineKind::Ec)),
        "the layout must exercise the ILP/EC tail"
    );
    for (name, r) in &runs[1..] {
        assert_eq!(
            r.pipeline.decomposition, reference.pipeline.decomposition,
            "{name}: coloring differs from the framework's serial run"
        );
        assert_eq!(r.unit_engines, reference.unit_engines, "{name}: engines");
        assert_eq!(r.usage, reference.usage, "{name}: usage");
        assert_eq!(r.budget, reference.budget, "{name}: budget");
    }
}
