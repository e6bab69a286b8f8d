//! The shared-state service layer, end to end: a frozen [`Engine`] must
//! reproduce an oracle run on a separate cold engine bit for bit (cold
//! caches and warm), serve concurrent sessions from one instance with
//! identical digests, reuse routing/solution caches across requests, and
//! honor deadlines by returning incumbents instead of errors.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mpld::{
    prepare, train_framework, AdaptiveFramework, AdaptiveResult, BudgetPolicy, Engine, EngineKind,
    OfflineConfig, PreparedLayout, Progress, Session, TrainingData,
};
use mpld_graph::{graphs_identical, Budget, Certainty, DecomposeParams, MockClock};
use mpld_layout::{circuit_by_name, iscas_suite};
use mpld_matching::DEFAULT_SHARDS;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

mod oracle;

const SEED: u64 = 0xD15EA5E;

fn trained_framework() -> AdaptiveFramework {
    let params = DecomposeParams::tpl();
    let layout = circuit_by_name("C499").expect("exists").generate();
    let prep = prepare(&layout, &params);
    let mut data = TrainingData::default();
    data.add_layout_capped(&prep, &params, 40);
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 2;
    cfg.colorgnn.epochs = 1;
    train_framework(&data, &params, &cfg)
}

/// Engine + oracle over the same weights, built once: the oracle runs on
/// a separate cold engine over a copy of the model, so the fixture's
/// engine starts cold too.
fn fixture() -> &'static (Engine, PreparedLayout, AdaptiveResult) {
    static FIXTURE: OnceLock<(Engine, PreparedLayout, AdaptiveResult)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fw = trained_framework();
        let test = prepare(
            &circuit_by_name("C432").expect("exists").generate(),
            &fw.params,
        );
        let serial = Engine::new(oracle::cold_copy(&fw))
            .decompose(&test, &mut Session::new(SEED))
            .expect("decomposes");
        (Engine::new(fw), test, serial)
    })
}

/// The digest the parity contract covers: everything that must be
/// independent of caches, sessions, and interleaving.
fn digest(r: &AdaptiveResult) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &r.pipeline.decomposition,
        r.pipeline.cost,
        &r.unit_engines,
        r.usage,
        r.budget,
    )
}

#[test]
fn engine_request_matches_the_serial_oracle_bit_for_bit() {
    let (engine, test, serial) = fixture();

    // First request (caches possibly warmed by other tests — the parity
    // contract holds either way because cached entries are bitwise what
    // recomputation would produce).
    let mut session = Session::new(SEED);
    let first = engine.decompose(test, &mut session).expect("decomposes");
    assert_eq!(digest(&first), digest(serial));

    // Second request from a fresh session: identical digest, and now the
    // routing memo demonstrably served every representative.
    let mut events = Vec::new();
    let mut session = Session::new(SEED);
    let second = engine
        .decompose_with_progress(test, &mut session, &mut |e| events.push(e))
        .expect("decomposes");
    assert_eq!(digest(&second), digest(serial));
    assert!(
        second.inference.shared_memo_hits > 0,
        "repeated layout must hit the cross-request routing memo"
    );
    assert_eq!(second.inference.units_inferred, 0);
    assert_eq!(
        second.inference.memo_hits
            + second.inference.shared_memo_hits
            + second.inference.units_inferred,
        test.units.len()
    );
    assert!(engine.stats().routing.hits > 0);

    // Progress stream: one Routed header with the right totals, then one
    // Unit event per ILP/EC-tail unit.
    let Some(Progress::Routed {
        units,
        matched,
        colorgnn,
        routing_memo_hits,
    }) = events.first().copied()
    else {
        panic!("first event must be Routed, got {:?}", events.first());
    };
    assert_eq!(units, test.units.len());
    assert_eq!(matched, serial.usage.matching);
    assert_eq!(colorgnn, serial.usage.colorgnn);
    assert!(routing_memo_hits > 0);
    let tail_events = events
        .iter()
        .filter(|e| matches!(e, Progress::Unit { .. }))
        .count();
    assert_eq!(tail_events, serial.usage.ilp + serial.usage.ec);
    // The tail of a repeated layout is served from the solution cache.
    if tail_events > 0 {
        assert!(events
            .iter()
            .any(|e| matches!(e, Progress::Unit { cached: true, .. })));
    }
}

#[test]
fn concurrent_sessions_share_one_engine_with_serial_digests() {
    let (engine, test, serial) = fixture();
    let engine = Arc::new(engine);

    let results: Vec<AdaptiveResult> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let mut session = Session::new(SEED);
                    engine.decompose(test, &mut session).expect("decomposes")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("no worker panics"))
            .collect()
    });
    for r in &results {
        assert_eq!(digest(r), digest(serial));
    }
}

#[test]
fn distinct_seeds_stay_cost_equal_and_audited() {
    // ColorGNN results depend on the session's draw and are never
    // cached, so a different seed may color differently — but the guarded
    // flow keeps
    // the cost pinned to the oracle (guard failures fall through to the
    // exact tail).
    let (engine, test, serial) = fixture();
    let mut session = Session::new(SEED ^ 0xFFFF);
    let r = engine.decompose(test, &mut session).expect("decomposes");
    let alpha = engine.framework().params.alpha;
    assert_eq!(
        r.pipeline.cost.value(alpha),
        serial.pipeline.cost.value(alpha)
    );
}

/// `--cache-cap` end to end: an engine whose three cross-request maps
/// are capped at one entry each evicts on every pass, yet answers the
/// suite exactly as an uncapped engine over the same weights, cold and
/// warm.
#[test]
fn capped_engine_evicts_and_answers_like_an_uncapped_one() {
    const CAP: usize = 1;
    let (engine, _, _) = fixture();
    let params = engine.framework().params;
    let suite: Vec<PreparedLayout> = iscas_suite()
        .iter()
        .map(|c| prepare(&c.generate(), &params))
        .collect();
    let capped = Engine::with_cache_cap(oracle::cold_copy(engine.framework()), Some(CAP));
    let uncapped = Engine::new(oracle::cold_copy(engine.framework()));
    for pass in 0..2 {
        for prep in &suite {
            let a = capped
                .decompose(prep, &mut Session::new(SEED))
                .expect("decomposes");
            let b = uncapped
                .decompose(prep, &mut Session::new(SEED))
                .expect("decomposes");
            assert_eq!(digest(&a), digest(&b), "pass {pass}: {}", prep.name);
        }
        // Which tail cache a unit uses depends on its routing, so the
        // solution caches are asked to evict as a pair.
        let stats = capped.stats();
        let (ilp, ec) = (stats.solutions_ilp_first, stats.solutions_ec_first);
        assert!(stats.routing.evictions > 0, "pass {pass}: {stats:?}");
        assert!(ilp.evictions + ec.evictions > 0, "pass {pass}: {stats:?}");
        // The documented bound: at most `cap + shards - 1` entries.
        for m in [stats.routing, ilp, ec] {
            assert!(
                m.entries < CAP + DEFAULT_SHARDS,
                "pass {pass}: a map over its cap: {stats:?}"
            );
        }
    }
}

#[test]
fn expired_deadline_returns_incumbents_never_errors() {
    let (engine, test, _) = fixture();
    let clock = Arc::new(MockClock::new());
    let policy = BudgetPolicy {
        total: Some(Duration::from_millis(5)),
        per_unit: None,
        clock: Some(clock.clone()),
    };
    clock.advance(Duration::from_secs(1)); // expired before the first unit
    let mut session = Session::with_policy(SEED, policy);
    let r = engine.decompose(test, &mut session).expect("never errors");
    let k = engine.framework().params.k;
    assert_eq!(r.unit_outcomes.len(), test.units.len());
    for (u, coloring) in test
        .units
        .iter()
        .zip(&r.pipeline.decomposition.unit_subfeature_colorings)
    {
        assert_eq!(coloring.len(), u.hetero.num_nodes(), "full coverage");
        assert!(coloring.iter().all(|&c| c < k), "colors in 0..k");
    }
    // Expired-budget solves must never poison the cross-request solution
    // caches: a fresh unlimited session still reproduces the oracle.
    let mut session = Session::new(SEED);
    let again = engine.decompose(test, &mut session).expect("decomposes");
    let (_, _, serial) = fixture();
    assert_eq!(digest(&again), digest(serial));
    // Budget-affected certainties exist only outside the cacheable set.
    assert!(r.unit_outcomes.iter().all(|o| matches!(
        o.certainty,
        Certainty::Certified
            | Certainty::Heuristic
            | Certainty::BudgetExhausted
            | Certainty::Degraded
    )));
}

#[test]
fn identical_units_share_one_colorgnn_sample_and_count_per_unit() {
    let (engine, _, _) = fixture();
    let fw = engine.framework();
    let prep = prepare(
        &circuit_by_name("C6288").expect("exists").generate(),
        &fw.params,
    );
    let r = engine
        .decompose(&prep, &mut Session::new(SEED))
        .expect("decomposes");
    let colored: Vec<usize> = (0..prep.units.len())
        .filter(|&i| r.unit_engines[i] == EngineKind::ColorGnn)
        .collect();
    assert_eq!(colored.len(), r.usage.colorgnn, "usage counts every unit");

    // Every ColorGNN unit carries the expansion of its merged parent's
    // per-graph sample under the session's one draw.
    let frozen = fw.colorgnn.freeze();
    let draw = SmallRng::seed_from_u64(SEED).next_u64();
    let kept = &r.pipeline.decomposition.unit_subfeature_colorings;
    for &i in &colored {
        let (parent, map) = prep.units[i].hetero.merge_stitch_edges();
        let pd = frozen
            .decompose_seeded(&parent, &fw.params, &Budget::unlimited(), draw)
            .expect("non-stitch parent");
        let expanded: Vec<u8> = map.iter().map(|&p| pd.coloring[p as usize]).collect();
        assert!(
            oracle::same_up_to_relabeling(&expanded, &kept[i]),
            "unit {i}"
        );
    }

    // Identical units got identical colorings, and each is counted.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in &colored {
        let g = &prep.units[i].hetero;
        match groups
            .iter_mut()
            .find(|m| graphs_identical(&prep.units[m[0]].hetero, g))
        {
            Some(m) => m.push(i),
            None => groups.push(vec![i]),
        }
    }
    let shared: Vec<&Vec<usize>> = groups.iter().filter(|m| m.len() > 1).collect();
    assert!(!shared.is_empty(), "the layout must repeat a ColorGNN unit");
    for m in shared {
        for &i in &m[1..] {
            assert!(
                oracle::same_up_to_relabeling(&kept[m[0]], &kept[i]),
                "{m:?}"
            );
        }
    }
    assert!(groups.len() < r.usage.colorgnn);
}
