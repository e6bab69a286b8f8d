//! Perf-baseline digest harness: runs the suite through every entry point
//! the framework offers (serial and parallel adaptive, the long-lived
//! serving path over real HTTP, journal resume, the persistent store and
//! the chip-scale tiled path), asserts in-binary that they all agree, and
//! writes their routing, cost, cache and training digests to
//! `BENCH_pipeline.json` (hand-rolled JSON, no serde), so a behaviour
//! change shows up as an artifact diff. `scripts/check_perf_digest.py`
//! compares a fresh artifact with the committed one.
//!
//! Nothing here reads a clock except the `budgeted` section, whose 1 ms
//! per-unit deadline is wall-clock time: its counts depend on the host
//! and its load, so they are informational, not digest fields. Timing is
//! the job of the `perfbench/` benchmark and the criterion benches.
//!
//! Usage: `cargo run --release -p mpld-bench --bin perf_baseline [out.json]`
//!
//! Knobs: `MPLD_CIRCUITS`, `MPLD_TRAIN_CAP`, `MPLD_EPOCHS` as usual, plus
//! `MPLD_THREADS` for the parallel adaptive path (default: available
//! parallelism), `MPLD_SEED` for the ColorGNN sampling RNG (recorded in
//! the artifact so a run is reproducible from the JSON alone),
//! `MPLD_BENCH_UNIT_LIMIT_MS` for the `budgeted` deadline and
//! `MPLD_CHIP_RECTS` for the chip-scale layout.

use mpld::{
    audit_boundary_units, prepare, prepare_tiled_file, train_framework_with_report, AdaptiveResult,
    BudgetPolicy, EngineKind, PreparedLayout, Session, TilingConfig, TrainingData,
};
use mpld_bench::env_usize;
use mpld_graph::DecomposeParams;
use mpld_layout::{
    generate_layout_streaming, iscas_suite, read_layout, GeneratorParams, LayoutWriter, ReadLimits,
};
use std::fmt::Write as _;
use std::time::Duration;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".into());
    let params = DecomposeParams::tpl();
    let limit = env_usize("MPLD_CIRCUITS", 15).clamp(1, 15);
    let threads = mpld::default_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seed: u64 = std::env::var("MPLD_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xBEEF);

    // 1. Suite preparation (generation + conflict graph + simplification +
    // stitch insertion for every circuit).
    let circuits: Vec<_> = iscas_suite().into_iter().take(limit).collect();
    let prepared: Vec<PreparedLayout> = circuits
        .iter()
        .map(|c| prepare(&c.generate(), &params))
        .collect();
    let total_units: usize = prepared.iter().map(|p| p.units.len()).sum();
    eprintln!("prepared {limit} circuits ({total_units} units)");

    // 2. Offline training on the first two circuits.
    let mut data = TrainingData::default();
    let cap = env_usize("MPLD_TRAIN_CAP", 150);
    for p in prepared.iter().take(2) {
        data.add_layout_capped(p, &params, cap);
    }
    let mut cfg = mpld::OfflineConfig::default();
    let epochs = env_usize("MPLD_EPOCHS", 12);
    cfg.rgcn.epochs = epochs;
    let (fw, train_report) = train_framework_with_report(&data, &params, &cfg);
    eprintln!(
        "trained framework ({} units, {} deduped; losses: selector {:.6}, redundancy {:.6}, colorgnn {:.6})",
        train_report.num_units,
        train_report.deduped_units,
        train_report.selector_loss,
        train_report.redundancy_loss,
        train_report.colorgnn_loss,
    );

    // 3. Adaptive framework: the serial (batched) and the parallel
    // (largest-first work-stealing + isomorphism memo) paths per circuit.
    // The ColorGNN RNG is reseeded before every run so both paths see the
    // same stream and their costs must be equal.
    let mut circuit_rows = Vec::new();
    let mut memo_total = 0usize;
    let (mut audit_rejections, mut quarantined) = (0usize, 0usize);
    let (mut infer_memo_hits, mut infer_units) = (0usize, 0usize);
    let mut scratch_high_water = 0usize;
    let (mut batches_planned, mut waste_before, mut waste_after) = (0usize, 0usize, 0usize);
    let mut serial_results: Vec<AdaptiveResult> = Vec::new();
    for (c, prep) in circuits.iter().zip(&prepared) {
        fw.colorgnn.reseed(seed);
        let serial = fw.decompose_prepared(prep);
        fw.colorgnn.reseed(seed);
        let parallel = fw.decompose_prepared_parallel(prep, threads);
        assert_eq!(
            serial.pipeline.cost, parallel.pipeline.cost,
            "{}: parallel adaptive cost diverged from serial",
            c.name
        );
        memo_total += parallel.memo_hits;
        audit_rejections += parallel.budget.audit_rejections;
        quarantined += parallel.budget.quarantined;
        infer_memo_hits += serial.inference.memo_hits;
        infer_units += serial.inference.units_inferred;
        scratch_high_water = scratch_high_water.max(serial.inference.scratch_high_water_bytes);
        batches_planned += serial.inference.batches_planned;
        waste_before += serial.inference.padding_waste_before_bytes;
        waste_after = waste_after.max(serial.inference.padding_waste_after_bytes);
        eprintln!(
            "{}: {} units, {} memo hits, cost {}",
            c.name,
            prep.units.len(),
            parallel.memo_hits,
            serial.pipeline.cost
        );
        // Routing/cost digest: deterministic per (model seed, circuit),
        // so the CI perf_baseline step can diff it against the committed
        // artifact to catch any change in routing decisions or final
        // costs (compared only when `fp_kernel` matches — the last bits
        // of the forward pass depend on the GEMM microkernel).
        circuit_rows.push(format!(
            "      {{\"name\": \"{}\", \"units\": {}, \"memo_hits\": {}, \"cost_equal\": true, \"conflicts\": {}, \"stitches\": {}, \"engines\": {{\"matching\": {}, \"colorgnn\": {}, \"ilp\": {}, \"ec\": {}}}}}",
            c.name,
            prep.units.len(),
            parallel.memo_hits,
            serial.pipeline.cost.conflicts,
            serial.pipeline.cost.stitches,
            serial.usage.matching,
            serial.usage.colorgnn,
            serial.usage.ilp,
            serial.usage.ec,
        ));
        serial_results.push(serial);
    }
    eprintln!(
        "routing inference: {infer_units} units inferred, {infer_memo_hits} embedding-memo hits, scratch high-water {scratch_high_water} bytes"
    );
    // Serialized weights for the persistent-store section (6b): the
    // framework itself is consumed by `Engine::new` in section 5.
    let mut model_bytes: Vec<u8> = Vec::new();
    fw.save(&mut model_bytes).expect("serialize framework");

    // 4. Budget-exhaustion profile: the whole suite again under a tight
    // per-unit deadline, recording per-solver exhaustion and fallback
    // counts (the anytime-contract numbers the framework reports).
    let unit_limit_ms = env_usize("MPLD_BENCH_UNIT_LIMIT_MS", 1);
    let policy = BudgetPolicy {
        per_unit: Some(Duration::from_millis(unit_limit_ms as u64)),
        ..BudgetPolicy::unlimited()
    };
    let (mut certified, mut heuristic, mut exhausted, mut fallbacks) = (0usize, 0, 0, 0);
    let (mut b_audit_rejections, mut b_quarantined) = (0usize, 0usize);
    let mut by_engine = [
        (EngineKind::Matching, 0usize, 0usize),
        (EngineKind::ColorGnn, 0, 0),
        (EngineKind::Ilp, 0, 0),
        (EngineKind::Ec, 0, 0),
    ];
    for prep in &prepared {
        fw.colorgnn.reseed(seed);
        let r = fw
            .decompose_prepared_parallel_with(prep, threads, &policy)
            .expect("budget exhaustion is not an error");
        certified += r.budget.certified;
        heuristic += r.budget.heuristic;
        exhausted += r.budget.budget_exhausted;
        fallbacks += r.budget.budget_fallbacks;
        b_audit_rejections += r.budget.audit_rejections;
        b_quarantined += r.budget.quarantined;
        for o in &r.unit_outcomes {
            for row in &mut by_engine {
                if row.0 == o.engine {
                    row.1 += usize::from(o.certainty == mpld_graph::Certainty::BudgetExhausted);
                    row.2 += usize::from(o.budget_fallback);
                }
            }
        }
    }
    eprintln!(
        "budgeted suite ({unit_limit_ms}ms/unit): {certified} certified, {heuristic} heuristic, {exhausted} budget-exhausted, {fallbacks} fallbacks, {b_audit_rejections} audit rejections, {b_quarantined} quarantined"
    );
    let engine_label = |e: EngineKind| match e {
        EngineKind::Matching => "matching",
        EngineKind::ColorGnn => "colorgnn",
        EngineKind::Ilp => "ilp",
        EngineKind::Ec => "ec",
    };
    let exhausted_rows: Vec<String> = by_engine
        .iter()
        .map(|(e, x, _)| format!("\"{}\": {x}", engine_label(*e)))
        .collect();
    let fallback_rows: Vec<String> = by_engine
        .iter()
        .map(|(e, _, f)| format!("\"{}\": {f}", engine_label(*e)))
        .collect();

    // 5. Serving: the suite once more through the long-lived service — a
    // warm shared [`mpld::Engine`] behind the real HTTP/NDJSON endpoint,
    // each circuit requested twice so the warm request exercises the
    // cross-request routing-memo + solution-cache path end to end. Served
    // costs and engine usage are asserted equal to the serial adaptive
    // run (the engine parity contract over the wire). Runs last: the
    // framework is consumed by `Engine::new`.
    let serve_workers = threads.clamp(1, cores);
    let serve_queue = 16usize;
    let engine = std::sync::Arc::new(mpld::Engine::new(fw));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let serve_addr = listener.local_addr().expect("addr");
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    let serve_cfg = mpld_server::ServerConfig {
        workers: serve_workers,
        queue_depth: serve_queue,
        read_timeout: Duration::from_secs(60),
        ..mpld_server::ServerConfig::default()
    };
    let mut serving_rows = Vec::new();
    let mut warm_routing_hits = 0usize;
    std::thread::scope(|scope| {
        let eng = std::sync::Arc::clone(&engine);
        let server = scope.spawn(|| mpld_server::serve(eng, listener, &serve_cfg, &shutdown));
        for ((c, prep), base) in circuits.iter().zip(&prepared).zip(&serial_results) {
            // Distinct job ids: durable jobs are idempotent, so a
            // byte-identical re-POST would replay the first job's log
            // instead of exercising the warm engine path.
            let request_for = |tag: &str| {
                let body = format!(
                    "{{\"circuit\":\"{}\",\"seed\":{seed},\"job_id\":\"bench-{tag}-{}\"}}",
                    c.name, c.name
                );
                format!(
                    "POST /decompose HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
            };
            let cold = http_request(serve_addr, &request_for("cold"));
            let warm = http_request(serve_addr, &request_for("warm"));
            let (a, b) = (served_summary(&cold), served_summary(&warm));
            for s in [&a, &b] {
                assert_eq!(
                    (s.conflicts, s.stitches),
                    (base.pipeline.cost.conflicts, base.pipeline.cost.stitches),
                    "{}: served cost diverged from the serial adaptive run",
                    c.name
                );
            }
            assert_eq!(
                (b.matching, b.colorgnn, b.ilp, b.ec),
                (
                    base.usage.matching,
                    base.usage.colorgnn,
                    base.usage.ilp,
                    base.usage.ec
                ),
                "{}: served engine usage diverged from the serial run",
                c.name
            );
            assert_eq!(
                b.units_inferred, 0,
                "{}: warm request re-ran routing inference",
                c.name
            );
            warm_routing_hits += b.routing_memo_hits;
            eprintln!(
                "serve {}: warm request {} routing memo hits, {} solution hits",
                c.name, b.routing_memo_hits, b.memo_hits
            );
            serving_rows.push(format!(
                "      {{\"name\": \"{}\", \"units\": {}, \"warm_routing_memo_hits\": {}, \"warm_solution_memo_hits\": {}, \"cost_equal\": true}}",
                c.name,
                prep.units.len(),
                b.routing_memo_hits,
                b.memo_hits
            ));
        }
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        server.join().expect("server thread").expect("serve");
    });
    let serve_requests = 2 * circuits.len();
    let engine_stats = engine.stats();
    let routing_lookups = engine_stats.routing.hits + engine_stats.routing.misses;
    let routing_hit_rate = engine_stats.routing.hits as f64 / routing_lookups.max(1) as f64;
    eprintln!(
        "serving suite: {serve_requests} requests ({serve_workers} workers); routing memo {}/{routing_lookups} hits",
        engine_stats.routing.hits
    );

    // 6. Serving resume: a journaled durable job killed mid-append
    // (simulated by tearing the journal file the way SIGKILL leaves it)
    // and re-submitted to a fresh serve loop over the same journal dir.
    // The resumed run must stay bit-identical to the cold one and
    // actually reuse surviving records.
    let (resume_circuit, resume_base) = circuits
        .iter()
        .zip(&serial_results)
        .max_by_key(|(_, r)| r.usage.ilp + r.usage.ec)
        .expect("suite is non-empty");
    let resume_tail_units = resume_base.usage.ilp + resume_base.usage.ec;
    assert!(
        resume_tail_units >= 3,
        "serving_resume needs a circuit with >=3 journaled tail units, best was {} with {resume_tail_units}",
        resume_circuit.name
    );
    let journal_dir =
        std::env::temp_dir().join(format!("mpld-bench-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let resume_body = format!(
        "{{\"circuit\":\"{}\",\"seed\":{seed},\"job_id\":\"bench-resume\"}}",
        resume_circuit.name
    );
    let resume_raw = format!(
        "POST /decompose HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{resume_body}",
        resume_body.len()
    );
    let journaled_cfg = mpld_server::ServerConfig {
        workers: 1,
        queue_depth: 4,
        read_timeout: Duration::from_secs(60),
        journal_dir: Some(journal_dir.clone()),
        ..mpld_server::ServerConfig::default()
    };
    // One request through a short-lived serve loop — each call is a
    // separate "process" sharing only the journal directory (and the
    // warm engine, which a respawned process would rebuild bit-identical
    // from the same weights).
    let serve_once = |raw: &str| -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let eng = std::sync::Arc::clone(&engine);
            let server = scope.spawn(|| mpld_server::serve(eng, listener, &journaled_cfg, &stop));
            let resp = http_request(addr, raw);
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            server.join().expect("server thread").expect("serve");
            resp
        })
    };
    let resume_cold = served_summary(&serve_once(&resume_raw));
    assert_eq!(
        resume_cold.resumed_units, 0,
        "first journaled run must resume nothing"
    );

    // Tear the journal to its header, roughly half the records, and a
    // torn half-line — the on-disk state SIGKILL mid-append leaves.
    let journal_path = journal_dir.join("bench-resume.jsonl");
    let journal_text = std::fs::read_to_string(&journal_path).expect("journal readable");
    let journal_lines: Vec<&str> = journal_text.lines().collect();
    let keep = 1 + (journal_lines.len() - 1) / 2;
    assert!(
        keep >= 2 && keep < journal_lines.len(),
        "journal too short to tear: {} lines",
        journal_lines.len()
    );
    let mut torn = journal_lines[..keep].join("\n");
    torn.push('\n');
    torn.push_str(&journal_lines[keep][..journal_lines[keep].len() / 2]);
    std::fs::write(&journal_path, torn).expect("tear journal");
    let records_kept = keep - 1;

    let resume_summary = served_summary(&serve_once(&resume_raw));
    let resume_digest = |s: &mpld::RunSummary| {
        (
            s.conflicts,
            s.stitches,
            format!("{:.17e}", s.objective),
            s.matching,
            s.colorgnn,
            s.ec,
            s.ilp,
        )
    };
    assert_eq!(
        resume_digest(&resume_summary),
        resume_digest(&resume_cold),
        "resumed run must be bit-identical to the uninterrupted run"
    );
    assert!(
        resume_summary.resumed_units > 0,
        "resume must reuse the surviving journal records: {resume_summary:?}"
    );
    let _ = std::fs::remove_dir_all(&journal_dir);
    eprintln!(
        "serving resume {}: {} of {resume_tail_units} tail units resumed, {records_kept} records survived the tear",
        resume_circuit.name, resume_summary.resumed_units
    );

    // 6b. Persistent library/tail-solve store: a cold store-backed engine
    // decomposes the whole suite (populating the store with its certified
    // tail solves and the graph library), then a second engine — a fresh
    // "process" sharing only the store directory — re-serves the suite.
    // The warm engine must re-solve almost nothing (>=80% fewer fresh
    // tail solves, asserted) with bit-identical digests.
    let store_dir = std::env::temp_dir().join(format!("mpld-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_digest = |r: &AdaptiveResult| {
        (
            r.pipeline.decomposition.clone(),
            r.pipeline.cost,
            r.unit_engines.clone(),
            r.usage,
        )
    };
    let fresh_tail_solves =
        |r: &AdaptiveResult| (r.usage.ilp + r.usage.ec).saturating_sub(r.memo_hits);
    let run_store_suite = |label: &str| -> (Vec<AdaptiveResult>, usize, mpld::EngineStats) {
        let (store_engine, _report) = mpld::engine_with_store(
            &model_bytes,
            &params,
            &cfg,
            &store_dir,
            mpld_store::StoreCaps::default(),
            None,
        )
        .expect("open store-backed engine");
        let mut results = Vec::with_capacity(prepared.len());
        let mut fresh = 0usize;
        for prep in &prepared {
            let mut session = Session::new(seed);
            let r = store_engine
                .decompose(prep, &mut session)
                .expect("store-backed decompose");
            fresh += fresh_tail_solves(&r);
            results.push(r);
        }
        let stats = store_engine.stats();
        let s = stats.store.as_ref().expect("store stats present");
        eprintln!(
            "library [{label}]: {fresh} fresh tail solves ({} loaded, library {}, {} appended)",
            s.loaded_solves,
            if s.lib_loaded { "loaded" } else { "rebuilt" },
            s.appended
        );
        (results, fresh, stats)
    };
    let (cold_results, cold_fresh, _cold_stats) = run_store_suite("cold");
    for ((c, base), cold) in circuits.iter().zip(&serial_results).zip(&cold_results) {
        assert_eq!(
            cold.pipeline.cost, base.pipeline.cost,
            "{}: store-backed cold cost diverged from the serial adaptive run",
            c.name
        );
    }
    let (warm_results, warm_fresh, warm_stats) = run_store_suite("warm");
    for ((c, cold), warm) in circuits.iter().zip(&cold_results).zip(&warm_results) {
        assert_eq!(
            store_digest(warm),
            store_digest(cold),
            "{}: warm store-backed digest diverged from the cold run",
            c.name
        );
    }
    assert!(
        cold_fresh > 0,
        "library section needs at least one fresh tail solve to measure"
    );
    assert!(
        warm_fresh * 5 <= cold_fresh,
        "warm store-backed run must re-solve >=80% less: cold {cold_fresh}, warm {warm_fresh}"
    );
    let warm_store = warm_stats.store.as_ref().expect("store stats present");
    let library_hit_rate = (cold_fresh - warm_fresh) as f64 / cold_fresh as f64;
    let _ = std::fs::remove_dir_all(&store_dir);
    eprintln!(
        "library store: cold {cold_fresh} -> warm {warm_fresh} fresh tail solves ({:.1}% served), {} solves loaded",
        library_hit_rate * 100.0,
        warm_store.loaded_solves
    );
    drop(cold_results);
    drop(warm_results);

    // 7. Chip scale: a generated multi-hundred-k-rect layout streamed to
    // disk, prepared through the tiled pipeline (O(tile) geometry working
    // set), and decomposed on the warm engine. Runs LAST so its generated
    // units cannot warm any cache the suite sections exercise. A smaller
    // parity probe is additionally prepared both ways and decomposed
    // twice to re-prove the tiled/serial digest identity at this seed
    // (the tiled_parity test suite proves it structurally).
    let chip_rects = env_usize("MPLD_CHIP_RECTS", 200_000) as u64;
    let chip_dir = std::env::temp_dir().join(format!("mpld-bench-chip-{}", std::process::id()));
    std::fs::create_dir_all(&chip_dir).expect("chip scratch dir");
    let chip_config = TilingConfig {
        tile_span: 0, // 48*d default
        halo: 0,      // d default
        threads,
    };
    let gen_to_file = |rects: u64, path: &std::path::Path| -> (u32, u64) {
        let file = std::fs::File::create(path).expect("create chip layout");
        let mut writer =
            LayoutWriter::new(std::io::BufWriter::new(file), "chip", 100).expect("write header");
        let mut written = 0u64;
        let features = generate_layout_streaming(100, &GeneratorParams::sized(rects, seed), |f| {
            writer.feature(&f).expect("write feature");
            written += f.rects().len() as u64;
            written < rects
        });
        writer.finish().expect("finish chip layout");
        assert!(written >= rects, "generator sizing underestimated {rects}");
        (features, written)
    };

    // Parity probe: 20k rects, tiled-from-file vs monolithic-in-memory,
    // both decomposed on the warm engine from identical fresh sessions.
    let probe_path = chip_dir.join("probe.mpld");
    let (_, probe_rects) = gen_to_file(20_000, &probe_path);
    let probe_tp = prepare_tiled_file(
        &probe_path,
        &ReadLimits::unlimited(),
        &params,
        &chip_config,
        &|_| {},
    )
    .expect("probe tiled prepare");
    let probe_layout = read_layout(std::io::BufReader::new(
        std::fs::File::open(&probe_path).expect("probe readable"),
    ))
    .expect("probe parses");
    let probe_serial_prep = prepare(&probe_layout, &params);
    assert_eq!(
        probe_tp.prep.graph, probe_serial_prep.graph,
        "tiled probe graph must equal the monolithic graph"
    );
    let mut probe_session = Session::new(seed);
    let probe_tiled_r = engine
        .decompose(&probe_tp.prep, &mut probe_session)
        .expect("probe tiled decompose");
    let mut probe_session = Session::new(seed);
    let probe_serial_r = engine
        .decompose(&probe_serial_prep, &mut probe_session)
        .expect("probe serial decompose");
    assert_eq!(
        store_digest(&probe_tiled_r),
        store_digest(&probe_serial_r),
        "tiled probe digest must equal the serial digest"
    );

    // The chip-scale run itself.
    let chip_path = chip_dir.join("chip.mpld");
    let (chip_features, chip_written) = gen_to_file(chip_rects, &chip_path);
    let chip_tp = prepare_tiled_file(
        &chip_path,
        &ReadLimits::unlimited(),
        &params,
        &chip_config,
        &|_| {},
    )
    .expect("chip tiled prepare");
    let chip_stats = chip_tp.stats;
    let mut chip_session = Session::new(seed);
    let chip_r = engine
        .decompose(&chip_tp.prep, &mut chip_session)
        .expect("chip decompose");
    let (chip_audited, chip_audit_clean) =
        audit_boundary_units(&chip_tp.prep, &chip_r, &chip_tp.boundary_units, params.k);
    assert!(
        chip_audit_clean,
        "chip-scale boundary audit must be clean ({chip_audited} units)"
    );
    let _ = std::fs::remove_dir_all(&chip_dir);
    eprintln!(
        "chip scale: {chip_written} rects ({chip_features} features), {}x{} tiles (max {} features/tile), cost {}, audit clean on {chip_audited} boundary units",
        chip_stats.tiles_x, chip_stats.tiles_y, chip_stats.max_tile_features, chip_r.pipeline.cost
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"cpu_cores\": {cores},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    // Training config determines the model weights and therefore the
    // routing digest; the digest checker skips comparison on mismatch.
    let _ = writeln!(json, "  \"train_cap\": {cap},");
    let _ = writeln!(json, "  \"epochs\": {epochs},");
    let _ = writeln!(
        json,
        "  \"fp_kernel\": \"{}\",",
        mpld_tensor::infer::kernel_name()
    );
    let _ = writeln!(json, "  \"circuits\": {limit},");
    let _ = writeln!(json, "  \"total_units\": {total_units},");
    let _ = writeln!(json, "  \"adaptive\": {{");
    let _ = writeln!(json, "    \"threads\": {threads},");
    let _ = writeln!(json, "    \"memo_hits\": {memo_total},");
    let _ = writeln!(json, "    \"audit_rejections\": {audit_rejections},");
    let _ = writeln!(json, "    \"quarantined\": {quarantined},");
    let _ = writeln!(json, "    \"per_circuit\": [");
    let _ = writeln!(json, "{}", circuit_rows.join(",\n"));
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"inference\": {{");
    let _ = writeln!(json, "    \"threads\": 1,");
    let _ = writeln!(json, "    \"routing_memo_hits\": {infer_memo_hits},");
    let _ = writeln!(json, "    \"routing_units_inferred\": {infer_units},");
    let _ = writeln!(
        json,
        "    \"scratch_high_water_bytes\": {scratch_high_water},"
    );
    let _ = writeln!(json, "    \"batches_planned\": {batches_planned},");
    let _ = writeln!(json, "    \"padding_waste_before_bytes\": {waste_before},");
    let _ = writeln!(json, "    \"padding_waste_after_bytes\": {waste_after}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"training\": {{");
    let _ = writeln!(json, "    \"threads\": 1,");
    let _ = writeln!(json, "    \"train_seed\": {},", cfg.seed);
    let _ = writeln!(json, "    \"labeled_units\": {},", train_report.num_units);
    let _ = writeln!(
        json,
        "    \"deduped_units\": {},",
        train_report.deduped_units
    );
    // Final-epoch losses of the section-2 framework training: a
    // seed-keyed trajectory digest, compared by the CI digest guard when
    // fp_kernel and the training config match.
    let _ = writeln!(json, "    \"final_losses\": {{");
    let _ = writeln!(
        json,
        "      \"selector\": {:.9},",
        train_report.selector_loss
    );
    let _ = writeln!(
        json,
        "      \"redundancy\": {:.9},",
        train_report.redundancy_loss
    );
    let _ = writeln!(
        json,
        "      \"colorgnn\": {:.9}",
        train_report.colorgnn_loss
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"budgeted\": {{");
    let _ = writeln!(json, "    \"threads\": {threads},");
    let _ = writeln!(json, "    \"unit_time_limit_ms\": {unit_limit_ms},");
    let _ = writeln!(json, "    \"certified\": {certified},");
    let _ = writeln!(json, "    \"heuristic\": {heuristic},");
    let _ = writeln!(json, "    \"budget_exhausted\": {exhausted},");
    let _ = writeln!(json, "    \"budget_fallbacks\": {fallbacks},");
    let _ = writeln!(json, "    \"audit_rejections\": {b_audit_rejections},");
    let _ = writeln!(json, "    \"quarantined\": {b_quarantined},");
    let _ = writeln!(
        json,
        "    \"exhausted_by_engine\": {{{}}},",
        exhausted_rows.join(", ")
    );
    let _ = writeln!(
        json,
        "    \"fallbacks_by_engine\": {{{}}}",
        fallback_rows.join(", ")
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"serving\": {{");
    let _ = writeln!(json, "    \"workers\": {serve_workers},");
    let _ = writeln!(json, "    \"queue_depth\": {serve_queue},");
    let _ = writeln!(json, "    \"requests\": {serve_requests},");
    let _ = writeln!(json, "    \"warm_routing_memo_hits\": {warm_routing_hits},");
    let _ = writeln!(
        json,
        "    \"routing_memo\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},",
        engine_stats.routing.hits, engine_stats.routing.misses, engine_stats.routing.entries
    );
    let _ = writeln!(
        json,
        "    \"solution_entries\": {},",
        engine_stats.solutions_ilp_first.entries + engine_stats.solutions_ec_first.entries
    );
    let _ = writeln!(
        json,
        "    \"cross_request_hit_rate\": {routing_hit_rate:.4},"
    );
    let _ = writeln!(json, "    \"per_circuit\": [");
    let _ = writeln!(json, "{}", serving_rows.join(",\n"));
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"serving_resume\": {{");
    let _ = writeln!(json, "    \"circuit\": \"{}\",", resume_circuit.name);
    let _ = writeln!(json, "    \"tail_units\": {resume_tail_units},");
    let _ = writeln!(json, "    \"journal_records_kept\": {records_kept},");
    let _ = writeln!(
        json,
        "    \"resumed_units\": {},",
        resume_summary.resumed_units
    );
    let _ = writeln!(json, "    \"digest_equal_cold\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"library\": {{");
    let _ = writeln!(json, "    \"circuits\": {limit},");
    let _ = writeln!(json, "    \"cold_tail_solves\": {cold_fresh},");
    let _ = writeln!(json, "    \"warm_tail_solves\": {warm_fresh},");
    let _ = writeln!(json, "    \"warm_hit_rate\": {library_hit_rate:.4},");
    let _ = writeln!(json, "    \"lib_loaded\": {},", warm_store.lib_loaded);
    let _ = writeln!(json, "    \"loaded_solves\": {},", warm_store.loaded_solves);
    let _ = writeln!(json, "    \"store_entries\": {},", warm_store.entries);
    let _ = writeln!(json, "    \"digests_equal\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"chip_scale\": {{");
    let _ = writeln!(json, "    \"threads\": {threads},");
    let _ = writeln!(json, "    \"target_rects\": {chip_rects},");
    let _ = writeln!(json, "    \"rects\": {chip_written},");
    let _ = writeln!(json, "    \"features\": {chip_features},");
    let _ = writeln!(
        json,
        "    \"tiles\": {},",
        chip_stats.tiles_x * chip_stats.tiles_y
    );
    let _ = writeln!(json, "    \"tile_span\": {},", chip_stats.tile_span);
    let _ = writeln!(json, "    \"halo\": {},", chip_stats.halo);
    let _ = writeln!(
        json,
        "    \"max_tile_features\": {},",
        chip_stats.max_tile_features
    );
    let _ = writeln!(
        json,
        "    \"replicated_features\": {},",
        chip_stats.replicated_features
    );
    let _ = writeln!(json, "    \"edges\": {},", chip_stats.edges);
    let _ = writeln!(
        json,
        "    \"boundary_edges\": {},",
        chip_stats.boundary_edges
    );
    let _ = writeln!(
        json,
        "    \"boundary_resolves\": {},",
        chip_stats.boundary_resolves
    );
    let _ = writeln!(json, "    \"units\": {},", chip_tp.prep.units.len());
    let _ = writeln!(
        json,
        "    \"conflicts\": {},",
        chip_r.pipeline.cost.conflicts
    );
    let _ = writeln!(json, "    \"stitches\": {},", chip_r.pipeline.cost.stitches);
    let _ = writeln!(
        json,
        "    \"objective\": {:.1},",
        chip_r.pipeline.cost.value(params.alpha)
    );
    let _ = writeln!(json, "    \"boundary_audit_clean\": true,");
    let _ = writeln!(
        json,
        "    \"parity_probe\": {{\"rects\": {probe_rects}, \"digest_equal_serial\": true}}"
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write artifact");
    println!("wrote {out_path}");
}

/// Blocking one-shot HTTP client for the serving sections: sends `raw`,
/// reads until the server closes the stream (the NDJSON body has no
/// Content-Length), and returns the full response.
fn http_request(addr: std::net::SocketAddr, raw: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// The run summary carried by a served response's final `done` event.
fn served_summary(resp: &str) -> mpld::RunSummary {
    let line = resp
        .lines()
        .find(|l| l.starts_with("{\"event\":\"done\""))
        .unwrap_or_else(|| panic!("no done event in:\n{resp}"));
    mpld::RunSummary::parse(line).expect("served summary parses")
}
