//! One-pass harness for every framework-dependent result: trains one
//! adaptive framework per leave-2-out fold and emits Table IV (cost),
//! Table V (runtime), Table VII (layout statistics + ColorGNN vs ILP),
//! Fig. 9 (runtime breakdown), and Fig. 10 (usage breakdown) from the
//! same trained models, so no table retrains them.

use mpld::{layout_stats, run_pipeline, TimingBreakdown, UsageBreakdown};
use mpld_bench::{fmt_duration, print_table, train_fold, Bench};
use mpld_ec::EcDecomposer;
use mpld_graph::{Budget, Decomposer, LayoutGraph};
use mpld_ilp::encode::BipDecomposer;
use mpld_sdp::SdpDecomposer;
use std::time::{Duration, Instant};

fn main() {
    let bench = Bench::load();
    let n = bench.circuits.len();
    let a = bench.params.alpha;

    // Per-circuit measurements.
    let mut ours_cost = vec![f64::NAN; n];
    let mut gnn_cost = vec![f64::NAN; n];
    let mut ours_time = vec![Duration::ZERO; n];
    let mut gnn_time = vec![Duration::ZERO; n];
    let mut usage = UsageBreakdown::default();
    let mut timing = TimingBreakdown::default();
    // Table VII extras.
    let mut pred_ns = vec![0usize; n];
    let mut t7_ilp_cost = vec![0f64; n];
    let mut t7_gnn_cost = vec![0f64; n];
    let mut t7_ilp_time = vec![Duration::ZERO; n];
    let mut t7_gnn_time = vec![Duration::ZERO; n];
    // Circuits where ColorGNN matched ILP on every predicted graph.
    let (mut t7_matched, mut t7_tested) = (0usize, 0usize);

    for (train_idx, test_idx) in bench.folds() {
        if train_idx.is_empty() {
            continue;
        }
        let mut fw = train_fold(&bench, &train_idx);
        let exact = BipDecomposer::new();
        for &ci in &test_idx {
            let prep = &bench.prepared[ci];
            fw.use_colorgnn = false;
            let ro = fw.decompose_prepared(prep);
            ours_cost[ci] = ro.pipeline.cost.value(a);
            ours_time[ci] = ro.pipeline.decompose_time;
            // Each ColorGNN measurement starts from the same stream
            // position, as an `Engine` run with `Session::new(DEFAULT_SEED)`
            // would, so no number depends on what ran before it.
            fw.use_colorgnn = true;
            fw.colorgnn.reseed(mpld::DEFAULT_SEED);
            let rg = fw.decompose_prepared(prep);
            gnn_cost[ci] = rg.pipeline.cost.value(a);
            gnn_time[ci] = rg.pipeline.decompose_time;
            usage.matching += rg.usage.matching;
            usage.colorgnn += rg.usage.colorgnn;
            usage.ilp += rg.usage.ilp;
            usage.ec += rg.usage.ec;
            usage.colorgnn_fallbacks += rg.usage.colorgnn_fallbacks;
            timing.matching += rg.timing.matching;
            timing.selection += rg.timing.selection;
            timing.redundancy += rg.timing.redundancy;
            timing.colorgnn += rg.timing.colorgnn;
            timing.ilp += rg.timing.ilp;
            timing.ec += rg.timing.ec;

            // Table VII: the predicted non-stitch set on this circuit.
            let graphs: Vec<&LayoutGraph> = prep.units.iter().map(|u| &u.hetero).collect();
            if !graphs.is_empty() {
                let probs = fw.redundancy.predict_batch(&graphs);
                let parents: Vec<LayoutGraph> = graphs
                    .iter()
                    .zip(&probs)
                    .filter(|(g, p)| !g.has_stitches() || p[0] > fw.redundancy_bar)
                    .map(|(g, _)| g.merge_stitch_edges().0)
                    .collect();
                pred_ns[ci] = parents.len();
                let refs: Vec<&LayoutGraph> = parents.iter().collect();
                fw.colorgnn.reseed(mpld::DEFAULT_SEED);
                let t = Instant::now();
                let results =
                    fw.colorgnn
                        .decompose_batch(&refs, &bench.params, &Budget::unlimited());
                t7_gnn_time[ci] = t.elapsed();
                t7_gnn_cost[ci] = results.iter().map(|d| d.cost.value(a)).sum();
                let t = Instant::now();
                let ilp_costs: Vec<f64> = refs
                    .iter()
                    .map(|g| exact.decompose_unbounded(g, &bench.params).cost.value(a))
                    .collect();
                t7_ilp_time[ci] = t.elapsed();
                t7_ilp_cost[ci] = ilp_costs.iter().sum();
                let mut pairs = results.iter().zip(&ilp_costs);
                t7_matched += usize::from(pairs.all(|(d, &ilp)| d.cost.value(a) <= ilp + 1e-9));
                t7_tested += 1;
            }
        }
        eprintln!("fold tested {test_idx:?}");
    }

    // Baselines.
    let mut rows4 = Vec::new();
    let mut rows5 = Vec::new();
    let mut totals4 = [0f64; 5];
    let mut totals5 = [Duration::ZERO; 5];
    for ci in 0..n {
        let prep = &bench.prepared[ci];
        let ilp = run_pipeline(prep, &BipDecomposer::new(), &bench.params);
        let sdp = run_pipeline(prep, &SdpDecomposer::new(), &bench.params);
        let ec = run_pipeline(prep, &EcDecomposer::new(), &bench.params);
        let c4 = [
            ilp.cost.value(a),
            sdp.cost.value(a),
            ec.cost.value(a),
            ours_cost[ci],
            gnn_cost[ci],
        ];
        let c5 = [
            ilp.decompose_time,
            sdp.decompose_time,
            ec.decompose_time,
            ours_time[ci],
            gnn_time[ci],
        ];
        for (t, v) in totals4.iter_mut().zip(c4) {
            if !v.is_nan() {
                *t += v;
            }
        }
        for (t, v) in totals5.iter_mut().zip(c5) {
            *t += v;
        }
        rows4.push(vec![
            bench.circuits[ci].name.to_string(),
            format!("{:.1}", c4[0]),
            format!("{:.1}", c4[1]),
            format!("{:.1}", c4[2]),
            if c4[3].is_nan() {
                "-".into()
            } else {
                format!("{:.1}", c4[3])
            },
            if c4[4].is_nan() {
                "-".into()
            } else {
                format!("{:.1}", c4[4])
            },
        ]);
        rows5.push(vec![
            bench.circuits[ci].name.to_string(),
            fmt_duration(c5[0]),
            fmt_duration(c5[1]),
            fmt_duration(c5[2]),
            fmt_duration(c5[3]),
            fmt_duration(c5[4]),
        ]);
        eprintln!("{} baselines measured", bench.circuits[ci].name);
    }
    let ratio4 = |i: usize| format!("{:.3}", totals4[i] / totals4[0].max(1e-12));
    rows4.push(vec![
        "total".into(),
        format!("{:.1}", totals4[0]),
        format!("{:.1}", totals4[1]),
        format!("{:.1}", totals4[2]),
        format!("{:.1}", totals4[3]),
        format!("{:.1}", totals4[4]),
    ]);
    rows4.push(vec![
        "ratio".into(),
        "1.000".into(),
        ratio4(1),
        ratio4(2),
        ratio4(3),
        ratio4(4),
    ]);
    let ratio5 = |i: usize| {
        format!(
            "{:.3}",
            totals5[i].as_secs_f64() / totals5[0].as_secs_f64().max(1e-12)
        )
    };
    rows5.push(vec![
        "total".into(),
        fmt_duration(totals5[0]),
        fmt_duration(totals5[1]),
        fmt_duration(totals5[2]),
        fmt_duration(totals5[3]),
        fmt_duration(totals5[4]),
    ]);
    rows5.push(vec![
        "ratio".into(),
        "1.000".into(),
        ratio5(1),
        ratio5(2),
        ratio5(3),
        ratio5(4),
    ]);

    println!("\nTable IV: decomposition cost (cn# + 0.1 st#)\n");
    print_table(
        &["circuit", "ILP", "SDP", "EC", "Ours", "Ours w. GNN"],
        &rows4,
    );
    println!("\npaper shape: ILP optimal; EC/SDP slightly above; Ours and Ours w. GNN match ILP.");

    println!("\nTable V: decomposition runtime (one thread; preprocessing excluded)\n");
    print_table(
        &["circuit", "ILP", "SDP", "EC", "Ours", "Ours w. GNN"],
        &rows5,
    );
    println!("\npaper shape: ILP slowest by far; Ours ~12.3% of ILP; Ours w. GNN ~4.2% of ILP.");

    // Table VII.
    let mut rows7 = Vec::new();
    let (mut tg, mut tnsc, mut tns, mut tpred) = (0usize, 0usize, 0usize, 0usize);
    for ci in 0..n {
        let s = layout_stats(&bench.prepared[ci], &bench.params);
        tg += s.graphs;
        tnsc += s.no_stitch_candidates;
        tns += s.no_stitch_optimal;
        tpred += pred_ns[ci];
        rows7.push(vec![
            bench.circuits[ci].name.to_string(),
            s.graphs.to_string(),
            s.no_stitch_candidates.to_string(),
            s.no_stitch_optimal.to_string(),
            pred_ns[ci].to_string(),
            format!("{:.1}", t7_ilp_cost[ci]),
            format!("{:.1}", t7_gnn_cost[ci]),
            fmt_duration(t7_ilp_time[ci]),
            fmt_duration(t7_gnn_time[ci]),
        ]);
    }
    rows7.push(vec![
        "total".into(),
        tg.to_string(),
        tnsc.to_string(),
        tns.to_string(),
        tpred.to_string(),
        format!("{:.1}", t7_ilp_cost.iter().sum::<f64>()),
        format!("{:.1}", t7_gnn_cost.iter().sum::<f64>()),
        fmt_duration(t7_ilp_time.iter().sum()),
        fmt_duration(t7_gnn_time.iter().sum()),
    ]);
    println!("\nTable VII: layout statistics and GNN decomposer results\n");
    print_table(
        &[
            "circuit",
            "|G|",
            "|nsc-G|",
            "|ns-G|",
            "|pred ns-G|",
            "ILP cost",
            "GNN cost",
            "ILP time",
            "GNN time",
        ],
        &rows7,
    );
    println!(
        "\n|ns-G| / |G| = {:.1}% (paper: 91.1%); GNN matches ILP cost on {t7_matched} of {t7_tested} circuits",
        100.0 * tns as f64 / tg.max(1) as f64,
    );

    // Fig. 9.
    let sum = timing.total().as_secs_f64().max(1e-12);
    let pct = |d: Duration| format!("{:.2}%", 100.0 * d.as_secs_f64() / sum);
    println!("\nFig. 9: runtime breakdown of the adaptive framework\n");
    print_table(
        &["category", "time", "share"],
        &[
            vec![
                "ILP decomposition".into(),
                fmt_duration(timing.ilp),
                pct(timing.ilp),
            ],
            vec![
                "EC decomposition".into(),
                fmt_duration(timing.ec),
                pct(timing.ec),
            ],
            vec![
                "ColorGNN decomposition".into(),
                fmt_duration(timing.colorgnn),
                pct(timing.colorgnn),
            ],
            vec![
                "selection (embed)".into(),
                fmt_duration(timing.selection),
                pct(timing.selection),
            ],
            vec![
                "library matching".into(),
                fmt_duration(timing.matching),
                pct(timing.matching),
            ],
            vec![
                "redundancy prediction".into(),
                fmt_duration(timing.redundancy),
                pct(timing.redundancy),
            ],
        ],
    );
    let selected = timing.ilp + timing.ec + timing.colorgnn;
    println!(
        "\nselected decomposers account for {:.2}% (paper: ILP + DL = 84.31%)",
        100.0 * selected.as_secs_f64() / sum
    );

    // Fig. 10.
    let total = (usage.matching + usage.colorgnn + usage.ilp + usage.ec).max(1);
    let upct = |x: usize| format!("{:.2}%", 100.0 * x as f64 / total as f64);
    println!("\nFig. 10: decomposer usage breakdown ({total} simplified graphs)\n");
    print_table(
        &["engine", "graphs", "share"],
        &[
            vec![
                "ColorGNN".into(),
                usage.colorgnn.to_string(),
                upct(usage.colorgnn),
            ],
            vec![
                "library matching".into(),
                usage.matching.to_string(),
                upct(usage.matching),
            ],
            vec!["EC".into(), usage.ec.to_string(), upct(usage.ec)],
            vec!["ILP".into(), usage.ilp.to_string(), upct(usage.ilp)],
        ],
    );
    println!(
        "\nColorGNN fallbacks to exact engines: {} (paper: ColorGNN 86.11%, ILP 2.07%)",
        usage.colorgnn_fallbacks
    );
}
