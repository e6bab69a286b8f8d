//! Subcommand implementations.

use crate::args::{parse, Parsed};
use mpld::{
    audit_boundary_units, layout_stats, prepare, prepare_tiled, prepare_tiled_file, run_pipeline,
    AdaptiveFramework, BudgetPolicy, Checkpoint, CheckpointHeader, Engine, JournalWriter,
    OfflineConfig, Recovery, RunSummary, Session, TiledPrepared, TiledProgress, TiledRunSummary,
    TilingConfig, TrainingData,
};
use mpld_ec::EcDecomposer;
use mpld_graph::{DecomposeParams, Decomposer, MpldError};
use mpld_ilp::encode::BipDecomposer;
use mpld_ilp::IlpDecomposer;
use mpld_layout::{
    circuit_by_name, generate_layout_streaming, iscas_suite, read_layout, write_layout,
    GeneratorParams, Layout, LayoutWriter, ReadLimits,
};
use mpld_sdp::SdpDecomposer;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::time::Duration;

/// CLI failure: either a usage/environment problem (exit code 2) or a
/// typed solver error surfaced from the decomposition stack (exit code 1).
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments, unreadable files, unknown engines, ...
    Usage(String),
    /// A typed [`MpldError`] from the decomposition layers.
    Solver(MpldError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => f.write_str(m),
            CliError::Solver(e) => write!(f, "{e}"),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Usage(m.to_string())
    }
}

impl From<MpldError> for CliError {
    fn from(e: MpldError) -> Self {
        CliError::Solver(e)
    }
}

/// Parses a human-friendly duration: `250ms`, `1.5s`, or a bare number of
/// seconds (`30`). Used by `--time-limit` / `--unit-time-limit`.
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, scale) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e-6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("cannot parse duration {s:?} (try 250ms, 1.5s, or 30)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("duration {s:?} must be a non-negative number"));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

fn option_duration(parsed: &Parsed, name: &str) -> Result<Option<Duration>, String> {
    parsed
        .option(name)
        .map(|v| parse_duration(v).map_err(|e| format!("--{name}: {e}")))
        .transpose()
}

const USAGE: &str = "\
usage: mpld <command> [args]

commands:
  list                               list the benchmark circuits
  generate <circuit> [-o file]       write a benchmark layout (text format)
  gen --rects <n> --out <file>       stream a chip-scale synthetic layout
                                     of ~n rectangles to a file without
                                     holding it in memory (reproducible)
      --seed <n>  --d <nm>           generator seed (default 1) and
                                     coloring distance (default 100)
      --name <s>                     layout name (default \"chip\")
  stats <layout> [--exact true]      population statistics (exact adds ILP)
  decompose <layout> [options]       single-engine decomposition
      --engine ilp|ilp-bb|sdp|ec     engine (default ilp-bb)
      --k <masks>  --alpha <w>       parameters (default 3, 0.1)
      -o <file>                      write per-feature mask assignment
  train [options]                    offline training, save the framework
      --circuits C499,C880,...       training circuits (default: 4 smalls)
      --cap <n> --epochs <n>         limits (default 150, 12)
      -o <file>                      model output (default model.bin)
  adaptive <layout> --model <file>   adaptive decomposition with a model
      --threads <n>                  ILP/EC tail worker threads (default:
                                     MPLD_THREADS env or the machine's
                                     available parallelism)
      --time-limit <dur>             wall-clock budget for the whole run
                                     (250ms, 1.5s, or bare seconds); on
                                     exhaustion the best incumbent per
                                     unit is kept, never an error
      --unit-time-limit <dur>        per-unit solver budget; exact solves
                                     that expire fall back to the next
                                     cheapest engine's incumbent
      --seed <n>                     seed the ColorGNN restart RNG
                                     (default 0xBEEF, as for serve and
                                     submit; echoed in the run summary);
                                     same seed => same results
      --colorgnn false               disable the ColorGNN heuristic head:
                                     its units route to the certified
                                     ILP/EC tail instead (slower, exact,
                                     and journaled under --checkpoint)
      --checkpoint <file>            append-only JSONL journal of the
                                     ILP/EC-tail solves; a journal left by
                                     a killed run is audited and resumed
                                     instead of re-solved
      --json true                    print a single-line JSON run summary
                                     instead of the human-readable report
                                     (same object the server's final
                                     \"done\" event carries)
      --store-dir <dir>              persistent graph-library store: the
                                     library and audit-clean ILP/EC-tail
                                     solves are loaded from (and appended
                                     back to) a model-fingerprint-keyed
                                     file, so repeat runs skip the tail;
                                     corrupted or stale records re-solve
      --store-max-entries <n>        cap on stored solve records
      --store-max-bytes <n>          cap on the store file size
      --cache-cap <n>                cap on each in-memory cross-request
                                     cache (entries; arbitrary eviction)
      --tiled true                   memory-bounded tiled preprocessing:
                                     layout files are streamed from disk
                                     and windowed into overlapping tiles
                                     (O(tile) geometry working set) with
                                     halo-exact boundary conflicts; costs
                                     and colorings are bit-identical to
                                     the non-tiled run
      --tile-span <nm>               tile side length (default 48*d)
      --halo <nm>                    halo width (default d; clamped to
                                     at least d, the soundness minimum)
  serve --model <file> [options]     long-lived decomposition service: one
                                     warm engine shared by all requests
                                     (HTTP/NDJSON; see crates/server docs)
      --addr <host:port>             bind address (default 127.0.0.1:7878)
      --workers <n>                  request worker threads (default 2)
      --queue-depth <n>              accepted connections allowed to wait;
                                     beyond this new requests get 429
      --colorgnn false               disable the ColorGNN head (see
                                     adaptive); tail solves are journaled
                                     under --journal-dir
      --journal-dir <dir>            per-job JSONL journals: a killed
                                     server restarted over the same dir
                                     resumes re-submitted jobs instead of
                                     re-solving them
      --max-body-bytes <n>           request body cap (default 2 MiB)
      --max-line-bytes <n>           upload line-length cap (default 4096)
      --max-rects <n>                upload rect-count cap (default 200k)
      --tiled true                   tiled preprocessing for all requests:
                                     per-tile NDJSON progress events, a
                                     boundary_audit event per solve, tile
                                     counters in /stats, and a tiled
                                     section in run summaries; costs stay
                                     bit-identical to the default path
      --tile-span <nm> --halo <nm>   tiling knobs (as adaptive --tiled)
      --store-dir <dir>              persistent store (as adaptive): a
                                     restarted server warm-loads the
                                     library and previous tail solves and
                                     appends new ones (write-behind);
                                     counters in /stats under \"store\"
      --store-max-entries <n>        cap on stored solve records
      --store-max-bytes <n>          cap on the store file size
      --cache-cap <n>                cap on each in-memory cross-request
                                     cache (entries; arbitrary eviction),
                                     high-water marks in /stats
  library <action> --store-dir <dir> inspect or maintain a persistent
                                     store directory; actions:
      stats                          per-file entries, buckets, model key,
                                     bytes (--json for machine output)
      verify                         full audit re-check of every stored
                                     coloring; exit 1 if anything is
                                     corrupt, audit-stale, or orphaned
      compact                        dedup superseded/orphaned/corrupt
                                     records, rewrite-and-swap in place
  submit <layout> [options]          submit a job to a running mpld-server
                                     and stream its NDJSON events; retries
                                     429/disconnects with exponential
                                     backoff + jitter and reattaches to
                                     the same job id after a drop
      --addr <host:port>             server address (default 127.0.0.1:7878)
      --seed <n> --time-limit <dur>  forwarded to the server
      --job-id <id>                  stable job id ([A-Za-z0-9._-], <=64);
                                     defaults to an id derived from the
                                     request, making re-submits idempotent
      --retries <n>                  connection attempts (default 8)
      --connect-timeout <dur>        per-attempt connect timeout (def. 2s)
      --read-timeout <dur>           max silence between events (def. 30s)
      --backoff <dur>                initial retry backoff (default 100ms)
      --json true                    print only the final done line (the
                                     run-summary JSON) on stdout
  render <layout> -o out.svg         render to SVG
      --engine ilp|ilp-bb|sdp|ec     color by a decomposition (optional)

<layout> is a benchmark circuit name (see 'mpld list') or a path to a
layout file in the text interchange format.";

type Command = fn(&Parsed) -> Result<(), CliError>;

/// Dispatches the parsed command line. Each command names the options it
/// reads; any other option is a usage error, raised before the command
/// touches a file.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let parsed = parse(argv)?;
    let name = parsed.positional(0).unwrap_or("help");
    let (command, options): (Command, &[&str]) = match name {
        "help" | "--help" => (
            |_| {
                println!("{USAGE}");
                Ok(())
            },
            &[],
        ),
        "list" => (|_| cmd_list(), &[]),
        "generate" => (cmd_generate, &["o"]),
        "gen" => (cmd_gen, &["rects", "out", "seed", "d", "name"]),
        "stats" => (cmd_stats, &["exact", "k", "alpha"]),
        "decompose" => (cmd_decompose, &["engine", "o", "k", "alpha"]),
        "train" => (cmd_train, &["circuits", "cap", "epochs", "o", "k", "alpha"]),
        "adaptive" => (
            cmd_adaptive,
            &[
                "model",
                "k",
                "alpha",
                "threads",
                "time-limit",
                "unit-time-limit",
                "seed",
                "json",
                "checkpoint",
                "o",
                "colorgnn",
                "cache-cap",
                "store-dir",
                "store-max-entries",
                "store-max-bytes",
                "tiled",
                "tile-span",
                "halo",
            ],
        ),
        "serve" => (
            cmd_serve,
            &[
                "model",
                "k",
                "alpha",
                "addr",
                "workers",
                "queue-depth",
                "journal-dir",
                "max-body-bytes",
                "max-line-bytes",
                "max-rects",
                "colorgnn",
                "cache-cap",
                "store-dir",
                "store-max-entries",
                "store-max-bytes",
                "tiled",
                "tile-span",
                "halo",
            ],
        ),
        "library" => (cmd_library, &["store-dir", "json"]),
        "submit" => (
            cmd_submit,
            &[
                "addr",
                "connect-timeout",
                "read-timeout",
                "retries",
                "backoff",
                "jitter-seed",
                "seed",
                "time-limit",
                "job-id",
                "json",
            ],
        ),
        "render" => (cmd_render, &["engine", "o", "k", "alpha"]),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?}\n{USAGE}"
            )))
        }
    };
    let mut unknown: Vec<&str> = parsed
        .option_names()
        .filter(|o| !options.contains(o))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        return Err(CliError::Usage(format!(
            "{name}: unknown option --{} (see 'mpld help')",
            unknown.join(", --")
        )));
    }
    command(&parsed)
}

fn load_layout(arg: &str) -> Result<Layout, CliError> {
    if let Some(c) = circuit_by_name(arg) {
        return Ok(c.generate());
    }
    let file = File::open(arg).map_err(|e| format!("cannot open {arg}: {e}"))?;
    // Malformed layout files surface as typed parse errors (exit code 1,
    // with the offending line number), not as usage errors.
    read_layout(BufReader::new(file)).map_err(|e| CliError::Solver(MpldError::from(e)))
}

fn params_from(parsed: &Parsed) -> Result<DecomposeParams, String> {
    let k: u8 = parsed.option_or("k", 3)?;
    let alpha: f64 = parsed.option_or("alpha", 0.1)?;
    if !(2..=8).contains(&k) {
        return Err("--k must be between 2 and 8".into());
    }
    Ok(DecomposeParams { k, alpha })
}

fn cmd_list() -> Result<(), CliError> {
    println!(
        "{:<10} {:>6} {:>10} {:>7}",
        "circuit", "d(nm)", "~features", "group"
    );
    for c in iscas_suite() {
        println!(
            "{:<10} {:>6} {:>10} {:>7}",
            c.name,
            c.d,
            c.approx_features(),
            if c.large { "large" } else { "small" }
        );
    }
    Ok(())
}

fn cmd_generate(parsed: &Parsed) -> Result<(), CliError> {
    let name = parsed
        .positional(1)
        .ok_or("generate: missing circuit name")?;
    let layout = load_layout(name)?;
    match parsed.option("o") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            write_layout(&layout, BufWriter::new(file)).map_err(|e| e.to_string())?;
            println!("wrote {} features to {path}", layout.features.len());
        }
        None => {
            write_layout(&layout, std::io::stdout().lock()).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Streams a reproducible chip-scale synthetic layout to disk: the
/// generator and the writer are both incremental, so memory stays O(band)
/// regardless of `--rects`.
fn cmd_gen(parsed: &Parsed) -> Result<(), CliError> {
    let rects: u64 = parsed
        .option("rects")
        .ok_or("gen: missing --rects <n>")?
        .parse()
        .map_err(|_| "gen: cannot parse --rects".to_string())?;
    if rects == 0 {
        return Err("gen: --rects must be positive".into());
    }
    let out = parsed.option("out").ok_or("gen: missing --out <file>")?;
    let seed: u64 = parsed.option_or("seed", 1)?;
    let d: i64 = parsed.option_or("d", 100)?;
    if d <= 0 {
        return Err("gen: --d must be positive".into());
    }
    let name = parsed.option("name").unwrap_or("chip");

    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut writer = LayoutWriter::new(BufWriter::new(file), name, d)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    let gen_params = GeneratorParams::sized(rects, seed);
    let mut written_rects = 0u64;
    let mut io_err: Option<std::io::Error> = None;
    let features = generate_layout_streaming(d, &gen_params, |f| {
        if let Err(e) = writer.feature(&f) {
            io_err = Some(e);
            return false;
        }
        written_rects += f.rects().len() as u64;
        written_rects < rects
    });
    if let Some(e) = io_err {
        return Err(format!("cannot write {out}: {e}").into());
    }
    writer
        .finish()
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    if written_rects < rects {
        return Err(format!(
            "gen: generator exhausted at {written_rects} of {rects} rects \
             (sizing underestimated; please report)"
        )
        .into());
    }
    println!("wrote {features} features ({written_rects} rects, d = {d} nm, seed {seed}) to {out}");
    Ok(())
}

fn cmd_stats(parsed: &Parsed) -> Result<(), CliError> {
    let arg = parsed.positional(1).ok_or("stats: missing layout")?;
    let exact: bool = parsed.option_or("exact", false)?;
    let params = params_from(parsed)?;
    let layout = load_layout(arg)?;
    let prep = prepare(&layout, &params);
    println!(
        "layout {}: {} features, d = {} nm",
        layout.name,
        layout.features.len(),
        layout.d
    );
    println!(
        "conflict graph: {} edges; {} features hidden by simplification",
        prep.graph.conflict_edges().len(),
        prep.simplified.hidden_nodes().len()
    );
    let sizes: Vec<usize> = prep.units.iter().map(|u| u.hetero.num_nodes()).collect();
    let stitchy = prep
        .units
        .iter()
        .filter(|u| u.hetero.has_stitches())
        .count();
    println!(
        "{} unit graphs (max {} nodes, {} with stitch candidates)",
        prep.units.len(),
        sizes.iter().max().copied().unwrap_or(0),
        stitchy
    );
    if exact {
        let s = layout_stats(&prep, &params);
        println!(
            "exact: |nsc-G| = {}, |ns-G| = {} ({:.1}% stitch-free optima)",
            s.no_stitch_candidates,
            s.no_stitch_optimal,
            100.0 * s.no_stitch_optimal as f64 / s.graphs.max(1) as f64
        );
    }
    Ok(())
}

fn cmd_decompose(parsed: &Parsed) -> Result<(), CliError> {
    let arg = parsed.positional(1).ok_or("decompose: missing layout")?;
    let params = params_from(parsed)?;
    let layout = load_layout(arg)?;
    let prep = prepare(&layout, &params);
    let engine_name = parsed.option("engine").unwrap_or("ilp-bb");
    let engine: Box<dyn Decomposer> = match engine_name {
        "ilp" => Box::new(BipDecomposer::new()),
        "ilp-bb" => Box::new(IlpDecomposer::new()),
        "sdp" => Box::new(SdpDecomposer::new()),
        "ec" => Box::new(EcDecomposer::new()),
        other => return Err(format!("unknown engine {other:?} (ilp|ilp-bb|sdp|ec)").into()),
    };
    let result = run_pipeline(&prep, engine.as_ref(), &params);
    println!(
        "{} on {}: {} (objective {:.1}) in {:?}",
        engine.name(),
        layout.name,
        result.cost,
        result.cost.value(params.alpha),
        result.decompose_time
    );
    if let Some(path) = parsed.option("o") {
        write_masks(path, &result.decomposition.feature_colors)?;
        println!("wrote mask assignment to {path}");
    }
    Ok(())
}

fn write_masks(path: &str, colors: &[u8]) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# feature_id mask").map_err(|e| e.to_string())?;
    for (f, &m) in colors.iter().enumerate() {
        writeln!(w, "{f} {m}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_train(parsed: &Parsed) -> Result<(), CliError> {
    let params = params_from(parsed)?;
    let names = parsed.option("circuits").unwrap_or("C499,C880,C1355,C1908");
    let cap: usize = parsed.option_or("cap", 150)?;
    let epochs: usize = parsed.option_or("epochs", 12)?;
    let out = parsed.option("o").unwrap_or("model.bin");

    let mut data = TrainingData::default();
    for name in names.split(',') {
        let layout = load_layout(name.trim())?;
        let prep = prepare(&layout, &params);
        eprintln!(
            "labeling {} ({} units, cap {cap})...",
            layout.name,
            prep.units.len()
        );
        data.add_layout_capped(&prep, &params, cap);
    }
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = epochs;
    eprintln!(
        "training on {} labeled units ({} deduped from identical twins)...",
        data.units.len(),
        data.deduped
    );
    let (fw, report) = mpld::train_framework_with_report(&data, &params, &cfg);
    eprintln!(
        "final losses: selector {:.6}, redundancy {:.6}, colorgnn {:.6}",
        report.selector_loss, report.redundancy_loss, report.colorgnn_loss
    );
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    fw.save(BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!(
        "saved framework (library {} graphs) to {out}",
        fw.library.len()
    );
    Ok(())
}

fn load_model(model: &str, params: &DecomposeParams) -> Result<AdaptiveFramework, CliError> {
    let file = File::open(model).map_err(|e| format!("cannot open {model}: {e}"))?;
    AdaptiveFramework::load(BufReader::new(file), params, &OfflineConfig::default())
        .map_err(|e| format!("cannot load {model}: {e}").into())
}

fn store_caps_from(parsed: &Parsed) -> Result<mpld_store::StoreCaps, CliError> {
    let max_entries = parsed
        .option("store-max-entries")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("cannot parse --store-max-entries {v}"))
        })
        .transpose()?;
    let max_bytes = parsed
        .option("store-max-bytes")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("cannot parse --store-max-bytes {v}"))
        })
        .transpose()?;
    Ok(mpld_store::StoreCaps {
        max_entries,
        max_bytes,
    })
}

fn cache_cap_from(parsed: &Parsed) -> Result<Option<usize>, CliError> {
    Ok(parsed
        .option("cache-cap")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("cannot parse --cache-cap {v}"))
        })
        .transpose()?)
}

/// The engine `adaptive` and `serve` run: store-backed with
/// `--store-dir` (the graph library and previous audit-clean tail solves
/// load from the model-fingerprint-keyed store file, and fresh solves
/// append back), else in memory.
fn load_engine(parsed: &Parsed, model: &str, params: &DecomposeParams) -> Result<Engine, CliError> {
    let colorgnn: Option<bool> = parsed
        .option("colorgnn")
        .map(|v| {
            v.parse::<bool>()
                .map_err(|_| format!("cannot parse --colorgnn {v}"))
        })
        .transpose()?;
    let cache_cap = cache_cap_from(parsed)?;
    let Some(store_dir) = parsed.option("store-dir") else {
        let mut fw = load_model(model, params)?;
        fw.use_colorgnn = colorgnn.unwrap_or(fw.use_colorgnn);
        return Ok(Engine::with_cache_cap(fw, cache_cap));
    };
    let bytes = std::fs::read(model).map_err(|e| format!("cannot open {model}: {e}"))?;
    mpld::engine_with_store_configured(
        &bytes,
        params,
        &OfflineConfig::default(),
        std::path::Path::new(store_dir),
        store_caps_from(parsed)?,
        cache_cap,
        |fw| fw.use_colorgnn = colorgnn.unwrap_or(fw.use_colorgnn),
    )
    .map(|(engine, _)| engine)
    .map_err(|e| format!("cannot open store {store_dir}: {e}").into())
}

/// One human-readable line about what the store contributed to a run.
fn print_store_line(engine: &Engine) {
    if let Some(s) = engine.stats().store {
        println!(
            "store: {} solves loaded ({} ms), library {}, {} appended{}{}",
            s.loaded_solves,
            s.load_ms,
            if s.lib_loaded { "loaded" } else { "rebuilt" },
            s.appended,
            if s.rekeyed {
                ", re-keyed stale file"
            } else {
                ""
            },
            if s.skipped_corrupt + s.skipped_audit > 0 {
                format!(
                    ", skipped {} corrupt / {} audit-stale",
                    s.skipped_corrupt, s.skipped_audit
                )
            } else {
                String::new()
            },
        );
    }
}

/// `mpld library <stats|verify|compact> --store-dir <dir>`: persistent
/// store inspection and maintenance. `verify` exits 1 (typed solver
/// error) when any stored record is corrupt, audit-stale, or orphaned;
/// usage problems exit 2 as everywhere else.
fn cmd_library(parsed: &Parsed) -> Result<(), CliError> {
    let action = parsed
        .positional(1)
        .ok_or("library: missing action (stats|verify|compact)")?;
    let dir = parsed
        .option("store-dir")
        .ok_or("library: missing --store-dir <dir>")?;
    let dir = std::path::Path::new(dir);
    let json: bool = parsed.option_or("json", false)?;
    match action {
        "stats" => {
            let files = mpld_store::scan_dir(dir)
                .map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
            if json {
                let items: Vec<String> = files.iter().map(library_stats_json).collect();
                println!("[{}]", items.join(","));
                return Ok(());
            }
            if files.is_empty() {
                println!("no store files under {}", dir.display());
                return Ok(());
            }
            for f in &files {
                match &f.header {
                    Some(h) => println!(
                        "{}: model {:016x}  k {}  alpha {}  dim {}  lib {}\n  \
                         {} solves in {} buckets, {} library entries ({}), {} bytes{}",
                        f.path.display(),
                        h.model_digest,
                        h.k,
                        h.alpha,
                        h.dim,
                        h.library,
                        f.solves,
                        f.buckets,
                        f.lib_entries,
                        if f.lib_complete {
                            "complete"
                        } else {
                            "incomplete"
                        },
                        f.bytes,
                        if f.corrupt > 0 {
                            format!(", {} corrupt lines", f.corrupt)
                        } else {
                            String::new()
                        },
                    ),
                    None => println!(
                        "{}: unreadable header ({} bytes)",
                        f.path.display(),
                        f.bytes
                    ),
                }
            }
            Ok(())
        }
        "verify" => {
            let reports = mpld_store::verify_dir(dir)
                .map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
            let mut dirty = 0usize;
            for r in &reports {
                let status = if r.is_clean() { "clean" } else { "DEGRADED" };
                println!(
                    "{}: {} — {} records ({} clean, {} corrupt, {} audit-failed, \
                     {} orphaned{}{})",
                    r.path.display(),
                    status,
                    r.records,
                    r.clean,
                    r.corrupt,
                    r.audit_failed,
                    r.orphaned,
                    if r.torn_tail { ", torn tail" } else { "" },
                    if r.header_ok { "" } else { ", bad header" },
                );
                if !r.is_clean() {
                    dirty += 1;
                }
            }
            if reports.is_empty() {
                println!("no store files under {}", dir.display());
            }
            if dirty > 0 {
                // Degraded stores are a data problem, not a usage one.
                return Err(CliError::Solver(MpldError::Io(format!(
                    "store verification failed: {dirty} of {} files degraded (run \
                     'mpld library compact' to reclaim)",
                    reports.len()
                ))));
            }
            Ok(())
        }
        "compact" => {
            let results = mpld_store::compact_dir(dir)
                .map_err(|e| format!("compact {}: {e}", dir.display()))?;
            if results.is_empty() {
                println!("no store files under {}", dir.display());
            }
            for (path, r) in &results {
                println!(
                    "{}: kept {} solves + {} library entries; dropped {} superseded, \
                     {} corrupt, {} audit-failed, {} orphaned; {} -> {} bytes",
                    path.display(),
                    r.kept_solves,
                    r.kept_lib,
                    r.dropped_superseded,
                    r.dropped_corrupt,
                    r.dropped_audit,
                    r.dropped_orphaned,
                    r.bytes_before,
                    r.bytes_after,
                );
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "library: unknown action {other:?} (expected stats|verify|compact)"
        ))),
    }
}

fn library_stats_json(f: &mpld_store::FileStats) -> String {
    let header = match &f.header {
        Some(h) => format!(
            "{{\"model\":\"{:016x}\",\"k\":{},\"alpha\":{},\"dim\":{},\"library\":\"{}\"}}",
            h.model_digest, h.k, h.alpha, h.dim, h.library
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"path\":{:?},\"header\":{header},\"solves\":{},\"buckets\":{},\
         \"lib_entries\":{},\"lib_complete\":{},\"corrupt\":{},\"bytes\":{}}}",
        f.path.display().to_string(),
        f.solves,
        f.buckets,
        f.lib_entries,
        f.lib_complete,
        f.corrupt,
        f.bytes
    )
}

/// `mpld adaptive`: one [`Engine`] + [`Session`] run, whatever the
/// options. `--store-dir` backs the engine with the persistent store,
/// `--tiled` swaps in memory-bounded tiled preprocessing (the prepared
/// layout is bit-identical to the monolithic one, and boundary units are
/// re-audited afterwards), and `--checkpoint` journals the tail.
fn cmd_adaptive(parsed: &Parsed) -> Result<(), CliError> {
    let arg = parsed.positional(1).ok_or("adaptive: missing layout")?;
    let model = parsed
        .option("model")
        .ok_or("adaptive: missing --model <file>")?;
    let params = params_from(parsed)?;
    let threads: usize = parsed.option_or("threads", mpld::default_threads())?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let policy = BudgetPolicy {
        total: option_duration(parsed, "time-limit")?,
        per_unit: option_duration(parsed, "unit-time-limit")?,
        ..BudgetPolicy::unlimited()
    };
    let seed: u64 = parsed.option_or("seed", mpld::DEFAULT_SEED)?;
    let json: bool = parsed.option_or("json", false)?;
    let engine = load_engine(parsed, model, &params)?;
    let tiled = if parsed.option_or("tiled", false)? {
        Some(prepare_tiled_from(parsed, arg, &params, threads, json)?)
    } else {
        None
    };
    let monolithic;
    let prep = match &tiled {
        Some(tp) => &tp.prep,
        None => {
            monolithic = prepare(&load_layout(arg)?, &params);
            &monolithic
        }
    };

    // Crash-safe checkpointing: resume from (and keep appending to) an
    // on-disk journal of the ILP/EC-tail solves.
    let mut resume = None;
    let mut journal = None;
    if let Some(path) = parsed.option("checkpoint") {
        let p = std::path::Path::new(path);
        if let Some(cp) = Checkpoint::load(p)? {
            if !cp.matches(&prep.name, params.k, params.alpha, prep.units.len()) {
                return Err(format!(
                    "--checkpoint {path}: journal belongs to a different run \
                     (layout {:?}, k {}, {} units)",
                    cp.header().layout,
                    cp.header().k,
                    cp.header().units
                )
                .into());
            }
            resume = Some(cp);
        }
        let header = CheckpointHeader {
            layout: prep.name.clone(),
            k: params.k,
            alpha: params.alpha,
            units: prep.units.len(),
        };
        journal = Some(JournalWriter::append(p, &header)?);
    }
    // Deterministic fault injection for chaos testing: only compiled in
    // with `--features failpoints`, only active when MPLD_FAILPOINTS is
    // set (e.g. MPLD_FAILPOINTS="seed=7,rate=0.02"), and armed only for
    // the fault-isolated online pipeline — the offline library rebuild
    // inside model loading requires the exact engine to run fault-free.
    #[cfg(feature = "failpoints")]
    if let Some((fp_seed, rate)) = mpld_graph::failpoints::configure_from_env() {
        eprintln!("failpoints: enabled (seed={fp_seed}, rate={rate})");
        // Injected panics are expected and quarantined; swap the default
        // hook's multi-line backtrace for a one-line note (quarantined
        // units are listed in the run summary anyway).
        std::panic::set_hook(Box::new(|info| eprintln!("chaos: {info}")));
    }

    let mut session = Session::with_policy(seed, policy.clone());
    session.threads = threads;
    session.recovery = Recovery {
        resume: resume.as_ref(),
        journal: journal.as_ref(),
    };
    let r = engine.decompose(prep, &mut session)?;
    let boundary = tiled
        .as_ref()
        .map(|tp| audit_boundary_units(prep, &r, &tp.boundary_units, params.k));
    if let Some((audited, false)) = boundary {
        eprintln!(
            "tiled: WARNING boundary cost audit disagreed on at least one of {audited} units"
        );
    }

    if json {
        // One machine-readable line — the same RunSummary object the
        // server's final "done" event carries, for digest comparisons.
        let mut summary =
            RunSummary::from_result(&prep.name, &r, params.alpha, threads, Some(seed));
        summary.tiled = tiled.as_ref().map(|tp| TiledRunSummary {
            tiles: tp.stats.tiles_x * tp.stats.tiles_y,
            boundary_resolves: tp.stats.boundary_resolves,
        });
        println!("{}", summary.to_json());
    } else {
        println!(
            "adaptive on {}: {} (objective {:.1}) in {:?} ({threads} threads, seed {seed})",
            prep.name,
            r.pipeline.cost,
            r.pipeline.cost.value(params.alpha),
            r.pipeline.decompose_time,
        );
        if let (Some(tp), Some((audited, clean))) = (&tiled, boundary) {
            let stats = &tp.stats;
            println!(
                "tiling: {}x{} tiles (span {} nm, halo {} nm), {} of {} features replicated",
                stats.tiles_x,
                stats.tiles_y,
                stats.tile_span,
                stats.halo,
                stats.replicated_features,
                stats.features
            );
            println!(
                "boundary: {} of {} conflict edges cross tiles; {} boundary re-solves, \
                 cost audit {} on {} units",
                stats.boundary_edges,
                stats.edges,
                stats.boundary_resolves,
                if clean { "clean" } else { "FAILED" },
                audited
            );
        }
        println!(
            "usage: matching {}  ColorGNN {}  EC {}  ILP {}  (fallbacks {}, memo hits {})",
            r.usage.matching,
            r.usage.colorgnn,
            r.usage.ec,
            r.usage.ilp,
            r.usage.colorgnn_fallbacks,
            r.memo_hits
        );
        if !policy.is_unlimited() {
            println!(
                "budget: {} certified  {} heuristic  {} budget-exhausted  {} fallbacks",
                r.budget.certified,
                r.budget.heuristic,
                r.budget.budget_exhausted,
                r.budget.budget_fallbacks
            );
        }
        print_store_line(&engine);
        if r.resumed_units > 0 {
            println!(
                "checkpoint: resumed {} of {} units from the journal",
                r.resumed_units,
                prep.units.len()
            );
        }
        if r.budget.quarantined > 0 || r.budget.audit_rejections > 0 {
            println!(
                "faults: {} quarantined  {} audit rejections",
                r.budget.quarantined, r.budget.audit_rejections
            );
        }
    }
    for (unit, e) in &r.quarantines {
        eprintln!("  unit {unit}: {e}");
    }
    if let Some(path) = parsed.option("o") {
        write_masks(path, &r.pipeline.decomposition.feature_colors)?;
        if !json {
            println!("wrote mask assignment to {path}");
        }
    }
    Ok(())
}

/// `adaptive --tiled true` preprocessing: layout files are streamed from
/// disk (geometry spilled to an unlinked temp file, O(tile) working
/// set); benchmark circuits are tiled in memory. In human mode the
/// tiling milestones are narrated on stderr (per-tile events are
/// skipped — there can be thousands).
fn prepare_tiled_from(
    parsed: &Parsed,
    arg: &str,
    params: &DecomposeParams,
    threads: usize,
    json: bool,
) -> Result<TiledPrepared, CliError> {
    let config = TilingConfig {
        tile_span: parsed.option_or("tile-span", 0)?,
        halo: parsed.option_or("halo", 0)?,
        threads,
    };
    let progress = move |p: TiledProgress| {
        if json {
            return;
        }
        match p {
            TiledProgress::Scanned { features, rects } => {
                eprintln!("tiled: scanned {features} features ({rects} rects)");
            }
            TiledProgress::Grid {
                tiles_x,
                tiles_y,
                tile_span,
                halo,
            } => {
                eprintln!("tiled: {tiles_x}x{tiles_y} tiles (span {tile_span} nm, halo {halo} nm)");
            }
            TiledProgress::Tile { .. } => {}
            TiledProgress::Simplified {
                edges,
                units,
                boundary_units,
            } => {
                eprintln!(
                    "tiled: {edges} conflict edges, {units} units ({boundary_units} on tile boundaries)"
                );
            }
        }
    };
    Ok(match circuit_by_name(arg) {
        Some(c) => prepare_tiled(&c.generate(), params, &config, &progress),
        None => prepare_tiled_file(
            std::path::Path::new(arg),
            &ReadLimits::unlimited(),
            params,
            &config,
            &progress,
        )?,
    })
}

/// Long-lived decomposition service: loads the model and compiles the
/// frozen inference heads once, then serves requests from a worker pool
/// sharing one warm [`Engine`] until SIGTERM/SIGINT, when it drains and
/// exits cleanly.
fn cmd_serve(parsed: &Parsed) -> Result<(), CliError> {
    use mpld_server::{install_signal_handlers, serve, ServerConfig};

    let model = parsed
        .option("model")
        .ok_or("serve: missing --model <file>")?;
    let params = params_from(parsed)?;
    let defaults = ServerConfig::default();
    let addr = parsed.option("addr").unwrap_or("127.0.0.1:7878");
    let cfg = ServerConfig {
        workers: parsed.option_or("workers", defaults.workers)?,
        queue_depth: parsed.option_or("queue-depth", defaults.queue_depth)?,
        journal_dir: parsed.option("journal-dir").map(std::path::PathBuf::from),
        http: mpld_server::HttpLimits {
            max_body_bytes: parsed.option_or("max-body-bytes", defaults.http.max_body_bytes)?,
            ..defaults.http
        },
        upload: mpld_layout::ReadLimits {
            max_line_bytes: parsed.option_or("max-line-bytes", defaults.upload.max_line_bytes)?,
            max_rects: parsed.option_or("max-rects", defaults.upload.max_rects)?,
            ..defaults.upload
        },
        tiling: if parsed.option_or("tiled", false)? {
            Some(TilingConfig {
                tile_span: parsed.option_or("tile-span", 0)?,
                halo: parsed.option_or("halo", 0)?,
                // Request workers are the parallelism; tiles run serial.
                threads: 1,
            })
        } else {
            None
        },
        ..defaults
    };
    if cfg.workers == 0 {
        return Err("--workers must be positive".into());
    }
    // With --store-dir the engine is store-backed: the graph library and
    // previous audit-clean tail solves load from disk in milliseconds,
    // and certified fresh solves append back (write-behind) so a warm
    // restart serves the same workload with near-zero tail solves.
    let engine = load_engine(parsed, model, &params)?;
    if let Some(s) = engine.stats().store {
        eprintln!(
            "store: {} solves preloaded, library {} ({} ms{})",
            s.loaded_solves,
            if s.lib_loaded { "loaded" } else { "rebuilt" },
            s.load_ms,
            if s.rekeyed { ", re-keyed" } else { "" },
        );
    }
    let engine = std::sync::Arc::new(engine);
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // Readiness line on stdout (flushed) so wrappers can wait for it.
    println!(
        "mpld-server listening on {local} ({} workers, queue {})",
        cfg.workers, cfg.queue_depth
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let shutdown = install_signal_handlers();
    serve(engine, listener, &cfg, shutdown).map_err(|e| format!("serve: {e}"))?;
    println!("mpld-server: drained, exiting");
    Ok(())
}

/// Submits a decomposition job to a running `mpld-server` and streams
/// its NDJSON events, retrying 429s and dropped connections with
/// exponential backoff + jitter and reattaching to the same job id
/// after a disconnect (idempotent resume; see the server crate's client
/// module docs).
fn cmd_submit(parsed: &Parsed) -> Result<(), CliError> {
    use mpld_server::{submit, ClientConfig, ClientError, SubmitBody, SubmitRequest};

    let target = parsed
        .positional(1)
        .ok_or("submit: missing <layout> (circuit name or file)")?;
    let defaults = ClientConfig::default();
    let cfg = ClientConfig {
        addr: parsed
            .option("addr")
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        connect_timeout: option_duration(parsed, "connect-timeout")?
            .unwrap_or(defaults.connect_timeout),
        read_timeout: option_duration(parsed, "read-timeout")?.unwrap_or(defaults.read_timeout),
        max_attempts: parsed.option_or("retries", defaults.max_attempts)?,
        backoff_base: option_duration(parsed, "backoff")?.unwrap_or(defaults.backoff_base),
        backoff_cap: defaults.backoff_cap,
        jitter_seed: parsed.option_or("jitter-seed", defaults.jitter_seed)?,
    };
    let seed = parsed
        .option("seed")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("cannot parse --seed {v}"))
        })
        .transpose()?;
    let time_limit_ms = option_duration(parsed, "time-limit")?.map(|d| d.as_millis() as u64);
    let job_id = parsed.option("job-id").map(str::to_string);
    let json = parsed.option("json") == Some("true");

    // A known circuit name is submitted by name (the server generates
    // it); anything else is read as a layout file and uploaded raw.
    let body = if circuit_by_name(target).is_some() {
        SubmitBody::Circuit(target.to_string())
    } else {
        let text = std::fs::read_to_string(target)
            .map_err(|e| format!("submit: cannot read layout {target:?}: {e}"))?;
        SubmitBody::Upload(text)
    };
    let req = SubmitRequest {
        body,
        seed,
        time_limit_ms,
        job_id,
    };

    match submit(&cfg, &req, &mut |line| {
        if !json {
            println!("{line}");
        }
    }) {
        Ok(o) => {
            if json {
                println!("{}", o.done_line);
            }
            if o.attempts > 1 || o.reattaches > 0 || o.busy_retries > 0 {
                eprintln!(
                    "mpld submit: job {} done after {} attempts \
                     ({} reattaches, {} busy retries)",
                    o.job_id, o.attempts, o.reattaches, o.busy_retries
                );
            }
            Ok(())
        }
        Err(e @ ClientError::Rejected { .. }) => Err(CliError::Usage(format!("submit: {e}"))),
        Err(e) => Err(CliError::Solver(MpldError::Infeasible {
            engine: "server",
            reason: format!("submit: {e}"),
        })),
    }
}

fn cmd_render(parsed: &Parsed) -> Result<(), CliError> {
    let arg = parsed.positional(1).ok_or("render: missing layout")?;
    let out = parsed.option("o").ok_or("render: missing -o <file.svg>")?;
    let params = params_from(parsed)?;
    let layout = load_layout(arg)?;
    let colors = match parsed.option("engine") {
        None => None,
        Some(name) => {
            let engine: Box<dyn Decomposer> = match name {
                "ilp" => Box::new(BipDecomposer::new()),
                "ilp-bb" => Box::new(IlpDecomposer::new()),
                "sdp" => Box::new(SdpDecomposer::new()),
                "ec" => Box::new(EcDecomposer::new()),
                other => return Err(format!("unknown engine {other:?}").into()),
            };
            let prep = prepare(&layout, &params);
            let r = run_pipeline(&prep, engine.as_ref(), &params);
            println!("decomposed with {}: {}", engine.name(), r.cost);
            Some(r.decomposition.feature_colors)
        }
    };
    let svg = mpld_viz::render_svg(&layout, colors.as_deref(), &mpld_viz::SvgOptions::default());
    std::fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_writes_svg() {
        let dir = std::env::temp_dir().join("mpld_cli_render");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let out = dir.join("c432.svg").to_string_lossy().to_string();
        dispatch(&[
            "render".into(),
            "C432".into(),
            "--engine".into(),
            "ec".into(),
            "-o".into(),
            out.clone(),
        ])
        .expect("render");
        let svg = std::fs::read_to_string(&out).expect("svg written");
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let argv = vec!["frobnicate".to_string()];
        assert!(matches!(dispatch(&argv), Err(CliError::Usage(_))));
    }

    #[test]
    fn durations_parse_with_suffixes() {
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert_eq!(parse_duration("30").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("500us").unwrap(), Duration::from_micros(500));
        assert_eq!(parse_duration("0").unwrap(), Duration::ZERO);
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("-1s").is_err());
        assert!(parse_duration("1m").is_err());
    }

    #[test]
    fn bad_time_limit_is_a_usage_error() {
        let r = dispatch(&[
            "adaptive".into(),
            "C432".into(),
            "--model".into(),
            "/nonexistent/model.bin".into(),
            "--time-limit".into(),
            "soon".into(),
        ]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_requires_a_model() {
        let r = dispatch(&["serve".into()]);
        assert!(matches!(r, Err(CliError::Usage(_))));
        let r = dispatch(&[
            "serve".into(),
            "--model".into(),
            "/nonexistent/model.bin".into(),
            "--workers".into(),
            "0".into(),
        ]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn submit_usage_errors_are_typed() {
        // Missing target.
        let r = dispatch(&["submit".into()]);
        assert!(matches!(r, Err(CliError::Usage(_))));
        // Not a circuit and not a readable file.
        let r = dispatch(&[
            "submit".into(),
            "/nonexistent/layout.txt".into(),
            "--retries".into(),
            "1".into(),
        ]);
        assert!(matches!(r, Err(CliError::Usage(_))));
        // Bad duration flag.
        let r = dispatch(&[
            "submit".into(),
            "C432".into(),
            "--read-timeout".into(),
            "soon".into(),
        ]);
        assert!(matches!(r, Err(CliError::Usage(_))));
        // Unreachable server with one fast attempt: a solver-side
        // failure (exit 1), not a usage error.
        let r = dispatch(&[
            "submit".into(),
            "C432".into(),
            "--addr".into(),
            "127.0.0.1:1".into(),
            "--retries".into(),
            "1".into(),
            "--connect-timeout".into(),
            "50ms".into(),
            "--backoff".into(),
            "1ms".into(),
        ]);
        assert!(matches!(r, Err(CliError::Solver(_))));
    }

    #[test]
    fn bad_json_flag_is_a_usage_error() {
        let r = dispatch(&[
            "adaptive".into(),
            "C432".into(),
            "--model".into(),
            "/nonexistent/model.bin".into(),
            "--json".into(),
            "maybe".into(),
        ]);
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn list_runs() {
        assert!(dispatch(&["list".to_string()]).is_ok());
    }

    #[test]
    fn options_a_command_does_not_read_are_usage_errors() {
        let unknown = |argv: &[&str], option: &str| {
            let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            match dispatch(&argv) {
                Err(CliError::Usage(m)) => {
                    assert!(m.contains("unknown option") && m.contains(option), "{m}");
                }
                other => panic!("{argv:?}: expected a usage error, got {other:?}"),
            }
        };
        unknown(&["decompose", "C432", "--engin", "ec"], "--engin");
        unknown(&["list", "--bogus", "1"], "--bogus");
        // Rejected before the (missing) model file is opened.
        unknown(
            &[
                "adaptive",
                "C432",
                "--model",
                "/nonexistent/model.bin",
                "--precision",
                "int8",
            ],
            "--precision",
        );
    }

    #[test]
    fn layout_round_trip_via_files() {
        let dir = std::env::temp_dir().join("mpld_cli_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let layout_path = dir.join("c432.layout").to_string_lossy().to_string();
        dispatch(&[
            "generate".into(),
            "C432".into(),
            "-o".into(),
            layout_path.clone(),
        ])
        .expect("generate");
        // Decompose the generated file and write masks.
        let masks_path = dir.join("masks.txt").to_string_lossy().to_string();
        dispatch(&[
            "decompose".into(),
            layout_path.clone(),
            "--engine".into(),
            "ec".into(),
            "-o".into(),
            masks_path.clone(),
        ])
        .expect("decompose");
        let masks = std::fs::read_to_string(&masks_path).expect("masks written");
        let lines = masks.lines().filter(|l| !l.starts_with('#')).count();
        let layout = load_layout(&layout_path).expect("parse back");
        assert_eq!(lines, layout.features.len());
    }

    #[test]
    fn stats_runs_on_circuit() {
        assert!(dispatch(&["stats".into(), "C432".into()]).is_ok());
    }

    #[test]
    fn bad_engine_rejected() {
        let r = dispatch(&[
            "decompose".into(),
            "C432".into(),
            "--engine".into(),
            "magic".into(),
        ]);
        assert!(r.is_err());
    }
}
