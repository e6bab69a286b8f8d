//! Shared infrastructure for the benchmark harness: suite preparation,
//! per-circuit training-data caching, K-fold splits, table printing, and
//! the digest contract `perf_baseline --check` applies to
//! `BENCH_pipeline.json` ([`check_digest`]).
//!
//! `main_results` prints every framework-dependent result (Tables IV, V
//! and VII, Figs. 9 and 10) from one training pass per fold; the other
//! tables and figures have a binary each in `src/bin/` (run with
//! `cargo run --release -p mpld-bench --bin <name>`).
//! Environment knobs shared by all binaries:
//!
//! - `MPLD_CIRCUITS=n` — only the first `n` circuits (quick runs);
//! - `MPLD_EPOCHS=n` — RGCN training epochs (default 12);
//! - `MPLD_TRAIN_CAP=n` — max units per circuit used for training
//!   (default 150);
//! - `MPLD_FOLDS=n` — number of leave-2-out folds actually executed
//!   (default: all 8).

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use mpld::json::Value;
use mpld::{prepare, LayoutDecomposition, OfflineConfig, PreparedLayout, TrainingData};
use mpld_graph::{DecomposeParams, Fnv64};
use mpld_layout::{iscas_suite, Circuit};

/// The prepared benchmark suite plus cached training labels.
pub struct Bench {
    /// Decomposition parameters (TPL defaults).
    pub params: DecomposeParams,
    /// The circuits, in paper order.
    pub circuits: Vec<Circuit>,
    /// Prepared layouts, parallel to `circuits`.
    pub prepared: Vec<PreparedLayout>,
    /// Per-circuit labeled data covering *every* unit (used as test sets;
    /// training subsamples via [`Bench::merged_data`]).
    pub data: Vec<TrainingData>,
    /// Cap applied per circuit when building training sets.
    pub train_cap: usize,
}

/// Reads a `usize` environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Bench {
    /// Prepares the suite and labels training units (capped per circuit).
    pub fn load() -> Bench {
        let params = DecomposeParams::tpl();
        let limit = env_usize("MPLD_CIRCUITS", 15).clamp(1, 15);
        let train_cap = env_usize("MPLD_TRAIN_CAP", 150);
        let circuits: Vec<Circuit> = iscas_suite().into_iter().take(limit).collect();
        let prepared: Vec<PreparedLayout> = circuits
            .iter()
            .map(|c| prepare(&c.generate(), &params))
            .collect();
        let data = prepared
            .iter()
            .map(|p| {
                let mut d = TrainingData::default();
                d.add_layout(p, &params);
                d
            })
            .collect();
        Bench {
            params,
            circuits,
            prepared,
            data,
            train_cap,
        }
    }

    /// Offline config honoring the environment knobs.
    pub fn offline_config(&self) -> OfflineConfig {
        let mut cfg = OfflineConfig::default();
        cfg.rgcn.epochs = env_usize("MPLD_EPOCHS", 12);
        cfg.colorgnn.epochs = env_usize("MPLD_COLORGNN_EPOCHS", 15);
        cfg
    }

    /// Merges the cached per-circuit data of `indices` into one training
    /// dataset, subsampling each circuit to `train_cap` units while always
    /// keeping the rare classes (ILP-better units and stitch-needing
    /// units) that the classifiers must learn.
    pub fn merged_data(&self, indices: &[usize]) -> TrainingData {
        let mut out = TrainingData::default();
        for &i in indices {
            let d = &self.data[i];
            let not_redundant: std::collections::HashSet<usize> = d
                .redundancy_labels
                .iter()
                .filter(|&&(_, l)| l == 1)
                .map(|&(u, _)| u)
                .collect();
            let mut keep: Vec<usize> = Vec::new();
            let mut plain = 0usize;
            for u in 0..d.units.len() {
                let rare = d.selector_labels[u] == 0 || not_redundant.contains(&u);
                if rare || plain < self.train_cap {
                    keep.push(u);
                    if !rare {
                        plain += 1;
                    }
                }
            }
            let redundancy_of: std::collections::HashMap<usize, u8> =
                d.redundancy_labels.iter().copied().collect();
            for u in keep {
                let idx = out.units.len();
                out.units.push(d.units[u].clone());
                out.selector_labels.push(d.selector_labels[u]);
                if let Some(&l) = redundancy_of.get(&u) {
                    out.redundancy_labels.push((idx, l));
                }
                out.ilp_costs.push(d.ilp_costs[u]);
                out.ec_costs.push(d.ec_costs[u]);
                // Merged sets carry already-solved labels, so every unit
                // is its own representative here.
                out.rep_of.push(idx);
            }
        }
        out
    }

    /// Leave-2-out folds over the loaded circuits: fold `f` tests circuits
    /// `{2f, 2f+1}` and trains on the rest, as in the paper's
    /// cross-validation. Respects `MPLD_FOLDS`.
    pub fn folds(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        let n = self.circuits.len();
        let all_folds = n.div_ceil(2);
        let wanted = env_usize("MPLD_FOLDS", all_folds).clamp(1, all_folds);
        (0..wanted)
            .map(|f| {
                let test: Vec<usize> = [2 * f, 2 * f + 1].into_iter().filter(|&i| i < n).collect();
                let train: Vec<usize> = (0..n).filter(|i| !test.contains(i)).collect();
                (train, test)
            })
            .collect()
    }
}

/// Trains an adaptive framework on the given circuit indices using the
/// cached labels and the environment-configured hyperparameters.
pub fn train_fold(bench: &Bench, train_idx: &[usize]) -> mpld::AdaptiveFramework {
    let data = bench.merged_data(train_idx);
    mpld::train_framework(&data, &bench.params, &bench.offline_config())
}

/// Prints a Markdown-ish table with right-aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(4)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Formats a `Duration` in engineering style (s / ms / µs).
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// FNV-1a over a decomposition's colorings: the feature colors, then each
/// unit's subfeature colors, each prefixed with its length. Equal digests
/// mean every feature and subfeature got the same mask.
pub fn coloring_digest(d: &LayoutDecomposition) -> u64 {
    let mut h = Fnv64::new();
    h.word(d.feature_colors.len() as u64)
        .bytes(&d.feature_colors);
    for unit in &d.unit_subfeature_colorings {
        h.word(unit.len() as u64).bytes(unit);
    }
    h.finish()
}

/// Knobs that make two runs incomparable, each with the section it
/// governs ("" for the whole artifact). `fp_kernel` names the GEMM
/// microkernel, whose last bits can flip a routing decision near its
/// bar; the others set the model's training, the ColorGNN draws and the
/// chip-scale layout.
const KNOBS: [(&str, &str); 6] = [
    ("", "fp_kernel"),
    ("", "seed"),
    ("", "train_cap"),
    ("", "epochs"),
    ("training", "train_seed"),
    ("chip_scale", "target_rects"),
];

/// Sections that do not sum over the suite, so they are compared whole
/// even when the two runs decomposed a different number of `circuits`.
const SUITE_FREE: [&str; 2] = ["training", "chip_scale"];

/// Host facts: they differ between runs of one binary, so no digest
/// compares them.
fn host_fact(path: &str, key: &str) -> bool {
    key == "threads"
        || (path.is_empty() && key == "cpu_cores")
        || (path == "serving" && key == "workers")
}

/// What [`check_digest`] found.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DigestCheck {
    /// One line per field that differs or is missing on one side, led by
    /// its path (`adaptive.per_circuit[C432].engines.ec`). Empty when the
    /// artifacts agree.
    pub diffs: Vec<String>,
    /// What was left uncompared because the runs used different knobs,
    /// and why.
    pub skipped: Vec<String>,
}

/// Compares a fresh `perf_baseline` artifact with the committed one by
/// one rule: every field must be equal, except host facts (`threads` at
/// any level, `cpu_cores`, `serving.workers`). `per_circuit` rows are
/// matched by `name`.
///
/// Runs that differ in `fp_kernel`, `seed`, `train_cap` or `epochs` are
/// not compared at all; `training` is skipped when `train_seed` differs
/// and `chip_scale` when `target_rects` does. When `circuits` differs (a
/// quick run), only the fresh run's `per_circuit` rows, `training` and
/// `chip_scale` are compared: every other field sums over the suite.
pub fn check_digest(fresh: &Value, committed: &Value) -> DigestCheck {
    let mut check = DigestCheck::default();
    let (circuits, ref_circuits) = (fresh.get("circuits"), committed.get("circuits"));
    if circuits != ref_circuits {
        check.skipped.push(format!(
            "circuits mismatch ({} vs committed {}): suite totals not compared",
            circuits.unwrap_or(&Value::Null),
            ref_circuits.unwrap_or(&Value::Null),
        ));
    }
    check.compare("", fresh, committed, circuits == ref_circuits);
    check
}

/// The path of `key` under `path`.
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// An object's fields, or a `per_circuit` array's rows keyed by `name`.
fn entries<'v, 'a>(path: &str, v: &'v Value<'a>) -> Option<Vec<(&'v str, &'v Value<'a>)>> {
    match v {
        Value::Obj(fields) => Some(fields.iter().map(|(k, v)| (k.as_ref(), v)).collect()),
        Value::Arr(rows) if path.ends_with(".per_circuit") => Some(
            rows.iter()
                .map(|r| (r.get("name").and_then(Value::as_str).unwrap_or("?"), r))
                .collect(),
        ),
        _ => None,
    }
}

impl DigestCheck {
    /// Compares `fresh` with `committed` at `path`; scalars count only
    /// when `whole` (inside a row, a suite-free section, or same suite).
    fn compare<'v, 'a>(
        &mut self,
        path: &str,
        fresh: &'v Value<'a>,
        committed: &'v Value<'a>,
        whole: bool,
    ) {
        let (Some(fields), Some(ref_fields)) = (entries(path, fresh), entries(path, committed))
        else {
            if whole && fresh != committed {
                self.diffs
                    .push(format!("{path}: {fresh} (committed {committed})"));
            }
            return;
        };
        for &(_, knob) in KNOBS.iter().filter(|(section, _)| *section == path) {
            if let (Some(a), Some(b)) = (fresh.get(knob), committed.get(knob)) {
                if a != b {
                    let scope = if path.is_empty() { "artifact" } else { path };
                    self.skipped.push(format!(
                        "{} mismatch ({a} vs committed {b}): {scope} not compared",
                        join(path, knob)
                    ));
                    return;
                }
            }
        }
        let rows = matches!(fresh, Value::Arr(_));
        let mut seen: Vec<&str> = Vec::new();
        for &(key, _) in fields.iter().chain(&ref_fields) {
            if seen.contains(&key) || host_fact(path, key) {
                continue;
            }
            seen.push(key);
            let sub = if rows {
                format!("{path}[{key}]")
            } else {
                join(path, key)
            };
            let find = |entries: &[(&str, &'v Value<'a>)]| {
                entries.iter().find(|e| e.0 == key).map(|e| e.1)
            };
            let side = match (find(&fields), find(&ref_fields)) {
                (Some(a), Some(b)) => {
                    let whole = whole || rows || (path.is_empty() && SUITE_FREE.contains(&key));
                    self.compare(&sub, a, b, whole);
                    continue;
                }
                (Some(_), None) => "committed",
                // A quick run's rows are a subset of the committed ones.
                (None, _) if whole || !rows => "fresh",
                (None, _) => continue,
            };
            self.diffs
                .push(format!("{sub}: missing from the {side} artifact"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Bench {
        let params = DecomposeParams::tpl();
        let circuits: Vec<Circuit> = iscas_suite().into_iter().take(2).collect();
        let prepared: Vec<PreparedLayout> = circuits
            .iter()
            .map(|c| prepare(&c.generate(), &params))
            .collect();
        let data = prepared
            .iter()
            .map(|p| {
                let mut d = TrainingData::default();
                d.add_layout_capped(p, &params, 30);
                d
            })
            .collect();
        Bench {
            params,
            circuits,
            prepared,
            data,
            train_cap: 30,
        }
    }

    #[test]
    fn folds_cover_all_circuits_once() {
        let bench = tiny();
        let folds = bench.folds();
        let mut tested: Vec<usize> = folds.iter().flat_map(|(_, t)| t.clone()).collect();
        tested.sort_unstable();
        assert_eq!(tested, (0..bench.circuits.len()).collect::<Vec<_>>());
        for (train, test) in &folds {
            for t in test {
                assert!(!train.contains(t));
            }
        }
    }

    #[test]
    fn merged_data_remaps_redundancy_indices() {
        let bench = tiny();
        let merged = bench.merged_data(&[0, 1]);
        assert_eq!(
            merged.units.len(),
            bench.data[0].units.len() + bench.data[1].units.len()
        );
        for &(i, _) in &merged.redundancy_labels {
            assert!(merged.units[i].has_stitches());
        }
    }

    /// The committed artifact: the real shape the rule applies to.
    fn committed() -> Value<'static> {
        mpld::json::parse(include_str!("../../../BENCH_pipeline.json")).unwrap()
    }

    /// The field at the dotted `path`; a key picks an object field, or the
    /// `per_circuit` row of that name.
    fn field<'v>(mut v: &'v mut Value<'static>, path: &str) -> &'v mut Value<'static> {
        for key in path.split('.').filter(|k| !k.is_empty()) {
            v = match v {
                Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Value::Arr(rows) => rows
                    .iter_mut()
                    .find(|r| r.get("name").and_then(Value::as_str) == Some(key))
                    .unwrap(),
                _ => panic!("{key}: not an object or array"),
            };
        }
        v
    }

    /// Sets the field at `path` to the JSON value `json`.
    fn set(v: &mut Value<'static>, path: &str, json: &'static str) {
        *field(v, path) = mpld::json::parse(json).unwrap();
    }

    /// Drops `key` (a field, or a `per_circuit` row's name) at `path`.
    fn remove(v: &mut Value<'static>, path: &str, key: &str) {
        match field(v, path) {
            Value::Obj(fields) => fields.retain(|(k, _)| k != key),
            Value::Arr(rows) => rows.retain(|r| r.get("name").and_then(Value::as_str) != Some(key)),
            _ => panic!("not an object or array"),
        }
    }

    /// Asserts `check` failed on exactly the fields named by `paths`, in
    /// any order.
    fn assert_fails_on(check: &DigestCheck, paths: &[&str]) {
        let mut named: Vec<&str> = check
            .diffs
            .iter()
            .map(|d| d.split(": ").next().unwrap())
            .collect();
        let mut paths = paths.to_vec();
        named.sort_unstable();
        paths.sort_unstable();
        assert_eq!(named, paths, "{:?}", check.diffs);
    }

    #[test]
    fn identical_artifacts_pass() {
        let c = committed();
        assert_eq!(check_digest(&c, &c), DigestCheck::default());
    }

    #[test]
    fn a_changed_coloring_or_engine_count_fails_naming_its_path() {
        let mut fresh = committed();
        set(
            &mut fresh,
            "adaptive.per_circuit.C499.coloring_digest",
            "\"0123456789abcdef\"",
        );
        set(&mut fresh, "adaptive.per_circuit.S38584.engines.ec", "205");
        set(&mut fresh, "chip_scale.objective", "997.4");
        assert_fails_on(
            &check_digest(&fresh, &committed()),
            &[
                "adaptive.per_circuit[C499].coloring_digest",
                "adaptive.per_circuit[S38584].engines.ec",
                "chip_scale.objective",
            ],
        );
    }

    #[test]
    fn a_missing_key_row_or_section_fails_naming_its_path() {
        let mut fresh = committed();
        remove(&mut fresh, "chip_scale", "coloring_digest");
        remove(&mut fresh, "", "library");
        remove(&mut fresh, "serving.per_circuit", "C880");
        let missing = [
            "serving.per_circuit[C880]",
            "library",
            "chip_scale.coloring_digest",
        ];
        assert_fails_on(&check_digest(&fresh, &committed()), &missing);
        // Whichever side lacks them.
        assert_fails_on(&check_digest(&committed(), &fresh), &missing);
    }

    #[test]
    fn host_facts_and_budgeted_counts_pass() {
        let mut fresh = committed();
        for path in [
            "threads",
            "cpu_cores",
            "adaptive.threads",
            "chip_scale.threads",
            "serving.workers",
        ] {
            set(&mut fresh, path, "2");
        }
        assert_eq!(check_digest(&fresh, &committed()), DigestCheck::default());
    }

    #[test]
    fn a_knob_mismatch_skips_its_scope_with_a_message() {
        let mut fresh = committed();
        set(&mut fresh, "fp_kernel", "\"scalar\"");
        set(&mut fresh, "adaptive.per_circuit.C432.engines.ec", "9");
        let check = check_digest(&fresh, &committed());
        assert!(check.diffs.is_empty(), "{check:?}");
        assert_eq!(check.skipped.len(), 1);
        assert!(
            check.skipped[0].starts_with("fp_kernel mismatch (\"scalar\" vs"),
            "{check:?}"
        );

        // A section's own knob skips only that section.
        let mut fresh = committed();
        set(&mut fresh, "training.train_seed", "1");
        set(&mut fresh, "training.labeled_units", "1");
        set(&mut fresh, "chip_scale.target_rects", "20000");
        set(&mut fresh, "chip_scale.rects", "20000");
        set(&mut fresh, "adaptive.per_circuit.C432.units", "59");
        let check = check_digest(&fresh, &committed());
        assert_fails_on(&check, &["adaptive.per_circuit[C432].units"]);
        assert!(check.skipped[0].starts_with("training.train_seed mismatch (1 vs"));
        assert!(check.skipped[0].ends_with(": training not compared"));
        assert!(check.skipped[1].starts_with("chip_scale.target_rects mismatch"));
    }

    #[test]
    fn a_quick_run_compares_its_rows_and_no_suite_totals() {
        let mut fresh = committed();
        for section in ["adaptive", "serving"] {
            let Value::Arr(rows) = field(&mut fresh, &format!("{section}.per_circuit")) else {
                panic!("rows")
            };
            rows.truncate(3);
        }
        set(&mut fresh, "circuits", "3");
        for path in [
            "total_units",
            "adaptive.memo_hits",
            "inference.routing_units_inferred",
            "serving.requests",
            "serving.routing_memo.hits",
            "serving_resume.tail_units",
            "library.circuits",
        ] {
            set(&mut fresh, path, "7");
        }
        let check = check_digest(&fresh, &committed());
        assert!(check.diffs.is_empty(), "{check:?}");
        assert!(check.skipped[0].starts_with("circuits mismatch"));

        // Its three rows, training and chip_scale are still compared.
        set(
            &mut fresh,
            "serving.per_circuit.C880.warm_solution_memo_hits",
            "0",
        );
        set(&mut fresh, "training.deduped_units", "0");
        set(&mut fresh, "chip_scale.tiles", "1");
        assert_fails_on(
            &check_digest(&fresh, &committed()),
            &[
                "training.deduped_units",
                "serving.per_circuit[C880].warm_solution_memo_hits",
                "chip_scale.tiles",
            ],
        );

        // With the suite unchanged, every total is compared.
        let mut fresh = committed();
        set(&mut fresh, "library.cold_tail_solves", "599");
        assert_fails_on(
            &check_digest(&fresh, &committed()),
            &["library.cold_tail_solves"],
        );
    }

    #[test]
    fn coloring_digest_sees_every_color_and_boundary() {
        let d = |features: &[u8], units: &[&[u8]]| LayoutDecomposition {
            feature_colors: features.to_vec(),
            unit_subfeature_colorings: units.iter().map(|u| u.to_vec()).collect(),
        };
        let base = coloring_digest(&d(&[0, 1, 2], &[&[0, 1], &[2]]));
        assert_eq!(base, coloring_digest(&d(&[0, 1, 2], &[&[0, 1], &[2]])));
        for other in [
            d(&[0, 1, 1], &[&[0, 1], &[2]]),
            d(&[0, 1, 2], &[&[0, 2], &[2]]),
            d(&[0, 1, 2], &[&[0], &[1, 2]]),
            d(&[0, 1, 2, 0], &[&[1], &[2]]),
        ] {
            assert_ne!(coloring_digest(&other), base, "{other:?}");
        }
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
    }
}
