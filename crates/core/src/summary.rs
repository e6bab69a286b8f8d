//! Machine-readable run summaries: the one JSON object shared by the
//! CLI's `--json` output and the server's final response line, so a
//! replayed CLI run and a served request can be compared field by field.
//!
//! The format is a single-line JSON object with nested sections
//! (`cost`, `usage`, `inference`, `budget`), written and read back by
//! key path through the [`json`] codec; `parse(to_json(s)) == s`
//! round-trips exactly (floats are written in Rust's shortest
//! round-trip form, which the codec keeps as text).

use crate::framework::AdaptiveResult;
use mpld_store::json::{self, Value};

/// Flattened, serializable summary of one adaptive decomposition run
/// (routing usage, budget outcomes, inference statistics, audit/fault
/// counts). Constructed from an [`AdaptiveResult`] via
/// [`RunSummary::from_result`]; serialized with [`RunSummary::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Layout name the run decomposed.
    pub layout: String,
    /// Unit-graph count of the prepared layout.
    pub units: usize,
    /// ILP/EC-tail worker threads the run was configured with.
    pub threads: usize,
    /// ColorGNN RNG seed the run sampled from (the CLI and the server
    /// always record the effective one, [`crate::DEFAULT_SEED`] when the
    /// caller pinned none).
    pub seed: Option<u64>,
    /// Conflicting feature pairs of the assembled decomposition.
    pub conflicts: u32,
    /// Activated stitches of the assembled decomposition.
    pub stitches: u32,
    /// Scalar objective `conflicts + alpha * stitches`.
    pub objective: f64,
    /// Wall-clock decomposition time in milliseconds.
    pub decompose_ms: f64,
    /// Units resolved by audited library matching.
    pub matching: usize,
    /// Units resolved by ColorGNN.
    pub colorgnn: usize,
    /// Units resolved by the EC engine.
    pub ec: usize,
    /// Units resolved by the exact ILP.
    pub ilp: usize,
    /// ColorGNN guard failures that fell through to the exact tail.
    pub colorgnn_fallbacks: usize,
    /// Tail units answered without a solve: solution-cache hits plus
    /// isomorphism-memo transfers ([`AdaptiveResult::memo_hits`]).
    pub memo_hits: usize,
    /// In-request embedding-memo dedup hits.
    pub dedup_hits: usize,
    /// Representatives served from the engine's cross-request routing
    /// memo (zero on a cold engine's first request, such as the CLI's).
    pub routing_memo_hits: usize,
    /// Representatives that ran a fresh routing forward pass.
    pub units_inferred: usize,
    /// Units with an optimality certificate.
    pub certified: usize,
    /// Units resolved heuristically.
    pub heuristic: usize,
    /// Units whose search was cut short by the budget.
    pub budget_exhausted: usize,
    /// Units that fell back to a cheaper engine on budget expiry.
    pub budget_fallbacks: usize,
    /// Units quarantined with a greedy-fallback coloring.
    pub quarantined: usize,
    /// Units where the audit rejected at least one candidate result.
    pub audit_rejections: usize,
    /// Tail units restored from a checkpoint journal.
    pub resumed_units: usize,
    /// Tiling counters: present when the layout streamed from a file
    /// through the tiler (`mpld adaptive <file>`), `None` for layouts
    /// swept whole in memory (circuits, uploads, every served request).
    pub tiled: Option<TiledRunSummary>,
}

/// The tiling slice of a [`RunSummary`] (present only when the layout
/// streamed from a file through the tiler; the parity contract keeps
/// every other field identical to a whole sweep of the same layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TiledRunSummary {
    /// Tiles in the grid.
    pub tiles: usize,
    /// Boundary subgraphs re-solved whole (units spanning home tiles).
    pub boundary_resolves: usize,
}

impl RunSummary {
    /// Builds the summary of one finished run. `alpha` comes from the
    /// run's parameters; `threads`/`seed` echo the caller's
    /// configuration (they are not recoverable from the result).
    pub fn from_result(
        layout: &str,
        r: &AdaptiveResult,
        alpha: f64,
        threads: usize,
        seed: Option<u64>,
    ) -> Self {
        Self {
            layout: layout.to_string(),
            units: r.unit_engines.len(),
            threads,
            seed,
            conflicts: r.pipeline.cost.conflicts,
            stitches: r.pipeline.cost.stitches,
            objective: r.pipeline.cost.value(alpha),
            decompose_ms: r.pipeline.decompose_time.as_secs_f64() * 1e3,
            matching: r.usage.matching,
            colorgnn: r.usage.colorgnn,
            ec: r.usage.ec,
            ilp: r.usage.ilp,
            colorgnn_fallbacks: r.usage.colorgnn_fallbacks,
            memo_hits: r.memo_hits,
            dedup_hits: r.inference.memo_hits,
            routing_memo_hits: r.inference.shared_memo_hits,
            units_inferred: r.inference.units_inferred,
            certified: r.budget.certified,
            heuristic: r.budget.heuristic,
            budget_exhausted: r.budget.budget_exhausted,
            budget_fallbacks: r.budget.budget_fallbacks,
            quarantined: r.budget.quarantined,
            audit_rejections: r.budget.audit_rejections,
            resumed_units: r.resumed_units,
            tiled: None,
        }
    }

    /// Serializes to one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// The summary as a codec value: what [`RunSummary::to_json`] writes
    /// and the server's `done` event nests. Floats keep the codec's
    /// shortest round-trip form.
    pub fn to_value(&self) -> Value<'_> {
        let tiled = self.tiled.iter().flat_map(|t| {
            [
                ("tiles", t.tiles.into()),
                ("boundary_resolves", t.boundary_resolves.into()),
            ]
        });
        Value::obj(
            [
                ("layout", self.layout.as_str().into()),
                ("units", self.units.into()),
                ("threads", self.threads.into()),
                ("seed", self.seed.into()),
                (
                    "cost",
                    Value::obj([
                        ("conflicts", u64::from(self.conflicts).into()),
                        ("stitches", u64::from(self.stitches).into()),
                        ("objective", self.objective.into()),
                    ]),
                ),
                ("decompose_ms", self.decompose_ms.into()),
                (
                    "usage",
                    Value::obj([
                        ("matching", self.matching.into()),
                        ("colorgnn", self.colorgnn.into()),
                        ("ec", self.ec.into()),
                        ("ilp", self.ilp.into()),
                        ("colorgnn_fallbacks", self.colorgnn_fallbacks.into()),
                        ("memo_hits", self.memo_hits.into()),
                    ]),
                ),
                (
                    "inference",
                    Value::obj([
                        ("dedup_hits", self.dedup_hits.into()),
                        ("routing_memo_hits", self.routing_memo_hits.into()),
                        ("units_inferred", self.units_inferred.into()),
                    ]),
                ),
                (
                    "budget",
                    Value::obj([
                        ("certified", self.certified.into()),
                        ("heuristic", self.heuristic.into()),
                        ("budget_exhausted", self.budget_exhausted.into()),
                        ("budget_fallbacks", self.budget_fallbacks.into()),
                        ("quarantined", self.quarantined.into()),
                        ("audit_rejections", self.audit_rejections.into()),
                    ]),
                ),
                ("resumed_units", self.resumed_units.into()),
            ]
            .into_iter()
            .chain(tiled),
        )
    }

    /// Parses a line produced by [`RunSummary::to_json`], or a server
    /// `done` event line carrying one under `summary`. Keys are read by
    /// path (`cost.conflicts`, …), so reordered or additional fields are
    /// tolerated.
    pub fn parse(line: &str) -> Option<Self> {
        let root = json::parse(line)?;
        let v = root.get("summary").unwrap_or(&root);
        let seed = v.get("seed")?;
        Some(Self {
            layout: v.get("layout")?.as_str()?.to_string(),
            units: num(v, &["units"])?,
            threads: num(v, &["threads"])?,
            seed: if *seed == Value::Null {
                None
            } else {
                Some(seed.num()?)
            },
            conflicts: num(v, &["cost", "conflicts"])?,
            stitches: num(v, &["cost", "stitches"])?,
            objective: v.path(&["cost", "objective"])?.num()?,
            decompose_ms: v.get("decompose_ms")?.num()?,
            matching: num(v, &["usage", "matching"])?,
            colorgnn: num(v, &["usage", "colorgnn"])?,
            ec: num(v, &["usage", "ec"])?,
            ilp: num(v, &["usage", "ilp"])?,
            colorgnn_fallbacks: num(v, &["usage", "colorgnn_fallbacks"])?,
            memo_hits: num(v, &["usage", "memo_hits"])?,
            dedup_hits: num(v, &["inference", "dedup_hits"])?,
            routing_memo_hits: num(v, &["inference", "routing_memo_hits"])?,
            units_inferred: num(v, &["inference", "units_inferred"])?,
            certified: num(v, &["budget", "certified"])?,
            heuristic: num(v, &["budget", "heuristic"])?,
            budget_exhausted: num(v, &["budget", "budget_exhausted"])?,
            budget_fallbacks: num(v, &["budget", "budget_fallbacks"])?,
            quarantined: num(v, &["budget", "quarantined"])?,
            audit_rejections: num(v, &["budget", "audit_rejections"])?,
            resumed_units: num(v, &["resumed_units"])?,
            // Optional tiled section: absent on layouts swept whole (and
            // on lines written before the tiler existed).
            tiled: num(v, &["tiles"]).map(|tiles| TiledRunSummary {
                tiles,
                boundary_resolves: num(v, &["boundary_resolves"]).unwrap_or(0),
            }),
        })
    }
}

fn num<T: std::str::FromStr>(v: &Value, path: &[&str]) -> Option<T> {
    v.path(path)?.num()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        RunSummary {
            layout: "C432".into(),
            units: 44,
            threads: 2,
            seed: Some(0xBEEF),
            conflicts: 1,
            stitches: 3,
            objective: 1.3,
            decompose_ms: 12.625,
            matching: 30,
            colorgnn: 5,
            ec: 4,
            ilp: 5,
            colorgnn_fallbacks: 1,
            memo_hits: 2,
            dedup_hits: 11,
            routing_memo_hits: 0,
            units_inferred: 33,
            certified: 40,
            heuristic: 4,
            budget_exhausted: 0,
            budget_fallbacks: 0,
            quarantined: 0,
            audit_rejections: 0,
            resumed_units: 0,
            tiled: None,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = sample();
        let parsed = RunSummary::parse(&s.to_json()).expect("parses");
        assert_eq!(parsed, s);
    }

    #[test]
    fn null_seed_round_trips() {
        let mut s = sample();
        s.seed = None;
        assert!(s.to_json().contains("\"seed\":null"));
        assert_eq!(RunSummary::parse(&s.to_json()).expect("parses"), s);
    }

    #[test]
    fn tiled_section_round_trips_and_stays_optional() {
        let mut s = sample();
        assert!(!s.to_json().contains("tiles"));
        s.tiled = Some(TiledRunSummary {
            tiles: 42,
            boundary_resolves: 7,
        });
        let json = s.to_json();
        assert!(json.contains("\"tiles\":42"));
        assert_eq!(RunSummary::parse(&json).expect("parses"), s);
    }

    #[test]
    fn awkward_floats_survive() {
        let mut s = sample();
        s.objective = 0.30000000000000004; // classic non-representable sum
        s.decompose_ms = 1e-7;
        assert_eq!(RunSummary::parse(&s.to_json()).expect("parses"), s);
    }

    #[test]
    fn layout_names_are_escaped() {
        for name in ["we\"ird\\name", "tab\there\n\u{1}", "é😀", "\\\""] {
            let mut s = sample();
            s.layout = name.into();
            let json = s.to_json();
            assert!(json::parse(&json).is_some(), "{json}");
            assert_eq!(RunSummary::parse(&json).expect("parses"), s, "{json}");
        }
    }

    #[test]
    fn reordered_extra_and_done_wrapped_keys_are_tolerated() {
        let s = sample();
        let json = s.to_json();
        let done = format!("{{\"event\":\"done\",\"job\":\"j1\",\"summary\":{json}}}");
        assert_eq!(RunSummary::parse(&done).expect("done line"), s);
        let mut v = json::parse(&json).expect("own output parses");
        if let Value::Obj(fields) = &mut v {
            fields.reverse();
            fields.push(("stages".into(), json::parse("{\"conflicts\":99}").unwrap()));
        }
        assert_eq!(RunSummary::parse(&v.to_string()).expect("reordered"), s);
    }

    /// The exact bytes of `to_json`: key order, the `{:?}` float form, a
    /// `null` seed, the optional tiled tail, and escaped names.
    #[test]
    fn to_json_bytes_are_pinned() {
        const BASE: &str = concat!(
            r#"{"layout":"C432","units":44,"threads":2,"seed":48879,"#,
            r#""cost":{"conflicts":1,"stitches":3,"objective":1.3},"decompose_ms":12.625,"#,
            r#""usage":{"matching":30,"colorgnn":5,"ec":4,"ilp":5,"colorgnn_fallbacks":1,"memo_hits":2},"#,
            r#""inference":{"dedup_hits":11,"routing_memo_hits":0,"units_inferred":33},"#,
            r#""budget":{"certified":40,"heuristic":4,"budget_exhausted":0,"budget_fallbacks":0,"quarantined":0,"audit_rejections":0},"#,
            r#""resumed_units":0}"#
        );
        let s = sample();
        assert_eq!(s.to_json(), BASE);

        let null_seed = RunSummary {
            seed: None,
            ..sample()
        };
        assert_eq!(
            null_seed.to_json(),
            BASE.replace(r#""seed":48879"#, r#""seed":null"#)
        );

        let tiled = RunSummary {
            tiled: Some(TiledRunSummary {
                tiles: 42,
                boundary_resolves: 7,
            }),
            ..sample()
        };
        assert_eq!(
            tiled.to_json(),
            BASE.replace(
                r#""resumed_units":0}"#,
                r#""resumed_units":0,"tiles":42,"boundary_resolves":7}"#
            )
        );

        for (objective, decompose_ms, cost, ms) in [
            (0.30000000000000004, 1e-7, "0.30000000000000004", "1e-7"),
            (562.0, 0.0, "562.0", "0.0"),
            (1e21, 1.5e-300, "1e21", "1.5e-300"),
        ] {
            let awkward = RunSummary {
                objective,
                decompose_ms,
                ..sample()
            };
            let want = BASE
                .replace(r#""objective":1.3"#, &format!(r#""objective":{cost}"#))
                .replace(
                    r#""decompose_ms":12.625"#,
                    &format!(r#""decompose_ms":{ms}"#),
                );
            assert_eq!(awkward.to_json(), want);
        }

        for (name, quoted) in [
            ("we\"ird\\name", r#""we\"ird\\name""#),
            (
                "tab\there\n\u{1}\u{7f}",
                "\"tab\\u0009here\\u000a\\u0001\u{7f}\"",
            ),
            ("é😀", r#""é😀""#),
        ] {
            let named = RunSummary {
                layout: name.into(),
                ..sample()
            };
            assert_eq!(
                named.to_json(),
                BASE.replace(r#""C432""#, quoted),
                "{name:?}"
            );
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RunSummary::parse("{}").is_none());
        assert!(RunSummary::parse("not json").is_none());
    }
}
