//! Machine-readable run summaries: the one JSON object shared by the
//! CLI's `--json` output and the server's final response line, so a
//! replayed CLI run and a served request can be compared field by field.
//!
//! The format is a single-line JSON object with globally unique keys
//! (nested sections never reuse a key name), written and parsed by the
//! same hand-rolled helpers as the checkpoint journal — no JSON
//! dependency, and `parse(to_json(s)) == s` round-trips exactly
//! (floats are emitted with enough precision to survive the trip).

use crate::checkpoint::{field, json_string};
use crate::framework::AdaptiveResult;

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
    /// Units resolved by the batched ColorGNN.
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
    /// Tiled-mode counters; `None` for the monolithic paths.
    pub tiled: Option<TiledRunSummary>,
}

/// The tiled-mode slice of a [`RunSummary`] (present only when the run
/// went through the tiler; the parity contract keeps every other field
/// identical to the non-tiled run).
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
        let seed = match self.seed {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        };
        let tiled = match self.tiled {
            Some(t) => format!(
                ",\"tiles\":{},\"boundary_resolves\":{}",
                t.tiles, t.boundary_resolves
            ),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"layout\":{},\"units\":{},\"threads\":{},\"seed\":{},",
                "\"cost\":{{\"conflicts\":{},\"stitches\":{},\"objective\":{}}},",
                "\"decompose_ms\":{},",
                "\"usage\":{{\"matching\":{},\"colorgnn\":{},\"ec\":{},\"ilp\":{},",
                "\"colorgnn_fallbacks\":{},\"memo_hits\":{}}},",
                "\"inference\":{{\"dedup_hits\":{},",
                "\"routing_memo_hits\":{},\"units_inferred\":{}}},",
                "\"budget\":{{\"certified\":{},\"heuristic\":{},\"budget_exhausted\":{},",
                "\"budget_fallbacks\":{},\"quarantined\":{},\"audit_rejections\":{}}},",
                "\"resumed_units\":{}{}}}"
            ),
            json_string(&self.layout),
            self.units,
            self.threads,
            seed,
            self.conflicts,
            self.stitches,
            float(self.objective),
            float(self.decompose_ms),
            self.matching,
            self.colorgnn,
            self.ec,
            self.ilp,
            self.colorgnn_fallbacks,
            self.memo_hits,
            self.dedup_hits,
            self.routing_memo_hits,
            self.units_inferred,
            self.certified,
            self.heuristic,
            self.budget_exhausted,
            self.budget_fallbacks,
            self.quarantined,
            self.audit_rejections,
            self.resumed_units,
            tiled,
        )
    }

    /// Parses a line produced by [`RunSummary::to_json`]. Key lookup is
    /// global (every key is unique across the nested sections), so the
    /// parser tolerates reordered or additional fields.
    pub fn parse(line: &str) -> Option<Self> {
        let seed = match field(line, "seed")? {
            "null" => None,
            s => Some(s.parse().ok()?),
        };
        Some(Self {
            layout: field(line, "layout")?.to_string(),
            units: num(line, "units")?,
            threads: num(line, "threads")?,
            seed,
            conflicts: num(line, "conflicts")?,
            stitches: num(line, "stitches")?,
            objective: field(line, "objective")?.parse().ok()?,
            decompose_ms: field(line, "decompose_ms")?.parse().ok()?,
            matching: num(line, "matching")?,
            colorgnn: num(line, "colorgnn")?,
            ec: num(line, "ec")?,
            ilp: num(line, "ilp")?,
            colorgnn_fallbacks: num(line, "colorgnn_fallbacks")?,
            memo_hits: num(line, "memo_hits")?,
            dedup_hits: num(line, "dedup_hits")?,
            routing_memo_hits: num(line, "routing_memo_hits")?,
            units_inferred: num(line, "units_inferred")?,
            certified: num(line, "certified")?,
            heuristic: num(line, "heuristic")?,
            budget_exhausted: num(line, "budget_exhausted")?,
            budget_fallbacks: num(line, "budget_fallbacks")?,
            quarantined: num(line, "quarantined")?,
            audit_rejections: num(line, "audit_rejections")?,
            resumed_units: num(line, "resumed_units")?,
            // Optional tiled section: absent on monolithic runs (and on
            // lines written before tiled mode existed).
            tiled: num(line, "tiles").map(|tiles| TiledRunSummary {
                tiles,
                boundary_resolves: num(line, "boundary_resolves").unwrap_or(0),
            }),
        })
    }
}

/// Emits a float that parses back to the same value (`{:?}` is Rust's
/// shortest round-trip representation) and is still valid JSON for the
/// finite values a run summary contains.
fn float(v: f64) -> String {
    format!("{v:?}")
}

fn num<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    field(line, key)?.parse().ok()
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
        let mut s = sample();
        s.layout = "we\"ird\\name".into();
        let json = s.to_json();
        // The escaped name must not break the object structure…
        assert!(json.ends_with('}'));
        // …and the simple scan-based parser recovers the prefix up to the
        // first quote (full unescaping is out of scope for names that the
        // benchmark suite never produces).
        assert!(RunSummary::parse(&json).is_some());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RunSummary::parse("{}").is_none());
        assert!(RunSummary::parse("not json").is_none());
    }
}
