//! On-disk JSONL format: the keyed headers and the record kinds.
//!
//! A store file is `\n`-terminated single-line JSON objects, read through
//! the [`json`](crate::json) codec: a header, then records. Both header
//! kinds open with the same provenance — format version, **model
//! fingerprint** (FNV-64 of the serialized weights), `k`, `alpha`
//! bit-exact. A library store adds the embedding dimension and the
//! library-config token ([`StoreKey`], whose digest also names the file,
//! so a retrained model writes a *different* file); a job journal adds
//! the layout name and unit count ([`JournalKey`]). Records:
//!
//! - `"t":"s"` — one audit-clean tail solve: graph, `ec_first` routing
//!   bucket, engine, certainty, coloring, claimed cost;
//! - `"t":"l"` — one graph-library entry: graph, bit-exact embeddings
//!   (f32 bit patterns in hex), optimal solution, claimed cost;
//! - `"t":"ld"` — library-dump completion marker with the entry count (a
//!   dump without it is orphaned, never half-trusted);
//! - `"t":"u"` — one settled tail unit of a journal: unit index, graph
//!   fingerprint, engine, certainty, budget-fallback flag, coloring,
//!   claimed cost.

use crate::json::{self, Value};
use mpld_graph::{Certainty, CostBreakdown, Fnv64, LayoutGraph};
use mpld_matching::LibraryEntry;
use mpld_tensor::Matrix;
use std::path::{Path, PathBuf};

/// The multiplier of the store's FNV-1a digests, `0x1_0000_01b3`: one
/// zero byte short of the FNV prime since the store's first version.
/// Model digests and store file names are on disk under it, so it stays.
const STORE_FNV_PRIME: u64 = 0x0000_0001_0000_01b3;

/// FNV-1a over raw bytes with the store's multiplier — the model
/// fingerprint ([`StoreKey::model_digest`], [`JournalKey::model_digest`]).
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::with_prime(STORE_FNV_PRIME).bytes(bytes).finish()
}

/// On-disk format version; bumped on any incompatible layout change, and
/// whenever the solvers may answer a stored graph differently (2: EC
/// breaks equal-cost ties in a fixed order, so a version-1 coloring can
/// differ from a fresh solve of the same graph).
pub const FORMAT_VERSION: u32 = 2;

/// The provenance every header opens with (no braces).
fn provenance(model_digest: u64, k: u8, alpha: f64) -> String {
    format!(
        "\"v\":{FORMAT_VERSION},\"model\":\"{model_digest:016x}\",\"k\":{k},\
         \"alpha_bits\":\"{:016x}\",\"alpha\":{alpha}",
        alpha.to_bits()
    )
}

/// Everything a stored entry's validity depends on: the model that
/// produced the embeddings and routing decisions, and the decomposition
/// parameters its solutions were optimal under. Any component changing
/// re-keys the store instead of ever serving a stale match.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreKey {
    /// [`fnv64`] of the serialized framework weights (the
    /// `model.bin` bytes).
    pub model_digest: u64,
    /// Mask count `k`.
    pub k: u8,
    /// Stitch weight `alpha` (compared bit-exactly).
    pub alpha: f64,
    /// Graph-embedding dimension `d` of the selector head.
    pub dim: usize,
    /// Canonical library-config token (e.g. `p6s1n7t1`).
    pub library: String,
}

impl StoreKey {
    /// Digest over every key component; names the store file.
    pub fn digest(&self) -> u64 {
        Fnv64::with_prime(STORE_FNV_PRIME)
            .bytes(&self.model_digest.to_le_bytes())
            .bytes(&[self.k])
            .bytes(&self.alpha.to_bits().to_le_bytes())
            .bytes(&(self.dim as u64).to_le_bytes())
            .bytes(self.library.as_bytes())
            .finish()
    }

    /// The file this key loads from / appends to.
    pub fn file_name(&self) -> String {
        format!("library-{:016x}.jsonl", self.digest())
    }

    /// [`StoreKey::file_name`] under `dir`.
    pub fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(self.file_name())
    }

    /// Whether a parsed header matches this key exactly (version,
    /// model fingerprint, and every parameter).
    pub fn matches(&self, h: &Header) -> bool {
        h.version == FORMAT_VERSION
            && h.model_digest == self.model_digest
            && h.k == self.k
            && h.alpha.to_bits() == self.alpha.to_bits()
            && h.dim == self.dim
            && h.library == self.library
    }

    pub(crate) fn header_line(&self) -> String {
        format!(
            "{{{},\"dim\":{},\"lib\":{}}}",
            provenance(self.model_digest, self.k, self.alpha),
            self.dim,
            Value::from(self.library.as_str()),
        )
    }
}

/// Parsed store-file header (see [`StoreKey`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Format version the file was written with.
    pub version: u32,
    /// Model weights fingerprint.
    pub model_digest: u64,
    /// Mask count.
    pub k: u8,
    /// Stitch weight (restored bit-exactly from `alpha_bits`).
    pub alpha: f64,
    /// Embedding dimension.
    pub dim: usize,
    /// Library-config token.
    pub library: String,
}

pub(crate) fn parse_header(line: &str) -> Option<Header> {
    let v = json::parse(line)?;
    let hex = |key| u64::from_str_radix(v.get(key)?.as_str()?, 16).ok();
    Some(Header {
        version: v.get("v")?.num()?,
        model_digest: hex("model")?,
        k: v.get("k")?.num()?,
        alpha: f64::from_bits(hex("alpha_bits")?),
        dim: v.get("dim")?.num()?,
        library: v.get("lib")?.as_str()?.to_string(),
    })
}

/// What a job journal's header binds: the store header's provenance
/// (format version, model fingerprint, `k`, `alpha` bit-exact) plus the
/// layout it decomposes. A journal whose header disagrees is moved aside
/// and never replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalKey {
    /// [`fnv64`] of the serialized framework weights.
    pub model_digest: u64,
    /// Mask count `k`.
    pub k: u8,
    /// Stitch weight `alpha` (compared bit-exactly).
    pub alpha: f64,
    /// Layout name.
    pub layout: String,
    /// Unit count of the prepared layout.
    pub units: usize,
}

impl JournalKey {
    pub(crate) fn header_line(&self) -> String {
        format!(
            "{{{},\"layout\":{},\"units\":{}}}",
            provenance(self.model_digest, self.k, self.alpha),
            Value::from(self.layout.as_str()),
            self.units
        )
    }

    /// A journal header matches only if it is exactly the line this key
    /// renders: same format version, model, `k`, `alpha` bits, layout
    /// and unit count.
    pub(crate) fn matches(&self, line: &str) -> bool {
        line == self.header_line()
    }
}

/// Which tail engine produced a stored solve or a journaled unit. Only
/// the two exact engines answer the ILP/EC tail; matching and ColorGNN
/// results are never persisted (the former is the library itself, the
/// latter is RNG-stream-dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailEngine {
    /// Exact ILP.
    Ilp,
    /// Exact cover.
    Ec,
}

/// One audit-clean tail solve restored from (or bound for) the store.
#[derive(Debug, Clone)]
pub struct StoredSolve {
    /// The unit graph, reconstructed through the validating constructor.
    pub graph: LayoutGraph,
    /// The `ec_first` routing bucket the solve was cached under.
    pub ec_first: bool,
    /// Engine whose coloring was kept.
    pub engine: TailEngine,
    /// Only deterministic certainties are ever stored.
    pub certainty: Certainty,
    /// Per-node mask assignment.
    pub coloring: Vec<u8>,
    /// Claimed cost; re-audited against the graph on every load.
    pub cost: CostBreakdown,
}

/// One settled ILP/EC-tail unit of a job journal (`"t":"u"`). The graph
/// is not stored: the record names its unit and the unit graph's
/// fingerprint, and a resuming run re-audits the coloring against the
/// present unit before trusting it.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    /// Index of the unit within the prepared layout.
    pub unit: usize,
    /// `mpld_matching::graph_fingerprint` of the unit graph.
    pub fingerprint: u64,
    /// Engine whose coloring was kept.
    pub engine: TailEngine,
    /// The recorded certainty (any of the four).
    pub certainty: Certainty,
    /// Whether the unit fell back on budget exhaustion.
    pub budget_fallback: bool,
    /// Per-node mask assignment.
    pub coloring: Vec<u8>,
    /// Claimed cost.
    pub cost: CostBreakdown,
}

/// One parsed record line.
#[derive(Debug)]
pub(crate) enum Record {
    Solve(StoredSolve),
    Lib(Box<LibraryEntry>),
    LibDone { n: usize },
    Unit(UnitRecord),
}

/// On-disk names of the tail engines and certainties.
const ENGINES: [(TailEngine, &str); 2] = [(TailEngine::Ilp, "ilp"), (TailEngine::Ec, "ec")];
const CERTAINTIES: [(Certainty, &str); 4] = [
    (Certainty::Certified, "certified"),
    (Certainty::Heuristic, "heuristic"),
    (Certainty::BudgetExhausted, "budget_exhausted"),
    (Certainty::Degraded, "degraded"),
];

fn name_of<T: PartialEq>(names: &[(T, &'static str)], x: T) -> &'static str {
    names.iter().find(|(y, _)| *y == x).map_or("", |(_, n)| n)
}

fn named<T: Copy>(names: &[(T, &str)], name: &str) -> Option<T> {
    names.iter().find(|(_, n)| *n == name).map(|(x, _)| *x)
}

/// Budget-cut and degraded results are request-dependent and are never
/// published to the solution cache, hence never stored as solves.
fn storable(c: Certainty) -> bool {
    matches!(c, Certainty::Certified | Certainty::Heuristic)
}

fn push_list<T: std::fmt::Display>(line: &mut String, xs: impl IntoIterator<Item = T>) {
    use std::fmt::Write as _;
    line.push('[');
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{x}");
    }
    line.push(']');
}

fn push_graph(line: &mut String, g: &LayoutGraph) {
    let flat = |edges: &[(u32, u32)]| edges.iter().flat_map(|&(u, v)| [u, v]).collect::<Vec<_>>();
    line.push_str("\"nf\":");
    push_list(line, g.node_features());
    line.push_str(",\"ce\":");
    push_list(line, flat(g.conflict_edges()));
    line.push_str(",\"se\":");
    push_list(line, flat(g.stitch_edges()));
}

fn push_coloring_and_cost(line: &mut String, coloring: &[u8], cost: CostBreakdown) {
    line.push_str(",\"col\":");
    push_list(line, coloring);
    line.push_str(&format!(
        ",\"cn\":{},\"st\":{}}}",
        cost.conflicts, cost.stitches
    ));
}

fn push_f32s_hex(line: &mut String, xs: &[f32]) {
    use std::fmt::Write as _;
    for x in xs {
        let _ = write!(line, "{:08x}", x.to_bits());
    }
}

/// Renders one solve record. Returns `None` for certainties that must
/// never be persisted.
pub(crate) fn render_solve(s: &StoredSolve) -> Option<String> {
    if !storable(s.certainty) {
        return None;
    }
    let mut line = format!(
        "{{\"t\":\"s\",\"ec\":{},\"eng\":\"{}\",\"cert\":\"{}\",",
        u8::from(s.ec_first),
        name_of(&ENGINES, s.engine),
        name_of(&CERTAINTIES, s.certainty),
    );
    push_graph(&mut line, &s.graph);
    push_coloring_and_cost(&mut line, &s.coloring, s.cost);
    Some(line)
}

pub(crate) fn render_lib(e: &LibraryEntry) -> String {
    let mut line = String::with_capacity(256);
    line.push_str("{\"t\":\"l\",");
    push_graph(&mut line, &e.graph);
    line.push_str(",\"emb\":\"");
    push_f32s_hex(&mut line, &e.embedding);
    line.push_str(&format!(
        "\",\"ner\":{},\"nec\":{},\"ne\":\"",
        e.node_embeddings.rows(),
        e.node_embeddings.cols()
    ));
    push_f32s_hex(&mut line, e.node_embeddings.as_slice());
    line.push('"');
    push_coloring_and_cost(&mut line, &e.solution, e.cost);
    line
}

pub(crate) fn render_lib_done(n: usize) -> String {
    format!("{{\"t\":\"ld\",\"n\":{n}}}")
}

pub(crate) fn render_unit(u: &UnitRecord) -> String {
    let mut line = format!(
        "{{\"t\":\"u\",\"i\":{},\"fp\":{},\"eng\":\"{}\",\"cert\":\"{}\",\"bf\":{}",
        u.unit,
        u.fingerprint,
        name_of(&ENGINES, u.engine),
        name_of(&CERTAINTIES, u.certainty),
        u.budget_fallback,
    );
    push_coloring_and_cost(&mut line, &u.coloring, u.cost);
    line
}

fn parse_f32s_hex(s: &str) -> Option<Vec<f32>> {
    if !s.len().is_multiple_of(8) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(8)
        .map(|c| {
            let hex = std::str::from_utf8(c).ok()?;
            Some(f32::from_bits(u32::from_str_radix(hex, 16).ok()?))
        })
        .collect()
}

/// Reconstructs the graph of a record through the validating
/// constructor: a corrupted edge list (self-loop, duplicate, edge
/// against the feature rules, out-of-range endpoint) is rejected here.
fn parse_graph(v: &Value) -> Option<LayoutGraph> {
    let edges = |key| {
        let flat: Vec<u32> = v.get(key)?.nums()?;
        let pairs: Vec<(u32, u32)> = flat.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        flat.len().is_multiple_of(2).then_some(pairs)
    };
    LayoutGraph::new(v.get("nf")?.nums()?, edges("ce")?, edges("se")?).ok()
}

/// The coloring and claimed cost every record but `ld` ends with; the
/// coloring must cover `nodes` nodes when given.
fn parse_coloring_and_cost(v: &Value, nodes: Option<usize>) -> Option<(Vec<u8>, CostBreakdown)> {
    let coloring: Vec<u8> = v.get("col")?.nums()?;
    if nodes.is_some_and(|n| n != coloring.len()) {
        return None;
    }
    let cost = CostBreakdown {
        conflicts: v.get("cn")?.num()?,
        stitches: v.get("st")?.num()?,
    };
    Some((coloring, cost))
}

/// Parses one record line; `None` means malformed (the caller counts it
/// corrupt). The torn-tail rule is enforced by the caller.
pub(crate) fn parse_record(line: &str) -> Option<Record> {
    let v = json::parse(line)?;
    let str_of = |key| v.get(key).and_then(Value::as_str);
    match str_of("t")? {
        "s" => {
            let graph = parse_graph(&v)?;
            let (coloring, cost) = parse_coloring_and_cost(&v, Some(graph.num_nodes()))?;
            Some(Record::Solve(StoredSolve {
                graph,
                ec_first: v.get("ec")?.num::<u8>()? == 1,
                engine: named(&ENGINES, str_of("eng")?)?,
                certainty: named(&CERTAINTIES, str_of("cert")?).filter(|&c| storable(c))?,
                coloring,
                cost,
            }))
        }
        "l" => {
            let graph = parse_graph(&v)?;
            let embedding = parse_f32s_hex(str_of("emb")?)?;
            let rows: usize = v.get("ner")?.num()?;
            let cols: usize = v.get("nec")?.num()?;
            let ne = parse_f32s_hex(str_of("ne")?)?;
            if ne.len() != rows.checked_mul(cols)? || rows != graph.num_nodes() {
                return None;
            }
            let (solution, cost) = parse_coloring_and_cost(&v, Some(rows))?;
            Some(Record::Lib(Box::new(LibraryEntry {
                graph,
                embedding,
                node_embeddings: Matrix::from_vec(rows, cols, ne),
                solution,
                cost,
            })))
        }
        "ld" => Some(Record::LibDone {
            n: v.get("n")?.num()?,
        }),
        "u" => {
            let (coloring, cost) = parse_coloring_and_cost(&v, None)?;
            Some(Record::Unit(UnitRecord {
                unit: v.get("i")?.num()?,
                fingerprint: v.get("fp")?.num()?,
                engine: named(&ENGINES, str_of("eng")?)?,
                certainty: named(&CERTAINTIES, str_of("cert")?)?,
                budget_fallback: v.get("bf")?.as_bool()?,
                coloring,
                cost,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> LayoutGraph {
        LayoutGraph::homogeneous(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .expect("K4")
    }

    fn sample_solve() -> StoredSolve {
        let graph = k4();
        let coloring = vec![0, 1, 2, 0];
        let cost = mpld_graph::audit_coloring(&graph, &coloring, 3).expect("valid");
        StoredSolve {
            graph,
            ec_first: true,
            engine: TailEngine::Ec,
            certainty: Certainty::Heuristic,
            coloring,
            cost,
        }
    }

    #[test]
    fn solve_record_round_trips() {
        let s = sample_solve();
        let line = render_solve(&s).expect("storable certainty");
        assert!(line.ends_with('}'));
        let Record::Solve(back) = parse_record(&line).expect("parses") else {
            panic!("wrong record kind");
        };
        assert!(mpld_matching::graphs_identical(&back.graph, &s.graph));
        assert_eq!(back.coloring, s.coloring);
        assert_eq!(back.cost, s.cost);
        assert_eq!(back.engine, s.engine);
        assert_eq!(back.certainty, s.certainty);
        assert!(back.ec_first);
    }

    #[test]
    fn non_deterministic_certainties_are_never_rendered() {
        let mut s = sample_solve();
        s.certainty = Certainty::BudgetExhausted;
        assert!(render_solve(&s).is_none());
        s.certainty = Certainty::Degraded;
        assert!(render_solve(&s).is_none());
    }

    #[test]
    fn lib_record_round_trips_bit_exactly() {
        let graph = k4();
        let entry = LibraryEntry {
            graph: graph.clone(),
            embedding: vec![0.1f32, -0.25, 1.5e-7, f32::MIN_POSITIVE],
            node_embeddings: Matrix::from_vec(
                4,
                2,
                vec![1.0, -2.0, 0.3, 0.0, -0.0, 5.5, 9.0, 1e-30],
            ),
            solution: vec![0, 1, 2, 0],
            cost: mpld_graph::audit_coloring(&graph, &[0, 1, 2, 0], 3).expect("valid"),
        };
        let line = render_lib(&entry);
        let Record::Lib(back) = parse_record(&line).expect("parses") else {
            panic!("wrong record kind");
        };
        // Bit-exact float round-trip, including -0.0 and denormals.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.embedding), bits(&entry.embedding));
        assert_eq!(
            bits(back.node_embeddings.as_slice()),
            bits(entry.node_embeddings.as_slice())
        );
        assert_eq!(back.solution, entry.solution);
        assert_eq!(back.cost, entry.cost);
    }

    #[test]
    fn header_round_trips_and_key_matches() {
        let key = StoreKey {
            model_digest: 0xDEAD_BEEF_0123_4567,
            k: 3,
            alpha: 0.1,
            dim: 8,
            library: "p6s1n7t1".into(),
        };
        let h = parse_header(&key.header_line()).expect("parses");
        assert!(key.matches(&h));
        assert_eq!(h.alpha.to_bits(), key.alpha.to_bits());
        // Any component changing breaks the match.
        let mut other = key.clone();
        other.model_digest ^= 1;
        assert!(!other.matches(&h));
        let mut other = key.clone();
        other.alpha = 0.2;
        assert!(!other.matches(&h));
        let mut other = key.clone();
        other.k = 4;
        assert!(!other.matches(&h));
    }

    #[test]
    fn key_digest_separates_every_component() {
        let base = StoreKey {
            model_digest: 7,
            k: 3,
            alpha: 0.1,
            dim: 8,
            library: "p6s1n7t1".into(),
        };
        let variants = [
            StoreKey {
                model_digest: 8,
                ..base.clone()
            },
            StoreKey {
                k: 4,
                ..base.clone()
            },
            StoreKey {
                alpha: 0.2,
                ..base.clone()
            },
            StoreKey {
                dim: 16,
                ..base.clone()
            },
            StoreKey {
                library: "p5s1n6t1".into(),
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.digest(), base.digest(), "{v:?} collided with base");
            assert_ne!(v.file_name(), base.file_name());
        }
    }

    #[test]
    fn malformed_lines_parse_to_none_not_panic() {
        for line in [
            "",
            "{",
            "{}",
            "{\"t\":\"s\"}",
            "{\"t\":\"s\",\"ec\":1,\"eng\":\"ilp\",\"cert\":\"certified\",\"nf\":[0],\"ce\":[0],\"se\":[],\"col\":[0],\"cn\":0,\"st\":0}",
            "{\"t\":\"l\",\"nf\":[0],\"ce\":[],\"se\":[],\"emb\":\"zzzz\",\"ner\":1,\"nec\":1,\"ne\":\"00000000\",\"col\":[0],\"cn\":0,\"st\":0}",
            "{\"t\":\"??\",\"n\":1}",
            "{\"t\":\"ld\",\"n\":\"x\"}",
        ] {
            assert!(parse_record(line).is_none(), "accepted: {line}");
        }
    }

    #[test]
    fn self_loop_and_bad_coloring_len_are_rejected() {
        // Self-loop conflict edge: the validating constructor refuses it.
        let line = "{\"t\":\"s\",\"ec\":0,\"eng\":\"ec\",\"cert\":\"heuristic\",\
                    \"nf\":[0,1],\"ce\":[0,0],\"se\":[],\"col\":[0,0],\"cn\":0,\"st\":0}";
        assert!(parse_record(line).is_none());
        // Coloring shorter than the graph.
        let line = "{\"t\":\"s\",\"ec\":0,\"eng\":\"ec\",\"cert\":\"heuristic\",\
                    \"nf\":[0,1],\"ce\":[0,1],\"se\":[],\"col\":[0],\"cn\":0,\"st\":0}";
        assert!(parse_record(line).is_none());
    }
}
