//! On-disk JSONL format: the keyed header and the two record kinds.
//!
//! One store file is a sequence of `\n`-terminated single-line JSON
//! objects following the checkpoint journal's discipline: the first line
//! is the header, every later line is a record, a record is valid only
//! if its line is complete (ends in `}`), and a torn final line — the
//! kill -9 signature — is tolerated and skipped by the loader.
//!
//! The header carries the format version, the **model fingerprint**
//! (FNV-64 of the serialized framework weights) and the layout/library
//! parameters (`k`, `alpha`, embedding dimension `d`, library-config
//! token). Together these form the [`StoreKey`]; the key's digest also
//! names the file, so a retrained model writes a *different* file
//! (re-keying in the Plexus "embedding drift" style) and a header that
//! disagrees with its expected key is never served.
//!
//! Records:
//!
//! - `"t":"s"` — one audit-clean tail solve (the online flywheel):
//!   graph, `ec_first` routing bucket, engine, certainty, coloring,
//!   claimed cost.
//! - `"t":"l"` — one graph-library entry: graph, bit-exact embeddings
//!   (f32 bit patterns in hex), optimal solution, claimed cost.
//! - `"t":"ld"` — library-dump completion marker carrying the entry
//!   count; a dump without its marker (torn mid-dump) is orphaned and
//!   rebuilt, never half-trusted.
//!
//! Floats that must round-trip bit-exactly (embeddings, `alpha`) are
//! stored as hex bit patterns, not decimal.

use mpld_graph::{Certainty, CostBreakdown, LayoutGraph};
use mpld_matching::LibraryEntry;
use mpld_tensor::Matrix;
use std::path::{Path, PathBuf};

/// On-disk format version; bumped on any incompatible layout change, and
/// whenever the solvers may answer a stored graph differently (2: EC
/// breaks equal-cost ties in a fixed order, so a version-1 coloring can
/// differ from a fresh solve of the same graph).
pub const FORMAT_VERSION: u32 = 2;

/// FNV-1a 64-bit over raw bytes — the store's model-fingerprint hash
/// (same constants as the matcher's `graph_fingerprint`).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0001_0000_01b3);
    }
    h
}

/// Everything a stored entry's validity depends on: the model that
/// produced the embeddings and routing decisions, and the decomposition
/// parameters its solutions were optimal under. Any component changing
/// re-keys the store instead of ever serving a stale match.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreKey {
    /// [`fnv64`] of the serialized framework weights (the `model.bin`
    /// bytes).
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
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&self.model_digest.to_le_bytes());
        bytes.push(self.k);
        bytes.extend_from_slice(&self.alpha.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(self.dim as u64).to_le_bytes());
        bytes.extend_from_slice(self.library.as_bytes());
        fnv64(&bytes)
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
            "{{\"v\":{FORMAT_VERSION},\"model\":\"{:016x}\",\"k\":{},\"alpha_bits\":\"{:016x}\",\
             \"alpha\":{},\"dim\":{},\"lib\":\"{}\"}}",
            self.model_digest,
            self.k,
            self.alpha.to_bits(),
            self.alpha,
            self.dim,
            self.library,
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
    if !line.trim_end().ends_with('}') {
        return None;
    }
    Some(Header {
        version: field(line, "v")?.parse().ok()?,
        model_digest: u64::from_str_radix(field(line, "model")?, 16).ok()?,
        k: field(line, "k")?.parse().ok()?,
        alpha: f64::from_bits(u64::from_str_radix(field(line, "alpha_bits")?, 16).ok()?),
        dim: field(line, "dim")?.parse().ok()?,
        library: field(line, "lib")?.to_string(),
    })
}

/// Which tail engine produced a stored solve. The store deliberately
/// carries only the two engines that reach the solution cache; matching
/// and ColorGNN results are never persisted (the former is the library
/// itself, the latter is RNG-stream-dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailEngine {
    /// Exact ILP.
    Ilp,
    /// Exact cover.
    Ec,
}

impl TailEngine {
    fn as_str(self) -> &'static str {
        match self {
            TailEngine::Ilp => "ilp",
            TailEngine::Ec => "ec",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "ilp" => Some(TailEngine::Ilp),
            "ec" => Some(TailEngine::Ec),
            _ => None,
        }
    }
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

/// One parsed record line.
#[derive(Debug)]
pub(crate) enum Record {
    Solve(StoredSolve),
    Lib(Box<LibraryEntry>),
    LibDone { n: usize },
}

fn certainty_str(c: Certainty) -> Option<&'static str> {
    match c {
        Certainty::Certified => Some("certified"),
        Certainty::Heuristic => Some("heuristic"),
        // Budget-cut and degraded results are request-dependent and are
        // never published to the cache, hence never stored.
        Certainty::BudgetExhausted | Certainty::Degraded => None,
    }
}

fn certainty_parse(s: &str) -> Option<Certainty> {
    match s {
        "certified" => Some(Certainty::Certified),
        "heuristic" => Some(Certainty::Heuristic),
        _ => None,
    }
}

fn push_u8s(line: &mut String, xs: &[u8]) {
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&x.to_string());
    }
}

fn push_u32s(line: &mut String, xs: &[u32]) {
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&x.to_string());
    }
}

fn push_edges(line: &mut String, edges: &[(u32, u32)]) {
    for (i, &(u, v)) in edges.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&u.to_string());
        line.push(',');
        line.push_str(&v.to_string());
    }
}

fn push_graph(line: &mut String, g: &LayoutGraph) {
    line.push_str("\"nf\":[");
    push_u32s(line, g.node_features());
    line.push_str("],\"ce\":[");
    push_edges(line, g.conflict_edges());
    line.push_str("],\"se\":[");
    push_edges(line, g.stitch_edges());
    line.push(']');
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
    let cert = certainty_str(s.certainty)?;
    let mut line = format!(
        "{{\"t\":\"s\",\"ec\":{},\"eng\":\"{}\",\"cert\":\"{cert}\",",
        u8::from(s.ec_first),
        s.engine.as_str(),
    );
    push_graph(&mut line, &s.graph);
    line.push_str(",\"col\":[");
    push_u8s(&mut line, &s.coloring);
    line.push_str(&format!(
        "],\"cn\":{},\"st\":{}}}",
        s.cost.conflicts, s.cost.stitches
    ));
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
    line.push_str("\",\"col\":[");
    push_u8s(&mut line, &e.solution);
    line.push_str(&format!(
        "],\"cn\":{},\"st\":{}}}",
        e.cost.conflicts, e.cost.stitches
    ));
    line
}

pub(crate) fn render_lib_done(n: usize) -> String {
    format!("{{\"t\":\"ld\",\"n\":{n}}}")
}

fn parse_u32s(body: &str) -> Option<Vec<u32>> {
    let body = body.trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|t| t.trim().parse().ok()).collect()
}

fn parse_u8s(body: &str) -> Option<Vec<u8>> {
    let body = body.trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|t| t.trim().parse().ok()).collect()
}

fn parse_edges(body: &str) -> Option<Vec<(u32, u32)>> {
    let flat = parse_u32s(body)?;
    if !flat.len().is_multiple_of(2) {
        return None;
    }
    Some(flat.chunks_exact(2).map(|p| (p[0], p[1])).collect())
}

fn parse_f32s_hex(s: &str) -> Option<Vec<f32>> {
    if !s.len().is_multiple_of(8) || !s.is_char_boundary(0) {
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
fn parse_record_graph(line: &str) -> Option<LayoutGraph> {
    let nf = parse_u32s(field(line, "nf")?)?;
    let ce = parse_edges(field(line, "ce")?)?;
    let se = parse_edges(field(line, "se")?)?;
    LayoutGraph::new(nf, ce, se).ok()
}

fn parse_cost(line: &str) -> Option<CostBreakdown> {
    Some(CostBreakdown {
        conflicts: field(line, "cn")?.parse().ok()?,
        stitches: field(line, "st")?.parse().ok()?,
    })
}

/// Parses one record line; `None` means malformed (the caller counts it
/// corrupt). A line is considered at all only when complete (`}`-
/// terminated) — the torn-tail rule is enforced by the caller.
pub(crate) fn parse_record(line: &str) -> Option<Record> {
    match field(line, "t")? {
        "s" => {
            let graph = parse_record_graph(line)?;
            let coloring = parse_u8s(field(line, "col")?)?;
            if coloring.len() != graph.num_nodes() {
                return None;
            }
            Some(Record::Solve(StoredSolve {
                graph,
                ec_first: field(line, "ec")? == "1",
                engine: TailEngine::parse(field(line, "eng")?)?,
                certainty: certainty_parse(field(line, "cert")?)?,
                coloring,
                cost: parse_cost(line)?,
            }))
        }
        "l" => {
            let graph = parse_record_graph(line)?;
            let embedding = parse_f32s_hex(field(line, "emb")?)?;
            let rows: usize = field(line, "ner")?.parse().ok()?;
            let cols: usize = field(line, "nec")?.parse().ok()?;
            let ne = parse_f32s_hex(field(line, "ne")?)?;
            if ne.len() != rows.checked_mul(cols)? || rows != graph.num_nodes() {
                return None;
            }
            let solution = parse_u8s(field(line, "col")?)?;
            if solution.len() != graph.num_nodes() {
                return None;
            }
            Some(Record::Lib(Box::new(LibraryEntry {
                graph,
                embedding,
                node_embeddings: Matrix::from_vec(rows, cols, ne),
                solution,
                cost: parse_cost(line)?,
            })))
        }
        "ld" => Some(Record::LibDone {
            n: field(line, "n")?.parse().ok()?,
        }),
        _ => None,
    }
}

/// Extracts the raw token following `"key":` in a single-line JSON
/// object — same discipline as the checkpoint journal's parser. Strings
/// return their contents, scalars the bare token, arrays the bracketed
/// body.
pub(crate) fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else if let Some(stripped) = rest.strip_prefix('[') {
        let end = stripped.find(']')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
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
