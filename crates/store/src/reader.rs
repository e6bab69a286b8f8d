//! Corruption-tolerant loading: bounded streaming reads, per-record
//! audit, last-wins dedup, and the re-key rule.
//!
//! Every record is re-verified before it is trusted:
//!
//! 1. the line must be complete (`}`-terminated) — a torn final line is
//!    the expected kill -9 signature and is skipped silently except for
//!    a counter;
//! 2. the graph is rebuilt through [`LayoutGraph::new`]'s validation;
//! 3. the coloring is re-audited with the independent Eq. 1 checker
//!    ([`audit_coloring`]) and must reproduce the claimed cost exactly.
//!
//! A record failing any step is skipped and counted — the unit simply
//! re-solves. Nothing in a store file can make a load panic or serve a
//! wrong match: served hits additionally go through the in-memory maps'
//! structural equality check.

use crate::format::{parse_header, parse_record, Header, Record, StoreKey, StoredSolve};
use mpld_graph::audit_coloring;
use mpld_matching::{graph_fingerprint, graphs_identical, LibraryEntry};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one [`load`] observed (all counters cumulative for the file).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Clean, deduplicated solve records loaded (for a
    /// [`Journal`](crate::Journal): unit records).
    pub solves: usize,
    /// Older duplicates dropped by last-record-wins.
    pub superseded: usize,
    /// Library entries loaded (0 unless `lib_complete`).
    pub lib_entries: usize,
    /// Whether a complete library dump (with its `ld` marker) was found.
    pub lib_complete: bool,
    /// Malformed / unparseable / structurally invalid records skipped.
    pub skipped_corrupt: usize,
    /// Well-formed records whose coloring failed the cost re-audit.
    pub skipped_audit: usize,
    /// Library records orphaned by a missing completion marker.
    pub orphaned: usize,
    /// Whether the final line was torn (incomplete) — the kill -9 case.
    pub torn_tail: bool,
    /// Whether a keyed file had a mismatched header and was moved aside.
    pub rekeyed: bool,
    /// File size in bytes at load time.
    pub bytes: u64,
    /// Wall-clock load time in milliseconds.
    pub load_ms: u64,
}

/// Everything a matching store file contained, post-verification.
#[derive(Debug)]
pub struct StoreLoad {
    /// Audit-clean tail solves, deduplicated last-wins.
    pub solves: Vec<StoredSolve>,
    /// The persisted graph library, only when a complete dump was found.
    pub lib: Option<Vec<LibraryEntry>>,
    /// Load counters.
    pub report: LoadReport,
}

impl StoreLoad {
    fn empty() -> Self {
        StoreLoad {
            solves: Vec::new(),
            lib: None,
            report: LoadReport::default(),
        }
    }
}

/// One walked store file: the state its header line opened (`None` when
/// the header was rejected and no record was read), whether the final
/// line was torn, and the file size.
pub(crate) struct Walked<S> {
    pub(crate) state: Option<S>,
    pub(crate) torn_tail: bool,
    pub(crate) bytes: u64,
}

/// Streams a store file: `open` sees the header line and returns the
/// state to walk the records with (or `None` to read no further); every
/// complete record line then goes to `on_line`. Returns `Ok(None)` when
/// the file is missing or empty.
///
/// Corrupted bytes must degrade, not error, so lines are read as bytes
/// and converted lossily (a mangled line simply fails to parse). A line
/// without its closing `}` and newline is only legitimate as the torn
/// final write of a killed process: it is skipped and reported.
pub(crate) fn walk<S>(
    path: &Path,
    open: impl FnOnce(&str) -> Option<S>,
    mut on_line: impl FnMut(&mut S, &str),
) -> std::io::Result<Option<Walked<S>>> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let bytes = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut raw: Vec<u8> = Vec::new();
    if reader.read_until(b'\n', &mut raw)? == 0 {
        return Ok(None);
    }
    let mut state = open(String::from_utf8_lossy(&raw).trim_end_matches(['\n', '\r']));
    let mut torn_tail = false;
    if let Some(state) = &mut state {
        loop {
            raw.clear();
            if reader.read_until(b'\n', &mut raw)? == 0 {
                break;
            }
            let line = String::from_utf8_lossy(&raw);
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                continue;
            }
            if !trimmed.ends_with('}') || !line.ends_with('\n') {
                torn_tail = true;
                continue;
            }
            on_line(state, trimmed);
        }
    }
    Ok(Some(Walked {
        state,
        torn_tail,
        bytes,
    }))
}

/// Library-store accumulation shared by [`load`], verification and
/// compaction: dedups solves last-wins, audits everything, and resolves
/// the latest complete library dump.
pub(crate) struct Accumulated {
    k: u8,
    pub(crate) records: usize,
    pub(crate) solves: Vec<StoredSolve>,
    pub(crate) lib: Option<Vec<LibraryEntry>>,
    pub(crate) superseded: usize,
    pub(crate) skipped_corrupt: usize,
    pub(crate) skipped_audit: usize,
    pub(crate) orphaned: usize,
    /// (fingerprint, ec_first) buckets into `solves`, equality-verified.
    index: HashMap<(u64, bool), Vec<usize>>,
    cur_lib: Vec<LibraryEntry>,
}

impl Accumulated {
    pub(crate) fn new(k: u8) -> Self {
        Self {
            k,
            records: 0,
            solves: Vec::new(),
            lib: None,
            superseded: 0,
            skipped_corrupt: 0,
            skipped_audit: 0,
            orphaned: 0,
            index: HashMap::new(),
            cur_lib: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, line: &str) {
        self.records += 1;
        match parse_record(line) {
            None | Some(Record::Unit(_)) => self.skipped_corrupt += 1,
            Some(Record::Solve(s)) => {
                match audit_coloring(&s.graph, &s.coloring, self.k) {
                    Ok(cost) if cost == s.cost => {}
                    _ => {
                        self.skipped_audit += 1;
                        return;
                    }
                }
                let fp = graph_fingerprint(&s.graph);
                let bucket = self.index.entry((fp, s.ec_first)).or_default();
                let solves = &mut self.solves;
                match bucket
                    .iter()
                    .copied()
                    .find(|&i| graphs_identical(&solves[i].graph, &s.graph))
                {
                    Some(i) => {
                        // Last record wins, the journal's replay rule too.
                        solves[i] = s;
                        self.superseded += 1;
                    }
                    None => {
                        bucket.push(solves.len());
                        solves.push(s);
                    }
                }
            }
            Some(Record::Lib(e)) => match audit_coloring(&e.graph, &e.solution, self.k) {
                Ok(cost) if cost == e.cost => self.cur_lib.push(*e),
                _ => self.skipped_audit += 1,
            },
            Some(Record::LibDone { n }) => {
                if self.cur_lib.len() == n && n > 0 {
                    if let Some(old) = self.lib.replace(std::mem::take(&mut self.cur_lib)) {
                        self.superseded += old.len();
                    }
                } else {
                    // Dump whose marker disagrees (a record inside it was
                    // corrupt or the dump itself was torn): orphaned,
                    // rebuilt from scratch rather than half-trusted.
                    self.orphaned += self.cur_lib.len() + 1;
                    self.cur_lib.clear();
                }
            }
        }
    }

    /// Closes the walk: library records after the last marker are
    /// orphaned.
    pub(crate) fn finish(mut self) -> Self {
        self.orphaned += std::mem::take(&mut self.cur_lib).len();
        self
    }
}

/// Moves a mismatched keyed file aside (never deletes data) so the key's
/// path starts fresh. Best-effort: a failed rename still returns an
/// empty load — a mismatched file is never served either way.
pub(crate) fn move_aside(path: &Path) {
    let mut stale = path.as_os_str().to_os_string();
    stale.push(".stale");
    let _ = std::fs::rename(path, PathBuf::from(stale));
}

/// Loads the store file for `key` under `dir`, verifying every record
/// (see module docs). A missing file is an empty load; a file whose
/// header does not match `key` byte-for-byte is moved aside and counted
/// as re-keyed — its records are never served.
///
/// # Errors
///
/// Only real I/O failures (permissions, disk errors); corruption of any
/// kind is a counter, not an error.
pub fn load(dir: &Path, key: &StoreKey) -> std::io::Result<StoreLoad> {
    let start = Instant::now();
    let path = key.path_in(dir);
    let opened = |h: &str| {
        parse_header(h)
            .filter(|h| key.matches(h))
            .map(|_| Accumulated::new(key.k))
    };
    let Some(walked) = walk(&path, opened, Accumulated::push)? else {
        return Ok(StoreLoad::empty());
    };
    let Some(acc) = walked.state else {
        move_aside(&path);
        let mut out = StoreLoad::empty();
        out.report.rekeyed = true;
        out.report.load_ms = elapsed_ms(start);
        return Ok(out);
    };
    let acc = acc.finish();
    let report = LoadReport {
        solves: acc.solves.len(),
        superseded: acc.superseded,
        lib_entries: acc.lib.as_ref().map_or(0, Vec::len),
        lib_complete: acc.lib.is_some(),
        skipped_corrupt: acc.skipped_corrupt,
        skipped_audit: acc.skipped_audit,
        orphaned: acc.orphaned,
        torn_tail: walked.torn_tail,
        rekeyed: false,
        bytes: walked.bytes,
        load_ms: elapsed_ms(start),
    };
    Ok(StoreLoad {
        solves: acc.solves,
        lib: acc.lib,
        report,
    })
}

pub(crate) fn elapsed_ms(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Cheap per-file statistics (no audit): what `mpld library stats`
/// prints.
#[derive(Debug, Clone, PartialEq)]
pub struct FileStats {
    /// The store file.
    pub path: PathBuf,
    /// Parsed header, `None` when the header line is unreadable.
    pub header: Option<Header>,
    /// Solve records present (pre-dedup).
    pub solves: usize,
    /// Distinct solve fingerprint buckets.
    pub buckets: usize,
    /// Library records present.
    pub lib_entries: usize,
    /// Whether a complete library dump marker was seen.
    pub lib_complete: bool,
    /// Malformed record lines.
    pub corrupt: usize,
    /// File size in bytes.
    pub bytes: u64,
}

/// Scans every `library-*.jsonl` under `dir` (sorted by name) without
/// auditing record contents.
///
/// # Errors
///
/// Directory read failures; a missing directory yields an empty list.
pub fn scan_dir(dir: &Path) -> std::io::Result<Vec<FileStats>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("library-") && name.ends_with(".jsonl") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let mut stats = FileStats {
            path: path.clone(),
            header: None,
            solves: 0,
            buckets: 0,
            lib_entries: 0,
            lib_complete: false,
            corrupt: 0,
            bytes: 0,
        };
        let mut fps: HashSet<u64> = HashSet::new();
        let mut pending_lib = 0usize;
        if let Some(walked) = walk(&path, parse_header, |_, line| match parse_record(line) {
            None | Some(Record::Unit(_)) => stats.corrupt += 1,
            Some(Record::Solve(s)) => {
                stats.solves += 1;
                fps.insert(graph_fingerprint(&s.graph));
            }
            Some(Record::Lib(_)) => {
                stats.lib_entries += 1;
                pending_lib += 1;
            }
            Some(Record::LibDone { n }) => {
                if pending_lib == n && n > 0 {
                    stats.lib_complete = true;
                }
                pending_lib = 0;
            }
        })? {
            stats.bytes = walked.bytes;
            stats.header = walked.state;
        }
        stats.buckets = fps.len();
        out.push(stats);
    }
    Ok(out)
}

/// Full audit re-check of one store file: every record parsed, every
/// coloring re-audited against its graph with the header's `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// The store file.
    pub path: PathBuf,
    /// Whether the header line parsed.
    pub header_ok: bool,
    /// Record lines seen.
    pub records: usize,
    /// Records that parsed and re-audited clean.
    pub clean: usize,
    /// Malformed record lines.
    pub corrupt: usize,
    /// Parsed records whose coloring failed the cost re-audit.
    pub audit_failed: usize,
    /// Library records without a matching completion marker.
    pub orphaned: usize,
    /// Whether the final line was torn.
    pub torn_tail: bool,
    /// Whether a complete, audit-clean library dump was found.
    pub lib_complete: bool,
    /// File size in bytes.
    pub bytes: u64,
}

impl VerifyReport {
    /// A store is healthy when its header parses and nothing beyond an
    /// expected torn tail had to be skipped.
    pub fn is_clean(&self) -> bool {
        self.header_ok && self.corrupt == 0 && self.audit_failed == 0 && self.orphaned == 0
    }
}

/// Runs the full audit re-check on `path` (see [`VerifyReport`]).
///
/// # Errors
///
/// I/O failures only; a missing file reports zero records with
/// `header_ok: false`.
pub fn verify_file(path: &Path) -> std::io::Result<VerifyReport> {
    let opened = |h: &str| parse_header(h).map(|h| Accumulated::new(h.k));
    let walked = walk(path, opened, Accumulated::push)?;
    let mut report = VerifyReport {
        path: path.to_path_buf(),
        header_ok: false,
        records: 0,
        clean: 0,
        corrupt: 0,
        audit_failed: 0,
        orphaned: 0,
        torn_tail: false,
        lib_complete: false,
        bytes: 0,
    };
    let Some(walked) = walked else {
        return Ok(report);
    };
    report.torn_tail = walked.torn_tail;
    report.bytes = walked.bytes;
    let Some(acc) = walked.state else {
        return Ok(report);
    };
    let acc = acc.finish();
    report.header_ok = true;
    report.records = acc.records;
    report.corrupt = acc.skipped_corrupt;
    report.audit_failed = acc.skipped_audit;
    report.orphaned = acc.orphaned;
    report.lib_complete = acc.lib.is_some();
    report.clean = acc
        .records
        .saturating_sub(acc.skipped_corrupt + acc.skipped_audit + acc.orphaned);
    Ok(report)
}

/// [`verify_file`] over every store file in `dir` (sorted by name).
///
/// # Errors
///
/// Directory read failures; a missing directory yields an empty list.
pub fn verify_dir(dir: &Path) -> std::io::Result<Vec<VerifyReport>> {
    let mut out = Vec::new();
    for fs in scan_dir(dir)? {
        out.push(verify_file(&fs.path)?);
    }
    Ok(out)
}
