//! # mpld-store — persistent, versioned graph-library store
//!
//! An append-only, fingerprint-bucketed, disk-backed store for the
//! adaptive framework's solved-graph library and tail-solve memo, so a
//! fresh process loads warm state in milliseconds instead of
//! re-enumerating and re-solving everything (ROADMAP item 4).
//!
//! ## On-disk format
//!
//! One JSONL file per [`StoreKey`], named `library-<keydigest>.jsonl`.
//! Line 1 is a header carrying the format version, the **model
//! fingerprint** (FNV-64 digest of the serialized framework weights),
//! and the layout parameters (`k`, `alpha` bit-exact, embedding dim,
//! library config token). Every following line is one record:
//!
//! - `{"t":"l",...}` — one graph-library entry (graph + embeddings +
//!   certified solution), f32s encoded as bit-pattern hex;
//! - `{"t":"ld","n":N}` — library dump completion marker (a dump
//!   without its marker is orphaned and ignored);
//! - `{"t":"s",...}` — one audit-clean tail solve (graph, routing side,
//!   engine, certainty, coloring, cost).
//!
//! ## Provenance and the re-key rule
//!
//! Learned embeddings are only trustworthy with model provenance
//! attached: an entry matched under a retrained model would be silently
//! wrong. The key digest covers the model fingerprint and every layout
//! parameter, so retraining or re-parameterising *re-keys* — it selects
//! a different file — and a header mismatch at the keyed path (version
//! bump, manual copy, partial key collision) moves the file aside as
//! `.stale` and starts fresh. A stale match is never served.
//!
//! ## Corruption tolerance
//!
//! The loader reuses the checkpoint journal's discipline: a torn final
//! line (the `kill -9` signature) is skipped; any malformed line is
//! counted and skipped; every surviving record is structurally
//! re-validated and its coloring re-audited against the independent
//! Eq. 1 checker before being trusted. Served hits additionally pass
//! the in-memory maps' structural-equality check, so a corrupt store
//! degrades to re-solving — never to a wrong answer.
//!
//! ## Write path
//!
//! [`StoreWriter`] buffers records and flushes in batches with one
//! `fsync` per batch (write-behind): the solve path never blocks on
//! durability, and a crash loses at most the buffered tail plus one
//! torn line. [`StoreCaps`] bounds entries/bytes for long-lived
//! servers; [`compact_file`] reclaims superseded and orphaned records
//! by rewrite-and-swap.

#![forbid(unsafe_code)]

mod format;
mod maint;
mod reader;
mod writer;

pub use format::{fnv64, Header, StoreKey, StoredSolve, TailEngine, FORMAT_VERSION};
pub use maint::{compact_and_verify, compact_dir, compact_file, compact_keyed, CompactReport};
pub use reader::{
    load, scan_dir, verify_dir, verify_file, FileStats, LoadReport, StoreLoad, VerifyReport,
};
pub use writer::{open, OpenedStore, StoreCaps, StoreWriter, WriterStats};

#[cfg(test)]
mod store_tests {
    use super::*;
    use mpld_graph::{Certainty, CostBreakdown, LayoutGraph};
    use std::path::{Path, PathBuf};

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let pid = std::process::id();
            let dir = std::env::temp_dir().join(format!("mpld-store-{tag}-{pid}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn key() -> StoreKey {
        StoreKey {
            model_digest: 0xdead_beef_cafe_f00d,
            k: 3,
            alpha: 0.1,
            dim: 8,
            library: "p6s1n7t1".to_string(),
        }
    }

    /// A path graph 0-1-2 across three features with a proper coloring.
    fn solve(tag: u32) -> StoredSolve {
        let graph = LayoutGraph::new(vec![0, 1, 2 + tag], vec![(0, 1), (1, 2)], vec![]).unwrap();
        StoredSolve {
            graph,
            ec_first: tag.is_multiple_of(2),
            engine: if tag.is_multiple_of(2) {
                TailEngine::Ec
            } else {
                TailEngine::Ilp
            },
            certainty: Certainty::Certified,
            coloring: vec![0, 1, 0],
            cost: CostBreakdown {
                conflicts: 0,
                stitches: 0,
            },
        }
    }

    #[test]
    fn open_load_roundtrip_with_dedup() {
        let dir = TempDir::new("roundtrip");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            assert_eq!(opened.load.report.solves, 0);
            opened.writer.append_solve(&solve(0));
            opened.writer.append_solve(&solve(1));
            // Same graph again: superseded on reload.
            opened.writer.append_solve(&solve(0));
            opened.writer.flush();
        }
        let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        let r = opened.load.report;
        assert_eq!(r.solves, 2, "{r:?}");
        assert_eq!(r.superseded, 1);
        assert_eq!(r.skipped_corrupt, 0);
        assert!(!r.torn_tail);
        assert!(!r.rekeyed);
    }

    #[test]
    fn drop_flushes_pending() {
        let dir = TempDir::new("dropflush");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            opened.writer.append_solve(&solve(0));
            // No explicit flush: Drop must persist it.
        }
        let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        assert_eq!(opened.load.report.solves, 1);
    }

    #[test]
    fn torn_tail_skipped_and_healed() {
        let dir = TempDir::new("torn");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            opened.writer.append_solve(&solve(0));
            opened.writer.flush();
        }
        let path = k.path_in(dir.path());
        // Simulate kill -9 mid-append: a partial record at EOF.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"t\":\"s\",\"ec\":1,\"eng\":\"il").unwrap();
        drop(f);
        let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        let r = opened.load.report;
        assert_eq!(r.solves, 1);
        assert!(r.torn_tail);
        // Appending after the tear must not corrupt the new record.
        opened.writer.append_solve(&solve(1));
        opened.writer.flush();
        drop(opened);
        let again = open(dir.path(), &k, StoreCaps::default()).unwrap();
        assert_eq!(again.load.report.solves, 2, "{:?}", again.load.report);
    }

    #[test]
    fn bit_flip_skipped_never_served() {
        let dir = TempDir::new("bitflip");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            opened.writer.append_solve(&solve(0));
            opened.writer.append_solve(&solve(1));
            opened.writer.flush();
        }
        let path = k.path_in(dir.path());
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record line (past the header and
        // first record).
        let newlines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i))
            .collect();
        let target = newlines[1] + 10;
        bytes[target] ^= 0x4;
        std::fs::write(&path, &bytes).unwrap();
        let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        let r = opened.load.report;
        assert_eq!(r.solves + r.skipped_corrupt + r.skipped_audit, 2, "{r:?}");
        assert!(r.skipped_corrupt + r.skipped_audit >= 1, "{r:?}");
        // Whatever loaded must still audit clean.
        for s in &opened.load.solves {
            let cost = mpld_graph::audit_coloring(&s.graph, &s.coloring, k.k).unwrap();
            assert_eq!(cost, s.cost);
        }
    }

    #[test]
    fn stale_model_fingerprint_rekeys() {
        let dir = TempDir::new("stale");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            opened.writer.append_solve(&solve(0));
            opened.writer.flush();
        }
        // A retrained model yields a different digest → different keyed
        // path → old file untouched, new file empty.
        let retrained = StoreKey {
            model_digest: k.model_digest ^ 1,
            ..key()
        };
        let opened = open(dir.path(), &retrained, StoreCaps::default()).unwrap();
        assert_eq!(opened.load.report.solves, 0);
        assert!(!opened.load.report.rekeyed);
        // Header mismatch AT the keyed path (e.g. manual copy): moved
        // aside, counted.
        drop(opened);
        std::fs::copy(k.path_in(dir.path()), retrained.path_in(dir.path())).unwrap();
        // Remove the fresh header-only file? No — copy overwrote it.
        let reopened = open(dir.path(), &retrained, StoreCaps::default()).unwrap();
        assert!(reopened.load.report.rekeyed);
        assert_eq!(reopened.load.report.solves, 0);
        let stale: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "stale"))
            .collect();
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn older_format_version_is_moved_aside() {
        let dir = TempDir::new("version");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            opened.writer.append_solve(&solve(0));
            opened.writer.flush();
        }
        let path = k.path_in(dir.path());
        let text = std::fs::read_to_string(&path).unwrap();
        let old = format!("{{\"v\":{}", FORMAT_VERSION - 1);
        let current = format!("{{\"v\":{FORMAT_VERSION}");
        std::fs::write(&path, text.replacen(&current, &old, 1)).unwrap();
        let reopened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        assert!(reopened.load.report.rekeyed);
        assert_eq!(reopened.load.report.solves, 0);
    }

    #[test]
    fn caps_drop_not_error() {
        let dir = TempDir::new("caps");
        let k = key();
        let caps = StoreCaps {
            max_entries: Some(1),
            max_bytes: None,
        };
        let opened = open(dir.path(), &k, caps).unwrap();
        opened.writer.append_solve(&solve(0));
        opened.writer.append_solve(&solve(1));
        opened.writer.flush();
        let stats = opened.writer.stats();
        assert_eq!(stats.appended, 1);
        assert_eq!(stats.dropped, 1);
        drop(opened);
        let reopened = open(dir.path(), &k, caps).unwrap();
        assert_eq!(reopened.load.report.solves, 1);
    }

    #[test]
    fn compact_reclaims_superseded_and_corrupt() {
        let dir = TempDir::new("compact");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            opened.writer.append_solve(&solve(0));
            opened.writer.append_solve(&solve(0));
            opened.writer.append_solve(&solve(1));
            opened.writer.flush();
        }
        let path = k.path_in(dir.path());
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"not json at all}\n").unwrap();
        drop(f);
        let (report, clean) = compact_and_verify(&path).unwrap();
        assert!(clean);
        assert_eq!(report.kept_solves, 2);
        assert_eq!(report.dropped_superseded, 1);
        assert_eq!(report.dropped_corrupt, 1);
        assert!(report.bytes_after < report.bytes_before);
        let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        assert_eq!(opened.load.report.solves, 2);
        assert_eq!(opened.load.report.superseded, 0);
    }

    #[test]
    fn scan_and_verify_dir() {
        let dir = TempDir::new("scan");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            opened.writer.append_solve(&solve(0));
            opened.writer.flush();
        }
        let stats = scan_dir(dir.path()).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].solves, 1);
        assert_eq!(stats[0].buckets, 1);
        let h = stats[0].header.as_ref().unwrap();
        assert_eq!(h.model_digest, k.model_digest);
        let reports = verify_dir(dir.path()).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_clean());
        assert_eq!(reports[0].clean, 1);
    }

    /// Property test: single-byte corruption anywhere in the file never
    /// panics the loader and never yields a record whose coloring fails
    /// the independent audit.
    #[test]
    fn property_random_corruption_never_panics_or_lies() {
        use proptest::Strategy;
        let dir = TempDir::new("prop");
        let k = key();
        {
            let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
            for t in 0..6 {
                opened.writer.append_solve(&solve(t));
            }
            opened.writer.flush();
        }
        let pristine = std::fs::read(k.path_in(dir.path())).unwrap();
        let len = pristine.len();
        let strategy = (0usize..len, 0u8..=255u8);
        let mut rng = proptest::rng_for_test("property_random_corruption_never_panics_or_lies");
        for _ in 0..128 {
            let (pos, val) = strategy.sample_value(&mut rng);
            let mut bytes = pristine.clone();
            bytes[pos] = val;
            std::fs::write(k.path_in(dir.path()), &bytes).unwrap();
            let loaded = load(dir.path(), &k).unwrap();
            for s in &loaded.solves {
                let cost = mpld_graph::audit_coloring(&s.graph, &s.coloring, k.k)
                    .expect("loaded record fails audit");
                assert_eq!(cost, s.cost, "corrupt byte {pos}={val} served a wrong cost");
            }
        }
    }
}
