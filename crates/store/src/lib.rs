//! # mpld-store — the workspace's durable log
//!
//! An append-only, disk-backed store for the adaptive framework's
//! solved-graph library and tail-solve memo, so a fresh process loads
//! warm state in milliseconds instead of re-enumerating and re-solving —
//! and, in the same format and through the same reader and writer, the
//! per-job kill-and-resume [`Journal`]. It also owns the workspace's one
//! JSON codec, [`json`].
//!
//! - **Format** (`format`): one JSONL file per [`StoreKey`] (or
//!   [`JournalKey`]); the header binds the model fingerprint and every
//!   parameter, records are library entries, dump markers, tail solves
//!   or journaled units.
//! - **Provenance**: retraining or re-parameterising selects another
//!   file, and a header mismatch at the keyed path moves the file aside
//!   as `.stale`. A stale match is never served, a mismatched journal
//!   never replayed.
//! - **Corruption** (`reader`): torn tails and malformed lines are
//!   skipped and counted; every record is re-validated and re-audited
//!   against the independent Eq. 1 checker before it is trusted.
//! - **Writes** (`writer`): [`StoreWriter`] batches records with one
//!   `fsync` per batch and holds its file's exclusive lock for its
//!   lifetime; [`compact_file`] takes the same lock to rewrite-and-swap.

#![forbid(unsafe_code)]

mod format;
mod journal;
pub mod json;
mod maint;
mod reader;
mod writer;

pub use format::{
    fnv64, Header, JournalKey, StoreKey, StoredSolve, TailEngine, UnitRecord, FORMAT_VERSION,
};
pub use journal::Journal;
pub use maint::{compact_and_verify, compact_dir, compact_file, CompactReport};
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

    /// A live writer's file cannot be compacted out from under it: the
    /// compaction is refused with a typed error, and the record the
    /// writer appends afterwards survives the next open.
    #[test]
    fn compaction_under_a_live_writer_is_refused_and_loses_nothing() {
        let dir = TempDir::new("livecompact");
        let k = key();
        let opened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        opened.writer.append_solve(&solve(0));
        opened.writer.flush();
        let err = compact_file(&k.path_in(dir.path())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ResourceBusy);
        assert!(err.to_string().contains(&k.file_name()), "{err}");
        opened.writer.append_solve(&solve(1));
        drop(opened);
        let reopened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        assert_eq!(reopened.load.report.solves, 2);
        // Once the writer is gone, compaction proceeds.
        drop(reopened);
        compact_file(&k.path_in(dir.path())).unwrap();
    }

    /// A second open of a live store — here in the same process — loads
    /// it but appends nothing: its appends count as dropped.
    #[test]
    fn second_open_of_a_live_store_is_read_only() {
        let dir = TempDir::new("readonly");
        let k = key();
        let first = open(dir.path(), &k, StoreCaps::default()).unwrap();
        first.writer.append_solve(&solve(0));
        first.writer.flush();
        let second = open(dir.path(), &k, StoreCaps::default()).unwrap();
        assert_eq!(second.load.report.solves, 1);
        assert!(second.writer.stats().read_only);
        assert!(!first.writer.stats().read_only);
        second.writer.append_solve(&solve(1));
        second.writer.append_lib(&[]);
        second.writer.flush();
        let stats = second.writer.stats();
        assert_eq!((stats.appended, stats.dropped), (0, 1));
        drop((first, second));
        let reopened = open(dir.path(), &k, StoreCaps::default()).unwrap();
        assert_eq!(reopened.load.report.solves, 1);
        assert!(!reopened.writer.stats().read_only);
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
