//! Job journals: a decomposition run's checkpoint as a store file.
//!
//! A journal is an ordinary store file with a [`JournalKey`] header (the
//! store header's model provenance plus the layout name and unit count)
//! and one `"t":"u"` record per settled ILP/EC-tail unit. It inherits the
//! store's discipline wholesale: the torn-tail reader, the batched
//! single-writer [`StoreWriter`], last-record-wins, and the re-key rule —
//! a journal whose header disagrees with the present run (another model,
//! layout, `k`, `alpha` or unit count, or an older format) is moved
//! aside as `.stale`, never replayed and never deleted.
//!
//! A killed run loses at most the writer's unflushed batch; those units
//! simply re-solve, so a resumed run stays bit-identical.

use crate::format::{parse_record, JournalKey, Record, UnitRecord};
use crate::reader::{elapsed_ms, move_aside, walk, LoadReport};
use crate::writer::{StoreCaps, StoreWriter};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// An opened job journal: the unit records a previous run left (the
/// last per unit), what opening observed, and the append handle for this
/// run's records.
pub struct Journal {
    /// Loaded unit records by unit index; read them through
    /// [`Journal::get`], which checks the fingerprint.
    pub units: HashMap<usize, UnitRecord>,
    /// `solves` counts the loaded unit records; `rekeyed` means a
    /// mismatched journal was moved aside.
    pub report: LoadReport,
    /// [`StoreWriter::append_unit`] records a settled unit.
    pub writer: StoreWriter,
}

impl Journal {
    /// Opens (creating as needed) the journal at `path` for the run
    /// `key` describes, moving a mismatched file aside.
    ///
    /// # Errors
    ///
    /// Real I/O failures only; corrupt or torn lines are counted and
    /// skipped.
    pub fn open(path: &Path, key: &JournalKey) -> std::io::Result<Journal> {
        let start = Instant::now();
        let mut report = LoadReport::default();
        let opened = |h: &str| key.matches(h).then(HashMap::new);
        let walked = walk(path, opened, |units, line| match parse_record(line) {
            Some(Record::Unit(u)) => {
                // Last record wins: resumed runs append to the same file.
                if units.insert(u.unit, u).is_some() {
                    report.superseded += 1;
                }
            }
            _ => report.skipped_corrupt += 1,
        })?;
        let mut units = HashMap::new();
        if let Some(walked) = walked {
            report.bytes = walked.bytes;
            report.torn_tail = walked.torn_tail;
            match walked.state {
                Some(loaded) => units = loaded,
                None => {
                    move_aside(path);
                    report.rekeyed = true;
                }
            }
        }
        report.solves = units.len();
        report.load_ms = elapsed_ms(start);
        let header = key.header_line();
        let writer = StoreWriter::open(path, &header, StoreCaps::default(), units.len() as u64)?;
        Ok(Journal {
            units,
            report,
            writer,
        })
    }

    /// The record for `unit`, provided its stored fingerprint equals the
    /// present graph's `fingerprint` (a mismatch means the unit changed —
    /// the record is ignored).
    pub fn get(&self, unit: usize, fingerprint: u64) -> Option<&UnitRecord> {
        self.units
            .get(&unit)
            .filter(|r| r.fingerprint == fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TailEngine;
    use crate::FORMAT_VERSION;
    use mpld_graph::{Certainty, CostBreakdown};
    use std::path::PathBuf;

    struct Scratch(PathBuf);
    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("mpld-journal-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
        fn file(&self) -> PathBuf {
            self.0.join("job.jsonl")
        }
        fn stale_files(&self) -> usize {
            std::fs::read_dir(&self.0)
                .unwrap()
                .filter(|e| {
                    let p = e.as_ref().unwrap().path();
                    p.extension().is_some_and(|x| x == "stale")
                })
                .count()
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn key() -> JournalKey {
        JournalKey {
            model_digest: 0xdead_beef_cafe_f00d,
            k: 3,
            alpha: 0.1,
            layout: "C432".into(),
            units: 7,
        }
    }

    fn record(unit: usize) -> UnitRecord {
        UnitRecord {
            unit,
            fingerprint: 0xDEAD + unit as u64,
            engine: TailEngine::Ec,
            certainty: Certainty::Certified,
            budget_fallback: false,
            coloring: vec![0, 1, 2, 0],
            cost: CostBreakdown {
                conflicts: 0,
                stitches: 1,
            },
        }
    }

    fn write(path: &Path, key: &JournalKey, records: &[UnitRecord]) {
        let j = Journal::open(path, key).unwrap();
        for r in records {
            j.writer.append_unit(r);
        }
    }

    #[test]
    fn roundtrip_via_file() {
        let dir = Scratch::new("roundtrip");
        write(&dir.file(), &key(), &[record(0), record(3)]);
        // Re-open (a resumed run) and add one more record.
        write(&dir.file(), &key(), &[record(5)]);
        let j = Journal::open(&dir.file(), &key()).unwrap();
        assert_eq!(j.units.len(), 3);
        assert_eq!(j.get(3, 0xDEAD + 3), Some(&record(3)));
        assert!(j.get(3, 0xBEEF).is_none(), "fingerprint mismatch ignored");
        assert_eq!(j.report.skipped_corrupt, 0);
        assert!(!j.report.rekeyed);
    }

    #[test]
    fn missing_file_is_a_fresh_run() {
        let dir = Scratch::new("fresh");
        let j = Journal::open(&dir.file(), &key()).unwrap();
        assert!(j.units.is_empty());
        assert!(!j.report.rekeyed);
        assert_eq!(j.writer.stats().appended, 0);
    }

    #[test]
    fn every_certainty_and_fallback_roundtrips() {
        let dir = Scratch::new("certainty");
        let records: Vec<UnitRecord> = [
            Certainty::Certified,
            Certainty::Heuristic,
            Certainty::BudgetExhausted,
            Certainty::Degraded,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, certainty)| UnitRecord {
            certainty,
            engine: TailEngine::Ilp,
            budget_fallback: i % 2 == 1,
            fingerprint: u64::MAX - i as u64,
            ..record(i)
        })
        .collect();
        write(&dir.file(), &key(), &records);
        let j = Journal::open(&dir.file(), &key()).unwrap();
        for r in &records {
            assert_eq!(j.get(r.unit, r.fingerprint), Some(r));
        }
    }

    #[test]
    fn truncated_and_garbled_lines_are_skipped() {
        let dir = Scratch::new("garbled");
        write(&dir.file(), &key(), &[record(0)]);
        let mut text = std::fs::read_to_string(dir.file()).unwrap();
        text.push_str("not json at all}\n");
        text.push_str("{\"t\":\"u\",\"i\":1,\"fp\":57006,\"eng\":\"ec\",\"cert\":\"heuri");
        std::fs::write(dir.file(), text).unwrap();
        let j = Journal::open(&dir.file(), &key()).unwrap();
        assert_eq!(j.units.len(), 1);
        assert_eq!(j.report.skipped_corrupt, 1);
        assert!(j.report.torn_tail);
        assert_eq!(j.get(0, 0xDEAD), Some(&record(0)));
    }

    #[test]
    fn last_record_per_unit_wins() {
        let dir = Scratch::new("lastwins");
        let first = UnitRecord {
            certainty: Certainty::BudgetExhausted,
            budget_fallback: true,
            coloring: vec![0],
            ..record(0)
        };
        write(&dir.file(), &key(), &[first, record(0)]);
        let j = Journal::open(&dir.file(), &key()).unwrap();
        assert_eq!(j.get(0, 0xDEAD), Some(&record(0)));
        assert_eq!(j.report.superseded, 1);
    }

    /// Every header component, the format version and an unreadable
    /// header each move the journal aside — it is never replayed and
    /// never deleted.
    #[test]
    fn mismatched_header_is_moved_aside_never_replayed() {
        let variants = [
            JournalKey {
                model_digest: key().model_digest ^ 1,
                ..key()
            },
            JournalKey {
                layout: "C499".into(),
                ..key()
            },
            JournalKey { k: 4, ..key() },
            JournalKey {
                alpha: 0.1 + f64::EPSILON,
                ..key()
            },
            JournalKey { units: 8, ..key() },
        ];
        for other in variants {
            let dir = Scratch::new("mismatch");
            write(&dir.file(), &key(), &[record(0)]);
            let j = Journal::open(&dir.file(), &other).unwrap();
            assert!(j.report.rekeyed, "{other:?}");
            assert!(j.units.is_empty(), "{other:?}");
            assert_eq!(dir.stale_files(), 1, "{other:?}");
        }
        for header in [
            "nonsense".to_string(),
            key()
                .header_line()
                .replace(&format!("\"v\":{FORMAT_VERSION}"), "\"v\":1"),
        ] {
            let dir = Scratch::new("badheader");
            std::fs::write(dir.file(), format!("{header}\n")).unwrap();
            let j = Journal::open(&dir.file(), &key()).unwrap();
            assert!(j.report.rekeyed && j.units.is_empty(), "{header}");
            assert_eq!(dir.stale_files(), 1);
        }
    }

    #[test]
    fn escaped_layout_names_match() {
        let dir = Scratch::new("escaped");
        let odd = JournalKey {
            layout: "a\"b\\c\u{1}é".into(),
            ..key()
        };
        write(&dir.file(), &odd, &[record(2)]);
        let j = Journal::open(&dir.file(), &odd).unwrap();
        assert!(!j.report.rekeyed);
        assert_eq!(j.units.len(), 1);
    }

    /// After a torn tail, the first record a resumed run appends lands on
    /// its own line and survives the next load.
    #[test]
    fn append_after_torn_tail_survives_reload() {
        let dir = Scratch::new("torn");
        write(&dir.file(), &key(), &[record(0), record(1)]);
        let text = std::fs::read_to_string(dir.file()).unwrap();
        std::fs::write(dir.file(), &text[..text.len() - 10]).unwrap();
        write(&dir.file(), &key(), &[record(4)]);
        let j = Journal::open(&dir.file(), &key()).unwrap();
        assert_eq!(j.get(4, 0xDEAD + 4), Some(&record(4)));
        assert_eq!(j.get(0, 0xDEAD), Some(&record(0)));
        assert!(j.get(1, 0xDEAD + 1).is_none(), "the torn record is lost");
    }
}
