//! Checkpoint/resume, end to end: a run that journals its ILP/EC-tail
//! solves can be killed and resumed bit-identically, the loader tolerates
//! the truncated trailing line a crash leaves behind, and tampered
//! records are audited out and silently re-solved.

use std::path::PathBuf;
use std::sync::OnceLock;

use mpld::{
    prepare, train_framework, AdaptiveFramework, AdaptiveResult, Checkpoint, CheckpointHeader,
    Engine, JournalWriter, OfflineConfig, PreparedLayout, Recovery, Session, TrainingData,
};
use mpld_graph::DecomposeParams;
use mpld_layout::circuit_by_name;

fn offline_config() -> OfflineConfig {
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 1;
    cfg.colorgnn.epochs = 1;
    cfg.library = mpld_matching::LibraryConfig {
        max_parent_size: 4,
        max_splits: 1,
        max_nodes: 5,
        stitches: false,
    };
    cfg
}

/// Serialized model + test layout, trained once for the file.
fn fixture() -> &'static (Vec<u8>, PreparedLayout) {
    static FIXTURE: OnceLock<(Vec<u8>, PreparedLayout)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = DecomposeParams::tpl();
        let layout = circuit_by_name("C432").expect("exists").generate();
        let prep = prepare(&layout, &params);
        let mut data = TrainingData::default();
        data.add_layout_capped(&prep, &params, 8);
        let fw = train_framework(&data, &params, &offline_config());
        let mut bytes = Vec::new();
        fw.save(&mut bytes).expect("serialize to Vec");
        (bytes, prep)
    })
}

/// A fresh copy of the fixture model that routes everything the library
/// misses to the ILP/EC tail — the journaled path these tests exercise.
fn framework() -> AdaptiveFramework {
    let (bytes, _) = fixture();
    let mut fw =
        AdaptiveFramework::load(bytes.as_slice(), &DecomposeParams::tpl(), &offline_config())
            .expect("fixture model loads");
    fw.use_colorgnn = false;
    fw
}

/// One run on a cold engine with two tail workers.
fn run(seed: u64, recovery: Recovery<'_>) -> AdaptiveResult {
    let mut session = Session::new(seed);
    session.threads = 2;
    session.recovery = recovery;
    Engine::new(framework())
        .decompose(&fixture().1, &mut session)
        .expect("unlimited policy cannot fail")
}

fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mpld-recovery-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn header_for(prep: &PreparedLayout, fw: &AdaptiveFramework) -> CheckpointHeader {
    CheckpointHeader {
        layout: prep.name.clone(),
        k: fw.params.k,
        alpha: fw.params.alpha,
        units: prep.units.len(),
    }
}

/// Runs once with a journal, "kills" the run by truncating the journal
/// mid-record (as a crash during a write would), resumes from it, and
/// checks the resumed run reproduces the uninterrupted run bit-identically.
#[test]
fn killed_run_resumes_bit_identically() {
    let (_, prep) = fixture();
    let fw = framework();
    let path = journal_path("kill-resume.jsonl");

    let w = JournalWriter::append(&path, &header_for(prep, &fw)).expect("journal opens");
    let baseline = run(
        42,
        Recovery {
            resume: None,
            journal: Some(&w),
        },
    );
    drop(w);
    assert!(
        baseline.usage.ilp + baseline.usage.ec > 0,
        "fixture must exercise the journaled ILP/EC tail"
    );

    // Simulate the kill: chop the last 20 bytes, leaving a torn record.
    let bytes = std::fs::read(&path).expect("journal readable");
    assert!(bytes.len() > 40, "journal must contain records");
    std::fs::write(&path, &bytes[..bytes.len() - 20]).expect("truncate");

    let cp = Checkpoint::load(&path)
        .expect("load ok")
        .expect("journal exists");
    assert!(cp.matches(&prep.name, fw.params.k, fw.params.alpha, prep.units.len()));
    assert!(cp.skipped_lines() >= 1, "the torn record is skipped");
    assert!(!cp.is_empty(), "intact records survive");

    let resumed = run(
        42,
        Recovery {
            resume: Some(&cp),
            journal: None,
        },
    );

    assert!(resumed.resumed_units > 0, "records must actually be reused");
    assert_eq!(
        baseline.pipeline.decomposition, resumed.pipeline.decomposition,
        "resume must be bit-identical"
    );
    assert_eq!(baseline.pipeline.cost, resumed.pipeline.cost);
    assert_eq!(baseline.unit_engines, resumed.unit_engines);
    assert_eq!(baseline.usage, resumed.usage);
    assert_eq!(resumed.budget.quarantined, 0);
    let _ = std::fs::remove_file(&path);
}

/// A journal record whose claimed cost disagrees with the from-scratch
/// audit recomputation must be rejected on resume and the unit re-solved
/// — the final result is still identical to the honest run.
#[test]
fn tampered_record_is_audited_out_and_resolved() {
    let (_, prep) = fixture();
    let fw = framework();
    let path = journal_path("tampered.jsonl");

    let w = JournalWriter::append(&path, &header_for(prep, &fw)).expect("journal opens");
    let baseline = run(
        7,
        Recovery {
            resume: None,
            journal: Some(&w),
        },
    );
    drop(w);

    // Tamper: lie about the first record's conflict count (no unit in
    // this fixture has anywhere near 99 conflicts).
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let victim = lines
        .iter()
        .position(|l| l.contains("\"conflicts\":"))
        .expect("at least one record");
    let start = lines[victim].find("\"conflicts\":").expect("field") + "\"conflicts\":".len();
    let end = start
        + lines[victim][start..]
            .find(',')
            .expect("conflicts is not the last field");
    lines[victim].replace_range(start..end, "99");
    std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite");

    let cp = Checkpoint::load(&path)
        .expect("load ok")
        .expect("journal exists");
    let intact = cp.len();
    let resumed = run(
        7,
        Recovery {
            resume: Some(&cp),
            journal: None,
        },
    );

    assert!(
        resumed.resumed_units < intact,
        "the tampered record must not be resumed"
    );
    assert_eq!(
        baseline.pipeline.decomposition, resumed.pipeline.decomposition,
        "the audited-out unit re-solves to the honest result"
    );
    assert_eq!(baseline.pipeline.cost, resumed.pipeline.cost);
    let _ = std::fs::remove_file(&path);
}

/// A journal from a different layout/parameters is detected by the header
/// check the CLI performs before resuming.
#[test]
fn mismatched_header_is_detected() {
    let (_, prep) = fixture();
    let fw = framework();
    let path = journal_path("mismatch.jsonl");
    let header = CheckpointHeader {
        layout: "SomethingElse".into(),
        k: fw.params.k,
        alpha: fw.params.alpha,
        units: prep.units.len() + 5,
    };
    let w = JournalWriter::append(&path, &header).expect("journal opens");
    drop(w);
    let cp = Checkpoint::load(&path)
        .expect("load ok")
        .expect("journal exists");
    assert!(!cp.matches(&prep.name, fw.params.k, fw.params.alpha, prep.units.len()));
    let _ = std::fs::remove_file(&path);
}
