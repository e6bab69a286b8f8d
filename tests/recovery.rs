//! Kill and resume, end to end: a run that journals its ILP/EC-tail
//! solves can be killed and resumed bit-identically, the loader tolerates
//! the truncated trailing line a crash leaves behind, tampered records
//! are audited out and silently re-solved, a record that claims another
//! unit graph is ignored, and a journal of another run or model is moved
//! aside, never replayed.

use std::path::PathBuf;
use std::sync::OnceLock;

use mpld::{
    prepare, train_framework, AdaptiveFramework, AdaptiveResult, Engine, Journal, JournalKey,
    OfflineConfig, PreparedLayout, Recovery, Session, TrainingData,
};
use mpld_graph::DecomposeParams;
use mpld_layout::circuit_by_name;
use mpld_matching::graph_fingerprint;

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

fn key_for(prep: &PreparedLayout, fw: &AdaptiveFramework) -> JournalKey {
    JournalKey {
        model_digest: fw.weights_digest(),
        k: fw.params.k,
        alpha: fw.params.alpha,
        layout: prep.name.clone(),
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

    let w = Journal::open(&path, &key_for(prep, &fw)).expect("journal opens");
    let baseline = run(42, Recovery { journal: Some(&w) });
    drop(w);
    assert!(
        baseline.usage.ilp + baseline.usage.ec > 0,
        "fixture must exercise the journaled ILP/EC tail"
    );

    // Simulate the kill: chop the last 20 bytes, leaving a torn record.
    let bytes = std::fs::read(&path).expect("journal readable");
    assert!(bytes.len() > 40, "journal must contain records");
    std::fs::write(&path, &bytes[..bytes.len() - 20]).expect("truncate");

    let cp = Journal::open(&path, &key_for(prep, &fw)).expect("load ok");
    assert!(!cp.report.rekeyed, "the header matches the present run");
    assert!(cp.report.torn_tail, "the torn record is skipped");
    assert!(!cp.units.is_empty(), "intact records survive");

    let resumed = run(42, Recovery { journal: Some(&cp) });

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

    let w = Journal::open(&path, &key_for(prep, &fw)).expect("journal opens");
    let baseline = run(7, Recovery { journal: Some(&w) });
    drop(w);

    // Tamper: lie about the first record's conflict count (no unit in
    // this fixture has anywhere near 99 conflicts).
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let victim = lines
        .iter()
        .position(|l| l.contains("\"cn\":"))
        .expect("at least one record");
    let start = lines[victim].find("\"cn\":").expect("field") + "\"cn\":".len();
    let end = start
        + lines[victim][start..]
            .find(',')
            .expect("conflicts is not the last field");
    lines[victim].replace_range(start..end, "99");
    std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite");

    let cp = Journal::open(&path, &key_for(prep, &fw)).expect("load ok");
    let intact = cp.units.len();
    let resumed = run(7, Recovery { journal: Some(&cp) });

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

/// A record is resumed only onto the graph it was solved for: unit
/// fingerprints tell distinct unit graphs apart (and agree on identical
/// ones), so a record that claims another unit's graph is ignored and
/// the unit re-solved to the honest result.
#[test]
fn record_of_another_unit_graph_is_not_resumed() {
    let (_, prep) = fixture();
    let fw = framework();
    let path = journal_path("other-graph.jsonl");

    let w = Journal::open(&path, &key_for(prep, &fw)).expect("journal opens");
    let baseline = run(11, Recovery { journal: Some(&w) });
    drop(w);

    let cp = Journal::open(&path, &key_for(prep, &fw)).expect("load ok");
    let intact = cp.units.len();
    let graph = |i: usize| &prep.units[i].hetero;
    for (&i, r) in &cp.units {
        assert_eq!(
            graph_fingerprint(graph(i)),
            r.fingerprint,
            "an identical graph shares its record's fingerprint"
        );
    }
    let mut recorded: Vec<usize> = cp.units.keys().copied().collect();
    recorded.sort_unstable();
    let (victim, donor) = recorded
        .iter()
        .flat_map(|&i| recorded.iter().map(move |&j| (i, j)))
        .find(|&(i, j)| graph(i) != graph(j))
        .expect("the fixture journals at least two distinct unit graphs");
    let (own, foreign) = (
        graph_fingerprint(graph(victim)),
        graph_fingerprint(graph(donor)),
    );
    assert_ne!(own, foreign, "distinct graphs get distinct fingerprints");
    drop(cp);

    // The victim's record now claims the donor's graph.
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let from = format!("\"t\":\"u\",\"i\":{victim},\"fp\":{own},");
    let to = format!("\"t\":\"u\",\"i\":{victim},\"fp\":{foreign},");
    assert!(
        text.contains(&from),
        "the victim's record is in the journal"
    );
    std::fs::write(&path, text.replace(&from, &to)).expect("rewrite");

    let cp = Journal::open(&path, &key_for(prep, &fw)).expect("load ok");
    assert_eq!(cp.units.len(), intact, "the rewritten record still parses");
    let resumed = run(11, Recovery { journal: Some(&cp) });
    assert_eq!(
        resumed.resumed_units + 1,
        intact,
        "every record but the victim's is resumed"
    );
    assert_eq!(
        baseline.pipeline.decomposition, resumed.pipeline.decomposition,
        "the victim re-solves to the honest result"
    );
    assert_eq!(baseline.pipeline.cost, resumed.pipeline.cost);
    let _ = std::fs::remove_file(&path);
}

/// A journal from a different layout/parameters is detected by the header
/// check, moved aside, and never replayed.
#[test]
fn mismatched_header_is_detected() {
    let (_, prep) = fixture();
    let fw = framework();
    let path = journal_path("mismatch.jsonl");
    let other = JournalKey {
        layout: "SomethingElse".into(),
        units: prep.units.len() + 5,
        ..key_for(prep, &fw)
    };
    drop(Journal::open(&path, &other).expect("journal opens"));
    let cp = Journal::open(&path, &key_for(prep, &fw)).expect("load ok");
    assert!(cp.report.rekeyed);
    assert!(cp.units.is_empty());
    let _ = std::fs::remove_file(&path);
}

/// A journal written under one model is never replayed under another —
/// the model-provenance rule — and it is moved aside, not deleted.
#[test]
fn journal_of_another_model_is_moved_aside_not_replayed() {
    let (_, prep) = fixture();
    let fw = framework();
    let path = journal_path("other-model.jsonl");
    let mut stale = path.clone().into_os_string();
    stale.push(".stale");
    let _ = std::fs::remove_file(&stale);
    let model_a = JournalKey {
        model_digest: fw.weights_digest() ^ 1,
        ..key_for(prep, &fw)
    };
    let w = Journal::open(&path, &model_a).expect("journal opens");
    let baseline = run(42, Recovery { journal: Some(&w) });
    drop(w);
    assert!(baseline.usage.ilp + baseline.usage.ec > 0);

    let model_b = Journal::open(&path, &key_for(prep, &fw)).expect("journal opens");
    assert!(
        model_b.report.rekeyed,
        "a foreign model's journal is moved aside"
    );
    assert!(model_b.units.is_empty());
    let resumed = run(
        42,
        Recovery {
            journal: Some(&model_b),
        },
    );
    assert_eq!(resumed.resumed_units, 0, "no record of model A is replayed");
    assert_eq!(
        baseline.pipeline.decomposition,
        resumed.pipeline.decomposition
    );
    let kept = std::fs::read_to_string(&stale).expect("moved aside, not deleted");
    assert!(kept.contains("\"t\":\"u\""));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&stale);
}
