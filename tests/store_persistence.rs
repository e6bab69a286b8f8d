//! The persistent store end to end: a warm second process (modeled as a
//! second store-backed [`Engine`] over the same model bytes) must serve
//! the suite with zero fresh ILP/EC-tail solves and a bit-identical
//! digest, and every corruption-matrix case — torn tail, bit-flipped
//! record, stale model fingerprint, header param mismatch — must load
//! degraded (counted) and still reproduce the serial oracle exactly.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use mpld::{
    engine_with_store, prepare, train_framework, AdaptiveResult, Engine, OfflineConfig,
    PreparedLayout, Session, TrainingData,
};
use mpld_graph::DecomposeParams;
use mpld_layout::circuit_by_name;
use mpld_store::StoreCaps;

const SEED: u64 = 0xD15EA5E;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mpld-storetest-{tag}-{}", std::process::id()));
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

fn offline_config() -> OfflineConfig {
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 2;
    cfg.colorgnn.epochs = 1;
    cfg
}

/// Model bytes + test layout + serial oracle, built once for the file.
fn fixture() -> &'static (Vec<u8>, PreparedLayout, AdaptiveResult, DecomposeParams) {
    static FIXTURE: OnceLock<(Vec<u8>, PreparedLayout, AdaptiveResult, DecomposeParams)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = DecomposeParams::tpl();
        let layout = circuit_by_name("C499").expect("exists").generate();
        let prep = prepare(&layout, &params);
        let mut data = TrainingData::default();
        data.add_layout_capped(&prep, &params, 40);
        let fw = train_framework(&data, &params, &offline_config());
        let mut bytes = Vec::new();
        fw.save(&mut bytes).expect("serialize to Vec");
        let test = prepare(
            &circuit_by_name("C432").expect("exists").generate(),
            &params,
        );
        let serial = Engine::new(fw)
            .decompose(&test, &mut Session::new(SEED))
            .expect("decomposes");
        (bytes, test, serial, params)
    })
}

/// Everything that must be independent of caches and store state.
fn digest(r: &AdaptiveResult) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &r.pipeline.decomposition,
        r.pipeline.cost,
        &r.unit_engines,
        r.usage,
        r.budget,
    )
}

/// Tail solves actually performed (not served from cache or journal).
fn fresh_tail_solves(r: &AdaptiveResult) -> usize {
    r.usage.ilp + r.usage.ec - r.memo_hits - r.resumed_units
}

fn store_engine(dir: &Path) -> Engine {
    let (bytes, _, _, params) = fixture();
    let (engine, _) = engine_with_store(
        bytes,
        params,
        &offline_config(),
        dir,
        StoreCaps::default(),
        None,
    )
    .expect("store opens");
    engine
}

fn run(engine: &Engine) -> AdaptiveResult {
    let (_, test, _, _) = fixture();
    let mut session = Session::new(SEED);
    engine.decompose(test, &mut session).expect("decomposes")
}

fn store_file(dir: &Path) -> PathBuf {
    let files = mpld_store::scan_dir(dir).unwrap();
    assert_eq!(files.len(), 1, "expected exactly one store file");
    files[0].path.clone()
}

#[test]
fn warm_process_serves_suite_with_zero_fresh_tail_solves() {
    let (_, _, serial, _) = fixture();
    let dir = TempDir::new("warm");

    // Cold process: populates the store.
    let cold_engine = store_engine(dir.path());
    let (cold_load, _) = cold_engine.stats().store.expect("store attached");
    assert!(
        !cold_load.lib_complete,
        "first process must build the library"
    );
    let cold = run(&cold_engine);
    assert_eq!(digest(&cold), digest(serial));
    let cold_fresh = fresh_tail_solves(&cold);
    drop(cold_engine); // flushes

    // Warm process: same model bytes, fresh Engine, loaded store.
    let warm_engine = store_engine(dir.path());
    let (warm_load, _) = warm_engine.stats().store.expect("store attached");
    assert!(warm_load.lib_complete, "library must come from the store");
    assert_eq!(warm_load.solves, cold_fresh, "every cold solve persisted");
    assert!(!warm_load.rekeyed);
    let warm = run(&warm_engine);
    assert_eq!(digest(&warm), digest(serial), "warm digest drifted");
    assert_eq!(
        fresh_tail_solves(&warm),
        0,
        "a warm process must serve the suite entirely from the store"
    );
    // Nothing new to append: the flywheel converged.
    assert_eq!(warm_engine.stats().store.unwrap().1.appended, 0);
}

#[test]
fn torn_tail_loads_degraded_and_stays_bit_identical() {
    let (_, _, serial, _) = fixture();
    let dir = TempDir::new("torn");
    let cold = {
        let engine = store_engine(dir.path());
        run(&engine)
    };
    assert_eq!(digest(&cold), digest(serial));
    // Tear the final record mid-line, as kill -9 during an append would.
    let path = store_file(dir.path());
    let bytes = std::fs::read(&path).unwrap();
    let cut = bytes.len() - bytes.len().min(40);
    std::fs::write(&path, &bytes[..cut.max(1)]).unwrap();

    let engine = store_engine(dir.path());
    let (stats, _) = engine.stats().store.unwrap();
    assert!(
        stats.torn_tail || stats.skipped_corrupt > 0,
        "the tear must be observed: {stats:?}"
    );
    let r = run(&engine);
    assert_eq!(digest(&r), digest(serial), "torn store changed the answer");
}

#[test]
fn bit_flipped_record_is_skipped_never_served() {
    let (_, _, serial, _) = fixture();
    let dir = TempDir::new("flip");
    {
        let engine = store_engine(dir.path());
        run(&engine);
    }
    let path = store_file(dir.path());
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte inside the last complete record line.
    let line_starts: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
        .collect();
    let target = line_starts[line_starts.len() - 2] + 12;
    bytes[target] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let engine = store_engine(dir.path());
    let r = run(&engine);
    assert_eq!(digest(&r), digest(serial), "bit flip changed the answer");
}

#[test]
fn stale_model_fingerprint_never_matches() {
    let (bytes, _, serial, params) = fixture();
    let dir = TempDir::new("stale");
    {
        let engine = store_engine(dir.path());
        run(&engine);
    }
    // "Retrain": perturb one weight byte past the header. The digest
    // changes, so the stale store file must never be consulted.
    let mut retrained = bytes.clone();
    let last = retrained.len() - 1;
    retrained[last] ^= 1;
    let (engine, report) = engine_with_store(
        &retrained,
        params,
        &offline_config(),
        dir.path(),
        StoreCaps::default(),
        None,
    )
    .expect("opens under the new key");
    assert_eq!(report.solves, 0, "stale solves served under a new model");
    let (stats, _) = engine.stats().store.unwrap();
    assert!(!stats.lib_complete);
    assert_eq!(stats.solves, 0);
    // Both keyed files now coexist: provenance separates them.
    assert_eq!(mpld_store::scan_dir(dir.path()).unwrap().len(), 2);
    // And the old model still warm-loads its own file with a clean digest.
    let warm = store_engine(dir.path());
    assert!(warm.stats().store.unwrap().0.lib_complete);
    let r = run(&warm);
    assert_eq!(digest(&r), digest(serial));
}

#[test]
fn header_param_mismatch_rekeys_and_rebuilds() {
    let (_, _, serial, _) = fixture();
    let dir = TempDir::new("hdrparam");
    {
        let engine = store_engine(dir.path());
        run(&engine);
    }
    // Corrupt the header's alpha bits in place (same file name): the
    // loader must refuse the whole file and move it aside.
    let path = store_file(dir.path());
    let content = std::fs::read_to_string(&path).unwrap();
    let mangled = content.replacen("\"alpha_bits\":\"", "\"alpha_bits\":\"f", 1);
    assert_ne!(content, mangled, "fixture header had no alpha_bits field");
    std::fs::write(&path, mangled).unwrap();

    let engine = store_engine(dir.path());
    let (stats, _) = engine.stats().store.unwrap();
    assert!(stats.rekeyed, "param mismatch must re-key: {stats:?}");
    assert_eq!(stats.solves, 0);
    assert!(!stats.lib_complete);
    let r = run(&engine);
    assert_eq!(digest(&r), digest(serial));
    // The mismatched file was preserved as .stale, not deleted.
    let stale = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "stale"))
        .count();
    assert_eq!(stale, 1);
}

#[test]
fn compaction_preserves_warm_parity() {
    let (_, _, serial, _) = fixture();
    let dir = TempDir::new("compactparity");
    {
        let engine = store_engine(dir.path());
        run(&engine);
    }
    // Run a second cold-ish process to create room for duplicates, then
    // compact and confirm the compacted store still serves everything.
    {
        let engine = store_engine(dir.path());
        run(&engine);
    }
    let path = store_file(dir.path());
    let (report, clean) = mpld_store::compact_and_verify(&path).unwrap();
    assert!(clean, "compacted store fails verify: {report:?}");
    let engine = store_engine(dir.path());
    let (stats, _) = engine.stats().store.unwrap();
    assert!(stats.lib_complete);
    let r = run(&engine);
    assert_eq!(digest(&r), digest(serial));
    assert_eq!(fresh_tail_solves(&r), 0);
}

/// An entry-capped store-backed engine still answers correctly — caps
/// shed warmth, not correctness.
#[test]
fn capped_store_and_cache_stay_correct() {
    let (bytes, _, serial, params) = fixture();
    let dir = TempDir::new("capped");
    let caps = StoreCaps {
        max_entries: Some(2),
        max_bytes: None,
    };
    let (engine, _) =
        engine_with_store(bytes, params, &offline_config(), dir.path(), caps, Some(4))
            .expect("store opens");
    let r = run(&engine);
    assert_eq!(digest(&r), digest(serial));
    let (_, stats) = engine.stats().store.unwrap();
    assert!(stats.entries <= 2, "store cap exceeded: {stats:?}");
    drop(engine);
    let (engine2, report) =
        engine_with_store(bytes, params, &offline_config(), dir.path(), caps, Some(4))
            .expect("store reopens");
    assert!(report.solves <= 2);
    let r2 = run(&engine2);
    assert_eq!(digest(&r2), digest(serial));
}
