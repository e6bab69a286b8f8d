//! Criterion bench: the persistent library/tail-solve store. Measures
//! the two paths the serving flywheel depends on: append throughput
//! (write-behind batched fsync) and the bounded streaming load that a
//! warm process pays at startup — the latter must stay in the
//! milliseconds range for store-backed startup to beat re-solving.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpld_graph::{audit_coloring, Certainty, LayoutGraph};
use mpld_store::{open, StoreCaps, StoreKey, StoredSolve, TailEngine};

const K: u8 = 3;

fn bench_key() -> StoreKey {
    StoreKey {
        model_digest: 0xBE7C4_u64,
        k: K,
        alpha: 0.1,
        dim: 16,
        library: "p6s1n7t1".to_string(),
    }
}

/// Deterministic family of small unit graphs shaped like real tail
/// units: rings with one chord, 4–9 nodes, greedily colored and costed
/// through the independent Eq. 1 auditor (so every record is
/// audit-clean, as certified solves are in production).
fn synthetic_solves(n: usize) -> Vec<StoredSolve> {
    (0..n)
        .map(|i| {
            let nodes = 4 + (i % 6) as u32;
            let mut edges: Vec<(u32, u32)> = (0..nodes).map(|v| (v, (v + 1) % nodes)).collect();
            let chord = ((i as u32) % nodes, ((i as u32) + 2) % nodes);
            if chord.0 != chord.1 && !edges.contains(&chord) && !edges.contains(&(chord.1, chord.0))
            {
                edges.push(chord);
            }
            let graph = LayoutGraph::homogeneous(nodes as usize, edges).expect("valid ring graph");
            // Greedy coloring clamped to K masks; conflicts that remain
            // are simply part of the audited cost.
            let mut coloring = vec![0u8; nodes as usize];
            for v in 0..nodes as usize {
                let mut used = [false; 8];
                for &(a, b) in graph.conflict_edges() {
                    let (a, b) = (a as usize, b as usize);
                    if a == v && b < v {
                        used[coloring[b] as usize] = true;
                    }
                    if b == v && a < v {
                        used[coloring[a] as usize] = true;
                    }
                }
                let c = (0..K).find(|&c| !used[c as usize]).unwrap_or(K - 1);
                coloring[v] = c;
            }
            let cost = audit_coloring(&graph, &coloring, K).expect("greedy coloring audits");
            StoredSolve {
                graph,
                ec_first: i % 2 == 0,
                engine: if i % 2 == 0 {
                    TailEngine::Ec
                } else {
                    TailEngine::Ilp
                },
                certainty: Certainty::Certified,
                coloring,
                cost,
            }
        })
        .collect()
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("mpld-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

fn bench_library_store(c: &mut Criterion) {
    let key = bench_key();
    let mut group = c.benchmark_group("library_store");

    // Append path: what each fresh certified tail solve costs the
    // serving loop (buffered render + batched fsync every 32 records).
    let solves = synthetic_solves(256);
    let append_dir = temp_dir("append");
    group.bench_function("append_256", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&append_dir.0);
            let opened = open(&append_dir.0, &key, StoreCaps::default()).expect("open store");
            for s in &solves {
                opened.writer.append_solve(s);
            }
            opened.writer.flush();
            opened.writer.stats().appended
        })
    });

    // Load path: warm-start cost at three store sizes — parse, rebuild
    // every graph through validation, re-audit every coloring, dedup.
    for n in [64usize, 256, 1024] {
        let dir = temp_dir(&format!("load{n}"));
        {
            let opened = open(&dir.0, &key, StoreCaps::default()).expect("open store");
            for s in synthetic_solves(n) {
                opened.writer.append_solve(&s);
            }
        }
        group.bench_with_input(BenchmarkId::new("load", n), &n, |b, _| {
            b.iter(|| {
                let loaded = mpld_store::load(&dir.0, &key).expect("load store");
                assert!(loaded.report.solves > 0);
                assert_eq!(loaded.report.skipped_corrupt, 0);
                loaded.report.solves
            })
        });
    }

    // Compaction: rewrite-and-swap over a store with superseded
    // duplicates (every record appended twice).
    let compact_dir = temp_dir("compact");
    group.bench_function("compact_512_records", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&compact_dir.0);
            let opened = open(&compact_dir.0, &key, StoreCaps::default()).expect("open store");
            for s in &solves {
                opened.writer.append_solve(s);
                opened.writer.append_solve(s);
            }
            // Closing the writer flushes it and releases the file's
            // lock, which compaction takes.
            drop(opened);
            let report =
                mpld_store::compact_file(&key.path_in(&compact_dir.0)).expect("compact store");
            // At least the literal second copies are superseded (the
            // synthetic family also repeats some graphs within itself).
            assert!(report.dropped_superseded >= 256);
            report.kept_solves
        })
    });

    group.finish();
}

criterion_group!(benches, bench_library_store);
criterion_main!(benches);
