//! The graph library's entries are a fixed function of the enumeration
//! config and decomposition parameters: the same graphs, node for node,
//! in the same order, with the same optimal solutions and costs. Each
//! build below is pinned by an FNV-1a digest over every entry, so any
//! change to the enumerator, the canonical form or the library insert
//! that alters, drops, adds or reorders an entry fails here.

use mpld_gnn::RgcnClassifier;
use mpld_graph::{DecomposeParams, Fnv64};
use mpld_matching::{GraphLibrary, LibraryConfig};

struct Fnv(Fnv64);

impl Fnv {
    fn mix(&mut self, x: u64) {
        self.0.bytes(&x.to_le_bytes());
    }
}

/// Digest of every entry's graph (node count, features, conflict and
/// stitch edges), solution and cost, in entry order.
fn library_digest(lib: &GraphLibrary) -> (usize, u64) {
    let mut h = Fnv(Fnv64::new());
    for e in lib.entries() {
        let g = &e.graph;
        h.mix(g.num_nodes() as u64);
        for v in 0..g.num_nodes() as u32 {
            h.mix(u64::from(g.feature_of(v)));
        }
        h.mix(g.conflict_edges().len() as u64);
        for &(u, v) in g.conflict_edges() {
            h.mix(u64::from(u) << 32 | u64::from(v));
        }
        h.mix(g.stitch_edges().len() as u64);
        for &(u, v) in g.stitch_edges() {
            h.mix(u64::from(u) << 32 | u64::from(v));
        }
        h.mix(e.solution.len() as u64);
        for &c in &e.solution {
            h.mix(u64::from(c));
        }
        h.mix(u64::from(e.cost.conflicts) << 32 | u64::from(e.cost.stitches));
    }
    (lib.len(), h.0.finish())
}

fn config(
    max_parent_size: usize,
    max_splits: usize,
    max_nodes: usize,
    stitches: bool,
) -> LibraryConfig {
    LibraryConfig {
        max_parent_size,
        max_splits,
        max_nodes,
        stitches,
    }
}

#[test]
fn library_entries_are_pinned() {
    // Digests taken from the exhaustive enumerator that canonicalized
    // every labeled candidate; the pruned enumerator must reproduce them.
    let embedder = RgcnClassifier::selector(7);
    let builds = [
        (
            "default",
            LibraryConfig::default(),
            DecomposeParams::tpl(),
            (963, 15637698835456052698),
        ),
        (
            "p5s1n6t1",
            config(5, 1, 6, true),
            DecomposeParams::tpl(),
            (56, 6703860290344318502),
        ),
        (
            "p6s1n7t0",
            config(6, 1, 7, false),
            DecomposeParams::tpl(),
            (23, 14651627357064327186),
        ),
        (
            "p4s2n6t1",
            config(4, 2, 6, true),
            DecomposeParams::tpl(),
            (51, 12197848446244358447),
        ),
        (
            "default qpl",
            LibraryConfig::default(),
            DecomposeParams::qpl(),
            (120, 16575642517098458943),
        ),
    ];
    for (name, cfg, params, want) in builds {
        let lib = GraphLibrary::build(&embedder, &cfg, &params);
        assert_eq!(library_digest(&lib), want, "{name} library changed");
    }
}
