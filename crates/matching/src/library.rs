//! The isomorphism-free graph library and embedding-based matching
//! (Algorithm 2 and Section IV-D-1 of the paper).
//!
//! Offline, [`GraphLibrary::build`] enumerates every valid small parent
//! graph and its stitch variants, skips isomorphic duplicates by exact
//! canonical form, and stores each new graph with its optimal ILP
//! decomposition and its normalized RGCN graph and node embeddings. The
//! paper skips a duplicate when `max(Lh · h) ≈ 1`; RGCN embeddings are
//! permutation invariant, so every isomorphic duplicate meets that rule
//! (a test checks it on every entry), and the canonical index decides the
//! same duplicates without embedding the rejected graphs.
//!
//! Online, [`GraphLibrary::lookup`] embeds the target graph, finds the
//! entry with unit dot product, derives the node-to-node mapping by
//! comparing node embeddings (falling back to exact search on ties), and
//! transfers the stored optimal coloring through the mapping — after
//! verifying the mapping really is an isomorphism, so a false embedding
//! match can never produce a wrong decomposition.

use crate::canon::{canonical_form, CanonicalForm};
use crate::enumerate::{parent_graphs, stitch_variants};
use crate::vf2::{find_isomorphism, full_candidates};
use mpld_gnn::{FrozenRgcn, InferBatch, RgcnClassifier};
use mpld_graph::{
    Budget, Certainty, CostBreakdown, DecomposeParams, Decomposer, Decomposition, LayoutGraph,
};
use mpld_ilp::IlpDecomposer;
use mpld_tensor::Matrix;
use std::collections::HashMap;

/// Library construction options.
#[derive(Debug, Clone, Copy)]
pub struct LibraryConfig {
    /// Largest parent (non-stitch) graph size enumerated (paper: < 7).
    pub max_parent_size: usize,
    /// Maximum nodes split per stitch variant.
    pub max_splits: usize,
    /// Hard cap on stored graph size (after splitting).
    pub max_nodes: usize,
    /// Whether to enumerate stitch variants at all.
    pub stitches: bool,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        LibraryConfig {
            max_parent_size: 6,
            max_splits: 1,
            max_nodes: 7,
            stitches: true,
        }
    }
}

/// One stored graph with its embeddings and optimal solution.
#[derive(Debug, Clone)]
pub struct LibraryEntry {
    /// The stored graph.
    pub graph: LayoutGraph,
    /// L2-normalized graph embedding.
    pub embedding: Vec<f32>,
    /// Node embeddings (`n x D`), used for node-to-node mapping.
    pub node_embeddings: Matrix,
    /// Optimal coloring from the ILP decomposer.
    pub solution: Vec<u8>,
    /// Cost of `solution`.
    pub cost: CostBreakdown,
}

/// Statistics gathered during construction and lookup.
#[derive(Debug, Clone, Copy, Default)]
pub struct LibraryStats {
    /// Graphs skipped because an isomorphic entry existed.
    pub duplicates_skipped: usize,
}

/// The graph library (see module docs).
#[derive(Debug)]
pub struct GraphLibrary {
    entries: Vec<LibraryEntry>,
    /// Exact canonical index (ground truth behind the embedding index).
    canon_index: HashMap<CanonicalForm, usize>,
    max_nodes: usize,
    stats: LibraryStats,
}

impl GraphLibrary {
    /// Builds the library per Algorithm 2 using `embedder` for graph
    /// embeddings and the exact ILP engine for solutions.
    pub fn build(
        embedder: &RgcnClassifier,
        cfg: &LibraryConfig,
        params: &DecomposeParams,
    ) -> GraphLibrary {
        let mut lib = GraphLibrary {
            entries: Vec::new(),
            canon_index: HashMap::new(),
            max_nodes: cfg.max_nodes,
            stats: LibraryStats::default(),
        };
        let frozen = embedder.freeze();
        for (parent, canon) in parent_graphs(cfg.max_parent_size.min(cfg.max_nodes), params.k) {
            lib.insert(&frozen, params, parent.clone(), canon);
            if cfg.stitches {
                for (variant, canon) in stitch_variants(&parent, cfg.max_splits, cfg.max_nodes) {
                    lib.insert(&frozen, params, variant, canon);
                }
            }
        }
        lib
    }

    /// Rebuilds a library from persisted entries (e.g. loaded from the
    /// on-disk store), preserving entry order so lookups behave
    /// identically across processes. An entry whose canonical form
    /// duplicates an earlier one is skipped and counted — a persisted
    /// dump should never contain one, but a hand-edited or merged file
    /// might.
    pub fn from_entries(entries: Vec<LibraryEntry>, max_nodes: usize) -> GraphLibrary {
        let mut lib = GraphLibrary {
            entries: Vec::with_capacity(entries.len()),
            canon_index: HashMap::new(),
            max_nodes,
            stats: LibraryStats::default(),
        };
        for e in entries {
            let canon = canonical_form(&e.graph);
            if lib.canon_index.contains_key(&canon) {
                lib.stats.duplicates_skipped += 1;
                continue;
            }
            lib.canon_index.insert(canon, lib.entries.len());
            lib.entries.push(e);
        }
        lib
    }

    /// Inserts `graph` unless an isomorphic entry exists (Algorithm 2
    /// lines 7–12). Returns `true` when the graph was stored. The optimal
    /// solution is computed with the exact ILP engine.
    pub fn insert_graph(
        &mut self,
        embedder: &RgcnClassifier,
        params: &DecomposeParams,
        graph: LayoutGraph,
    ) -> bool {
        let canon = canonical_form(&graph);
        self.insert(&embedder.freeze(), params, graph, canon)
    }

    /// Stores `graph`, whose canonical form is `canon`, unless an entry
    /// with that form exists. One frozen single-graph forward yields both
    /// embeddings, bit-identical to the tape's `graph_embedding` and
    /// `node_embeddings` (a batched forward is not: its bits depend on
    /// each graph's row offset in the batch).
    fn insert(
        &mut self,
        frozen: &FrozenRgcn,
        params: &DecomposeParams,
        graph: LayoutGraph,
        canon: CanonicalForm,
    ) -> bool {
        if self.canon_index.contains_key(&canon) {
            self.stats.duplicates_skipped += 1;
            return false;
        }
        let mut out = frozen.infer_encoded(&InferBatch::single(&graph));
        let embedding = normalize(out.graph_embeddings.swap_remove(0));
        let node_embeddings = out.node_embeddings.swap_remove(0);
        // Library solutions must be certified optimal, so the offline build
        // always runs the exact engine to completion.
        #[allow(clippy::expect_used)] // ILP serves every k the enumerator emits
        let d = IlpDecomposer::new()
            .decompose(&graph, params, &Budget::unlimited())
            .expect("exact ILP on an unlimited budget");
        self.canon_index.insert(canon, self.entries.len());
        self.entries.push(LibraryEntry {
            graph,
            embedding,
            node_embeddings,
            solution: d.coloring,
            cost: d.cost,
        });
        true
    }

    /// Number of stored graphs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entries.
    pub fn entries(&self) -> &[LibraryEntry] {
        &self.entries
    }

    /// Test-only corruption of a stored solution: overwrites the coloring
    /// with a monochromatic one while leaving the stored cost untouched,
    /// exactly what a bit-rotted or wrongly-transferred entry looks like
    /// to the lookup re-verification.
    #[doc(hidden)]
    pub fn corrupt_entry_solution_for_tests(&mut self, idx: usize) {
        for c in &mut self.entries[idx].solution {
            *c = 0;
        }
    }

    /// Construction/lookup statistics.
    pub fn stats(&self) -> LibraryStats {
        self.stats
    }

    /// The size cap; larger graphs are never matched.
    pub fn max_nodes(&self) -> usize {
        self.max_nodes
    }

    /// Attempts to decompose `graph` by matching it against the library.
    ///
    /// Returns the transferred optimal decomposition, or `None` when the
    /// graph is too large, not in the library, or the mapping could not be
    /// verified.
    pub fn lookup(&self, embedder: &RgcnClassifier, graph: &LayoutGraph) -> Option<Decomposition> {
        if graph.num_nodes() == 0 || graph.num_nodes() > self.max_nodes {
            return None;
        }
        let h = embedder.graph_embedding(graph);
        let u = embedder.node_embeddings(graph);
        self.lookup_with_embeddings(graph, &h, &u)
    }

    /// Like [`GraphLibrary::lookup`], but with the graph and node
    /// embeddings already computed (e.g. by batched inference). The graph
    /// embedding need not be normalized.
    pub fn lookup_with_embeddings(
        &self,
        graph: &LayoutGraph,
        graph_embedding: &[f32],
        node_embeddings: &Matrix,
    ) -> Option<Decomposition> {
        if graph.num_nodes() == 0 || graph.num_nodes() > self.max_nodes {
            return None;
        }
        let h = normalize(graph_embedding.to_vec());
        // arg max over stored embeddings (Eq. 10).
        let mut candidates: Vec<usize> = (0..self.entries.len())
            .filter(|&i| dot(&self.entries[i].embedding, &h) > 1.0 - 1e-4)
            .collect();
        // Cheap structural prefilter.
        candidates.retain(|&i| {
            let e = &self.entries[i];
            e.graph.num_nodes() == graph.num_nodes()
                && e.graph.conflict_edges().len() == graph.conflict_edges().len()
                && e.graph.stitch_edges().len() == graph.stitch_edges().len()
        });
        if candidates.is_empty() {
            return None;
        }
        let u = node_embeddings;
        for &i in &candidates {
            let entry = &self.entries[i];
            // Candidate images per node by embedding proximity (Eq. 11).
            let mut lists: Vec<Vec<u32>> = Vec::with_capacity(graph.num_nodes());
            let mut degenerate = false;
            for j in 0..graph.num_nodes() {
                let row = u.row(j);
                let scale = 1.0 + row.iter().map(|x| x.abs()).sum::<f32>();
                let mut cand = Vec::new();
                for k in 0..entry.graph.num_nodes() {
                    let dist: f32 = row
                        .iter()
                        .zip(entry.node_embeddings.row(k))
                        .map(|(a, b)| (a - b).abs())
                        .sum();
                    if dist < 1e-3 * scale {
                        cand.push(k as u32);
                    }
                }
                if cand.is_empty() {
                    degenerate = true;
                    break;
                }
                lists.push(cand);
            }
            let mapping = if degenerate {
                find_isomorphism(graph, &entry.graph, &full_candidates(graph, &entry.graph))
            } else {
                find_isomorphism(graph, &entry.graph, &lists).or_else(|| {
                    find_isomorphism(graph, &entry.graph, &full_candidates(graph, &entry.graph))
                })
            };
            if let Some(m) = mapping {
                // Transfer the stored solution (Eq. 12). A stored solution
                // whose length disagrees with its graph (a corrupt entry)
                // must surface as an error, not index out of bounds, so the
                // transfer goes through the checked constructor.
                let coloring: Option<Vec<u8>> = (0..graph.num_nodes())
                    .map(|j| entry.solution.get(m[j] as usize).copied())
                    .collect();
                let Some(coloring) = coloring else { continue };
                match Decomposition::try_from_coloring(graph, coloring, 0.1) {
                    Ok(d) => {
                        // Re-verification: a corrupt stored solution (or a
                        // wrong mapping) transfers to a coloring whose
                        // evaluated cost disagrees with the stored optimum.
                        // Reject it so the caller falls through to a fresh
                        // solve instead of propagating a wrong coloring.
                        if d.cost != entry.cost {
                            continue;
                        }
                        #[cfg_attr(not(feature = "failpoints"), allow(unused_mut))]
                        let mut d = d.with_certainty(Certainty::Certified);
                        #[cfg(feature = "failpoints")]
                        {
                            // Corrupt *after* re-verification: the stale
                            // claimed cost is exactly what the framework's
                            // independent audit must catch.
                            let k = (1 + d.coloring.iter().copied().max().unwrap_or(0)).max(3);
                            mpld_graph::failpoints::corrupt_coloring(
                                "matching.transfer",
                                &mut d.coloring,
                                k,
                            );
                        }
                        return Some(d);
                    }
                    Err(_) => continue,
                }
            }
        }
        None
    }
}

fn normalize(mut v: Vec<f32>) -> Vec<f32> {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpld_ilp::brute_force;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn small_library() -> (GraphLibrary, RgcnClassifier) {
        let embedder = RgcnClassifier::selector(0xAB);
        let cfg = LibraryConfig {
            max_parent_size: 5,
            max_splits: 1,
            max_nodes: 6,
            stitches: true,
        };
        let lib = GraphLibrary::build(&embedder, &cfg, &DecomposeParams::tpl());
        (lib, embedder)
    }

    #[test]
    fn library_contains_parents_and_variants() {
        let (lib, _) = small_library();
        // 4 parents (K4 + three 5-node graphs) plus stitch variants.
        let parents = lib
            .entries()
            .iter()
            .filter(|e| !e.graph.has_stitches())
            .count();
        assert_eq!(parents, 4);
        assert!(lib.len() > parents);
    }

    #[test]
    fn solutions_are_optimal() {
        let (lib, _) = small_library();
        let p = DecomposeParams::tpl();
        for e in lib.entries().iter().take(20) {
            let bf = brute_force(&e.graph, &p);
            assert_eq!(e.cost.value(0.1), bf.cost.value(0.1));
        }
    }

    /// `g` with its nodes renamed by `relabel` (features follow).
    fn relabeled(g: &LayoutGraph, relabel: &[u32]) -> LayoutGraph {
        let mut feats = vec![0u32; g.num_nodes()];
        for v in 0..g.num_nodes() {
            feats[relabel[v] as usize] = g.feature_of(v as u32);
        }
        let map = |edges: &[(u32, u32)]| -> Vec<(u32, u32)> {
            edges
                .iter()
                .map(|&(a, b)| (relabel[a as usize], relabel[b as usize]))
                .collect()
        };
        LayoutGraph::new(feats, map(g.conflict_edges()), map(g.stitch_edges()))
            .expect("relabeling is valid")
    }

    fn default_library() -> (GraphLibrary, RgcnClassifier) {
        let embedder = RgcnClassifier::selector(0xAB);
        let lib = GraphLibrary::build(
            &embedder,
            &LibraryConfig::default(),
            &DecomposeParams::tpl(),
        );
        (lib, embedder)
    }

    #[test]
    fn embedding_never_misses_a_duplicate() {
        // The paper's dedup rule, `max(Lh · h) > 1 - 1e-5`, flags every
        // isomorphic duplicate: a relabeled copy of each entry of the
        // default library embeds onto the stored embedding.
        let (lib, embedder) = default_library();
        let mut rng = SmallRng::seed_from_u64(23);
        for e in lib.entries() {
            let mut relabel: Vec<u32> = (0..e.graph.num_nodes() as u32).collect();
            relabel.shuffle(&mut rng);
            let h = normalize(embedder.graph_embedding(&relabeled(&e.graph, &relabel)));
            let d = dot(&e.embedding, &h);
            assert!(d > 1.0 - 1e-5, "relabeled entry embeds at dot {d}");
        }

        // Re-inserting a relabeled copy of a stored graph is skipped.
        let (mut lib, embedder) = small_library();
        let e = lib.entries()[0].graph.clone();
        let n = e.num_nodes() as u32;
        let relabel: Vec<u32> = (0..n).map(|v| (v + 1) % n).collect();
        let before = lib.len();
        assert!(!lib.insert_graph(&embedder, &DecomposeParams::tpl(), relabeled(&e, &relabel)));
        assert_eq!(lib.len(), before);
        assert_eq!(lib.stats().duplicates_skipped, 1);
    }

    #[test]
    fn stored_embeddings_equal_the_tape_bit_for_bit() {
        let (lib, embedder) = default_library();
        assert_eq!(lib.len(), 963);
        for e in lib.entries() {
            let h = normalize(embedder.graph_embedding(&e.graph));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&e.embedding), bits(&h));
            let u = embedder.node_embeddings(&e.graph);
            assert_eq!(
                (e.node_embeddings.rows(), e.node_embeddings.cols()),
                (u.rows(), u.cols())
            );
            assert_eq!(bits(e.node_embeddings.as_slice()), bits(u.as_slice()));
        }
    }

    #[test]
    fn lookup_matches_relabeled_entries() {
        let (lib, embedder) = small_library();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut matched = 0;
        for e in lib.entries().iter().take(15) {
            // Relabel the stored graph randomly and look it up.
            let mut relabel: Vec<u32> = (0..e.graph.num_nodes() as u32).collect();
            relabel.shuffle(&mut rng);
            let g = relabeled(&e.graph, &relabel);
            let d = lib
                .lookup(&embedder, &g)
                .expect("isomorphic entry must match");
            assert_eq!(d.cost, e.cost);
            // The transferred coloring must be valid for g.
            assert_eq!(g.evaluate(&d.coloring, 0.1), e.cost);
            matched += 1;
        }
        assert_eq!(matched, 15);
    }

    #[test]
    fn corrupted_transfer_is_rejected_and_falls_through_to_a_fresh_solve() {
        use mpld_graph::{Budget, Decomposer};
        let (mut lib, embedder) = small_library();
        let g = lib.entries()[0].graph.clone();
        // Sanity: the healthy entry matches its own graph.
        assert!(lib.lookup(&embedder, &g).is_some());
        // Corrupt the stored canonical solution (color flipped, stored
        // cost untouched): the transferred coloring now evaluates to a
        // cost disagreeing with the claimed optimum, so re-verification
        // must reject the hit instead of propagating a wrong coloring.
        lib.corrupt_entry_solution_for_tests(0);
        assert!(
            lib.lookup(&embedder, &g).is_none(),
            "corrupted transfer must be rejected by cost re-verification"
        );
        // The adaptive framework treats the miss as any other miss: a
        // fresh exact solve still recovers the true optimum.
        let fresh = mpld_ilp::IlpDecomposer::new()
            .decompose(&g, &DecomposeParams::tpl(), &Budget::unlimited())
            .expect("fresh solve succeeds");
        assert_eq!(fresh.cost, lib.entries()[0].cost);
    }

    #[test]
    fn lookup_rejects_unknown_graphs() {
        let (lib, embedder) = small_library();
        // A 4-cycle: min degree 2 < 3, never enumerated.
        let g = LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(lib.lookup(&embedder, &g).is_none());
    }

    #[test]
    fn lookup_respects_size_cap() {
        let (lib, embedder) = small_library();
        let n = lib.max_nodes() + 1;
        let edges = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let g = LayoutGraph::homogeneous(n, edges).unwrap();
        assert!(lib.lookup(&embedder, &g).is_none());
    }
}
