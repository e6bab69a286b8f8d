//! Canonical forms for small heterogeneous layout graphs.
//!
//! Two layout graphs are isomorphic iff a node bijection preserves both
//! edge types (the feature partition is implied by the stitch edges). For
//! the library sizes of interest (`n <= ~10`) we compute an exact
//! canonical form: the lexicographically smallest typed edge list over all
//! node permutations, pruned by degree-class ordering.
//!
//! Each permutation is scored as one packed base-3 integer with a digit
//! per node pair `(a, b)`, `a < b`, in lexicographic pair order, the
//! first pair most significant: conflict edge 0, stitch edge 1, no edge
//! 2. Among relabelings of one graph (equal edge counts) integer order
//! equals the lexicographic order of their sorted `(a, b, is_stitch)`
//! edge lists, so the smallest code is the smallest typed edge list; ties
//! keep the first labeling the search reaches.

use mpld_graph::LayoutGraph;

/// Largest graph the exact search accepts (factorial blow-up guard).
const MAX_NODES: usize = 12;

/// `POW3[i] = 3^i` for every digit position of a `MAX_NODES`-node graph
/// (66 pairs; `3^66 < 2^128`).
const POW3: [u128; MAX_NODES * (MAX_NODES - 1) / 2 + 1] = {
    let mut t = [1u128; MAX_NODES * (MAX_NODES - 1) / 2 + 1];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 3;
        i += 1;
    }
    t
};

/// A canonical key: graphs are isomorphic iff their keys are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalForm {
    n: u8,
    /// The typed adjacency under the canonical labeling, packed as
    /// described in the module docs.
    code: u128,
}

/// Computes the canonical form of `g`.
///
/// # Panics
///
/// Panics if `g` has more than 12 nodes (factorial blow-up guard).
///
/// # Example
///
/// ```
/// use mpld_graph::LayoutGraph;
/// use mpld_matching::canonical_form;
///
/// let a = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2)]).unwrap();
/// let b = LayoutGraph::homogeneous(3, vec![(0, 2), (2, 1)]).unwrap();
/// assert_eq!(canonical_form(&a), canonical_form(&b));
/// ```
pub fn canonical_form(g: &LayoutGraph) -> CanonicalForm {
    canonical_form_labeled(g).0
}

/// Like [`canonical_form`], additionally returning the canonical labeling
/// that realizes it: `perm[original_node] = canonical_label`.
///
/// Two isomorphic graphs `a` and `b` with labelings `pa` and `pb` are
/// related by the isomorphism `a_node -> b_node` where
/// `pb[b_node] == pa[a_node]` — which lets a decomposition solved on one
/// graph be transferred to any isomorphic graph through the shared
/// canonical label space (the adaptive framework's memo cache relies on
/// this).
///
/// # Panics
///
/// Panics if `g` has more than 12 nodes (factorial blow-up guard).
pub fn canonical_form_labeled(g: &LayoutGraph) -> (CanonicalForm, Vec<u8>) {
    let n = g.num_nodes();
    assert!(n <= MAX_NODES, "canonical form limited to 12 nodes");
    if n == 0 {
        return (CanonicalForm { n: 0, code: 0 }, Vec::new());
    }
    let pairs = n * (n - 1) / 2;

    let mut search = Search {
        n,
        conflict: [0; MAX_NODES],
        stitch: [0; MAX_NODES],
        weight: [[0; MAX_NODES]; MAX_NODES],
        order: [0; MAX_NODES],
        class_range: [(0, 0); MAX_NODES],
        perm: [0; MAX_NODES],
        best: None,
    };
    for &(u, v) in g.conflict_edges() {
        search.conflict[u as usize] |= 1 << v;
        search.conflict[v as usize] |= 1 << u;
    }
    for &(u, v) in g.stitch_edges() {
        search.stitch[u as usize] |= 1 << v;
        search.stitch[v as usize] |= 1 << u;
    }
    let mut p = 0;
    for a in 0..n {
        for b in a + 1..n {
            search.weight[a][b] = POW3[pairs - 1 - p];
            p += 1;
        }
    }

    // Group nodes by invariant (conflict degree, stitch degree) and only
    // permute within groups in class order — a sound pruning because any
    // isomorphism preserves the invariant. The sort is stable, so each
    // class lists its nodes in index order.
    let class = |v: usize| {
        (
            search.conflict[v].count_ones(),
            search.stitch[v].count_ones(),
        )
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| class(v));
    let classes: Vec<(u32, u32)> = order.iter().map(|&v| class(v)).collect();
    for (pos, &v) in order.iter().enumerate() {
        search.order[pos] = v as u8;
        search.class_range[pos] = (
            classes.partition_point(|c| *c < classes[pos]) as u8,
            classes.partition_point(|c| *c <= classes[pos]) as u8,
        );
    }

    search.run(0, 0, 0);
    #[allow(clippy::expect_used)] // the permutation loop always reaches a leaf
    let (gain, labeling) = search.best.expect("at least one permutation");
    // With every pair absent the code is sum(2 * 3^i) = 3^pairs - 1; each
    // edge lowers its digit by the gain counted in the search.
    let code = (POW3[pairs] - 1) - gain;
    (CanonicalForm { n: n as u8, code }, labeling[..n].to_vec())
}

/// Branch state of the labeling search.
struct Search {
    n: usize,
    /// Conflict and stitch adjacency as node bitmasks.
    conflict: [u16; MAX_NODES],
    stitch: [u16; MAX_NODES],
    /// `weight[a][b]` (`a < b`): the place value of pair `(a, b)`'s digit.
    weight: [[u128; MAX_NODES]; MAX_NODES],
    /// Nodes sorted by invariant class.
    order: [u8; MAX_NODES],
    /// `class_range[pos]`: the span of `order` holding the class the
    /// node labeled `pos` must come from.
    class_range: [(u8, u8); MAX_NODES],
    /// `perm[original] = canonical label` on the current branch.
    perm: [u8; MAX_NODES],
    /// The best labeling so far with its gain: how far its edges lower
    /// the all-absent code (conflict `2 * weight`, stitch `weight`).
    best: Option<(u128, [u8; MAX_NODES])>,
}

impl Search {
    /// Assigns label `pos` to each candidate node in turn; `gain` sums
    /// the edges among the nodes labeled so far (`used`).
    fn run(&mut self, pos: usize, used: u16, gain: u128) {
        if pos == self.n {
            // Strictly better only: ties keep the first labeling found.
            if self.best.is_none_or(|(b, _)| gain > b) {
                self.best = Some((gain, self.perm));
            }
            return;
        }
        let (begin, end) = self.class_range[pos];
        for i in begin..end {
            let v = usize::from(self.order[usize::from(i)]);
            if used >> v & 1 == 1 {
                continue;
            }
            let mut g = gain;
            let mut c = self.conflict[v] & used;
            while c != 0 {
                let u = c.trailing_zeros() as usize;
                c &= c - 1;
                g += 2 * self.weight[usize::from(self.perm[u])][pos];
            }
            let mut s = self.stitch[v] & used;
            while s != 0 {
                let u = s.trailing_zeros() as usize;
                s &= s - 1;
                g += self.weight[usize::from(self.perm[u])][pos];
            }
            self.perm[v] = pos as u8;
            self.run(pos + 1, used | 1 << v, g);
        }
    }
}

/// Whether two graphs are isomorphic (typed edges preserved), via
/// canonical forms. Exact for graphs within the size guard.
pub fn are_isomorphic(a: &LayoutGraph, b: &LayoutGraph) -> bool {
    if a.num_nodes() != b.num_nodes()
        || a.conflict_edges().len() != b.conflict_edges().len()
        || a.stitch_edges().len() != b.stitch_edges().len()
    {
        return false;
    }
    canonical_form(a) == canonical_form(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpld_graph::NodeId;
    use proptest::prelude::*;

    /// A canonical edge list together with the labeling that realizes it.
    type Labeled = (Vec<(u8, u8, bool)>, Vec<u8>);

    /// Reference canonical form: builds and sorts the typed edge list of
    /// every class-respecting permutation and keeps the first smallest.
    fn reference_labeled(g: &LayoutGraph) -> Labeled {
        let n = g.num_nodes();
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        let class = |v: NodeId| (g.conflict_degree(v), g.stitch_neighbors(v).len());
        let mut order: Vec<NodeId> = (0..n as u32).collect();
        order.sort_by_key(|&v| class(v));
        let mut best: Option<Labeled> = None;
        let mut perm = vec![0u8; n];
        permute_classes(
            g,
            &order,
            0,
            &mut perm,
            &mut vec![false; n],
            &mut best,
            &class,
        );
        best.expect("at least one permutation")
    }

    fn permute_classes(
        g: &LayoutGraph,
        order: &[NodeId],
        pos: usize,
        perm: &mut Vec<u8>,
        used: &mut Vec<bool>,
        best: &mut Option<Labeled>,
        class: &dyn Fn(NodeId) -> (usize, usize),
    ) {
        let n = order.len();
        if pos == n {
            let mut edges: Vec<(u8, u8, bool)> = Vec::new();
            for &(u, v) in g.conflict_edges() {
                let (a, b) = (perm[u as usize], perm[v as usize]);
                edges.push((a.min(b), a.max(b), false));
            }
            for &(u, v) in g.stitch_edges() {
                let (a, b) = (perm[u as usize], perm[v as usize]);
                edges.push((a.min(b), a.max(b), true));
            }
            edges.sort_unstable();
            match best {
                None => *best = Some((edges, perm.clone())),
                Some((b, _)) => {
                    if edges < *b {
                        *best = Some((edges, perm.clone()));
                    }
                }
            }
            return;
        }
        // The node receiving canonical label `pos` must come from the
        // same invariant class as order[pos].
        let want = class(order[pos]);
        for &v in order {
            if used[v as usize] || class(v) != want {
                continue;
            }
            used[v as usize] = true;
            perm[v as usize] = pos as u8;
            permute_classes(g, order, pos + 1, perm, used, best, class);
            used[v as usize] = false;
        }
    }

    /// Unpacks a form's digits back into its sorted typed edge list.
    fn decode(form: &CanonicalForm) -> Vec<(u8, u8, bool)> {
        let n = usize::from(form.n);
        let pairs = n * n.saturating_sub(1) / 2;
        let mut edges = Vec::new();
        let mut p = 0;
        for a in 0..n as u8 {
            for b in a + 1..n as u8 {
                match form.code / POW3[pairs - 1 - p] % 3 {
                    0 => edges.push((a, b, false)),
                    1 => edges.push((a, b, true)),
                    _ => {}
                }
                p += 1;
            }
        }
        edges
    }

    /// Random heterogeneous graph on 1–12 nodes: runs of consecutive
    /// nodes form stitched features, conflict edges join nodes of
    /// different features, and the node ids are shuffled.
    fn arb_heterogeneous() -> impl Strategy<Value = LayoutGraph> {
        (1usize..13).prop_flat_map(|n| {
            (
                prop::collection::vec(0u8..4, n),
                prop::collection::vec(prop::bool::ANY, n * (n - 1) / 2),
                0u64..u64::MAX,
            )
                .prop_map(move |(splits, pairs, seed)| {
                    use rand::rngs::SmallRng;
                    use rand::seq::SliceRandom;
                    use rand::SeedableRng;
                    let mut ids: Vec<u32> = (0..n as u32).collect();
                    ids.shuffle(&mut SmallRng::seed_from_u64(seed));
                    // Node i continues node i - 1's feature (a stitch
                    // edge) with probability 1/4.
                    let mut feature = vec![0u32; n];
                    let mut stitches = Vec::new();
                    for i in 1..n {
                        if splits[i] == 0 {
                            feature[ids[i] as usize] = feature[ids[i - 1] as usize];
                            stitches.push((ids[i - 1], ids[i]));
                        } else {
                            feature[ids[i] as usize] = feature[ids[i - 1] as usize] + 1;
                        }
                    }
                    let mut conflicts = Vec::new();
                    let mut p = 0;
                    for u in 0..n as u32 {
                        for v in u + 1..n as u32 {
                            if pairs[p] && feature[u as usize] != feature[v as usize] {
                                conflicts.push((u, v));
                            }
                            p += 1;
                        }
                    }
                    LayoutGraph::new(feature, conflicts, stitches).expect("valid random graph")
                })
        })
    }

    /// Random circulant graph on 3–7 nodes (every node in one invariant
    /// class, so many labelings tie), optionally with node 0 split: a
    /// stitched twin takes over its odd-numbered neighbors.
    fn arb_symmetric() -> impl Strategy<Value = LayoutGraph> {
        (3usize..8, 1u32..8, prop::bool::ANY).prop_map(|(n, jumps, split)| {
            let mut conflicts = Vec::new();
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    let d = (v - u).min(n as u32 - (v - u));
                    if jumps >> (d - 1) & 1 == 1 {
                        conflicts.push((u, v));
                    }
                }
            }
            let mut feature: Vec<u32> = (0..n as u32).collect();
            let mut stitches = Vec::new();
            if split {
                let twin = n as u32;
                feature.push(0);
                stitches.push((0, twin));
                for e in &mut conflicts {
                    if e.0 == 0 && e.1 % 2 == 1 {
                        e.0 = twin;
                    }
                }
            }
            LayoutGraph::new(feature, conflicts, stitches).expect("valid circulant")
        })
    }

    /// Leaves of the class-restricted permutation search.
    fn search_leaves(g: &LayoutGraph) -> u64 {
        let mut classes = std::collections::HashMap::new();
        for v in 0..g.num_nodes() as u32 {
            *classes
                .entry((g.conflict_degree(v), g.stitch_neighbors(v).len()))
                .or_insert(0u64) += 1;
        }
        classes
            .values()
            .map(|&k| (1..=k).product::<u64>())
            .product()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn packed_form_matches_the_sorted_edge_list_reference(g in arb_heterogeneous()) {
            // The reference sorts one edge list per leaf; skip the rare
            // highly symmetric 10-12-node draws it would take seconds on.
            if search_leaves(&g) > 5040 {
                return Ok(());
            }
            let (form, labeling) = canonical_form_labeled(&g);
            let (edges, reference) = reference_labeled(&g);
            prop_assert_eq!(usize::from(form.n), g.num_nodes());
            prop_assert_eq!(decode(&form), edges);
            prop_assert_eq!(labeling, reference);
        }

        #[test]
        fn packed_form_keeps_the_first_of_tied_labelings(g in arb_symmetric()) {
            let (form, labeling) = canonical_form_labeled(&g);
            let (edges, reference) = reference_labeled(&g);
            prop_assert_eq!(decode(&form), edges);
            prop_assert_eq!(labeling, reference);
        }
    }

    #[test]
    fn relabeled_triangle_matches() {
        let a = LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let b = LayoutGraph::homogeneous(4, vec![(3, 2), (2, 1), (3, 1), (1, 0)]).unwrap();
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn path_vs_star_differ() {
        let path = LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let star = LayoutGraph::homogeneous(4, vec![(0, 1), (0, 2), (0, 3)]).unwrap();
        assert!(!are_isomorphic(&path, &star));
    }

    #[test]
    fn edge_types_distinguish() {
        let conflict = LayoutGraph::homogeneous(2, vec![(0, 1)]).unwrap();
        let stitch = LayoutGraph::new(vec![0, 0], vec![], vec![(0, 1)]).unwrap();
        assert!(!are_isomorphic(&conflict, &stitch));
    }

    #[test]
    fn heterogeneous_relabeling_matches() {
        // Feature {0,1} stitched; 2 conflicts with both.
        let a = LayoutGraph::new(vec![0, 0, 1], vec![(0, 2), (1, 2)], vec![(0, 1)]).unwrap();
        let b = LayoutGraph::new(vec![1, 0, 0], vec![(1, 0), (2, 0)], vec![(1, 2)]).unwrap();
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn canonical_is_invariant_under_relabeling() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.gen_range(3..7usize);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(0.5) {
                        edges.push((u, v));
                    }
                }
            }
            let g = LayoutGraph::homogeneous(n, edges.clone()).unwrap();
            let mut relabel: Vec<u32> = (0..n as u32).collect();
            relabel.shuffle(&mut rng);
            let edges2: Vec<(u32, u32)> = edges
                .iter()
                .map(|&(u, v)| (relabel[u as usize], relabel[v as usize]))
                .collect();
            let h = LayoutGraph::homogeneous(n, edges2).unwrap();
            assert_eq!(canonical_form(&g), canonical_form(&h));
        }
    }

    #[test]
    fn labeling_transfers_colorings_between_isomorphic_graphs() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(3..8usize);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(0.4) {
                        edges.push((u, v));
                    }
                }
            }
            let a = LayoutGraph::homogeneous(n, edges.clone()).unwrap();
            let mut relabel: Vec<u32> = (0..n as u32).collect();
            relabel.shuffle(&mut rng);
            let edges2: Vec<(u32, u32)> = edges
                .iter()
                .map(|&(u, v)| (relabel[u as usize], relabel[v as usize]))
                .collect();
            let b = LayoutGraph::homogeneous(n, edges2).unwrap();

            let (ca, pa) = canonical_form_labeled(&a);
            let (cb, pb) = canonical_form_labeled(&b);
            assert_eq!(ca, cb);

            // Any coloring of `a`, pushed through the shared canonical
            // label space, must evaluate identically on `b`.
            let coloring_a: Vec<u8> = (0..n).map(|_| rng.gen_range(0..3u8)).collect();
            let mut canon_colors = vec![0u8; n];
            for v in 0..n {
                canon_colors[pa[v] as usize] = coloring_a[v];
            }
            let coloring_b: Vec<u8> = (0..n).map(|v| canon_colors[pb[v] as usize]).collect();
            assert_eq!(a.evaluate(&coloring_a, 0.1), b.evaluate(&coloring_b, 0.1));
        }
    }

    #[test]
    fn empty_graph_canonical() {
        let g = LayoutGraph::homogeneous(0, vec![]).unwrap();
        assert_eq!(canonical_form(&g), canonical_form(&g));
    }
}
