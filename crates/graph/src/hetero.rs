use crate::coloring::CostBreakdown;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Index of a node (a feature or subfeature) inside one [`LayoutGraph`].
pub type NodeId = u32;

/// The two edge types of the heterogeneous layout graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Two (sub)features of *different* parent features closer than the
    /// minimum coloring distance; same color ⇒ conflict cost.
    Conflict,
    /// Two subfeatures of the *same* parent feature split by a stitch
    /// candidate; different colors ⇒ stitch cost.
    Stitch,
}

/// Error building a [`LayoutGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= node count`.
    NodeOutOfRange {
        edge: (NodeId, NodeId),
        nodes: usize,
    },
    /// An edge connects a node to itself.
    SelfLoop(NodeId),
    /// The same unordered node pair appears twice (in either edge set).
    DuplicateEdge(NodeId, NodeId),
    /// A conflict edge connects two subfeatures of the same parent feature.
    ConflictWithinFeature(NodeId, NodeId),
    /// A stitch edge connects subfeatures of different parent features.
    StitchAcrossFeatures(NodeId, NodeId),
    /// The node → parent feature map has the wrong length.
    FeatureMapLength { expected: usize, got: usize },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { edge, nodes } => {
                write!(
                    f,
                    "edge ({}, {}) references a node outside 0..{}",
                    edge.0, edge.1, nodes
                )
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::ConflictWithinFeature(u, v) => {
                write!(f, "conflict edge ({u}, {v}) inside a single feature")
            }
            GraphError::StitchAcrossFeatures(u, v) => {
                write!(f, "stitch edge ({u}, {v}) across two features")
            }
            GraphError::FeatureMapLength { expected, got } => {
                write!(f, "feature map has length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A heterogeneous layout graph: nodes are (sub)features, edges are
/// conflict or stitch relations. See the crate docs for the model.
///
/// Construction validates the structural rules of layout graphs (no self
/// loops, no duplicate edges, conflict edges across features only, stitch
/// edges within one feature only), so every downstream algorithm can rely
/// on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutGraph {
    num_nodes: usize,
    /// `node_feature[v]` is the parent-feature index of node `v` (local to
    /// this graph; dense in `0..num_features`).
    node_feature: Vec<u32>,
    num_features: usize,
    conflict_edges: Vec<(NodeId, NodeId)>,
    stitch_edges: Vec<(NodeId, NodeId)>,
    conflict_adj: Vec<Vec<NodeId>>,
    stitch_adj: Vec<Vec<NodeId>>,
}

impl LayoutGraph {
    /// Builds a heterogeneous graph from a node → parent feature map and the
    /// two edge sets.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when an edge is out of range, a self loop,
    /// duplicated, or violates the conflict/stitch feature rules, or when
    /// `node_feature` does not cover all nodes.
    pub fn new(
        node_feature: Vec<u32>,
        conflict_edges: Vec<(NodeId, NodeId)>,
        stitch_edges: Vec<(NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let num_nodes = node_feature.len();
        let num_features = node_feature
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);

        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        let norm = |(u, v): (NodeId, NodeId)| if u < v { (u, v) } else { (v, u) };

        let mut check = |(u, v): (NodeId, NodeId)| -> Result<(NodeId, NodeId), GraphError> {
            if u as usize >= num_nodes || v as usize >= num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    edge: (u, v),
                    nodes: num_nodes,
                });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            let e = norm((u, v));
            if !seen.insert(e) {
                return Err(GraphError::DuplicateEdge(e.0, e.1));
            }
            Ok(e)
        };

        let mut conflicts = Vec::with_capacity(conflict_edges.len());
        for e in conflict_edges {
            let e = check(e)?;
            if node_feature[e.0 as usize] == node_feature[e.1 as usize] {
                return Err(GraphError::ConflictWithinFeature(e.0, e.1));
            }
            conflicts.push(e);
        }
        let mut stitches = Vec::with_capacity(stitch_edges.len());
        for e in stitch_edges {
            let e = check(e)?;
            if node_feature[e.0 as usize] != node_feature[e.1 as usize] {
                return Err(GraphError::StitchAcrossFeatures(e.0, e.1));
            }
            stitches.push(e);
        }
        conflicts.sort_unstable();
        stitches.sort_unstable();

        let mut conflict_adj = vec![Vec::new(); num_nodes];
        for &(u, v) in &conflicts {
            conflict_adj[u as usize].push(v);
            conflict_adj[v as usize].push(u);
        }
        let mut stitch_adj = vec![Vec::new(); num_nodes];
        for &(u, v) in &stitches {
            stitch_adj[u as usize].push(v);
            stitch_adj[v as usize].push(u);
        }
        for adj in conflict_adj.iter_mut().chain(stitch_adj.iter_mut()) {
            adj.sort_unstable();
        }

        Ok(LayoutGraph {
            num_nodes,
            node_feature,
            num_features,
            conflict_edges: conflicts,
            stitch_edges: stitches,
            conflict_adj,
            stitch_adj,
        })
    }

    /// Builds a homogeneous graph (no stitches): every node is its own
    /// feature and all edges are conflict edges.
    ///
    /// # Errors
    ///
    /// Same validation as [`LayoutGraph::new`].
    pub fn homogeneous(
        num_nodes: usize,
        conflict_edges: Vec<(NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        LayoutGraph::new((0..num_nodes as u32).collect(), conflict_edges, Vec::new())
    }

    /// Number of nodes (subfeatures).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of parent features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The parent feature of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn feature_of(&self, v: NodeId) -> u32 {
        self.node_feature[v as usize]
    }

    /// Node → parent feature map.
    pub fn node_features(&self) -> &[u32] {
        &self.node_feature
    }

    /// Sorted conflict edge list (u < v).
    pub fn conflict_edges(&self) -> &[(NodeId, NodeId)] {
        &self.conflict_edges
    }

    /// Sorted stitch edge list (u < v).
    pub fn stitch_edges(&self) -> &[(NodeId, NodeId)] {
        &self.stitch_edges
    }

    /// Conflict neighbors of `v`, sorted.
    pub fn conflict_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.conflict_adj[v as usize]
    }

    /// Stitch neighbors of `v`, sorted.
    pub fn stitch_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.stitch_adj[v as usize]
    }

    /// Conflict degree of `v`.
    pub fn conflict_degree(&self, v: NodeId) -> usize {
        self.conflict_adj[v as usize].len()
    }

    /// Whether the graph contains any stitch edge.
    pub fn has_stitches(&self) -> bool {
        !self.stitch_edges.is_empty()
    }

    /// Evaluates a coloring against the paper's objective (Eq. 1):
    /// per-feature-pair capped conflict cost plus `alpha` per stitch edge
    /// whose endpoints differ. Returns the exact integer breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `coloring.len() != num_nodes`.
    pub fn evaluate(&self, coloring: &[u8], _alpha: f64) -> CostBreakdown {
        assert_eq!(coloring.len(), self.num_nodes, "coloring length mismatch");
        // Conflict cost: 1 per unordered *feature pair* with at least one
        // same-colored conflict edge between them (Eq. 1b).
        let mut bad_pairs: HashSet<(u32, u32)> = HashSet::new();
        for &(u, v) in &self.conflict_edges {
            if coloring[u as usize] == coloring[v as usize] {
                let (fu, fv) = (self.node_feature[u as usize], self.node_feature[v as usize]);
                let pair = if fu < fv { (fu, fv) } else { (fv, fu) };
                bad_pairs.insert(pair);
            }
        }
        let mut stitches = 0u32;
        for &(u, v) in &self.stitch_edges {
            if coloring[u as usize] != coloring[v as usize] {
                stitches += 1;
            }
        }
        CostBreakdown {
            conflicts: bad_pairs.len() as u32,
            stitches,
        }
    }

    /// Merges all stitch edges, returning the homogeneous *parent graph*
    /// `Gp` and the node → parent-node map.
    ///
    /// Each parent feature becomes one node; a conflict edge exists between
    /// two parent nodes when any of their subfeatures conflict.
    pub fn merge_stitch_edges(&self) -> (LayoutGraph, Vec<NodeId>) {
        let map: Vec<NodeId> = self.node_feature.clone();
        let mut edges: Vec<(NodeId, NodeId)> = self
            .conflict_edges
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (map[u as usize], map[v as usize]);
                if a < b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        #[allow(clippy::expect_used)] // structural invariant of a validated graph
        let gp = LayoutGraph::homogeneous(self.num_features, edges)
            .expect("parent graph construction cannot fail on a valid layout graph");
        (gp, map)
    }

    /// Extracts the induced subgraph on `nodes` (which need not be sorted),
    /// remapping node ids densely in the given order. Parent features are
    /// renumbered densely too. Returns the subgraph and the local → original
    /// node map.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (LayoutGraph, Vec<NodeId>) {
        // Lookups go through the chosen nodes only, so the cost follows them
        // and their neighbor lists, never the size of `self`.
        let mut local_of = HashMap::with_capacity(nodes.len());
        for (i, &v) in nodes.iter().enumerate() {
            assert!((v as usize) < self.num_nodes, "node out of range");
            let first = local_of.insert(v, i as NodeId).is_none();
            assert!(first, "duplicate node in subgraph set");
        }
        let edges_within = |adj: &[Vec<NodeId>]| {
            let mut edges = Vec::new();
            for (lv, &v) in nodes.iter().enumerate() {
                for w in adj[v as usize].iter().filter(|&&w| v < w) {
                    if let Some(&lw) = local_of.get(w) {
                        edges.push((lv as NodeId, lw));
                    }
                }
            }
            edges
        };
        let mut feat_map: Vec<u32> = Vec::new();
        let mut feat_local = HashMap::new();
        let node_feature: Vec<u32> = nodes
            .iter()
            .map(|&v| {
                let f = self.node_feature[v as usize];
                *feat_local.entry(f).or_insert_with(|| {
                    feat_map.push(f);
                    (feat_map.len() - 1) as u32
                })
            })
            .collect();
        #[allow(clippy::expect_used)] // structural invariant of a validated graph
        let g = LayoutGraph::new(
            node_feature,
            edges_within(&self.conflict_adj),
            edges_within(&self.stitch_adj),
        )
        .expect("induced subgraph of a valid graph is valid");
        (g, nodes.to_vec())
    }

    /// Connected components over the union of conflict and stitch edges,
    /// each as a sorted node list.
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        let mut comp = vec![usize::MAX; self.num_nodes];
        let mut count = 0;
        let mut stack = Vec::new();
        for s in 0..self.num_nodes {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = count;
            stack.push(s as NodeId);
            while let Some(v) = stack.pop() {
                for &w in self
                    .conflict_neighbors(v)
                    .iter()
                    .chain(self.stitch_neighbors(v).iter())
                {
                    if comp[w as usize] == usize::MAX {
                        comp[w as usize] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        let mut out = vec![Vec::new(); count];
        for (v, &c) in comp.iter().enumerate() {
            out[c].push(v as NodeId);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> LayoutGraph {
        LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            LayoutGraph::homogeneous(2, vec![(1, 1)]).unwrap_err(),
            GraphError::SelfLoop(1)
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            LayoutGraph::homogeneous(2, vec![(0, 5)]).unwrap_err(),
            GraphError::NodeOutOfRange { .. }
        ));
    }

    #[test]
    fn rejects_duplicate_even_across_kinds() {
        let err = LayoutGraph::new(vec![0, 0], vec![], vec![(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge(0, 1));
    }

    #[test]
    fn rejects_conflict_within_feature() {
        let err = LayoutGraph::new(vec![0, 0], vec![(0, 1)], vec![]).unwrap_err();
        assert_eq!(err, GraphError::ConflictWithinFeature(0, 1));
    }

    #[test]
    fn rejects_stitch_across_features() {
        let err = LayoutGraph::new(vec![0, 1], vec![], vec![(0, 1)]).unwrap_err();
        assert_eq!(err, GraphError::StitchAcrossFeatures(0, 1));
    }

    #[test]
    fn evaluate_counts_conflicts() {
        let g = tri();
        assert_eq!(
            g.evaluate(&[0, 0, 0], 0.1),
            CostBreakdown {
                conflicts: 3,
                stitches: 0
            }
        );
        assert_eq!(
            g.evaluate(&[0, 1, 2], 0.1),
            CostBreakdown {
                conflicts: 0,
                stitches: 0
            }
        );
        assert_eq!(
            g.evaluate(&[0, 0, 1], 0.1),
            CostBreakdown {
                conflicts: 1,
                stitches: 0
            }
        );
    }

    #[test]
    fn evaluate_caps_conflict_per_feature_pair() {
        // Features A = {0, 1} (stitch between), B = {2}. Both subfeatures of A
        // conflict with B. Same color everywhere ⇒ a single conflict (Eq. 1b).
        let g = LayoutGraph::new(vec![0, 0, 1], vec![(0, 2), (1, 2)], vec![(0, 1)]).unwrap();
        let cost = g.evaluate(&[0, 0, 0], 0.1);
        assert_eq!(
            cost,
            CostBreakdown {
                conflicts: 1,
                stitches: 0
            }
        );
    }

    #[test]
    fn evaluate_counts_stitches() {
        let g = LayoutGraph::new(vec![0, 0, 1], vec![(0, 2), (1, 2)], vec![(0, 1)]).unwrap();
        // Splitting the feature: subfeature 1 escapes the conflict with 2.
        let cost = g.evaluate(&[0, 1, 1], 0.1);
        assert_eq!(
            cost,
            CostBreakdown {
                conflicts: 1,
                stitches: 1
            }
        );
        let cost = g.evaluate(&[1, 0, 1], 0.1);
        assert_eq!(
            cost,
            CostBreakdown {
                conflicts: 1,
                stitches: 1
            }
        );
        let cost = g.evaluate(&[1, 2, 0], 0.1);
        assert_eq!(
            cost,
            CostBreakdown {
                conflicts: 0,
                stitches: 1
            }
        );
    }

    #[test]
    fn merge_stitch_edges_builds_parent_graph() {
        // Fig. 2 of the paper: p1 = {v1}, p2 = {v2}, p3 = {v3, v4}.
        let g =
            LayoutGraph::new(vec![0, 1, 2, 2], vec![(0, 2), (1, 3), (0, 1)], vec![(2, 3)]).unwrap();
        let (gp, map) = g.merge_stitch_edges();
        assert_eq!(gp.num_nodes(), 3);
        assert_eq!(gp.conflict_edges(), &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(map, vec![0, 1, 2, 2]);
        assert!(!gp.has_stitches());
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g =
            LayoutGraph::new(vec![0, 1, 2, 2], vec![(0, 2), (1, 3), (0, 1)], vec![(2, 3)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[2, 3, 1]);
        assert_eq!(map, vec![2, 3, 1]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.stitch_edges(), &[(0, 1)]);
        assert_eq!(sub.conflict_edges(), &[(1, 2)]);
        assert_eq!(sub.num_features(), 2);
    }

    #[test]
    fn connected_components_split() {
        let g = LayoutGraph::homogeneous(5, vec![(0, 1), (2, 3)]).unwrap();
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn stitch_edges_join_components() {
        let g = LayoutGraph::new(vec![0, 0, 1], vec![], vec![(0, 1)]).unwrap();
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2]]);
    }
}
