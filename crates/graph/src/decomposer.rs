use crate::{Budget, Coloring, CostBreakdown, LayoutGraph, MpldError, NodeId};

/// Parameters shared by every decomposition engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecomposeParams {
    /// Number of masks `k` (3 for triple patterning).
    pub k: u8,
    /// Relative stitch weight `alpha` in the objective (usually 0.1).
    pub alpha: f64,
}

impl Default for DecomposeParams {
    fn default() -> Self {
        DecomposeParams {
            k: crate::DEFAULT_MASKS,
            alpha: crate::DEFAULT_ALPHA,
        }
    }
}

impl DecomposeParams {
    /// Triple-patterning parameters with the standard stitch weight.
    pub fn tpl() -> Self {
        Self::default()
    }

    /// Quadruple-patterning parameters with the standard stitch weight.
    pub fn qpl() -> Self {
        DecomposeParams {
            k: 4,
            alpha: crate::DEFAULT_ALPHA,
        }
    }
}

/// How much an engine vouches for the decomposition it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certainty {
    /// The engine proved this coloring optimal (exhaustive search ran to
    /// completion).
    Certified,
    /// The engine is heuristic: the coloring is valid but optimality is
    /// unknown by construction.
    Heuristic,
    /// The search was cut short by a [`Budget`]; the coloring is the
    /// best-so-far incumbent, valid but possibly suboptimal.
    BudgetExhausted,
    /// The routed engine panicked (or kept failing the independent audit)
    /// and the unit was quarantined with a greedy-fallback coloring. The
    /// coloring is valid but carries no quality guarantee.
    Degraded,
}

/// The result of decomposing one layout graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Per-node mask assignment.
    pub coloring: Coloring,
    /// Cost of `coloring` under the graph's objective.
    pub cost: CostBreakdown,
    /// How much the producing engine vouches for this result.
    pub certainty: Certainty,
}

impl Decomposition {
    /// Builds a decomposition, evaluating the cost of `coloring` on `graph`.
    ///
    /// The certainty defaults to [`Certainty::Heuristic`]; engines that
    /// proved optimality or ran out of budget re-tag with
    /// [`Decomposition::with_certainty`].
    ///
    /// # Errors
    ///
    /// Returns [`MpldError::ColoringMismatch`] if
    /// `coloring.len() != graph.num_nodes()`.
    pub fn try_from_coloring(
        graph: &LayoutGraph,
        coloring: Coloring,
        alpha: f64,
    ) -> Result<Self, MpldError> {
        if coloring.len() != graph.num_nodes() {
            return Err(MpldError::ColoringMismatch {
                expected: graph.num_nodes(),
                got: coloring.len(),
            });
        }
        let cost = graph.evaluate(&coloring, alpha);
        Ok(Decomposition {
            coloring,
            cost,
            certainty: Certainty::Heuristic,
        })
    }

    /// Builds a decomposition, evaluating the cost of `coloring` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `coloring.len() != graph.num_nodes()`. Use
    /// [`Decomposition::try_from_coloring`] for untrusted colorings.
    pub fn from_coloring(graph: &LayoutGraph, coloring: Coloring, alpha: f64) -> Self {
        match Self::try_from_coloring(graph, coloring, alpha) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Re-tags the decomposition with `certainty`.
    pub fn with_certainty(mut self, certainty: Certainty) -> Self {
        self.certainty = certainty;
        self
    }
}

/// A layout decomposition engine.
///
/// Implementations in this workspace: the exact ILP engines
/// (`mpld-ilp`), the SDP relaxation (`mpld-sdp`), the exact-cover engine
/// (`mpld-ec`), and the GNN decomposer (`mpld-gnn`). All receive an
/// already-simplified component graph.
pub trait Decomposer {
    /// Short stable identifier used in reports ("ILP", "EC", ...).
    fn name(&self) -> &'static str;

    /// Decomposes `graph` with `params.k` masks under `budget`.
    ///
    /// On success the returned coloring always has `graph.num_nodes()`
    /// entries with values in `0..params.k`, and the reported cost equals
    /// `graph.evaluate(&coloring, params.alpha)`. Budget exhaustion is not
    /// an error: engines return the best-so-far incumbent tagged
    /// [`Certainty::BudgetExhausted`]. `Err` is reserved for requests the
    /// engine cannot serve at all (e.g. an unsupported mask count).
    fn decompose(
        &self,
        graph: &LayoutGraph,
        params: &DecomposeParams,
        budget: &Budget,
    ) -> Result<Decomposition, MpldError>;

    /// Convenience wrapper: decomposes with [`Budget::unlimited`].
    ///
    /// # Panics
    ///
    /// Panics if the engine rejects the request (an unlimited budget never
    /// exhausts, so the only failures are unsupported parameters). Intended
    /// for tests, benches, and examples; production paths should call
    /// [`Decomposer::decompose`].
    fn decompose_unbounded(&self, graph: &LayoutGraph, params: &DecomposeParams) -> Decomposition {
        match self.decompose(graph, params, &Budget::unlimited()) {
            Ok(d) => d,
            Err(e) => panic!("{} failed on an unlimited budget: {e}", self.name()),
        }
    }
}

/// Deterministic first-fit greedy coloring.
///
/// Visits nodes in index order; each node takes the color in `0..k` with
/// the fewest same-colored conflict neighbors among already-colored nodes
/// (stitch mismatches break ties, then the lowest color). Linear time,
/// never fails — engines use it as the guaranteed incumbent when a
/// budgeted search expires before reaching any leaf.
pub fn greedy_coloring(graph: &LayoutGraph, k: u8) -> Coloring {
    let n = graph.num_nodes();
    let k = k.max(1);
    let mut coloring = vec![u8::MAX; n];
    for v in 0..n {
        let mut best_color = 0u8;
        let mut best_score = u64::MAX;
        for c in 0..k {
            let mut conflicts = 0u64;
            for &u in graph.conflict_neighbors(v as NodeId) {
                if coloring[u as usize] == c {
                    conflicts += 1;
                }
            }
            let mut stitches = 0u64;
            for &u in graph.stitch_neighbors(v as NodeId) {
                let cu = coloring[u as usize];
                if cu != u8::MAX && cu != c {
                    stitches += 1;
                }
            }
            // Conflicts dominate stitches (alpha < 1 in every standard
            // objective); scale keeps the comparison integral.
            let score = conflicts * 1000 + stitches;
            if score < best_score {
                best_score = score;
                best_color = c;
            }
        }
        coloring[v] = best_color;
    }
    coloring
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_tpl() {
        let p = DecomposeParams::default();
        assert_eq!(p.k, 3);
        assert!((p.alpha - 0.1).abs() < 1e-12);
        assert_eq!(DecomposeParams::tpl(), p);
        assert_eq!(DecomposeParams::qpl().k, 4);
    }

    #[test]
    fn from_coloring_evaluates() {
        let g = LayoutGraph::homogeneous(2, vec![(0, 1)]).unwrap();
        let d = Decomposition::from_coloring(&g, vec![1, 1], 0.1);
        assert_eq!(d.cost.conflicts, 1);
        assert_eq!(d.certainty, Certainty::Heuristic);
        let d = Decomposition::from_coloring(&g, vec![0, 1], 0.1);
        assert_eq!(d.cost.conflicts, 0);
    }

    #[test]
    fn try_from_coloring_rejects_wrong_length() {
        let g = LayoutGraph::homogeneous(2, vec![(0, 1)]).unwrap();
        let err = Decomposition::try_from_coloring(&g, vec![0, 1, 2], 0.1).unwrap_err();
        assert_eq!(
            err,
            MpldError::ColoringMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn greedy_coloring_is_valid_and_proper_on_a_triangle() {
        let g = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let c = greedy_coloring(&g, 3);
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|&x| x < 3));
        assert_eq!(g.evaluate(&c, 0.1).conflicts, 0);
    }

    #[test]
    fn with_certainty_retags() {
        let g = LayoutGraph::homogeneous(1, vec![]).unwrap();
        let d = Decomposition::from_coloring(&g, vec![0], 0.1).with_certainty(Certainty::Certified);
        assert_eq!(d.certainty, Certainty::Certified);
    }
}
