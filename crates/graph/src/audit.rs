//! Independent result auditing.
//!
//! Every decomposition the adaptive framework accepts — an engine result,
//! a library-matching hit, an isomorphism-memo label transfer, a
//! checkpointed coloring — can be re-checked here against the
//! *unsimplified* unit graph it claims to color. The audit deliberately
//! does **not** call [`LayoutGraph::evaluate`]: it recomputes the Eq. 1
//! objective (`conflicts + alpha * stitches`, conflicts counted once per
//! violated feature *pair*) from scratch over the raw edge lists, so a bug
//! or an injected fault in the production cost path cannot vouch for
//! itself.
//!
//! Checks, in order:
//!
//! 1. the coloring covers every node (length);
//! 2. every color lies in `0..k`;
//! 3. the claimed [`CostBreakdown`] equals the independently recomputed
//!    one.
//!
//! The audit is linear in the edge count — cheap enough to run on every
//! unit of every layout (the acceptance bar is < 5% of suite wall time).

use crate::{CostBreakdown, Decomposition, LayoutGraph, NodeId};
use std::fmt;

/// Why a decomposition failed its independent audit.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The coloring does not cover the graph.
    LengthMismatch {
        /// `graph.num_nodes()`.
        expected: usize,
        /// The coloring's actual length.
        got: usize,
    },
    /// A node carries a color outside `0..k`.
    ColorOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Its color.
        color: u8,
        /// The mask count the run was configured for.
        k: u8,
    },
    /// The claimed cost differs from the independently recomputed one.
    CostMismatch {
        /// What the producer claimed.
        claimed: CostBreakdown,
        /// What the audit recomputed from the raw edges.
        recomputed: CostBreakdown,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "audit: coloring has {got} entries, graph has {expected} nodes"
                )
            }
            AuditError::ColorOutOfRange { node, color, k } => {
                write!(f, "audit: node {node} has color {color}, outside 0..{k}")
            }
            AuditError::CostMismatch {
                claimed,
                recomputed,
            } => write!(
                f,
                "audit: claimed cost {}c+{}s but recomputed {}c+{}s",
                claimed.conflicts, claimed.stitches, recomputed.conflicts, recomputed.stitches
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Recomputes the Eq. 1 cost of `coloring` on `graph` from scratch.
///
/// Conflicts are counted once per *feature pair* with at least one
/// same-colored conflict edge (the paper's capped conflict count);
/// stitches are counted per stitch edge with differently colored
/// endpoints. This is an independent implementation — it walks the raw
/// edge lists and dedups feature pairs by sort, sharing no code with
/// [`LayoutGraph::evaluate`].
///
/// # Panics
///
/// Panics if `coloring` does not cover the graph; call
/// [`audit_coloring`] for untrusted input.
pub fn recompute_cost(graph: &LayoutGraph, coloring: &[u8]) -> CostBreakdown {
    assert_eq!(
        coloring.len(),
        graph.num_nodes(),
        "audit over a full coloring"
    );
    let mut violated: Vec<(u32, u32)> = Vec::new();
    for &(u, v) in graph.conflict_edges() {
        if coloring[u as usize] == coloring[v as usize] {
            let (a, b) = (graph.feature_of(u), graph.feature_of(v));
            violated.push(if a < b { (a, b) } else { (b, a) });
        }
    }
    violated.sort_unstable();
    violated.dedup();
    let mut stitches = 0u32;
    for &(u, v) in graph.stitch_edges() {
        if coloring[u as usize] != coloring[v as usize] {
            stitches += 1;
        }
    }
    CostBreakdown {
        conflicts: violated.len() as u32,
        stitches,
    }
}

/// Audits a bare coloring: coverage, color range, and the independently
/// recomputed cost (returned on success so callers can compare it with
/// whatever was claimed).
///
/// # Errors
///
/// Returns the first failed check as an [`AuditError`].
pub fn audit_coloring(
    graph: &LayoutGraph,
    coloring: &[u8],
    k: u8,
) -> Result<CostBreakdown, AuditError> {
    if coloring.len() != graph.num_nodes() {
        return Err(AuditError::LengthMismatch {
            expected: graph.num_nodes(),
            got: coloring.len(),
        });
    }
    for (v, &c) in coloring.iter().enumerate() {
        if c >= k {
            return Err(AuditError::ColorOutOfRange {
                node: v as NodeId,
                color: c,
                k,
            });
        }
    }
    Ok(recompute_cost(graph, coloring))
}

/// Audits a full [`Decomposition`] against the graph it claims to color:
/// coverage, color range, and claimed-versus-recomputed cost.
///
/// # Errors
///
/// Returns the first failed check as an [`AuditError`].
pub fn audit_decomposition(
    graph: &LayoutGraph,
    d: &Decomposition,
    k: u8,
) -> Result<(), AuditError> {
    let recomputed = audit_coloring(graph, &d.coloring, k)?;
    if recomputed != d.cost {
        return Err(AuditError::CostMismatch {
            claimed: d.cost,
            recomputed,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Certainty, DecomposeParams};

    fn hetero() -> LayoutGraph {
        // Features: 0 = {0, 1} (stitch-split), 1 = {2}, 2 = {3}. Conflict
        // edges 0-2, 1-3, 2-3; the 0-2 and 1-3 edges belong to feature
        // pairs (0,1) and (0,2).
        LayoutGraph::new(vec![0, 0, 1, 2], vec![(0, 2), (1, 3), (2, 3)], vec![(0, 1)]).unwrap()
    }

    #[test]
    fn recompute_matches_evaluate_on_hetero_graphs() {
        let g = hetero();
        for coloring in [
            vec![0, 0, 0, 0],
            vec![0, 1, 0, 1],
            vec![0, 0, 1, 2],
            vec![2, 1, 0, 1],
        ] {
            assert_eq!(
                recompute_cost(&g, &coloring),
                g.evaluate(&coloring, 0.1),
                "coloring {coloring:?}"
            );
        }
    }

    #[test]
    fn conflicts_are_capped_per_feature_pair() {
        // Feature 0 split in two, both subfeatures conflicting with the
        // same feature 1 node: one violated pair even if both edges clash.
        let g = LayoutGraph::new(vec![0, 0, 1], vec![(0, 2), (1, 2)], vec![(0, 1)]).unwrap();
        let cost = recompute_cost(&g, &[1, 1, 1]);
        assert_eq!(cost.conflicts, 1);
        assert_eq!(cost.stitches, 0);
    }

    #[test]
    fn audit_accepts_honest_decompositions() {
        let g = hetero();
        let d = Decomposition::from_coloring(&g, vec![0, 0, 1, 2], 0.1);
        assert_eq!(audit_decomposition(&g, &d, 3), Ok(()));
    }

    #[test]
    fn audit_rejects_stale_cost() {
        let g = hetero();
        let mut d = Decomposition::from_coloring(&g, vec![0, 0, 1, 2], 0.1);
        // Corrupt the coloring without re-evaluating: the hallmark of a
        // wrong transfer or an injected fault.
        d.coloring[2] = 0;
        let err = audit_decomposition(&g, &d, 3).unwrap_err();
        assert!(matches!(err, AuditError::CostMismatch { .. }), "{err}");
    }

    #[test]
    fn audit_rejects_bad_length_and_range() {
        let g = hetero();
        let err = audit_coloring(&g, &[0, 1], 3).unwrap_err();
        assert!(matches!(err, AuditError::LengthMismatch { .. }));
        let err = audit_coloring(&g, &[0, 1, 2, 3], 3).unwrap_err();
        assert!(matches!(
            err,
            AuditError::ColorOutOfRange {
                node: 3,
                color: 3,
                k: 3
            }
        ));
    }

    #[test]
    fn audit_checks_certainty_agnostic() {
        let g = hetero();
        let params = DecomposeParams::tpl();
        let d = Decomposition::from_coloring(&g, vec![0, 1, 0, 1], params.alpha)
            .with_certainty(Certainty::Degraded);
        assert_eq!(audit_decomposition(&g, &d, params.k), Ok(()));
    }
}
