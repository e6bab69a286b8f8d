//! The faithful 0-1 ILP encoding of the TPLD objective (Eq. 3 of the
//! paper), solved with the generic [`crate::bip`] engine.
//!
//! Each node's color is encoded with two bits `x_{i,1}, x_{i,2}`; for
//! triple patterning the combination `(1, 1)` is excluded. Per conflict
//! edge, two auxiliary bits detect same-bit agreement, and a per-feature-
//! pair variable `C_{mn}` caps the conflict cost at one per pair, exactly
//! as in Eq. (3c)–(3g). Stitch variables pay `alpha` whenever the two
//! subfeatures take different colors.

use crate::bip::Bip;
use mpld_graph::{
    greedy_coloring, Budget, Certainty, CostBreakdown, DecomposeParams, Decomposer, Decomposition,
    LayoutGraph, MpldError,
};
use std::collections::HashMap;

/// Scale factor turning the fractional stitch weight into integers.
const SCALE: f64 = 1000.0;

/// A [`Decomposer`] backed by the faithful Eq. (3) BIP encoding.
///
/// Slower than [`crate::IlpDecomposer`] but textbook-faithful; intended for
/// validation and small graphs.
///
/// # Example
///
/// ```
/// use mpld_graph::{Decomposer, DecomposeParams, LayoutGraph};
/// use mpld_ilp::encode::BipDecomposer;
///
/// let g = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
/// let d = BipDecomposer::new().decompose_unbounded(&g, &DecomposeParams::tpl());
/// assert_eq!(d.cost.conflicts, 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BipDecomposer {
    _private: (),
}

impl BipDecomposer {
    /// Creates the BIP-encoding decomposer.
    pub fn new() -> Self {
        BipDecomposer { _private: () }
    }
}

impl Decomposer for BipDecomposer {
    fn name(&self) -> &'static str {
        "ILP"
    }

    fn decompose(
        &self,
        graph: &LayoutGraph,
        params: &DecomposeParams,
        budget: &Budget,
    ) -> Result<Decomposition, MpldError> {
        if params.k != 3 && params.k != 4 {
            return Err(MpldError::Unsupported {
                engine: self.name(),
                reason: format!(
                    "the two-bit Eq. (3) encoding supports k = 3 or 4, got k = {}",
                    params.k
                ),
            });
        }
        let model = encode_tpld(graph, params);
        let (sol, exhausted) = model.bip.solve_under(None, budget);
        let (coloring, certainty) = match (sol, exhausted) {
            (Some(s), false) => (model.decode(&s.values), Certainty::Certified),
            (Some(s), true) => (model.decode(&s.values), Certainty::BudgetExhausted),
            // Budget expired before the search reached any leaf: fall back
            // to the linear-time greedy incumbent (the anytime contract —
            // a valid coloring, never an error).
            (None, true) => (greedy_coloring(graph, params.k), Certainty::BudgetExhausted),
            (None, false) => {
                return Err(MpldError::Infeasible {
                    engine: self.name(),
                    reason: "the TPLD encoding admits every coloring, yet no leaf was found".into(),
                })
            }
        };
        #[cfg(feature = "failpoints")]
        mpld_graph::failpoints::inject_error("ilp.bip.result", "ILP")?;
        #[cfg_attr(not(feature = "failpoints"), allow(unused_mut))]
        let mut d = Decomposition::try_from_coloring(graph, coloring, params.alpha)?
            .with_certainty(certainty);
        #[cfg(feature = "failpoints")]
        // Corrupt after cost evaluation so only the independent audit can
        // tell the claimed cost is a lie.
        mpld_graph::failpoints::corrupt_coloring("ilp.bip.result", &mut d.coloring, params.k);
        Ok(d)
    }
}

impl BipDecomposer {
    /// Searches, within `budget`, for a decomposition strictly cheaper
    /// than `known`; `None` with an uncut search proves that `known` is
    /// already optimal.
    ///
    /// The known cost becomes the branch-and-bound's starting incumbent
    /// (see [`Bip::solve_bounded`]): verifying a warm start from another
    /// engine is orders of magnitude cheaper than a cold exact solve,
    /// while the outcome is identical — either the strictly better optimum
    /// or the certainty that none exists.
    ///
    /// Returns the strictly-better decomposition (if one was found) and
    /// whether the search was cut short. When the flag is `true` and no
    /// improvement was returned, `known` has **not** been proven optimal —
    /// the caller must treat it as budget-exhausted, not certified.
    pub fn decompose_below_within(
        &self,
        graph: &LayoutGraph,
        params: &DecomposeParams,
        known: &CostBreakdown,
        budget: &Budget,
    ) -> (Option<Decomposition>, bool) {
        let model = encode_tpld(graph, params);
        let conflict_w = SCALE as i64;
        let stitch_w = (params.alpha * SCALE).round() as i64;
        let cutoff = i64::from(known.conflicts) * conflict_w + i64::from(known.stitches) * stitch_w;
        let (sol, exhausted) = model.bip.solve_under(Some(cutoff), budget);
        let certainty = if exhausted {
            Certainty::BudgetExhausted
        } else {
            Certainty::Certified
        };
        let d = sol
            .and_then(|s| {
                // decode always yields one color per node.
                Decomposition::try_from_coloring(graph, model.decode(&s.values), params.alpha).ok()
            })
            .map(|d| d.with_certainty(certainty));
        (d, exhausted)
    }
}

/// The encoded model together with the variable layout needed for
/// decoding.
#[derive(Debug, Clone)]
pub struct TpldModel {
    /// The 0-1 program.
    pub bip: Bip,
    /// `x_bit[i]` = (var of bit 1, var of bit 2) of node `i`.
    x_bit: Vec<(usize, usize)>,
    k: u8,
}

impl TpldModel {
    /// Decodes a BIP solution into a node coloring.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length for the model.
    pub fn decode(&self, values: &[bool]) -> Vec<u8> {
        self.x_bit
            .iter()
            .map(|&(b1, b2)| {
                let c = u8::from(values[b1]) + 2 * u8::from(values[b2]);
                c.min(self.k - 1)
            })
            .collect()
    }
}

/// Builds the Eq. (3) encoding of `graph` for `params.k` in `{3, 4}` masks.
///
/// # Panics
///
/// Panics if `params.k` is not 3 or 4 (the two-bit encoding of the paper).
pub fn encode_tpld(graph: &LayoutGraph, params: &DecomposeParams) -> TpldModel {
    assert!(
        params.k == 3 || params.k == 4,
        "the two-bit Eq. (3) encoding supports k = 3 or 4"
    );
    let n = graph.num_nodes();
    let conflict_w = SCALE as i64;
    let stitch_w = (params.alpha * SCALE).round() as i64;

    // Variable layout: first 2n color bits, then per-edge/per-pair/stitch
    // auxiliaries appended dynamically.
    let n_conf = graph.conflict_edges().len();
    let mut pair_of: HashMap<(u32, u32), usize> = HashMap::new();
    for &(u, v) in graph.conflict_edges() {
        let (a, b) = (graph.feature_of(u), graph.feature_of(v));
        let key = if a < b { (a, b) } else { (b, a) };
        let next = pair_of.len();
        pair_of.entry(key).or_insert(next);
    }
    let n_pairs = pair_of.len();
    let n_stitch = graph.stitch_edges().len();

    let x1 = |i: usize| 2 * i;
    let x2 = |i: usize| 2 * i + 1;
    let ce1 = |e: usize| 2 * n + 2 * e;
    let ce2 = |e: usize| 2 * n + 2 * e + 1;
    let cmn = |p: usize| 2 * n + 2 * n_conf + p;
    let sij = |s: usize| 2 * n + 2 * n_conf + n_pairs + s;
    let num_vars = 2 * n + 2 * n_conf + n_pairs + n_stitch;

    let mut bip = Bip::new(num_vars);
    // Objective: sum C_mn * conflict_w + sum s_ij * stitch_w.
    for p in 0..n_pairs {
        bip.set_objective(cmn(p), conflict_w);
    }
    for s in 0..n_stitch {
        bip.set_objective(sij(s), stitch_w);
    }

    // Eq. (3b): exclude color 3 for triple patterning.
    if params.k == 3 {
        for i in 0..n {
            bip.add_constraint(vec![(x1(i), 1), (x2(i), 1)], 1);
        }
    }

    // Symmetry breaking (not in Eq. 3, but cost-preserving): the objective
    // never mentions colors, only agreement, so solutions come in orbits of
    // the k! color permutations. Pin the highest-conflict-degree node to
    // color 0, and one of its neighbors to {0, 1} — every orbit has a
    // representative of this shape, and the branch-and-bound no longer
    // proves the same bound k!/(k-2)! times.
    if n > 0 {
        let u = (0..n as u32)
            .max_by_key(|&v| graph.conflict_degree(v))
            .unwrap_or(0);
        bip.add_constraint(vec![(x1(u as usize), 1)], 0);
        bip.add_constraint(vec![(x2(u as usize), 1)], 0);
        if let Some(&v) = graph
            .conflict_neighbors(u)
            .iter()
            .max_by_key(|&&v| graph.conflict_degree(v))
        {
            bip.add_constraint(vec![(x2(v as usize), 1)], 0);
        }
    }

    // Eq. (3c)–(3g) per conflict edge.
    for (e, &(u, v)) in graph.conflict_edges().iter().enumerate() {
        let (i, j) = (u as usize, v as usize);
        let (a, b) = (graph.feature_of(u), graph.feature_of(v));
        let key = if a < b { (a, b) } else { (b, a) };
        let p = pair_of[&key];
        // x_i1 + x_j1 <= 1 + C_e1
        bip.add_constraint(vec![(x1(i), 1), (x1(j), 1), (ce1(e), -1)], 1);
        // (1 - x_i1) + (1 - x_j1) <= 1 + C_e1  ⇔  -x_i1 - x_j1 - C_e1 <= -1
        bip.add_constraint(vec![(x1(i), -1), (x1(j), -1), (ce1(e), -1)], -1);
        bip.add_constraint(vec![(x2(i), 1), (x2(j), 1), (ce2(e), -1)], 1);
        bip.add_constraint(vec![(x2(i), -1), (x2(j), -1), (ce2(e), -1)], -1);
        // C_e1 + C_e2 <= 1 + C_mn
        bip.add_constraint(vec![(ce1(e), 1), (ce2(e), 1), (cmn(p), -1)], 1);
    }

    // Stitch edges: s_ij >= |x_i1 - x_j1| and |x_i2 - x_j2|.
    for (s, &(u, v)) in graph.stitch_edges().iter().enumerate() {
        let (i, j) = (u as usize, v as usize);
        bip.add_constraint(vec![(x1(i), 1), (x1(j), -1), (sij(s), -1)], 0);
        bip.add_constraint(vec![(x1(i), -1), (x1(j), 1), (sij(s), -1)], 0);
        bip.add_constraint(vec![(x2(i), 1), (x2(j), -1), (sij(s), -1)], 0);
        bip.add_constraint(vec![(x2(i), -1), (x2(j), 1), (sij(s), -1)], 0);
    }

    TpldModel {
        bip,
        x_bit: (0..n).map(|i| (x1(i), x2(i))).collect(),
        k: params.k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force, IlpDecomposer};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn triangle_zero_cost() {
        let g = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let d = BipDecomposer::new().decompose_unbounded(&g, &DecomposeParams::tpl());
        assert_eq!(d.cost.conflicts, 0);
    }

    #[test]
    fn k4_one_conflict() {
        let g = LayoutGraph::homogeneous(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        let d = BipDecomposer::new().decompose_unbounded(&g, &DecomposeParams::tpl());
        assert_eq!(d.cost.conflicts, 1);
        let d4 = BipDecomposer::new().decompose_unbounded(&g, &DecomposeParams::qpl());
        assert_eq!(d4.cost.conflicts, 0);
    }

    #[test]
    fn stitch_is_used_when_cheaper() {
        // A path of conflicts around a split feature: the optimal solution
        // uses the stitch to avoid a conflict (0.1 < 1).
        let g = LayoutGraph::new(
            vec![0, 0, 1, 2, 3, 4],
            vec![
                (0, 2),
                (0, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (4, 5),
                (2, 4),
                (3, 5),
            ],
            vec![(0, 1)],
        )
        .unwrap();
        let bf = brute_force(&g, &DecomposeParams::tpl());
        let d = BipDecomposer::new().decompose_unbounded(&g, &DecomposeParams::tpl());
        assert_eq!(d.cost.value(0.1), bf.cost.value(0.1));
    }

    #[test]
    fn agrees_with_colorbb_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(99);
        let p = DecomposeParams::tpl();
        for _ in 0..15 {
            let n = rng.gen_range(3..7usize);
            let mut node_feature = Vec::new();
            let mut stitch = Vec::new();
            for f in 0..n {
                let s = node_feature.len() as u32;
                if rng.gen_bool(0.3) {
                    node_feature.extend([f as u32; 2]);
                    stitch.push((s, s + 1));
                } else {
                    node_feature.push(f as u32);
                }
            }
            let total = node_feature.len() as u32;
            let mut conflicts = Vec::new();
            for u in 0..total {
                for v in (u + 1)..total {
                    if node_feature[u as usize] != node_feature[v as usize] && rng.gen_bool(0.45) {
                        conflicts.push((u, v));
                    }
                }
            }
            let g = LayoutGraph::new(node_feature, conflicts, stitch).unwrap();
            let a = BipDecomposer::new().decompose_unbounded(&g, &p);
            let b = IlpDecomposer::new().decompose_unbounded(&g, &p);
            assert_eq!(a.cost.value(0.1), b.cost.value(0.1), "graph: {g:?}");
        }
    }

    #[test]
    #[should_panic(expected = "k = 3 or 4")]
    fn rejects_unsupported_mask_count() {
        let g = LayoutGraph::homogeneous(2, vec![(0, 1)]).unwrap();
        let params = DecomposeParams { k: 5, alpha: 0.1 };
        let _ = encode_tpld(&g, &params);
    }

    #[test]
    fn model_size_is_as_expected() {
        let g = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let m = encode_tpld(&g, &DecomposeParams::tpl());
        // 2*3 color bits + 2*3 edge bits + 3 pair bits + 0 stitches.
        assert_eq!(m.bip.num_vars(), 15);
        // 3 exclusion + 3 symmetry-breaking + 5 per edge * 3 edges.
        assert_eq!(m.bip.num_constraints(), 21);
    }
}
