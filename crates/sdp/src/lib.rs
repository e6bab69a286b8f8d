//! Semidefinite-programming (SDP) relaxation decomposer.
//!
//! The classic TPL relaxation programs each node's color as a unit vector
//! so that inner products distinguish same/different colors (Eq. 4 of the
//! paper): for triple patterning the three targets are planar unit vectors
//! 120 degrees apart, with `v_i · v_j = 1` for equal colors and `-1/2` for
//! different ones. The SDP relaxes the discrete choice to arbitrary unit
//! vectors.
//!
//! Instead of an interior-point SDP solver we solve the equivalent
//! **low-rank Burer–Monteiro formulation**: unit vectors in `R^2` (k = 3)
//! or `R^3` (k = 4) optimized by projected gradient descent with restarts,
//! followed by the standard fast rounding — snap each vector to the
//! nearest target (trying several global rotations) and run a greedy
//! single-node repair sweep. This substitution is documented in DESIGN.md;
//! it preserves the SDP baseline's qualitative position: better quality
//! than naive heuristics, cheaper than exact ILP, but no optimality
//! guarantee.
//!
//! # Example
//!
//! ```
//! use mpld_graph::{Decomposer, DecomposeParams, LayoutGraph};
//! use mpld_sdp::SdpDecomposer;
//!
//! let g = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
//! let d = SdpDecomposer::new().decompose_unbounded(&g, &DecomposeParams::tpl());
//! assert_eq!(d.cost.conflicts, 0);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use mpld_graph::{
    Budget, Certainty, DecomposeParams, Decomposer, Decomposition, LayoutGraph, MpldError,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maximum vector dimension used by the low-rank formulation.
const MAX_DIM: usize = 3;

/// The SDP-relaxation decomposer (see crate docs).
#[derive(Debug, Clone, Copy)]
pub struct SdpDecomposer {
    restarts: usize,
    iterations: usize,
    seed: u64,
}

impl Default for SdpDecomposer {
    fn default() -> Self {
        SdpDecomposer {
            restarts: 3,
            iterations: 200,
            seed: 0x5D9,
        }
    }
}

impl SdpDecomposer {
    /// Creates the decomposer with default restarts and iteration count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the RNG seed (results are deterministic per seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Decomposer for SdpDecomposer {
    fn name(&self) -> &'static str {
        "SDP"
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
                    "the vector program supports k = 3 or 4, got k = {}",
                    params.k
                ),
            });
        }
        let n = graph.num_nodes();
        if n == 0 {
            return Decomposition::try_from_coloring(graph, Vec::new(), params.alpha);
        }
        let dim = if params.k == 3 { 2 } else { 3 };
        let targets = targets(params.k);
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // The first restart always runs to completion of rounding (the
        // anytime contract: SDP always has an incumbent); later restarts
        // are skipped once the budget expires.
        let mut exhausted = false;
        let mut best: Option<Decomposition> = None;
        for r in 0..self.restarts.max(1) {
            if r > 0 && budget.exhausted() {
                exhausted = true;
                break;
            }
            #[cfg(feature = "failpoints")]
            mpld_graph::failpoints::tick("sdp.round");
            let (vectors, cut) = self.optimize(graph, params, dim, &mut rng, budget);
            exhausted |= cut;
            let coloring = round_and_repair(graph, params, &vectors, dim, &targets);
            let cand = Decomposition::try_from_coloring(graph, coloring, params.alpha)?;
            let better = match &best {
                None => true,
                Some(b) => cand.cost.better_than(&b.cost, params.alpha),
            };
            if better {
                best = Some(cand);
            }
        }
        let certainty = if exhausted {
            Certainty::BudgetExhausted
        } else {
            Certainty::Heuristic
        };
        match best {
            Some(d) => {
                #[cfg(feature = "failpoints")]
                mpld_graph::failpoints::inject_error("sdp.result", "SDP")?;
                #[cfg_attr(not(feature = "failpoints"), allow(unused_mut))]
                let mut d = d.with_certainty(certainty);
                #[cfg(feature = "failpoints")]
                // Stale-cost corruption: only the independent audit sees it.
                mpld_graph::failpoints::corrupt_coloring("sdp.result", &mut d.coloring, params.k);
                Ok(d)
            }
            None => Err(MpldError::Infeasible {
                engine: self.name(),
                reason: "no restart produced a coloring".into(),
            }),
        }
    }
}

/// The k target unit vectors (maximally separated).
fn targets(k: u8) -> Vec<[f64; MAX_DIM]> {
    match k {
        3 => {
            let s = 3f64.sqrt() / 2.0;
            vec![[1.0, 0.0, 0.0], [-0.5, s, 0.0], [-0.5, -s, 0.0]]
        }
        4 => {
            // Tetrahedral directions.
            let c = 1.0 / 3f64.sqrt();
            vec![[c, c, c], [c, -c, -c], [-c, c, -c], [-c, -c, c]]
        }
        _ => unreachable!("validated by the caller"),
    }
}

impl SdpDecomposer {
    /// Projected gradient descent on unit vectors minimizing
    /// `sum_CE v_i·v_j - alpha * sum_SE v_i·v_j`.
    /// Returns the optimized vectors plus whether the iteration loop was
    /// cut short by `budget`.
    fn optimize(
        &self,
        graph: &LayoutGraph,
        params: &DecomposeParams,
        dim: usize,
        rng: &mut SmallRng,
        budget: &Budget,
    ) -> (Vec<[f64; MAX_DIM]>, bool) {
        let n = graph.num_nodes();
        let mut v: Vec<[f64; MAX_DIM]> = (0..n)
            .map(|_| {
                let mut x = [0.0; MAX_DIM];
                for d in x.iter_mut().take(dim) {
                    *d = rng.gen_range(-1.0..1.0);
                }
                normalize(&mut x);
                x
            })
            .collect();

        let mut lr = 0.2;
        let mut cut = false;
        for _ in 0..self.iterations {
            // Each iteration is O(E); checking the deadline per iteration
            // is cheap by comparison (and free when the budget is
            // unlimited).
            if budget.exhausted() {
                cut = true;
                break;
            }
            let mut grad = vec![[0.0f64; MAX_DIM]; n];
            for &(a, b) in graph.conflict_edges() {
                for d in 0..dim {
                    grad[a as usize][d] += v[b as usize][d];
                    grad[b as usize][d] += v[a as usize][d];
                }
            }
            for &(a, b) in graph.stitch_edges() {
                for d in 0..dim {
                    grad[a as usize][d] -= params.alpha * v[b as usize][d];
                    grad[b as usize][d] -= params.alpha * v[a as usize][d];
                }
            }
            for i in 0..n {
                // Project the gradient onto the tangent space and step.
                let dot: f64 = (0..dim).map(|d| grad[i][d] * v[i][d]).sum();
                for d in 0..dim {
                    v[i][d] -= lr * (grad[i][d] - dot * v[i][d]);
                }
                normalize(&mut v[i]);
            }
            lr *= 0.995;
        }
        (v, cut)
    }
}

fn normalize(x: &mut [f64; MAX_DIM]) {
    let norm: f64 = x.iter().map(|a| a * a).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for a in x.iter_mut() {
            *a /= norm;
        }
    } else {
        x[0] = 1.0;
        for a in x.iter_mut().skip(1) {
            *a = 0.0;
        }
    }
}

/// Rounds relaxed vectors to colors (trying a few global rotations in the
/// first plane) and then runs a greedy single-node repair sweep.
fn round_and_repair(
    graph: &LayoutGraph,
    params: &DecomposeParams,
    vectors: &[[f64; MAX_DIM]],
    dim: usize,
    targets: &[[f64; MAX_DIM]],
) -> Vec<u8> {
    let k = params.k;
    let mut best_coloring: Option<(Vec<u8>, f64)> = None;
    let rotations = if dim == 2 { 12 } else { 1 };
    for r in 0..rotations {
        let angle = r as f64 * std::f64::consts::TAU / (rotations as f64 * k as f64);
        let (sin, cos) = angle.sin_cos();
        let coloring: Vec<u8> = vectors
            .iter()
            .map(|v| {
                let mut w = *v;
                if dim == 2 {
                    let (x, y) = (v[0], v[1]);
                    w[0] = x * cos - y * sin;
                    w[1] = x * sin + y * cos;
                }
                let mut best_c = 0u8;
                let mut best_dot = f64::NEG_INFINITY;
                for (c, t) in targets.iter().enumerate() {
                    let dot: f64 = (0..dim).map(|d| w[d] * t[d]).sum();
                    if dot > best_dot {
                        best_dot = dot;
                        best_c = c as u8;
                    }
                }
                best_c
            })
            .collect();
        let coloring = repair(graph, params, coloring);
        let value = graph.evaluate(&coloring, params.alpha).value(params.alpha);
        let better = best_coloring
            .as_ref()
            .is_none_or(|(_, v)| value < *v - 1e-12);
        if better {
            best_coloring = Some((coloring, value));
        }
    }
    #[allow(clippy::expect_used)] // rotations >= 1, so one candidate exists
    best_coloring.expect("at least one rotation tried").0
}

/// Greedy repair: sweep nodes, moving each to its locally cheapest mask,
/// until a fixpoint (bounded sweeps).
fn repair(graph: &LayoutGraph, params: &DecomposeParams, mut coloring: Vec<u8>) -> Vec<u8> {
    let k = params.k;
    for _ in 0..4 {
        let mut changed = false;
        for v in 0..graph.num_nodes() as u32 {
            let mut cost = [0f64; 8];
            for &w in graph.conflict_neighbors(v) {
                cost[coloring[w as usize] as usize] += 1.0;
            }
            for &w in graph.stitch_neighbors(v) {
                for c in 0..k {
                    if c != coloring[w as usize] {
                        cost[c as usize] += params.alpha;
                    }
                }
            }
            let cur = coloring[v as usize];
            let best = (0..k).min_by(|&a, &b| {
                cost[a as usize]
                    .partial_cmp(&cost[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if let Some(best) = best {
                if cost[best as usize] + 1e-12 < cost[cur as usize] {
                    coloring[v as usize] = best;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    coloring
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpld_ilp::IlpDecomposer;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tpl() -> DecomposeParams {
        DecomposeParams::tpl()
    }

    #[test]
    fn empty_graph() {
        let g = LayoutGraph::homogeneous(0, vec![]).unwrap();
        let d = SdpDecomposer::new().decompose_unbounded(&g, &tpl());
        assert!(d.coloring.is_empty());
    }

    #[test]
    fn triangle_conflict_free() {
        let g = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let d = SdpDecomposer::new().decompose_unbounded(&g, &tpl());
        assert_eq!(d.cost.conflicts, 0);
    }

    #[test]
    fn odd_cycle_conflict_free() {
        let g = LayoutGraph::homogeneous(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let d = SdpDecomposer::new().decompose_unbounded(&g, &tpl());
        assert_eq!(d.cost.conflicts, 0);
    }

    #[test]
    fn k4_gets_exactly_one_conflict() {
        let g = LayoutGraph::homogeneous(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        let d = SdpDecomposer::new().decompose_unbounded(&g, &tpl());
        assert_eq!(d.cost.conflicts, 1);
    }

    #[test]
    fn quadruple_patterning_colors_k4_free() {
        let g = LayoutGraph::homogeneous(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        let d = SdpDecomposer::new().decompose_unbounded(&g, &DecomposeParams::qpl());
        assert_eq!(d.cost.conflicts, 0);
        assert!(d.coloring.iter().all(|&c| c < 4));
    }

    #[test]
    fn never_beats_ilp_and_stays_close_on_small_graphs() {
        let mut rng = SmallRng::seed_from_u64(0x5D9);
        let mut total_gap = 0.0;
        for _ in 0..15 {
            let n = rng.gen_range(4..9usize);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(0.45) {
                        edges.push((u, v));
                    }
                }
            }
            let g = LayoutGraph::homogeneous(n, edges).unwrap();
            let sdp = SdpDecomposer::new().decompose_unbounded(&g, &tpl());
            let ilp = IlpDecomposer::new().decompose_unbounded(&g, &tpl());
            assert!(sdp.cost.value(0.1) >= ilp.cost.value(0.1) - 1e-9);
            total_gap += sdp.cost.value(0.1) - ilp.cost.value(0.1);
        }
        // The relaxation should be near-optimal in aggregate.
        assert!(total_gap <= 3.0, "SDP gap too large: {total_gap}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = LayoutGraph::homogeneous(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
            .unwrap();
        let a = SdpDecomposer::new()
            .with_seed(7)
            .decompose_unbounded(&g, &tpl());
        let b = SdpDecomposer::new()
            .with_seed(7)
            .decompose_unbounded(&g, &tpl());
        assert_eq!(a.coloring, b.coloring);
    }

    #[test]
    fn rejects_unsupported_k() {
        let g = LayoutGraph::homogeneous(2, vec![(0, 1)]).unwrap();
        let params = DecomposeParams { k: 6, alpha: 0.1 };
        let err = SdpDecomposer::new()
            .decompose(&g, &params, &Budget::unlimited())
            .unwrap_err();
        assert!(matches!(err, MpldError::Unsupported { .. }), "{err}");
    }
}
