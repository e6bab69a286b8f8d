//! ColorGNN — the pure message-passing decomposer for non-stitch graphs
//! (Section III-B of the paper, Algorithm 1 lines 9–13).
//!
//! Each node carries a belief vector over the `k` masks, initialized
//! randomly. A layer applies the trainable weighted combination of Eq. (5):
//! `c_v' = lambda_C * c_v + lambda_A * sum_{u in N'(v)} c_u`, where `N'`
//! is a random subsample of the conflict neighbors (the randomness helps
//! escape local optima, following the local-algorithms argument the paper
//! cites). After the final layer each node takes the argmax mask; the
//! whole network is executed `iter` times from different random
//! initializations and the cheapest coloring wins.
//!
//! Every decomposition takes one `u64` from the model's RNG stream and
//! samples each graph's restarts from a stream of its own, derived from
//! that draw and the graph's structural fingerprint (see
//! [`FrozenColorGnn::decompose_seeded`](crate::FrozenColorGnn::decompose_seeded)).
//! A coloring is thus a pure function of (graph, draw): a batch gives
//! each graph what [`Decomposer::decompose`] would give it alone, and a
//! batch of one equals `decompose` from the same stream state.
//!
//! Training minimizes the unsupervised margin loss of Eq. (14): adjacent
//! nodes should have belief vectors at squared distance `>= margin`.

use mpld_graph::{
    Budget, Certainty, DecomposeParams, Decomposer, Decomposition, LayoutGraph, MpldError,
};
use mpld_tensor::{Adjacency, Graph, Matrix, Optimizer, ParamId, ParamSet, VarId};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::{Arc, Mutex};

/// Training hyperparameters for ColorGNN.
#[derive(Debug, Clone, Copy)]
pub struct ColorGnnTrainConfig {
    /// Passes over the training graphs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Margin `m` of Eq. (14).
    pub margin: f32,
    /// Graphs per step: each step runs one tape over the disjoint union
    /// of `batch` graphs. `1` reproduces the per-graph trajectory (and
    /// its RNG stream) bit for bit; larger batches reorder the RNG draws
    /// and the f32 gradient sums, so they train an equivalent but not
    /// bitwise-equal model, several times faster.
    pub batch: usize,
}

impl Default for ColorGnnTrainConfig {
    fn default() -> Self {
        ColorGnnTrainConfig {
            epochs: 40,
            lr: 0.02,
            margin: 1.0,
            batch: 1,
        }
    }
}

/// The ColorGNN decomposer (see module docs).
pub struct ColorGnn {
    params: ParamSet,
    /// `(lambda_C, lambda_A)` per layer.
    lambdas: Vec<(ParamId, ParamId)>,
    restarts: usize,
    /// Probability of keeping each neighbor during sampled aggregation.
    sample_keep: f64,
    /// The model's stream: one draw per decomposition, and the training
    /// RNG. Interior mutability so `Decomposer::decompose(&self)` can
    /// draw; a `Mutex` (not `RefCell`) so the model is `Sync` and
    /// shareable across decomposition worker threads.
    state: Mutex<SmallRng>,
}

impl ColorGnn {
    /// Builds the paper's configuration: 10 layers, 5 restarts.
    pub fn new(seed: u64) -> Self {
        Self::with_shape(10, 5, 0.8, seed)
    }

    /// Builds a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0` or `restarts == 0` or `sample_keep` is not
    /// in `(0, 1]`.
    pub fn with_shape(layers: usize, restarts: usize, sample_keep: f64, seed: u64) -> Self {
        assert!(layers > 0, "at least one layer");
        assert!(restarts > 0, "at least one restart");
        assert!(
            sample_keep > 0.0 && sample_keep <= 1.0,
            "keep probability in (0, 1]"
        );
        let mut params = ParamSet::new(Optimizer::Adam);
        let lambdas = (0..layers)
            .map(|_| {
                (
                    params.add(Matrix::from_vec(1, 1, vec![1.0])),
                    params.add(Matrix::from_vec(1, 1, vec![-0.4])),
                )
            })
            .collect();
        ColorGnn {
            params,
            lambdas,
            restarts,
            sample_keep,
            state: Mutex::new(SmallRng::seed_from_u64(seed)),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.lambdas.len()
    }

    /// Number of restarts (`iter` in Algorithm 1).
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Overrides the restart count.
    pub fn set_restarts(&mut self, restarts: usize) {
        assert!(restarts > 0, "at least one restart");
        self.restarts = restarts;
    }

    /// Resets the model's stream. Decomposition results depend on the
    /// draws taken from it, so resetting it before two runs makes them
    /// reproduce each other exactly (`reseed(s)` before a framework entry
    /// point equals an engine session seeded with `s`).
    pub fn reseed(&self, seed: u64) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = SmallRng::seed_from_u64(seed);
    }

    /// Takes the next `u64` from the model's stream: the draw one
    /// decomposition call samples every graph under (see module docs).
    pub fn next_draw(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .next_u64()
    }

    /// Serializes the trained per-layer weights.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_weights<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        self.params.write_values(writer)
    }

    /// Restores weights written by [`ColorGnn::save_weights`] into a model
    /// with the same layer count.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the layer counts differ.
    pub fn load_weights<R: std::io::Read>(&mut self, reader: R) -> std::io::Result<()> {
        self.params.read_values(reader)
    }

    /// The current `(lambda_C, lambda_A)` values per layer.
    pub fn lambda_values(&self) -> Vec<(f32, f32)> {
        self.lambdas
            .iter()
            .map(|&(c, a)| (self.params.value(c).scalar(), self.params.value(a).scalar()))
            .collect()
    }

    /// Compiles the current weights into a tape-free inference engine
    /// (the per-layer lambda scalars read out once). Its per-graph
    /// streams draw in exactly the tape path's order, so the public
    /// [`ColorGnn::decompose_batch`] / [`Decomposer::decompose`] entry
    /// points, which run it under a draw from the model's stream, stay
    /// bit-identical to the tape oracle [`ColorGnn::decompose_tape`].
    pub fn freeze(&self) -> crate::FrozenColorGnn {
        crate::FrozenColorGnn::from_parts(self.lambda_values(), self.restarts, self.sample_keep)
    }

    fn sampled_adjacency(&self, graph: &LayoutGraph, rng: &mut SmallRng) -> Arc<Adjacency> {
        let n = graph.num_nodes();
        let fwd = (0..n as u32)
            .map(|v| {
                let ns = graph.conflict_neighbors(v);
                if self.sample_keep >= 1.0 || ns.len() <= 1 {
                    return ns.to_vec();
                }
                let kept: Vec<u32> = ns
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(self.sample_keep))
                    .collect();
                if kept.is_empty() {
                    vec![ns[rng.gen_range(0..ns.len())]]
                } else {
                    kept
                }
            })
            .collect();
        Arc::new(Adjacency::new(fwd))
    }

    fn random_beliefs(n: usize, k: u8, rng: &mut SmallRng) -> Matrix {
        let mut x = Matrix::zeros(n, k as usize);
        for r in 0..n {
            let mut sum = 0.0;
            for c in 0..k as usize {
                let v: f32 = rng.gen_range(0.05..1.0);
                x[(r, c)] = v;
                sum += v;
            }
            for c in 0..k as usize {
                x[(r, c)] /= sum;
            }
        }
        x
    }

    /// One forward pass; returns the final belief var. The binder decides
    /// whether parameters enter the tape as trainable leaves (training) or
    /// frozen constants (inference, which therefore stays `&self`).
    fn forward(
        &self,
        g: &mut Graph,
        graph: &LayoutGraph,
        init: Matrix,
        rng: &mut SmallRng,
        bind: &mut dyn FnMut(&mut Graph, ParamId) -> VarId,
    ) -> VarId {
        let mut x = g.input(init);
        for &(lc, la) in &self.lambdas {
            let adj = self.sampled_adjacency(graph, rng);
            let m = g.agg_sum(x, adj);
            let lcv = bind(g, lc);
            let lav = bind(g, la);
            let own = g.scale_by_scalar(x, lcv);
            let msg = g.scale_by_scalar(m, lav);
            let mixed = g.add(own, msg);
            // Per-layer row normalization keeps the belief dynamics
            // bounded (argmax is invariant to positive row scaling, so
            // inference is unaffected) and removes the degenerate
            // "grow lambda_C" optimum from the margin loss.
            x = g.row_l2_normalize(mixed);
        }
        x
    }

    /// Decomposes many non-stitch graphs under one draw from the model's
    /// stream: each distinct graph is sampled once on its own stream
    /// (see
    /// [`FrozenColorGnn::decompose_batch_with_rng`](crate::FrozenColorGnn::decompose_batch_with_rng)),
    /// so every result equals what [`Decomposer::decompose`] gives that
    /// graph from the same stream state.
    ///
    /// # Panics
    ///
    /// Panics if any graph contains stitch edges.
    pub fn decompose_batch(
        &self,
        graphs: &[&LayoutGraph],
        params: &DecomposeParams,
        budget: &Budget,
    ) -> Vec<Decomposition> {
        let mut rng = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.freeze()
            .decompose_batch_with_rng(graphs, params, budget, &mut rng)
    }

    /// Trains the per-layer combination weights on `graphs` with the
    /// margin loss. Returns the final epoch's mean loss.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or any graph contains stitch edges.
    pub fn train(&mut self, graphs: &[&LayoutGraph], k: u8, cfg: &ColorGnnTrainConfig) -> f32 {
        assert!(!graphs.is_empty(), "training set must not be empty");
        assert!(
            graphs.iter().all(|g| !g.has_stitches()),
            "ColorGNN trains on non-stitch graphs"
        );
        let mut rng = self.state.lock().unwrap_or_else(|e| e.into_inner()).clone();
        // Graphs with no nodes or no conflict edges contribute nothing to
        // the margin loss; drop them up front so chunks stay dense. The
        // reported-loss denominator keeps the full set size, matching the
        // per-graph path (which skipped them mid-loop).
        let kept: Vec<&LayoutGraph> = graphs
            .iter()
            .copied()
            .filter(|g| g.num_nodes() > 0 && !g.conflict_edges().is_empty())
            .collect();
        if kept.is_empty() {
            *self.state.lock().unwrap_or_else(|e| e.into_inner()) = rng;
            return 0.0;
        }
        // One disjoint union per step, assembled once and reused across
        // epochs. Single-graph chunks keep the member graph itself so
        // batch=1 draws the exact pre-batching RNG stream (the rebuilt
        // union could order neighbors differently).
        struct Chunk<'a> {
            members: Vec<&'a LayoutGraph>,
            union: Option<LayoutGraph>,
            offsets: Vec<usize>,
            /// Union-offset conflict edges, per-graph-contiguous in
            /// member order.
            edges: Arc<Vec<(u32, u32)>>,
            edge_counts: Vec<usize>,
            total_nodes: usize,
        }
        let chunks: Vec<Chunk> = kept
            .chunks(cfg.batch.max(1))
            .map(|chunk| {
                let mut offsets = vec![0usize];
                let mut edges: Vec<(u32, u32)> = Vec::new();
                let mut edge_counts = Vec::new();
                let mut base = 0u32;
                for g in chunk {
                    edges.extend(
                        g.conflict_edges()
                            .iter()
                            .map(|&(a, b)| (a + base, b + base)),
                    );
                    edge_counts.push(g.conflict_edges().len());
                    base += g.num_nodes() as u32;
                    offsets.push(base as usize);
                }
                let union = if chunk.len() > 1 {
                    #[allow(clippy::expect_used)] // disjoint union of valid graphs
                    Some(
                        LayoutGraph::homogeneous(base as usize, edges.clone())
                            .expect("disjoint union of valid graphs is valid"),
                    )
                } else {
                    None
                };
                Chunk {
                    members: chunk.to_vec(),
                    union,
                    offsets,
                    edges: Arc::new(edges),
                    edge_counts,
                    total_nodes: base as usize,
                }
            })
            .collect();
        // Take the parameter set out of `self` once for the whole run so
        // `forward` (which borrows `&self`) can bind into it mutably.
        let mut params = std::mem::replace(&mut self.params, ParamSet::new(Optimizer::Adam));
        // One tape serves every step; `reset` recycles all its buffers.
        let mut g = Graph::new();
        let mut last = 0.0;
        for _ in 0..cfg.epochs {
            last = 0.0;
            for chunk in &chunks {
                g.reset();
                // Beliefs are drawn per member graph in chunk order, then
                // the per-layer neighbor samplings follow inside `forward`
                // — at batch 1 exactly the pre-batching draw order.
                let init = if chunk.members.len() == 1 {
                    Self::random_beliefs(chunk.total_nodes, k, &mut rng)
                } else {
                    let mut init = Matrix::zeros(chunk.total_nodes, k as usize);
                    for (gi, member) in chunk.members.iter().enumerate() {
                        let block = Self::random_beliefs(member.num_nodes(), k, &mut rng);
                        let (lo, hi) = (chunk.offsets[gi], chunk.offsets[gi + 1]);
                        init.as_mut_slice()[lo * k as usize..hi * k as usize]
                            .copy_from_slice(block.as_slice());
                    }
                    init
                };
                let target: &LayoutGraph = chunk.union.as_ref().unwrap_or(chunk.members[0]);
                let x = self.forward(&mut g, target, init, &mut rng, &mut |g, pid| {
                    params.bind(g, pid)
                });
                // Eq. (14) over the union edges: block-diagonal structure
                // means the scalar is the sum of the per-graph losses and
                // the gradient is their per-block concatenation.
                let loss = g.margin_pair_loss(x, Arc::clone(&chunk.edges), cfg.margin);
                // Per-graph mean losses for reporting: refold each
                // member's edge block from the shared belief matrix in
                // tape order — the same fold the tape ran, so at batch 1
                // this reproduces its scalar bit for bit.
                let beliefs = g.value(x);
                let mut ei = 0usize;
                for &count in &chunk.edge_counts {
                    let mut graph_loss = 0.0f32;
                    for &(u, v) in &chunk.edges[ei..ei + count] {
                        let d2: f32 = beliefs
                            .row(u as usize)
                            .iter()
                            .zip(beliefs.row(v as usize))
                            .map(|(&a, &b)| (a - b) * (a - b))
                            .sum();
                        graph_loss += (cfg.margin - d2).max(0.0);
                    }
                    ei += count;
                    last += graph_loss / count.max(1) as f32;
                }
                g.backward(loss);
                params.apply_grads(&g);
                params.step(cfg.lr);
            }
            last /= graphs.len() as f32;
        }
        self.params = params;
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = rng;
        last
    }

    /// Reference trainer: the pre-batching per-graph loop with a fresh
    /// tape per step. Arithmetic and RNG stream are identical to
    /// [`ColorGnn::train`] at `batch: 1`; this is the baseline side of
    /// the training bench and the bit-identity oracle for the batched
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or any graph contains stitch edges.
    #[doc(hidden)]
    pub fn train_reference(
        &mut self,
        graphs: &[&LayoutGraph],
        k: u8,
        cfg: &ColorGnnTrainConfig,
    ) -> f32 {
        assert!(!graphs.is_empty(), "training set must not be empty");
        assert!(
            graphs.iter().all(|g| !g.has_stitches()),
            "ColorGNN trains on non-stitch graphs"
        );
        let mut rng = self.state.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut params = std::mem::replace(&mut self.params, ParamSet::new(Optimizer::Adam));
        let mut last = 0.0;
        for _ in 0..cfg.epochs {
            last = 0.0;
            for graph in graphs {
                if graph.num_nodes() == 0 || graph.conflict_edges().is_empty() {
                    continue;
                }
                let mut g = Graph::new();
                let init = Self::random_beliefs(graph.num_nodes(), k, &mut rng);
                let x = self.forward(&mut g, graph, init, &mut rng, &mut |g, pid| {
                    params.bind(g, pid)
                });
                // Eq. (14) on the (already row-normalized) final beliefs.
                let edges = Arc::new(graph.conflict_edges().to_vec());
                let loss = g.margin_pair_loss(x, edges, cfg.margin);
                last += g.value(loss).scalar() / graph.conflict_edges().len().max(1) as f32;
                g.backward(loss);
                params.apply_grads(&g);
                params.step(cfg.lr);
            }
            last /= graphs.len() as f32;
        }
        self.params = params;
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = rng;
        last
    }
}

impl ColorGnn {
    /// The tape-based single-graph decomposition (Algorithm 1 lines
    /// 9–13), retained as the correctness oracle for the frozen engine
    /// behind [`Decomposer::decompose`]: the same draw from the model's
    /// stream, the same per-graph restart stream, the same restarts.
    ///
    /// # Errors
    ///
    /// [`MpldError::Unsupported`] for stitch graphs;
    /// [`MpldError::Infeasible`] when no restart yields a coloring.
    pub fn decompose_tape(
        &self,
        graph: &LayoutGraph,
        params: &DecomposeParams,
        budget: &Budget,
    ) -> Result<Decomposition, MpldError> {
        let draw = self.next_draw();
        if graph.has_stitches() {
            return Err(MpldError::Unsupported {
                engine: self.name(),
                reason: "ColorGNN handles non-stitch graphs only; merge stitch edges first".into(),
            });
        }
        let n = graph.num_nodes();
        if n == 0 {
            return Decomposition::try_from_coloring(graph, Vec::new(), params.alpha);
        }
        let mut rng = crate::frozen::graph_stream(graph, draw);
        let mut cut = false;
        let mut best: Option<Decomposition> = None;
        for round in 0..self.restarts {
            // The first restart always runs (the anytime contract needs an
            // incumbent); later restarts are skipped once the budget is
            // gone.
            if round > 0 && budget.exhausted() {
                cut = true;
                break;
            }
            #[cfg(feature = "failpoints")]
            mpld_graph::failpoints::tick("colorgnn.restart");
            let mut g = Graph::new();
            let init = Self::random_beliefs(n, params.k, &mut rng);
            // Frozen binds: inference never mutates training state.
            let x = self.forward(&mut g, graph, init, &mut rng, &mut |g, pid| {
                self.params.bind_frozen(g, pid)
            });
            let beliefs = g.value(x);
            let coloring: Vec<u8> = (0..n)
                .map(|r| {
                    let row = beliefs.row(r);
                    row.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map_or(0, |(c, _)| c as u8)
                })
                .collect();
            let cand = Decomposition::try_from_coloring(graph, coloring, params.alpha)?;
            let better = match &best {
                None => true,
                Some(b) => cand.cost.better_than(&b.cost, params.alpha),
            };
            if better {
                best = Some(cand);
            }
            if best.as_ref().map(|b| b.cost.conflicts) == Some(0) {
                break;
            }
        }
        let certainty = if cut {
            Certainty::BudgetExhausted
        } else {
            Certainty::Heuristic
        };
        match best {
            Some(d) => {
                #[cfg_attr(not(feature = "failpoints"), allow(unused_mut))]
                let mut d = d.with_certainty(certainty);
                #[cfg(feature = "failpoints")]
                mpld_graph::failpoints::corrupt_coloring(
                    "colorgnn.result",
                    &mut d.coloring,
                    params.k,
                );
                Ok(d)
            }
            None => Err(MpldError::Infeasible {
                engine: self.name(),
                reason: "no restart produced a coloring".into(),
            }),
        }
    }
}

impl Decomposer for ColorGnn {
    fn name(&self) -> &'static str {
        "ColorGNN"
    }

    /// Algorithm 1 lines 9–13: run the network `iter` times from random
    /// initializations and keep the cheapest argmax coloring.
    ///
    /// Runs on the frozen tape-free engine under one draw from the
    /// model's stream — bit-identical to [`ColorGnn::decompose_tape`]
    /// from the same stream state, and to a batch of one.
    ///
    /// Stitch graphs are rejected with [`MpldError::Unsupported`] — merge
    /// them first (the adaptive framework routes only predicted-redundant
    /// graphs here).
    fn decompose(
        &self,
        graph: &LayoutGraph,
        params: &DecomposeParams,
        budget: &Budget,
    ) -> Result<Decomposition, MpldError> {
        let draw = self.next_draw();
        self.freeze().decompose_seeded(graph, params, budget, draw)
    }
}

impl std::fmt::Debug for ColorGnn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColorGnn")
            .field("layers", &self.lambdas.len())
            .field("restarts", &self.restarts)
            .field("sample_keep", &self.sample_keep)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> LayoutGraph {
        let edges = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        LayoutGraph::homogeneous(n, edges).unwrap()
    }

    #[test]
    fn colors_easy_graphs_after_training() {
        let train: Vec<LayoutGraph> = (4..10).map(cycle).collect();
        let refs: Vec<&LayoutGraph> = train.iter().collect();
        let mut gnn = ColorGnn::new(42);
        gnn.train(&refs, 3, &ColorGnnTrainConfig::default());
        let p = DecomposeParams::tpl();
        let mut failures = 0;
        for n in [5usize, 7, 9, 11] {
            let g = cycle(n);
            let d = gnn.decompose_unbounded(&g, &p);
            if d.cost.conflicts != 0 {
                failures += 1;
            }
        }
        assert_eq!(
            failures, 0,
            "trained ColorGNN failed {failures} easy cycles"
        );
    }

    #[test]
    fn untrained_is_still_valid() {
        let g = cycle(6);
        let gnn = ColorGnn::new(1);
        let d = gnn.decompose_unbounded(&g, &DecomposeParams::tpl());
        assert_eq!(d.coloring.len(), 6);
        assert!(d.coloring.iter().all(|&c| c < 3));
    }

    #[test]
    fn empty_graph_ok() {
        let g = LayoutGraph::homogeneous(0, vec![]).unwrap();
        let gnn = ColorGnn::new(1);
        let d = gnn.decompose_unbounded(&g, &DecomposeParams::tpl());
        assert!(d.coloring.is_empty());
    }

    #[test]
    fn rejects_stitch_graphs() {
        let g = LayoutGraph::new(vec![0, 0], vec![], vec![(0, 1)]).unwrap();
        let gnn = ColorGnn::new(1);
        let err = gnn
            .decompose(&g, &DecomposeParams::tpl(), &Budget::unlimited())
            .unwrap_err();
        assert!(matches!(err, MpldError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn training_reduces_margin_loss() {
        let train: Vec<LayoutGraph> = (4..8).map(cycle).collect();
        let refs: Vec<&LayoutGraph> = train.iter().collect();
        let mut gnn = ColorGnn::new(3);
        let first = gnn.train(
            &refs,
            3,
            &ColorGnnTrainConfig {
                epochs: 1,
                lr: 0.02,
                margin: 1.0,
                batch: 1,
            },
        );
        let last = gnn.train(
            &refs,
            3,
            &ColorGnnTrainConfig {
                epochs: 30,
                lr: 0.02,
                margin: 1.0,
                batch: 1,
            },
        );
        assert!(last <= first + 1e-3, "loss went up: {first} -> {last}");
    }

    #[test]
    fn batch_decompose_matches_quality() {
        let train: Vec<LayoutGraph> = (4..10).map(cycle).collect();
        let refs: Vec<&LayoutGraph> = train.iter().collect();
        let mut gnn = ColorGnn::new(21);
        gnn.train(&refs, 3, &ColorGnnTrainConfig::default());
        let tests: Vec<LayoutGraph> = [5usize, 6, 7, 9].iter().map(|&n| cycle(n)).collect();
        let trefs: Vec<&LayoutGraph> = tests.iter().collect();
        let results = gnn.decompose_batch(&trefs, &DecomposeParams::tpl(), &Budget::unlimited());
        assert_eq!(results.len(), tests.len());
        for (g, d) in trefs.iter().zip(&results) {
            assert_eq!(d.coloring.len(), g.num_nodes());
            assert_eq!(d.cost.conflicts, 0, "batched ColorGNN failed a cycle");
        }
    }

    #[test]
    fn lambda_values_exposed() {
        let gnn = ColorGnn::new(0);
        let ls = gnn.lambda_values();
        assert_eq!(ls.len(), 10);
        assert!(ls.iter().all(|&(c, a)| c == 1.0 && a == -0.4));
    }
}
