//! Tape-free frozen inference engines.
//!
//! [`RgcnClassifier`](crate::RgcnClassifier) and
//! [`ColorGnn`](crate::ColorGnn) record every forward pass on an autodiff
//! tape — the right thing during training, pure overhead at inference:
//! per-op output allocation, per-call re-folding of the basis
//! decomposition `W_e = Σ_b δ_eb V_b`, and feature-matrix copies. The
//! frozen twins here are compiled once from a trained model
//! ([`RgcnClassifier::freeze`](crate::RgcnClassifier::freeze) /
//! [`ColorGnn::freeze`](crate::ColorGnn::freeze)) and run the same
//! arithmetic through [`mpld_tensor::infer`]'s scratch-buffer primitives:
//! weights are folded at freeze time, buffers come from a reusable pool
//! (zero heap allocation per unit after warmup), and routing inference
//! over a layout's units runs as one block-diagonal mega-forward.
//!
//! Bit-identity: every primitive reproduces its tape op's accumulation
//! order and dispatches to the same GEMM microkernel, so on any given
//! batch the frozen outputs equal the tape outputs to the last bit.
//! That identity is per batch, not per graph: a graph's bits depend on
//! its row offset within the batch, because the wide GEMM rounds rows in
//! full 4-row tiles with FMA and ragged leftover rows without it. A
//! 963-graph batch of the default graph library differed from the
//! per-graph tape in 962 graphs (at most 3.5e-7 relative), while one
//! frozen forward per graph matched it bit for bit on all 963. Compare
//! outputs across batches only from single-graph forwards.
//! The tape path stays as the training engine and correctness oracle —
//! `tests/frozen_equivalence.rs` property-tests the equivalence.
//!
//! ColorGNN has no batch forward: [`FrozenColorGnn::decompose_seeded`]
//! samples one graph on its own restart stream, derived from a caller's
//! `u64` draw and the graph's structural fingerprint. A coloring is
//! therefore a pure function of (graph, draw): identical graphs are
//! sampled once, distinct graphs can run on any thread in any order, and
//! a batch returns for each graph what that graph would get alone.

use crate::encoding::InferBatch;
use crate::rgcn::Readout;
use mpld_graph::{
    graph_fingerprint, graphs_identical, splitmix64, Budget, Certainty, DecomposeParams,
    Decomposition, LayoutGraph, MpldError,
};
use mpld_tensor::infer::{
    add_assign_slice, add_row_in_place, gemm_into, relu_in_place, row_l2_normalize_in_place,
    segment_max_into, segment_sum_into, softmax_rows_in_place, spmm_into, Csr, Scratch,
    ScratchPool,
};
use mpld_tensor::{Matrix, Precision};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// One frozen RGCN layer: per-edge-type weights with the basis
/// decomposition already folded, plus the self-connection weight.
#[derive(Debug, Clone)]
pub(crate) struct FrozenLayer {
    /// `[conflict, stitch]` folded `W_e` (din x dout).
    pub(crate) w_edge: [Matrix; 2],
    /// Self-connection weight (din x dout).
    pub(crate) w_self: Matrix,
}

/// Everything a routing pass needs from one forward, computed in a
/// single traversal of the batch (the tape path needs two: one for
/// probabilities, one for embeddings).
#[derive(Debug, Clone, Default)]
pub struct FrozenOutputs {
    /// Per-graph class probabilities.
    pub probs: Vec<Vec<f32>>,
    /// Per-graph pooled embeddings (`D` floats each).
    pub graph_embeddings: Vec<Vec<f32>>,
    /// Per-graph node-embedding matrices (`n_g x D`), present only when
    /// requested via [`FrozenRgcn::infer_encoded`].
    pub node_embeddings: Vec<Matrix>,
}

/// A tape-free RGCN classifier compiled by
/// [`RgcnClassifier::freeze`](crate::RgcnClassifier::freeze).
#[derive(Debug)]
pub struct FrozenRgcn {
    layers: Vec<FrozenLayer>,
    /// MLP head (weight, bias) pairs.
    head: Vec<(Matrix, Matrix)>,
    readout: Readout,
    pool: ScratchPool,
}

impl FrozenRgcn {
    pub(crate) fn from_parts(
        layers: Vec<FrozenLayer>,
        head: Vec<(Matrix, Matrix)>,
        readout: Readout,
    ) -> Self {
        assert!(!layers.is_empty(), "frozen model needs at least one layer");
        assert!(!head.is_empty(), "frozen model needs a head");
        FrozenRgcn {
            layers,
            head,
            readout,
            pool: ScratchPool::new(),
        }
    }

    /// Embedding width.
    pub fn embedding_dim(&self) -> usize {
        #[allow(clippy::expect_used)] // non-empty, checked at construction
        self.layers.last().expect("layers nonempty").w_self.cols()
    }

    /// The backbone over a (block-diagonal) batch; returns the checked
    /// out `n x D` node-embedding buffer, which the caller must `put`
    /// back.
    fn backbone_into(&self, enc: &InferBatch, s: &mut Scratch) -> Vec<f32> {
        let n = enc.num_nodes();
        let mut owned: Option<Vec<f32>> = None;
        for layer in &self.layers {
            let (din, dout) = (layer.w_self.rows(), layer.w_self.cols());
            let h: &[f32] = owned.as_deref().unwrap_or(&enc.features);
            let mut agg = s.take_dirty(n * din);
            let mut sum = s.take_dirty(n * dout);
            let mut tmp = s.take_dirty(n * dout);
            // Same accumulation order as the tape backbone:
            // (msg_conflict + msg_stitch) + own, then ReLU.
            spmm_into(&enc.conflict, h, din, &mut agg);
            gemm_into(n, din, dout, &agg, layer.w_edge[0].as_slice(), &mut sum);
            spmm_into(&enc.stitch, h, din, &mut agg);
            gemm_into(n, din, dout, &agg, layer.w_edge[1].as_slice(), &mut tmp);
            add_assign_slice(&mut sum, &tmp);
            gemm_into(n, din, dout, h, layer.w_self.as_slice(), &mut tmp);
            add_assign_slice(&mut sum, &tmp);
            relu_in_place(&mut sum);
            s.put(agg);
            s.put(tmp);
            if let Some(prev) = owned.take() {
                s.put(prev);
            }
            owned = Some(sum);
        }
        #[allow(clippy::expect_used)] // at least one layer, checked at construction
        owned.expect("at least one layer")
    }

    fn run(&self, enc: &InferBatch, want_nodes: bool) -> FrozenOutputs {
        let k = enc.num_graphs();
        if k == 0 {
            return FrozenOutputs::default();
        }
        let d = self.embedding_dim();
        self.pool.with(|s| {
            let nodes = self.backbone_into(enc, s);
            let mut pooled = s.take_dirty(k * d);
            match self.readout {
                Readout::Sum => segment_sum_into(&nodes, d, &enc.segment, k, &mut pooled),
                Readout::Max => segment_max_into(&nodes, d, &enc.segment, k, &mut pooled),
            }
            let graph_embeddings: Vec<Vec<f32>> =
                pooled.chunks_exact(d).map(<[f32]>::to_vec).collect();
            let node_embeddings = if want_nodes {
                (0..k)
                    .map(|i| {
                        let (lo, hi) = (enc.offsets[i], enc.offsets[i + 1]);
                        Matrix::from_vec(hi - lo, d, nodes[lo * d..hi * d].to_vec())
                    })
                    .collect()
            } else {
                Vec::new()
            };
            s.put(nodes);

            // MLP head, then row softmax — same op order as the tape.
            let mut x = pooled;
            let mut cols = d;
            let n_layers = self.head.len();
            for (i, (w, b)) in self.head.iter().enumerate() {
                let (din, dout) = (w.rows(), w.cols());
                debug_assert_eq!(din, cols, "head dims chain");
                let mut y = s.take_dirty(k * dout);
                gemm_into(k, din, dout, &x, w.as_slice(), &mut y);
                add_row_in_place(&mut y, dout, b.as_slice());
                if i + 1 < n_layers {
                    relu_in_place(&mut y);
                }
                s.put(x);
                x = y;
                cols = dout;
            }
            softmax_rows_in_place(&mut x, cols);
            let probs: Vec<Vec<f32>> = x.chunks_exact(cols).map(<[f32]>::to_vec).collect();
            s.put(x);
            FrozenOutputs {
                probs,
                graph_embeddings,
                node_embeddings,
            }
        })
    }

    /// Full routing outputs (probabilities + graph + node embeddings)
    /// for an already-encoded batch, in one traversal.
    pub fn infer_encoded(&self, enc: &InferBatch) -> FrozenOutputs {
        self.run(enc, true)
    }

    /// Probabilities and graph embeddings only (skips materializing
    /// per-graph node matrices).
    pub fn predict_encoded(&self, enc: &InferBatch) -> FrozenOutputs {
        self.run(enc, false)
    }

    /// [`Self::infer_encoded`]. [`Precision`] has the one value `F32`;
    /// this entry point stays because `perfbench`'s harness replays
    /// routing through it.
    pub fn infer_encoded_with(&self, enc: &InferBatch, _precision: Precision) -> FrozenOutputs {
        self.infer_encoded(enc)
    }

    /// [`Self::predict_encoded`]; kept for the same reason as
    /// [`Self::infer_encoded_with`].
    pub fn predict_encoded_with(&self, enc: &InferBatch, _precision: Precision) -> FrozenOutputs {
        self.predict_encoded(enc)
    }

    /// Class probabilities for a batch of graphs — the tape-free twin of
    /// [`RgcnClassifier::predict_batch`](crate::RgcnClassifier::predict_batch).
    ///
    /// # Panics
    ///
    /// Panics if any graph is empty.
    pub fn predict_batch(&self, graphs: &[&LayoutGraph]) -> Vec<Vec<f32>> {
        if graphs.is_empty() {
            return Vec::new();
        }
        self.run(&InferBatch::new(graphs), false).probs
    }

    /// Class probabilities for one graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn predict(&self, graph: &LayoutGraph) -> Vec<f32> {
        let mut out = self.run(&InferBatch::single(graph), false);
        out.probs.swap_remove(0)
    }

    /// The pooled graph embedding (`D` floats).
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn graph_embedding(&self, graph: &LayoutGraph) -> Vec<f32> {
        let mut out = self.run(&InferBatch::single(graph), false);
        out.graph_embeddings.swap_remove(0)
    }

    /// Final-layer node embeddings (`n x D`).
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn node_embeddings(&self, graph: &LayoutGraph) -> Matrix {
        let mut out = self.run(&InferBatch::single(graph), true);
        out.node_embeddings.swap_remove(0)
    }
}

/// A tape-free ColorGNN compiled by
/// [`ColorGnn::freeze`](crate::ColorGnn::freeze): the per-layer
/// `(lambda_C, lambda_A)` scalars read out of the parameter set once.
///
/// A coloring is a pure function of the graph and one `u64` draw:
/// [`FrozenColorGnn::decompose_seeded`] gives each graph its own restart
/// stream, seeded from the draw and the graph's
/// [`graph_fingerprint`], and draws from it in exactly the tape path's
/// order (beliefs first, then per-layer neighbor sampling), so it
/// reproduces [`ColorGnn::decompose_tape`](crate::ColorGnn::decompose_tape)
/// bit for bit from the same draw.
#[derive(Debug)]
pub struct FrozenColorGnn {
    lambdas: Vec<(f32, f32)>,
    restarts: usize,
    sample_keep: f64,
    pool: ScratchPool,
}

/// The restart stream of `graph` under `draw`: a SplitMix derivation of
/// the draw and the graph's structural fingerprint, so identical graphs
/// sample identically and distinct graphs sample independently.
pub(crate) fn graph_stream(graph: &LayoutGraph, draw: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(draw ^ graph_fingerprint(graph)))
}

impl FrozenColorGnn {
    pub(crate) fn from_parts(lambdas: Vec<(f32, f32)>, restarts: usize, sample_keep: f64) -> Self {
        assert!(!lambdas.is_empty(), "at least one layer");
        assert!(restarts > 0, "at least one restart");
        FrozenColorGnn {
            lambdas,
            restarts,
            sample_keep,
            pool: ScratchPool::new(),
        }
    }

    /// Rebuilds `csr` as a sampled conflict adjacency, drawing from the
    /// RNG in exactly the order of the tape path's `sampled_adjacency`.
    fn sampled_csr_into(
        &self,
        graph: &LayoutGraph,
        rng: &mut SmallRng,
        kept: &mut Vec<u32>,
        csr: &mut Csr,
    ) {
        csr.clear();
        for v in 0..graph.num_nodes() as u32 {
            let ns = graph.conflict_neighbors(v);
            if self.sample_keep >= 1.0 || ns.len() <= 1 {
                csr.push_row(ns.iter().copied());
                continue;
            }
            kept.clear();
            kept.extend(
                ns.iter()
                    .copied()
                    .filter(|_| rng.gen_bool(self.sample_keep)),
            );
            if kept.is_empty() {
                csr.push_row(std::iter::once(ns[rng.gen_range(0..ns.len())]));
            } else {
                csr.push_row(kept.iter().copied());
            }
        }
    }

    /// Fills `x` (`n x k` row-major) with the tape path's random belief
    /// initialization (same draw order, same normalization).
    fn random_beliefs_into(x: &mut [f32], k: usize, rng: &mut SmallRng) {
        for row in x.chunks_exact_mut(k) {
            let mut sum = 0.0;
            for v in row.iter_mut() {
                let r: f32 = rng.gen_range(0.05..1.0);
                *v = r;
                sum += r;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// One full forward from a fresh random initialization; returns the
    /// checked-out `n x k` belief buffer (caller must `put` it back).
    fn beliefs_into(
        &self,
        graph: &LayoutGraph,
        k: usize,
        rng: &mut SmallRng,
        s: &mut Scratch,
        csr: &mut Csr,
        kept: &mut Vec<u32>,
    ) -> Vec<f32> {
        let n = graph.num_nodes();
        let mut x = s.take(n * k);
        Self::random_beliefs_into(&mut x, k, rng);
        let mut m = s.take(n * k);
        for &(lc, la) in &self.lambdas {
            self.sampled_csr_into(graph, rng, kept, csr);
            spmm_into(csr, &x, k, &mut m);
            // Same three roundings as the tape: own = x*lc, msg = m*la,
            // mixed = own + msg.
            for (mv, &xv) in m.iter_mut().zip(x.iter()) {
                let own = xv * lc;
                let msg = *mv * la;
                *mv = own + msg;
            }
            row_l2_normalize_in_place(&mut m, k);
            std::mem::swap(&mut x, &mut m);
        }
        s.put(m);
        x
    }

    /// The tape path's argmax coloring of one belief row.
    fn argmax_row(row: &[f32]) -> u8 {
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(c, _)| c as u8)
    }

    /// Decomposes every graph of `graphs` with
    /// [`FrozenColorGnn::decompose_seeded`] under one draw, the next
    /// `u64` of `rng` (taken once per call, even for an empty batch).
    /// Each distinct graph is sampled once and its duplicates get copies,
    /// so a graph's coloring does not depend on the rest of the batch.
    ///
    /// # Panics
    ///
    /// Panics if any graph contains stitch edges.
    pub fn decompose_batch_with_rng(
        &self,
        graphs: &[&LayoutGraph],
        params: &DecomposeParams,
        budget: &Budget,
        rng: &mut SmallRng,
    ) -> Vec<Decomposition> {
        assert!(
            graphs.iter().all(|g| !g.has_stitches()),
            "ColorGNN handles non-stitch graphs only"
        );
        let draw = rng.next_u64();
        let mut sampled: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut out: Vec<Decomposition> = Vec::with_capacity(graphs.len());
        for (i, &g) in graphs.iter().enumerate() {
            let same = sampled.entry(graph_fingerprint(g)).or_default();
            if let Some(&j) = same.iter().find(|&&j| graphs_identical(graphs[j], g)) {
                out.push(out[j].clone());
                continue;
            }
            same.push(i);
            #[allow(clippy::expect_used)] // no stitches, and restarts > 0
            out.push(
                self.decompose_seeded(g, params, budget, draw)
                    .expect("a non-stitch graph always gets a coloring"),
            );
        }
        out
    }

    /// Algorithm 1 on one graph: up to `restarts` forwards from random
    /// initializations on `graph`'s own stream, seeded from
    /// `splitmix64(draw ^ graph_fingerprint(graph))`, keeping the
    /// cheapest argmax coloring and stopping at the first conflict-free
    /// one. The first restart always runs; later ones are skipped once
    /// `budget` is exhausted, and the result is then tagged
    /// [`Certainty::BudgetExhausted`].
    ///
    /// # Errors
    ///
    /// [`MpldError::Unsupported`] for stitch graphs; [`MpldError::Infeasible`]
    /// when no restart yields a coloring.
    pub fn decompose_seeded(
        &self,
        graph: &LayoutGraph,
        params: &DecomposeParams,
        budget: &Budget,
        draw: u64,
    ) -> Result<Decomposition, MpldError> {
        if graph.has_stitches() {
            return Err(MpldError::Unsupported {
                engine: "ColorGNN",
                reason: "ColorGNN handles non-stitch graphs only; merge stitch edges first".into(),
            });
        }
        let n = graph.num_nodes();
        if n == 0 {
            return Decomposition::try_from_coloring(graph, Vec::new(), params.alpha);
        }
        let mut rng = graph_stream(graph, draw);
        let mut cut = false;
        let mut best: Option<Decomposition> = None;
        // One arena for the whole call: the restart loop reuses it
        // without touching the pool mutex between restarts.
        let mut arena = self.pool.lease();
        let mut csr = Csr::default();
        let mut kept: Vec<u32> = Vec::new();
        let kc = params.k as usize;
        for round in 0..self.restarts {
            if round > 0 && budget.exhausted() {
                cut = true;
                break;
            }
            #[cfg(feature = "failpoints")]
            mpld_graph::failpoints::tick("colorgnn.restart");
            let coloring = {
                let s = &mut *arena;
                let b = self.beliefs_into(graph, kc, &mut rng, s, &mut csr, &mut kept);
                let coloring: Vec<u8> = (0..n)
                    .map(|r| Self::argmax_row(&b[r * kc..(r + 1) * kc]))
                    .collect();
                s.put(b);
                coloring
            };
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
                engine: "ColorGNN",
                reason: "no restart produced a coloring".into(),
            }),
        }
    }
}
