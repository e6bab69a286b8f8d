//! Relational graph convolutional network (RGCN) graph classifier.
//!
//! Implements Eq. (6) of the paper with per-edge-type weights obtained by
//! basis decomposition (Eq. 7), plus a readout ([`Readout::Sum`] for
//! decomposer selection, [`Readout::Max`] for stitch-redundancy
//! prediction) and an MLP head trained with cross-entropy.
//!
//! The message-passing update per layer is
//! `H' = ReLU( sum_e A_e H W_e + H W_self )` where `A_e` is the edge-type
//! adjacency and `W_e = sum_b delta_{e,b} V_b`. The self term carries its
//! own weight so layer dimensions can grow (1 → 32 → 64), matching the
//! standard RGCN formulation the paper builds on.

use crate::GraphEncoding;
use mpld_graph::LayoutGraph;
use mpld_tensor::{Graph, Matrix, Optimizer, ParamId, ParamSet, VarId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Node-invariant graph readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readout {
    /// Sum of node embeddings — sensitive to graph size; the paper uses it
    /// for decomposer selection.
    Sum,
    /// Column-wise max — sensitive to subgraph structure; the paper uses
    /// it for stitch-redundancy prediction.
    Max,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient-accumulation batch size.
    pub batch: usize,
    /// Oversample the minority class so both classes carry equal weight.
    /// Essential for decomposer selection, where ILP-labeled graphs are a
    /// few percent of the data but missing one costs optimality.
    pub balance: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            lr: 0.01,
            batch: 16,
            balance: true,
        }
    }
}

/// Oversamples the minority class (by duplicating references) so the two
/// classes have roughly equal counts. Returns the input order interleaved
/// deterministically.
pub(crate) fn balance_classes<'a>(data: &[(&'a LayoutGraph, u8)]) -> Vec<(&'a LayoutGraph, u8)> {
    let n1 = data.iter().filter(|(_, l)| *l == 1).count();
    let n0 = data.len() - n1;
    if n0 == 0 || n1 == 0 || n0 == n1 {
        return data.to_vec();
    }
    // Cap the duplication factor: with extreme imbalance (a handful of
    // ILP-labeled graphs among thousands), full balancing makes the few
    // minority graphs dominate every batch and the network collapses to
    // constant output (observed: dead embeddings, majority-class flips).
    let (minority, factor) = if n0 < n1 {
        (0u8, (n1 / n0.max(1)).min(10))
    } else {
        (1u8, (n0 / n1.max(1)).min(10))
    };
    let mut out = Vec::with_capacity(data.len() * 2);
    for &(g, l) in data {
        out.push((g, l));
        if l == minority {
            for _ in 1..factor.max(1) {
                out.push((g, l));
            }
        }
    }
    out
}

struct Layer {
    /// `B` basis matrices `V_b` (din x dout).
    bases: Vec<ParamId>,
    /// Coefficients `delta_{e,b}`, edge-major: `[conflict x B, stitch x B]`.
    delta: Vec<ParamId>,
    /// Self-connection weight (din x dout).
    w_self: ParamId,
}

/// The RGCN classifier (see module docs).
pub struct RgcnClassifier {
    params: ParamSet,
    layers: Vec<Layer>,
    /// MLP head weight/bias pairs.
    head: Vec<(ParamId, ParamId)>,
    readout: Readout,
    dims: Vec<usize>,
    num_bases: usize,
    seed: u64,
}

impl RgcnClassifier {
    /// Builds an untrained model.
    ///
    /// `dims` are layer widths from input to embedding (the paper uses
    /// `[1, 32, 64]`); `head_dims` continue from the embedding to the
    /// class count (e.g. `[64, 2]` for a linear selector head or
    /// `[64, 32, 2]` for the redundancy MLP).
    ///
    /// # Panics
    ///
    /// Panics if `dims` has fewer than 2 entries, `head_dims` does not
    /// start at the embedding width, or `num_bases == 0`.
    pub fn new(
        dims: &[usize],
        num_bases: usize,
        readout: Readout,
        head_dims: &[usize],
        seed: u64,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least one GNN layer");
        assert!(num_bases > 0, "at least one basis");
        assert_eq!(
            head_dims.first(),
            dims.last(),
            "head must start at the embedding dimension"
        );
        assert!(head_dims.len() >= 2, "head needs an output layer");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut params = ParamSet::new(Optimizer::Adam);
        let mut layers = Vec::new();
        for w in dims.windows(2) {
            let (din, dout) = (w[0], w[1]);
            let bases = (0..num_bases)
                .map(|_| params.add(Matrix::glorot(din, dout, &mut rng)))
                .collect();
            let delta = (0..2 * num_bases)
                .map(|_| params.add(Matrix::from_vec(1, 1, vec![1.0 / num_bases as f32])))
                .collect();
            let w_self = params.add(Matrix::glorot(din, dout, &mut rng));
            layers.push(Layer {
                bases,
                delta,
                w_self,
            });
        }
        let head = head_dims
            .windows(2)
            .map(|w| {
                let weight = params.add(Matrix::glorot(w[0], w[1], &mut rng));
                let bias = params.add(Matrix::zeros(1, w[1]));
                (weight, bias)
            })
            .collect();
        RgcnClassifier {
            params,
            layers,
            head,
            readout,
            dims: dims.to_vec(),
            num_bases,
            seed,
        }
    }

    /// The paper's selector model: 2 layers `[1, 32, 64]`, sum readout,
    /// linear head to 2 classes.
    pub fn selector(seed: u64) -> Self {
        Self::new(&[1, 32, 64], 2, Readout::Sum, &[64, 2], seed)
    }

    /// The paper's stitch-redundancy model `RGCN_r`: same backbone,
    /// max-pooling readout, MLP head.
    pub fn redundancy(seed: u64) -> Self {
        Self::new(&[1, 32, 64], 2, Readout::Max, &[64, 32, 2], seed)
    }

    /// Embedding width.
    pub fn embedding_dim(&self) -> usize {
        #[allow(clippy::expect_used)] // dims is validated non-empty at construction
        {
            *self.dims.last().expect("dims nonempty")
        }
    }

    /// Total trainable scalars.
    pub fn num_weights(&self) -> usize {
        self.params.num_weights()
    }

    /// Serializes the trained weights (not the architecture — reconstruct
    /// the model with the same constructor before loading).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_weights<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        self.params.write_values(writer)
    }

    /// Restores weights written by [`RgcnClassifier::save_weights`] into a
    /// model of identical architecture.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the architectures differ.
    pub fn load_weights<R: std::io::Read>(&mut self, reader: R) -> std::io::Result<()> {
        self.params.read_values(reader)
    }

    /// Compiles the current weights into a tape-free inference engine.
    ///
    /// The per-layer basis decomposition `W_e = Σ_b δ_eb V_b` is folded
    /// once, with the exact scale-then-accumulate order the tape uses on
    /// every forward pass — so the folded weights, and hence every frozen
    /// output, are bit-identical to the tape path. The result snapshots
    /// the weights: retrain or mutate the classifier and freeze again.
    pub fn freeze(&self) -> crate::FrozenRgcn {
        let layers = self
            .layers
            .iter()
            .map(|layer| {
                let w_edge = [0usize, 1].map(|e| {
                    let mut acc: Option<Matrix> = None;
                    for (b, &v_b) in layer.bases.iter().enumerate() {
                        let d = self
                            .params
                            .value(layer.delta[e * self.num_bases + b])
                            .scalar();
                        let scaled = self.params.value(v_b).scaled(d);
                        match &mut acc {
                            None => acc = Some(scaled),
                            Some(a) => a.add_assign(&scaled),
                        }
                    }
                    #[allow(clippy::expect_used)] // num_bases >= 1 at construction
                    acc.expect("at least one basis")
                });
                crate::frozen::FrozenLayer {
                    w_edge,
                    w_self: self.params.value(layer.w_self).clone(),
                }
            })
            .collect();
        let head = self
            .head
            .iter()
            .map(|&(w, b)| (self.params.value(w).clone(), self.params.value(b).clone()))
            .collect();
        crate::FrozenRgcn::from_parts(layers, head, self.readout)
    }

    /// Runs the backbone with a caller-supplied parameter binder,
    /// returning the node-embedding var (`n x D`).
    ///
    /// Training passes a binder that records bindings in a (mutably held)
    /// parameter set; inference passes [`ParamSet::bind_frozen`] so the
    /// whole forward pass is `&self` and shareable across threads.
    fn backbone_raw(
        &self,
        g: &mut Graph,
        features: std::sync::Arc<Matrix>,
        adjacencies: [std::sync::Arc<mpld_tensor::Adjacency>; 2],
        bind: &mut dyn FnMut(&mut Graph, ParamId) -> VarId,
    ) -> VarId {
        // Shared input: the encoding keeps owning the feature matrix, so
        // no per-forward clone of the data is made.
        let mut h = g.input_shared(features);
        for li in 0..self.layers.len() {
            // Materialize W_e = sum_b delta_eb V_b per edge type.
            let base_vars: Vec<VarId> = (0..self.num_bases)
                .map(|b| {
                    let pid = self.layers[li].bases[b];
                    bind(g, pid)
                })
                .collect();
            let mut sum: Option<VarId> = None;
            for (e, adj) in adjacencies.iter().enumerate() {
                let mut w_e: Option<VarId> = None;
                for (b, &v_b) in base_vars.iter().enumerate() {
                    let d_pid = self.layers[li].delta[e * self.num_bases + b];
                    let d = bind(g, d_pid);
                    let scaled = g.scale_by_scalar(v_b, d);
                    w_e = Some(match w_e {
                        None => scaled,
                        Some(acc) => g.add(acc, scaled),
                    });
                }
                #[allow(clippy::expect_used)] // num_bases >= 1 is validated at construction
                let w_e = w_e.expect("at least one basis");
                let agg = g.agg_sum(h, adj.clone());
                let msg = g.matmul(agg, w_e);
                sum = Some(match sum {
                    None => msg,
                    Some(acc) => g.add(acc, msg),
                });
            }
            let w_self = bind(g, self.layers[li].w_self);
            let own = g.matmul(h, w_self);
            #[allow(clippy::expect_used)] // the edge-type loop always runs at least once
            let total = g.add(sum.expect("two edge types"), own);
            h = g.relu(total);
        }
        h
    }

    /// Inference-path backbone over one encoded graph (frozen binds).
    /// `enc.features.clone()` below is an `Arc` bump, not a data copy.
    fn backbone_frozen(&self, g: &mut Graph, enc: &GraphEncoding) -> VarId {
        self.backbone_raw(
            g,
            enc.features.clone(),
            [enc.conflict.clone(), enc.stitch.clone()],
            &mut |g, pid| self.params.bind_frozen(g, pid),
        )
    }

    fn readout(&self, g: &mut Graph, node_emb: VarId) -> VarId {
        match self.readout {
            Readout::Sum => g.sum_rows(node_emb),
            Readout::Max => g.max_rows(node_emb),
        }
    }

    fn head_raw(
        &self,
        g: &mut Graph,
        mut x: VarId,
        bind: &mut dyn FnMut(&mut Graph, ParamId) -> VarId,
    ) -> VarId {
        let n_layers = self.head.len();
        for (i, &(w, b)) in self.head.iter().enumerate() {
            let wv = bind(g, w);
            let bv = bind(g, b);
            let lin = g.matmul(x, wv);
            x = g.add_row(lin, bv);
            if i + 1 < n_layers {
                x = g.relu(x);
            }
        }
        x
    }

    /// Inference-path head (frozen binds).
    fn head_frozen(&self, g: &mut Graph, x: VarId) -> VarId {
        self.head_raw(g, x, &mut |g, pid| self.params.bind_frozen(g, pid))
    }

    /// Trains on `(graph, label)` pairs with cross-entropy. Returns the
    /// mean loss of the final epoch.
    pub fn train(&mut self, data: &[(&LayoutGraph, u8)], cfg: &TrainConfig) -> f32 {
        self.train_impl(data, cfg, true)
    }

    /// Reference trainer with a freshly allocated tape per step (no buffer
    /// pooling). The arithmetic is identical to [`RgcnClassifier::train`];
    /// this is the baseline side of the training bench and the bit-identity
    /// oracle for the pooled path.
    #[doc(hidden)]
    pub fn train_reference(&mut self, data: &[(&LayoutGraph, u8)], cfg: &TrainConfig) -> f32 {
        self.train_impl(data, cfg, false)
    }

    fn train_impl(&mut self, data: &[(&LayoutGraph, u8)], cfg: &TrainConfig, pooled: bool) -> f32 {
        assert!(!data.is_empty(), "training set must not be empty");
        let mut data = if cfg.balance {
            crate::rgcn::balance_classes(data)
        } else {
            data.to_vec()
        };
        // Shuffle so minibatches mix classes: balanced duplicates would
        // otherwise cluster into same-class runs and per-batch steps would
        // oscillate without net progress (observed as a frozen loss).
        use rand::seq::SliceRandom;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x5u64);
        data.shuffle(&mut rng);
        // Minibatches run as one tape over the disjoint union with a
        // segment readout — the paper's batched execution, which is also
        // several times faster than per-graph tapes on CPU.
        let batches: Vec<(crate::BatchEncoding, Arc<Vec<u8>>)> = data
            .chunks(cfg.batch.max(1))
            .map(|chunk| {
                let graphs: Vec<&LayoutGraph> = chunk.iter().map(|(g, _)| *g).collect();
                let labels: Vec<u8> = chunk.iter().map(|(_, l)| *l).collect();
                (crate::BatchEncoding::new(&graphs), Arc::new(labels))
            })
            .collect();
        // Take the parameter set out of `self` once for the whole run so
        // the shared backbone/head builders (which borrow `&self`) can
        // bind into it mutably.
        let mut params = std::mem::replace(&mut self.params, ParamSet::new(Optimizer::Adam));
        // One tape serves every step: `reset` recycles the op arena,
        // value/grad buffers, and index vectors into the tape's scratch
        // pool, so steady-state training does no heap allocation.
        let mut g = Graph::new();
        let mut last_epoch_loss = 0.0;
        for _epoch in 0..cfg.epochs {
            last_epoch_loss = 0.0;
            for (enc, labels) in &batches {
                if pooled {
                    g.reset();
                } else {
                    g = Graph::new();
                }
                let node_emb = self.backbone_raw(
                    &mut g,
                    enc.features.clone(),
                    [enc.conflict.clone(), enc.stitch.clone()],
                    &mut |g, pid| params.bind(g, pid),
                );
                let pooled = match self.readout {
                    Readout::Sum => g.segment_sum(node_emb, enc.segment.clone(), labels.len()),
                    Readout::Max => g.segment_max(node_emb, &enc.segment, labels.len()),
                };
                let logits = self.head_raw(&mut g, pooled, &mut |g, pid| params.bind(g, pid));
                let loss = g.softmax_cross_entropy(logits, Arc::clone(labels));
                last_epoch_loss += g.value(loss).scalar() * labels.len() as f32;
                g.backward(loss);
                params.apply_grads(&g);
                params.step(cfg.lr);
            }
            last_epoch_loss /= data.len() as f32;
        }
        self.params = params;
        last_epoch_loss
    }

    /// Class probabilities for a batch of graphs, computed in one pass
    /// over their disjoint union (the paper's batched inference).
    ///
    /// # Panics
    ///
    /// Panics if any graph is empty.
    pub fn predict_batch(&self, graphs: &[&LayoutGraph]) -> Vec<Vec<f32>> {
        if graphs.is_empty() {
            return Vec::new();
        }
        let enc = crate::BatchEncoding::new(graphs);
        let mut g = Graph::new();
        let node_emb = self.backbone_raw(
            &mut g,
            enc.features.clone(),
            [enc.conflict.clone(), enc.stitch.clone()],
            &mut |g, pid| self.params.bind_frozen(g, pid),
        );
        let pooled = match self.readout {
            Readout::Sum => g.segment_sum(node_emb, enc.segment.clone(), graphs.len()),
            Readout::Max => g.segment_max(node_emb, &enc.segment, graphs.len()),
        };
        let logits = self.head_frozen(&mut g, pooled);
        let probs = g.softmax_values(logits);
        (0..graphs.len()).map(|i| probs.row(i).to_vec()).collect()
    }

    /// Graph and node embeddings for a batch of graphs in one pass.
    /// Returns one `(graph_embedding, node_embeddings)` pair per graph.
    ///
    /// The frozen engine reproduces this batch bit for bit, but a graph's
    /// bits here depend on its row offset within the batch (full 4-row
    /// FMA tiles versus ragged rows in the wide GEMM), so they may
    /// differ in the last bits from [`Self::graph_embedding`] and
    /// [`Self::node_embeddings`] on the graph alone: 962 of the default
    /// library's 963 graphs did as one batch. Compare outputs across
    /// batches only from single-graph forwards.
    ///
    /// # Panics
    ///
    /// Panics if any graph is empty.
    pub fn embeddings_batch(&self, graphs: &[&LayoutGraph]) -> Vec<(Vec<f32>, Matrix)> {
        if graphs.is_empty() {
            return Vec::new();
        }
        let enc = crate::BatchEncoding::new(graphs);
        let mut g = Graph::new();
        let node_emb = self.backbone_raw(
            &mut g,
            enc.features.clone(),
            [enc.conflict.clone(), enc.stitch.clone()],
            &mut |g, pid| self.params.bind_frozen(g, pid),
        );
        let pooled = match self.readout {
            Readout::Sum => g.segment_sum(node_emb, enc.segment.clone(), graphs.len()),
            Readout::Max => g.segment_max(node_emb, &enc.segment, graphs.len()),
        };
        let nodes = g.value(node_emb);
        let pools = g.value(pooled);
        let cols = nodes.cols();
        (0..graphs.len())
            .map(|i| {
                // Each graph's node block is a contiguous row range of the
                // batched matrix: carve it in one slice copy instead of a
                // zeroed intermediate plus element-wise writes.
                let (lo, hi) = (enc.offsets[i], enc.offsets[i + 1]);
                let m = Matrix::from_vec(
                    hi - lo,
                    cols,
                    nodes.as_slice()[lo * cols..hi * cols].to_vec(),
                );
                (pools.row(i).to_vec(), m)
            })
            .collect()
    }

    /// Class probabilities for one graph.
    pub fn predict(&self, graph: &LayoutGraph) -> Vec<f32> {
        let enc = GraphEncoding::new(graph);
        let mut g = Graph::new();
        let node_emb = self.backbone_frozen(&mut g, &enc);
        let pooled = self.readout(&mut g, node_emb);
        let logits = self.head_frozen(&mut g, pooled);
        let probs = g.softmax_values(logits);
        probs.row(0).to_vec()
    }

    /// The graph embedding (readout of the final layer), `D` floats.
    pub fn graph_embedding(&self, graph: &LayoutGraph) -> Vec<f32> {
        let enc = GraphEncoding::new(graph);
        let mut g = Graph::new();
        let node_emb = self.backbone_frozen(&mut g, &enc);
        let pooled = self.readout(&mut g, node_emb);
        g.value(pooled).row(0).to_vec()
    }

    /// Node embeddings (`n x D`) of the final layer.
    pub fn node_embeddings(&self, graph: &LayoutGraph) -> Matrix {
        let enc = GraphEncoding::new(graph);
        let mut g = Graph::new();
        let node_emb = self.backbone_frozen(&mut g, &enc);
        g.value(node_emb).clone()
    }
}

impl std::fmt::Debug for RgcnClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RgcnClassifier")
            .field("dims", &self.dims)
            .field("num_bases", &self.num_bases)
            .field("readout", &self.readout)
            .field("weights", &self.params.num_weights())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(n: usize) -> LayoutGraph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        LayoutGraph::homogeneous(n, edges).unwrap()
    }

    fn sparse_path(n: usize) -> LayoutGraph {
        let edges = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        LayoutGraph::homogeneous(n, edges).unwrap()
    }

    #[test]
    fn learns_dense_vs_sparse() {
        // A sanity-level learnable task: dense cliques (label 0) vs paths
        // (label 1).
        let graphs: Vec<(LayoutGraph, u8)> = (4..9)
            .flat_map(|n| [(dense(n), 0u8), (sparse_path(n), 1u8)])
            .collect();
        let data: Vec<(&LayoutGraph, u8)> = graphs.iter().map(|(g, l)| (g, *l)).collect();
        let mut model = RgcnClassifier::selector(1);
        model.train(
            &data,
            &TrainConfig {
                epochs: 60,
                lr: 0.01,
                batch: 4,
                balance: true,
            },
        );
        let mut correct = 0;
        for (g, l) in &data {
            let p = model.predict(g);
            if (p[1] > 0.5) == (*l == 1) {
                correct += 1;
            }
        }
        assert!(
            correct >= data.len() - 1,
            "only {correct}/{} correct",
            data.len()
        );
    }

    #[test]
    fn embedding_is_permutation_invariant() {
        // The same triangle with relabeled nodes must embed identically.
        let g1 = LayoutGraph::homogeneous(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let g2 = LayoutGraph::homogeneous(4, vec![(3, 2), (2, 1), (3, 1), (1, 0)]).unwrap();
        let model = RgcnClassifier::selector(7);
        let e1 = model.graph_embedding(&g1);
        let e2 = model.graph_embedding(&g2);
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn heterogeneous_graphs_embed_differently_from_homogeneous() {
        // Stitch edges must influence the embedding (they use a different
        // relation weight).
        let hom = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2)]).unwrap();
        let het = LayoutGraph::new(vec![0, 0, 1], vec![(0, 2), (1, 2)], vec![(0, 1)]).unwrap();
        let model = RgcnClassifier::selector(3);
        let e1 = model.graph_embedding(&hom);
        let e2 = model.graph_embedding(&het);
        let diff: f32 = e1.iter().zip(&e2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6);
    }

    #[test]
    fn max_readout_ignores_duplicated_components() {
        // Max pooling: embedding of G equals embedding of G + disjoint copy.
        let tri = LayoutGraph::homogeneous(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let two = LayoutGraph::homogeneous(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
            .unwrap();
        let model = RgcnClassifier::redundancy(5);
        let e1 = model.graph_embedding(&tri);
        let e2 = model.graph_embedding(&two);
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn predict_outputs_distribution() {
        let g = sparse_path(5);
        let model = RgcnClassifier::selector(11);
        let p = model.predict(&g);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn batch_prediction_matches_individual() {
        let graphs = [dense(4), sparse_path(5), dense(6), sparse_path(7)];
        let refs: Vec<&LayoutGraph> = graphs.iter().collect();
        let model = RgcnClassifier::selector(2);
        let batch = model.predict_batch(&refs);
        for (g, b) in refs.iter().zip(&batch) {
            let solo = model.predict(g);
            for (x, y) in solo.iter().zip(b) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn batch_embeddings_match_individual() {
        let graphs = [dense(4), sparse_path(6)];
        let refs: Vec<&LayoutGraph> = graphs.iter().collect();
        let model = RgcnClassifier::redundancy(2);
        let batch = model.embeddings_batch(&refs);
        for (g, (emb, nodes)) in refs.iter().zip(&batch) {
            let solo_emb = model.graph_embedding(g);
            let solo_nodes = model.node_embeddings(g);
            for (x, y) in solo_emb.iter().zip(emb) {
                assert!((x - y).abs() < 1e-4);
            }
            assert_eq!(solo_nodes.rows(), nodes.rows());
            for r in 0..nodes.rows() {
                for c in 0..nodes.cols() {
                    assert!((solo_nodes[(r, c)] - nodes[(r, c)]).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "embedding dimension")]
    fn head_must_match_embedding() {
        let _ = RgcnClassifier::new(&[1, 8], 2, Readout::Sum, &[16, 2], 0);
    }
}
