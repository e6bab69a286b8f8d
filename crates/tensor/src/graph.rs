//! Tape-based reverse-mode automatic differentiation over [`Matrix`]
//! values.
//!
//! A [`Graph`] records every forward operation; [`Graph::backward`]
//! replays the tape in reverse, accumulating gradients. The operation set
//! is exactly what the MPLD networks need: dense linear algebra, ReLU,
//! sparse neighbor aggregation, sum/max readouts, softmax cross-entropy,
//! and the pairwise margin loss that trains ColorGNN.

use crate::infer::{self, Csr, CsrBuilder, Scratch};
use crate::Matrix;
use std::sync::Arc;

/// Handle to a value in the autodiff graph.
pub type VarId = usize;

/// Sparse adjacency used by [`Graph::agg_sum`]: row `i` of `fwd` lists
/// the rows summed into output row `i`. Both directions are stored in
/// CSR form so the tape's forward *and* backward aggregation run through
/// the shared [`infer::spmm_into`] kernel; the reverse matrix is derived
/// on construction so backprop is a plain re-aggregation.
#[derive(Debug, Clone)]
pub struct Adjacency {
    fwd: Csr,
    rev: Csr,
}

impl Adjacency {
    /// Builds an adjacency over `n` rows.
    ///
    /// # Panics
    ///
    /// Panics if a neighbor index is out of range.
    pub fn new(fwd: Vec<Vec<u32>>) -> Self {
        let mut b = CsrBuilder::new(fwd.len());
        for ns in &fwd {
            b.push_row(ns.iter().copied());
        }
        Self::from_csr(b.finish())
    }

    /// Builds an adjacency directly from a CSR forward matrix — the
    /// allocation-light path for callers that assemble block-diagonal
    /// minibatch adjacencies row by row with a [`CsrBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if a neighbor index is out of range.
    pub fn from_csr(fwd: Csr) -> Self {
        assert!(
            fwd.max_col_bound() <= fwd.num_rows(),
            "neighbor index out of range"
        );
        let rev = fwd.transpose();
        Adjacency { fwd, rev }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.fwd.num_rows()
    }

    /// Whether the adjacency is empty.
    pub fn is_empty(&self) -> bool {
        self.fwd.num_rows() == 0
    }

    /// The rows summed into output row `i` (the forward neighbor list, in
    /// insertion order — the order [`Graph::agg_sum`] accumulates in).
    pub fn neighbors(&self, i: usize) -> &[u32] {
        self.fwd.row(i)
    }

    /// The forward CSR matrix (`out[i] = Σ x[fwd.row(i)]`).
    pub(crate) fn fwd_csr(&self) -> &Csr {
        &self.fwd
    }

    /// The reverse CSR matrix: row `j` lists, in ascending order, the
    /// outputs `i` that row `j` contributed to — the backward
    /// aggregation pattern.
    pub(crate) fn rev_csr(&self) -> &Csr {
        &self.rev
    }
}

enum Op {
    Leaf,
    /// C = A * B.
    MatMul(VarId, VarId),
    /// C = A + B (same shape).
    Add(VarId, VarId),
    /// C = A + row-broadcast b (1 x d).
    AddRow(VarId, VarId),
    /// C = relu(A).
    Relu(VarId),
    /// C = s * A for a constant s.
    ScaleConst(VarId, f32),
    /// C = scalar-var * A (scalar is a 1 x 1 var).
    ScaleByScalar(VarId, VarId),
    /// C[i] = sum_{j in adj[i]} A[j].
    AggSum(VarId, Arc<Adjacency>),
    /// 1 x d row: sum of all rows of A.
    SumRows(VarId),
    /// 1 x d row: column-wise max of A; remembers argmax rows.
    MaxRows(VarId, Vec<u32>),
    /// k x d: per-segment row sums (`seg[r]` = output row of input row r).
    SegmentSum(VarId, Arc<Vec<u32>>),
    /// k x d: per-segment column-wise max; remembers argmax rows.
    SegmentMax(VarId, Vec<u32>),
    /// Row-wise L2 normalization; caches the row norms.
    RowNormalize(VarId, Vec<f32>),
    /// Scalar: mean softmax cross-entropy of logits (n x C) vs labels.
    SoftmaxCrossEntropy(VarId, Arc<Vec<u8>>, Matrix),
    /// Scalar: sum over edges of max(margin - ||x_u - x_v||^2, 0).
    MarginPairLoss(VarId, Arc<Vec<(u32, u32)>>, f32),
}

/// Storage for a node's forward value. Computed nodes own their matrix;
/// inputs inserted via [`Graph::input_shared`] borrow one through an
/// `Arc`, so hot callers (the GNN encodings, whose feature matrices
/// outlive any single tape) stop cloning them onto every forward pass.
enum Stored {
    Owned(Matrix),
    Shared(Arc<Matrix>),
}

impl Stored {
    fn get(&self) -> &Matrix {
        match self {
            Stored::Owned(m) => m,
            Stored::Shared(m) => m,
        }
    }
}

struct Node {
    op: Op,
    value: Stored,
    grad: Option<Matrix>,
    needs_grad: bool,
}

/// The autodiff tape (see module docs).
///
/// Op outputs, gradients, and backward deltas are carved out of an
/// internal [`Scratch`] free list; [`Graph::reset`] hands every buffer
/// back, so a training loop that reuses one `Graph` across steps does
/// zero steady-state heap allocation.
///
/// # Example
///
/// ```
/// use mpld_tensor::{Graph, Matrix};
///
/// let mut g = Graph::new();
/// let x = g.param(Matrix::from_rows(&[&[2.0]]));
/// let y = g.scale_const(x, 3.0); // y = 3x
/// g.backward(y);
/// assert_eq!(g.grad(x).scalar(), 3.0);
/// ```
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    scratch: Scratch,
    free_u32: Vec<Vec<u32>>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Clears the tape for the next step, recycling every op output,
    /// gradient, and cached backward payload into the internal free
    /// lists. Shared inputs ([`Graph::input_shared`]) are merely
    /// released.
    pub fn reset(&mut self) {
        let Graph {
            nodes,
            scratch,
            free_u32,
        } = self;
        for node in nodes.drain(..) {
            if let Stored::Owned(m) = node.value {
                scratch.put(m.into_data());
            }
            if let Some(g) = node.grad {
                scratch.put(g.into_data());
            }
            match node.op {
                Op::MaxRows(_, arg) | Op::SegmentMax(_, arg) => free_u32.push(arg),
                Op::RowNormalize(_, norms) => scratch.put(norms),
                Op::SoftmaxCrossEntropy(_, _, probs) => scratch.put(probs.into_data()),
                _ => {}
            }
        }
    }

    /// A zeroed `rows x cols` matrix carved from the scratch free list.
    fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.scratch.take(rows * cols))
    }

    /// A recycled `u32` buffer of `len` entries, every slot set to
    /// `fill`.
    fn take_u32(&mut self, len: usize, fill: u32) -> Vec<u32> {
        let mut v = self.free_u32.pop().unwrap_or_default();
        v.clear();
        v.resize(len, fill);
        v
    }

    fn push(&mut self, op: Op, value: Matrix, needs_grad: bool) -> VarId {
        self.nodes.push(Node {
            op,
            value: Stored::Owned(value),
            grad: None,
            needs_grad,
        });
        self.nodes.len() - 1
    }

    /// Inserts a constant input (no gradient is tracked).
    pub fn input(&mut self, value: Matrix) -> VarId {
        self.push(Op::Leaf, value, false)
    }

    /// Inserts a constant input backed by a shared matrix (no gradient,
    /// and — unlike [`Graph::input`] — no copy of the data).
    pub fn input_shared(&mut self, value: Arc<Matrix>) -> VarId {
        self.nodes.push(Node {
            op: Op::Leaf,
            value: Stored::Shared(value),
            grad: None,
            needs_grad: false,
        });
        self.nodes.len() - 1
    }

    /// Inserts a trainable leaf (gradient is accumulated).
    pub fn param(&mut self, value: Matrix) -> VarId {
        self.push(Op::Leaf, value, true)
    }

    /// Inserts a trainable leaf by copying `value` into a pooled buffer —
    /// the allocation-free variant of [`Graph::param`] for training loops
    /// that re-bind the same parameters every step.
    pub fn param_copied(&mut self, value: &Matrix) -> VarId {
        let mut v = self.alloc(value.rows(), value.cols());
        v.as_mut_slice().copy_from_slice(value.as_slice());
        self.push(Op::Leaf, v, true)
    }

    /// The current value of `id`.
    pub fn value(&self, id: VarId) -> &Matrix {
        self.nodes[id].value.get()
    }

    /// The gradient of the last [`Graph::backward`] target w.r.t. `id`.
    ///
    /// # Panics
    ///
    /// Panics if no gradient was computed for `id` (not reachable from the
    /// loss, or `backward` not called).
    pub fn grad(&self, id: VarId) -> &Matrix {
        #[allow(clippy::expect_used)] // documented panic contract (see above)
        self.nodes[id]
            .grad
            .as_ref()
            .expect("gradient not computed; call backward on a reachable loss first")
    }

    /// The gradient of `id`, or `None` when `id` was not reached by the
    /// last backward pass.
    pub fn try_grad(&self, id: VarId) -> Option<&Matrix> {
        self.nodes[id].grad.as_ref()
    }

    fn needs(&self, id: VarId) -> bool {
        self.nodes[id].needs_grad
    }

    /// `a * b`, dispatched through the shared [`infer::gemm_into`]
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let (m, kk) = {
            let av = self.nodes[a].value.get();
            (av.rows(), av.cols())
        };
        let (bk, n) = {
            let bv = self.nodes[b].value.get();
            (bv.rows(), bv.cols())
        };
        assert_eq!(kk, bk, "inner dimensions must agree");
        let mut v = self.alloc(m, n);
        infer::gemm_into(
            m,
            kk,
            n,
            self.nodes[a].value.get().as_slice(),
            self.nodes[b].value.get().as_slice(),
            v.as_mut_slice(),
        );
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::MatMul(a, b), v, ng)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let (rows, cols) = {
            let av = self.nodes[a].value.get();
            (av.rows(), av.cols())
        };
        let mut v = self.alloc(rows, cols);
        v.as_mut_slice()
            .copy_from_slice(self.nodes[a].value.get().as_slice());
        v.add_assign(self.nodes[b].value.get());
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Add(a, b), v, ng)
    }

    /// `a + bias` broadcasting the `1 x d` bias over rows.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x a.cols`.
    pub fn add_row(&mut self, a: VarId, bias: VarId) -> VarId {
        let (rows, cols) = {
            let b = self.nodes[bias].value.get();
            assert_eq!(b.rows(), 1, "bias must be a single row");
            let a_val = self.nodes[a].value.get();
            assert_eq!(b.cols(), a_val.cols(), "bias width mismatch");
            (a_val.rows(), a_val.cols())
        };
        let mut v = self.alloc(rows, cols);
        v.as_mut_slice()
            .copy_from_slice(self.nodes[a].value.get().as_slice());
        infer::add_row_in_place(
            v.as_mut_slice(),
            cols,
            self.nodes[bias].value.get().as_slice(),
        );
        let ng = self.needs(a) || self.needs(bias);
        self.push(Op::AddRow(a, bias), v, ng)
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let (rows, cols) = {
            let av = self.nodes[a].value.get();
            (av.rows(), av.cols())
        };
        let mut v = self.alloc(rows, cols);
        v.as_mut_slice()
            .copy_from_slice(self.nodes[a].value.get().as_slice());
        infer::relu_in_place(v.as_mut_slice());
        let ng = self.needs(a);
        self.push(Op::Relu(a), v, ng)
    }

    /// `s * a` for a constant scalar.
    pub fn scale_const(&mut self, a: VarId, s: f32) -> VarId {
        let (rows, cols) = {
            let av = self.nodes[a].value.get();
            (av.rows(), av.cols())
        };
        let mut v = self.alloc(rows, cols);
        for (o, &x) in v
            .as_mut_slice()
            .iter_mut()
            .zip(self.nodes[a].value.get().as_slice())
        {
            *o = x * s;
        }
        let ng = self.needs(a);
        self.push(Op::ScaleConst(a, s), v, ng)
    }

    /// `scalar * a` where `scalar` is a trainable `1 x 1` variable.
    ///
    /// # Panics
    ///
    /// Panics if `scalar` is not `1 x 1`.
    pub fn scale_by_scalar(&mut self, a: VarId, scalar: VarId) -> VarId {
        let s = self.nodes[scalar].value.get().scalar();
        let (rows, cols) = {
            let av = self.nodes[a].value.get();
            (av.rows(), av.cols())
        };
        let mut v = self.alloc(rows, cols);
        for (o, &x) in v
            .as_mut_slice()
            .iter_mut()
            .zip(self.nodes[a].value.get().as_slice())
        {
            *o = x * s;
        }
        let ng = self.needs(a) || self.needs(scalar);
        self.push(Op::ScaleByScalar(a, scalar), v, ng)
    }

    /// Sparse neighbor aggregation: `out[i] = sum_{j in adj[i]} a[j]`,
    /// dispatched through the shared [`infer::spmm_into`] kernel.
    ///
    /// # Panics
    ///
    /// Panics if `adj.len() != a.rows()`.
    pub fn agg_sum(&mut self, a: VarId, adj: Arc<Adjacency>) -> VarId {
        let (rows, cols) = {
            let x = self.nodes[a].value.get();
            assert_eq!(adj.len(), x.rows(), "adjacency size mismatch");
            (x.rows(), x.cols())
        };
        let mut v = self.alloc(rows, cols);
        infer::spmm_into(
            adj.fwd_csr(),
            self.nodes[a].value.get().as_slice(),
            cols,
            v.as_mut_slice(),
        );
        let ng = self.needs(a);
        self.push(Op::AggSum(a, adj), v, ng)
    }

    /// Graph readout: `1 x d` sum of all rows.
    pub fn sum_rows(&mut self, a: VarId) -> VarId {
        let (rows, cols) = {
            let x = self.nodes[a].value.get();
            (x.rows(), x.cols())
        };
        let mut v = self.alloc(1, cols);
        {
            let x = self.nodes[a].value.get();
            for r in 0..rows {
                for c in 0..cols {
                    v[(0, c)] += x[(r, c)];
                }
            }
        }
        let ng = self.needs(a);
        self.push(Op::SumRows(a), v, ng)
    }

    /// Graph readout: `1 x d` column-wise max of all rows.
    ///
    /// # Panics
    ///
    /// Panics if `a` has no rows.
    pub fn max_rows(&mut self, a: VarId) -> VarId {
        let (rows, cols) = {
            let x = self.nodes[a].value.get();
            assert!(x.rows() > 0, "max over zero rows");
            (x.rows(), x.cols())
        };
        let mut v = self.alloc(1, cols);
        let mut arg = self.take_u32(cols, 0);
        {
            let x = self.nodes[a].value.get();
            for c in 0..cols {
                let mut best = f32::NEG_INFINITY;
                for r in 0..rows {
                    if x[(r, c)] > best {
                        best = x[(r, c)];
                        arg[c] = r as u32;
                    }
                }
                v[(0, c)] = best;
            }
        }
        let ng = self.needs(a);
        self.push(Op::MaxRows(a, arg), v, ng)
    }

    /// Batched graph readout: `out[s] = sum of rows r with seg[r] == s`,
    /// producing a `num_segments x d` matrix. Used to pool node embeddings
    /// of a disjoint union of graphs into per-graph embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `seg.len() != a.rows()` or a segment id is
    /// `>= num_segments`.
    pub fn segment_sum(&mut self, a: VarId, seg: Arc<Vec<u32>>, num_segments: usize) -> VarId {
        let cols = {
            let x = self.nodes[a].value.get();
            assert_eq!(seg.len(), x.rows(), "one segment id per row");
            x.cols()
        };
        let mut v = self.alloc(num_segments, cols);
        infer::segment_sum_into(
            self.nodes[a].value.get().as_slice(),
            cols,
            &seg,
            num_segments,
            v.as_mut_slice(),
        );
        let ng = self.needs(a);
        self.push(Op::SegmentSum(a, seg), v, ng)
    }

    /// Batched max readout: `out[s]` is the column-wise max over rows with
    /// `seg[r] == s`. Every segment must be non-empty.
    ///
    /// # Panics
    ///
    /// Panics on length/range mismatch or an empty segment.
    pub fn segment_max(&mut self, a: VarId, seg: &[u32], num_segments: usize) -> VarId {
        let cols = {
            let x = self.nodes[a].value.get();
            assert_eq!(seg.len(), x.rows(), "one segment id per row");
            x.cols()
        };
        let mut v = self.alloc(num_segments, cols);
        let mut arg = self.take_u32(num_segments * cols, u32::MAX);
        infer::segment_max_argmax_into(
            self.nodes[a].value.get().as_slice(),
            cols,
            seg,
            num_segments,
            v.as_mut_slice(),
            &mut arg,
        );
        let ng = self.needs(a);
        self.push(Op::SegmentMax(a, arg), v, ng)
    }

    /// Row-wise L2 normalization: `y_r = x_r / max(||x_r||, eps)`. Makes
    /// downstream losses scale-invariant (used by the ColorGNN margin
    /// loss so belief magnitudes cannot trivially satisfy the margin).
    pub fn row_l2_normalize(&mut self, a: VarId) -> VarId {
        let (rows, cols) = {
            let x = self.nodes[a].value.get();
            (x.rows(), x.cols())
        };
        let mut v = self.alloc(rows, cols);
        v.as_mut_slice()
            .copy_from_slice(self.nodes[a].value.get().as_slice());
        let mut norms = self.scratch.take(rows);
        {
            let x = self.nodes[a].value.get();
            for r in 0..rows {
                let norm = x
                    .row(r)
                    .iter()
                    .map(|&e| e * e)
                    .sum::<f32>()
                    .sqrt()
                    .max(1e-6);
                norms[r] = norm;
                for c in 0..cols {
                    v[(r, c)] /= norm;
                }
            }
        }
        let ng = self.needs(a);
        self.push(Op::RowNormalize(a, norms), v, ng)
    }

    /// Mean softmax cross-entropy between `logits` (`n x C`) and integer
    /// `labels` (`n` entries `< C`). Returns a `1 x 1` loss.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()` or a label is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: VarId, labels: Arc<Vec<u8>>) -> VarId {
        let (n, c) = {
            let x = self.nodes[logits].value.get();
            (x.rows(), x.cols())
        };
        assert_eq!(labels.len(), n, "one label per row");
        assert!(
            labels.iter().all(|&l| (l as usize) < c),
            "label out of range"
        );
        // Cache softmax probabilities for the backward pass.
        let mut probs = self.alloc(n, c);
        let mut loss = 0.0f32;
        {
            let x = self.nodes[logits].value.get();
            for r in 0..n {
                let row = x.row(r);
                let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                let mut z = 0.0;
                for (j, &v) in row.iter().enumerate() {
                    let e = (v - max).exp();
                    probs[(r, j)] = e;
                    z += e;
                }
                for j in 0..c {
                    probs[(r, j)] /= z;
                }
                loss -= probs[(r, labels[r] as usize)].max(1e-12).ln();
            }
        }
        loss /= n.max(1) as f32;
        let mut out = self.alloc(1, 1);
        out[(0, 0)] = loss;
        let ng = self.needs(logits);
        self.push(Op::SoftmaxCrossEntropy(logits, labels, probs), out, ng)
    }

    /// Softmax probabilities of `logits` (`n x C`), computed outside the
    /// tape (no gradient).
    pub fn softmax_values(&self, logits: VarId) -> Matrix {
        let x = self.nodes[logits].value.get();
        let (n, c) = (x.rows(), x.cols());
        let mut probs = Matrix::zeros(n, c);
        for r in 0..n {
            let row = x.row(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut z = 0.0;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - max).exp();
                probs[(r, j)] = e;
                z += e;
            }
            for j in 0..c {
                probs[(r, j)] /= z;
            }
        }
        probs
    }

    /// The ColorGNN margin loss (Eq. 14): for each edge `(u, v)`,
    /// `max(margin - ||x_u - x_v||^2, 0)`, summed. Returns a `1 x 1` loss.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range.
    pub fn margin_pair_loss(
        &mut self,
        x: VarId,
        edges: Arc<Vec<(u32, u32)>>,
        margin: f32,
    ) -> VarId {
        let mut loss = 0.0f32;
        {
            let m = self.nodes[x].value.get();
            for &(u, v) in edges.iter() {
                assert!(
                    (u as usize) < m.rows() && (v as usize) < m.rows(),
                    "edge out of range"
                );
                let d2: f32 = m
                    .row(u as usize)
                    .iter()
                    .zip(m.row(v as usize))
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum();
                loss += (margin - d2).max(0.0);
            }
        }
        let mut out = self.alloc(1, 1);
        out[(0, 0)] = loss;
        let ng = self.needs(x);
        self.push(Op::MarginPairLoss(x, edges, margin), out, ng)
    }

    /// Adds `delta` into `id`'s gradient, installing it outright when the
    /// slot is empty and recycling its buffer otherwise.
    fn accumulate(&mut self, id: VarId, delta: Matrix) {
        if self.nodes[id].grad.is_none() {
            self.nodes[id].grad = Some(delta);
            return;
        }
        if let Some(g) = self.nodes[id].grad.as_mut() {
            g.add_assign(&delta);
        }
        self.scratch.put(delta.into_data());
    }

    /// Adds `delta` into `id`'s gradient by reference — for pass-through
    /// ops whose delta IS the incoming gradient (which must survive to be
    /// restored on its own node).
    fn accumulate_ref(&mut self, id: VarId, delta: &Matrix) {
        if let Some(g) = self.nodes[id].grad.as_mut() {
            g.add_assign(delta);
            return;
        }
        let mut buf = self.scratch.take(delta.rows() * delta.cols());
        buf.copy_from_slice(delta.as_slice());
        self.nodes[id].grad = Some(Matrix::from_vec(delta.rows(), delta.cols(), buf));
    }

    /// Backpropagates from the `1 x 1` loss variable, filling gradients of
    /// all reachable variables that need them.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&mut self, loss: VarId) {
        assert_eq!(
            (
                self.nodes[loss].value.get().rows(),
                self.nodes[loss].value.get().cols()
            ),
            (1, 1),
            "backward target must be a scalar"
        );
        {
            let Graph { nodes, scratch, .. } = self;
            for n in nodes.iter_mut() {
                if let Some(g) = n.grad.take() {
                    scratch.put(g.into_data());
                }
            }
        }
        let mut seed = self.alloc(1, 1);
        seed[(0, 0)] = 1.0;
        self.nodes[loss].grad = Some(seed);

        for id in (0..self.nodes.len()).rev() {
            if !self.nodes[id].needs_grad {
                continue;
            }
            let Some(grad) = self.nodes[id].grad.take() else {
                continue;
            };
            // Take the op out of the node so its payload (adjacency,
            // argmax routes, cached probs) can be borrowed while `self`
            // stays free for pooled allocation and accumulation; both op
            // and gradient are restored after dispatch.
            let op = std::mem::replace(&mut self.nodes[id].op, Op::Leaf);
            match &op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs(a) {
                        // dA = grad * Bᵀ through the shared nt kernel.
                        let brows = self.nodes[b].value.get().rows();
                        let mut d = self.alloc(grad.rows(), brows);
                        infer::gemm_nt_into(
                            grad.rows(),
                            grad.cols(),
                            brows,
                            grad.as_slice(),
                            self.nodes[b].value.get().as_slice(),
                            d.as_mut_slice(),
                        );
                        self.accumulate(a, d);
                    }
                    if self.needs(b) {
                        // dB = Aᵀ * grad through the shared tn kernel.
                        let acols = self.nodes[a].value.get().cols();
                        let mut d = self.alloc(acols, grad.cols());
                        infer::gemm_tn_into(
                            grad.rows(),
                            acols,
                            grad.cols(),
                            self.nodes[a].value.get().as_slice(),
                            grad.as_slice(),
                            d.as_mut_slice(),
                        );
                        self.accumulate(b, d);
                    }
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs(a) {
                        self.accumulate_ref(a, &grad);
                    }
                    if self.needs(b) {
                        self.accumulate_ref(b, &grad);
                    }
                }
                Op::AddRow(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    if self.needs(bias) {
                        let mut d = self.alloc(1, grad.cols());
                        for r in 0..grad.rows() {
                            for c in 0..grad.cols() {
                                d[(0, c)] += grad[(r, c)];
                            }
                        }
                        self.accumulate(bias, d);
                    }
                    if self.needs(a) {
                        self.accumulate_ref(a, &grad);
                    }
                }
                Op::Relu(a) => {
                    let a = *a;
                    if self.needs(a) {
                        let mut d = self.alloc(grad.rows(), grad.cols());
                        d.as_mut_slice().copy_from_slice(grad.as_slice());
                        {
                            let inp = self.nodes[a].value.get();
                            for (g, &x) in d.as_mut_slice().iter_mut().zip(inp.as_slice()) {
                                if x <= 0.0 {
                                    *g = 0.0;
                                }
                            }
                        }
                        self.accumulate(a, d);
                    }
                }
                Op::ScaleConst(a, s) => {
                    let (a, s) = (*a, *s);
                    if self.needs(a) {
                        let mut d = self.alloc(grad.rows(), grad.cols());
                        for (o, &gx) in d.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                            *o = gx * s;
                        }
                        self.accumulate(a, d);
                    }
                }
                Op::ScaleByScalar(a, scalar) => {
                    let (a, scalar) = (*a, *scalar);
                    let s = self.nodes[scalar].value.get().scalar();
                    if self.needs(a) {
                        let mut d = self.alloc(grad.rows(), grad.cols());
                        for (o, &gx) in d.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                            *o = gx * s;
                        }
                        self.accumulate(a, d);
                    }
                    if self.needs(scalar) {
                        let dot: f32 = grad
                            .as_slice()
                            .iter()
                            .zip(self.nodes[a].value.get().as_slice())
                            .map(|(&g, &x)| g * x)
                            .sum();
                        let mut d = self.alloc(1, 1);
                        d[(0, 0)] = dot;
                        self.accumulate(scalar, d);
                    }
                }
                Op::AggSum(a, adj) => {
                    let a = *a;
                    if self.needs(a) {
                        // Reverse aggregation through the same SpMM
                        // kernel: row j of the delta sums grad rows of
                        // every output j contributed to, in ascending
                        // order — the historical backward fold order.
                        let mut d = self.alloc(grad.rows(), grad.cols());
                        infer::spmm_into(
                            adj.rev_csr(),
                            grad.as_slice(),
                            grad.cols(),
                            d.as_mut_slice(),
                        );
                        self.accumulate(a, d);
                    }
                }
                Op::SumRows(a) => {
                    let a = *a;
                    if self.needs(a) {
                        let rows = self.nodes[a].value.get().rows();
                        let mut d = self.alloc(rows, grad.cols());
                        for r in 0..rows {
                            for c in 0..grad.cols() {
                                d[(r, c)] = grad[(0, c)];
                            }
                        }
                        self.accumulate(a, d);
                    }
                }
                Op::MaxRows(a, arg) => {
                    let a = *a;
                    if self.needs(a) {
                        let rows = self.nodes[a].value.get().rows();
                        let mut d = self.alloc(rows, grad.cols());
                        for (c, &r) in arg.iter().enumerate() {
                            d[(r as usize, c)] = grad[(0, c)];
                        }
                        self.accumulate(a, d);
                    }
                }
                Op::SegmentSum(a, seg) => {
                    let a = *a;
                    if self.needs(a) {
                        let rows = self.nodes[a].value.get().rows();
                        let mut d = self.alloc(rows, grad.cols());
                        for (r, &s) in seg.iter().enumerate() {
                            for c in 0..grad.cols() {
                                d[(r, c)] = grad[(s as usize, c)];
                            }
                        }
                        self.accumulate(a, d);
                    }
                }
                Op::RowNormalize(a, norms) => {
                    let a = *a;
                    if self.needs(a) {
                        // dL/dx_r = (g_r - y_r (y_r · g_r)) / norm_r
                        let mut d = self.alloc(grad.rows(), grad.cols());
                        {
                            let y = self.nodes[id].value.get();
                            for r in 0..grad.rows() {
                                let dot: f32 =
                                    (0..grad.cols()).map(|c| y[(r, c)] * grad[(r, c)]).sum();
                                for c in 0..grad.cols() {
                                    d[(r, c)] = (grad[(r, c)] - y[(r, c)] * dot) / norms[r];
                                }
                            }
                        }
                        self.accumulate(a, d);
                    }
                }
                Op::SegmentMax(a, arg) => {
                    let a = *a;
                    if self.needs(a) {
                        let rows = self.nodes[a].value.get().rows();
                        let cols = grad.cols();
                        let mut d = self.alloc(rows, cols);
                        for (i, &r) in arg.iter().enumerate() {
                            let (s, c) = (i / cols, i % cols);
                            d[(r as usize, c)] += grad[(s, c)];
                        }
                        self.accumulate(a, d);
                    }
                }
                Op::SoftmaxCrossEntropy(logits, labels, probs) => {
                    let logits = *logits;
                    if self.needs(logits) {
                        let g0 = grad.scalar();
                        let n = probs.rows();
                        let mut d = self.alloc(probs.rows(), probs.cols());
                        d.as_mut_slice().copy_from_slice(probs.as_slice());
                        for (r, &l) in labels.iter().enumerate() {
                            d[(r, l as usize)] -= 1.0;
                        }
                        let s = g0 / n.max(1) as f32;
                        for v in d.as_mut_slice() {
                            *v *= s;
                        }
                        self.accumulate(logits, d);
                    }
                }
                Op::MarginPairLoss(x, edges, margin) => {
                    let (x, margin) = (*x, *margin);
                    if self.needs(x) {
                        let g0 = grad.scalar();
                        let (mr, mc) = {
                            let m = self.nodes[x].value.get();
                            (m.rows(), m.cols())
                        };
                        let mut d = self.alloc(mr, mc);
                        {
                            let m = self.nodes[x].value.get();
                            for &(u, v) in edges.iter() {
                                let (u, v) = (u as usize, v as usize);
                                let d2: f32 = m
                                    .row(u)
                                    .iter()
                                    .zip(m.row(v))
                                    .map(|(&a, &b)| (a - b) * (a - b))
                                    .sum();
                                if margin - d2 > 0.0 {
                                    // d/da of -(a-b)^2 = -2(a-b)
                                    for c in 0..mc {
                                        let diff = m[(u, c)] - m[(v, c)];
                                        d[(u, c)] += g0 * -2.0 * diff;
                                        d[(v, c)] += g0 * 2.0 * diff;
                                    }
                                }
                            }
                        }
                        self.accumulate(x, d);
                    }
                }
            }
            self.nodes[id].op = op;
            self.nodes[id].grad = Some(grad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite difference of `f` w.r.t. entry `(r, c)` of the leaf.
    fn finite_diff<F: Fn(&Matrix) -> f32>(f: F, at: &Matrix, r: usize, c: usize) -> f32 {
        let eps = 1e-2f32;
        let mut plus = at.clone();
        plus[(r, c)] += eps;
        let mut minus = at.clone();
        minus[(r, c)] -= eps;
        (f(&plus) - f(&minus)) / (2.0 * eps)
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        let a0 = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.3]]);
        let b0 = Matrix::from_rows(&[&[1.0, 0.2], &[-0.4, 0.9]]);
        let run = |a: &Matrix, b: &Matrix| -> f32 {
            let mut g = Graph::new();
            let va = g.param(a.clone());
            let vb = g.param(b.clone());
            let c = g.matmul(va, vb);
            let s = g.sum_rows(c);
            // Reduce to scalar via sum of the row (cols may be > 1): use
            // margin-free trick: matmul with ones.
            let ones = g.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
            let out = g.matmul(s, ones);
            g.value(out).scalar()
        };
        let mut g = Graph::new();
        let va = g.param(a0.clone());
        let vb = g.param(b0.clone());
        let c = g.matmul(va, vb);
        let s = g.sum_rows(c);
        let ones = g.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let out = g.matmul(s, ones);
        g.backward(out);
        for r in 0..2 {
            for col in 0..2 {
                let fd = finite_diff(|a| run(a, &b0), &a0, r, col);
                assert!(
                    (g.grad(va)[(r, col)] - fd).abs() < 1e-2,
                    "dA[{r},{col}]: {} vs {fd}",
                    g.grad(va)[(r, col)]
                );
                let fd = finite_diff(|b| run(&a0, b), &b0, r, col);
                assert!(
                    (g.grad(vb)[(r, col)] - fd).abs() < 1e-2,
                    "dB[{r},{col}]: {} vs {fd}",
                    g.grad(vb)[(r, col)]
                );
            }
        }
    }

    #[test]
    fn relu_blocks_negative_gradients() {
        let mut g = Graph::new();
        let x = g.param(Matrix::from_rows(&[&[-1.0, 2.0]]));
        let y = g.relu(x);
        let ones = g.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let s = g.matmul(y, ones);
        g.backward(s);
        assert_eq!(g.grad(x).row(0), &[0.0, 1.0]);
    }

    #[test]
    fn agg_sum_forward_and_backward() {
        // Path 0 - 1 - 2.
        let adj = Arc::new(Adjacency::new(vec![vec![1], vec![0, 2], vec![1]]));
        let mut g = Graph::new();
        let x = g.param(Matrix::from_rows(&[&[1.0], &[10.0], &[100.0]]));
        let y = g.agg_sum(x, adj);
        assert_eq!(g.value(y).as_slice(), &[10.0, 101.0, 10.0]);
        let w = g.input(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let s = g.matmul(w, y); // scalar: y0 + 2 y1 + 3 y2
        g.backward(s);
        // ds/dx0 = coefficient of x0 in 1*y0 + 2*y1 + 3*y2 = 2 (x0 only in y1)
        // ds/dx1 = 1 + 3 = 4 ; ds/dx2 = 2.
        assert_eq!(g.grad(x).as_slice(), &[2.0, 4.0, 2.0]);
    }

    #[test]
    fn max_rows_routes_gradient_to_argmax() {
        let mut g = Graph::new();
        let x = g.param(Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 2.0]]));
        let y = g.max_rows(x);
        let ones = g.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let s = g.matmul(y, ones);
        assert_eq!(g.value(s).scalar(), 3.0 + 5.0);
        g.backward(s);
        assert_eq!(g.grad(x).as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn cross_entropy_decreases_toward_label() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0, 0.0]]);
        let mut g = Graph::new();
        let x = g.param(logits);
        let loss = g.softmax_cross_entropy(x, Arc::new(vec![1]));
        let l0 = g.value(loss).scalar();
        assert!((l0 - (3f32).ln()).abs() < 1e-5);
        g.backward(loss);
        let d = g.grad(x);
        // Gradient pushes label logit up (negative grad) and others down.
        assert!(d[(0, 1)] < 0.0);
        assert!(d[(0, 0)] > 0.0 && d[(0, 2)] > 0.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let x0 = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[0.1, 0.9, -0.5]]);
        let labels = Arc::new(vec![2u8, 0u8]);
        let run = |m: &Matrix| -> f32 {
            let mut g = Graph::new();
            let x = g.param(m.clone());
            let loss = g.softmax_cross_entropy(x, Arc::clone(&labels));
            g.value(loss).scalar()
        };
        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let loss = g.softmax_cross_entropy(x, Arc::clone(&labels));
        g.backward(loss);
        for r in 0..2 {
            for c in 0..3 {
                let fd = finite_diff(run, &x0, r, c);
                let an = g.grad(x)[(r, c)];
                assert!((an - fd).abs() < 1e-2, "[{r},{c}] {an} vs {fd}");
            }
        }
    }

    #[test]
    fn margin_loss_gradient_matches_finite_difference() {
        // Keep both hinge terms strictly active and away from the kink so
        // finite differences are valid.
        let x0 = Matrix::from_rows(&[&[0.2, 0.1], &[0.3, -0.2], &[-0.45, 0.4]]);
        let edges = Arc::new(vec![(0u32, 1u32), (1, 2)]);
        let run = |m: &Matrix| -> f32 {
            let mut g = Graph::new();
            let x = g.param(m.clone());
            let loss = g.margin_pair_loss(x, Arc::clone(&edges), 1.0);
            g.value(loss).scalar()
        };
        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let loss = g.margin_pair_loss(x, Arc::clone(&edges), 1.0);
        g.backward(loss);
        for r in 0..3 {
            for c in 0..2 {
                let fd = finite_diff(run, &x0, r, c);
                let an = g.grad(x)[(r, c)];
                assert!((an - fd).abs() < 2e-2, "[{r},{c}] {an} vs {fd}");
            }
        }
    }

    #[test]
    fn scale_by_scalar_gradients() {
        let mut g = Graph::new();
        let s = g.param(Matrix::from_vec(1, 1, vec![2.0]));
        let x = g.param(Matrix::from_rows(&[&[3.0, -1.0]]));
        let y = g.scale_by_scalar(x, s);
        let ones = g.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let out = g.matmul(y, ones); // 2 * (3 - 1) = 4
        assert_eq!(g.value(out).scalar(), 4.0);
        g.backward(out);
        assert_eq!(g.grad(s).scalar(), 2.0); // d/ds = 3 - 1
        assert_eq!(g.grad(x).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn segment_sum_pools_per_segment() {
        let mut g = Graph::new();
        let x = g.param(Matrix::from_rows(&[&[1.0], &[2.0], &[4.0], &[8.0]]));
        let y = g.segment_sum(x, Arc::new(vec![0, 1, 0, 1]), 2);
        assert_eq!(g.value(y).as_slice(), &[5.0, 10.0]);
        let w = g.input(Matrix::from_rows(&[&[1.0, 3.0]]));
        let s = g.matmul(w, y); // 1*seg0 + 3*seg1
        g.backward(s);
        assert_eq!(g.grad(x).as_slice(), &[1.0, 3.0, 1.0, 3.0]);
    }

    #[test]
    fn segment_max_pools_and_routes_grads() {
        let mut g = Graph::new();
        let x = g.param(Matrix::from_rows(&[&[1.0, 9.0], &[2.0, 3.0], &[5.0, 4.0]]));
        let y = g.segment_max(x, &[0, 0, 1], 2);
        assert_eq!(g.value(y).as_slice(), &[2.0, 9.0, 5.0, 4.0]);
        let ones = g.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let col = g.matmul(y, ones); // 2x1
        let w = g.input(Matrix::from_rows(&[&[1.0, 1.0]]));
        let s = g.matmul(w, col);
        g.backward(s);
        assert_eq!(g.grad(x).as_slice(), &[0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn row_normalize_forward_and_gradient() {
        let x0 = Matrix::from_rows(&[&[3.0, 4.0], &[0.5, -0.2]]);
        let run = |m: &Matrix| -> f32 {
            let mut g = Graph::new();
            let x = g.param(m.clone());
            let y = g.row_l2_normalize(x);
            // Scalar: weighted sum of normalized entries.
            let w = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
            let wy = g.matmul(w, y); // (1x2)*(2x2) = 1x2
            let ones = g.input(Matrix::from_rows(&[&[1.0], &[-0.5]]));
            let s = g.matmul(wy, ones);
            g.value(s).scalar()
        };
        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let y = g.row_l2_normalize(x);
        assert!((g.value(y)[(0, 0)] - 0.6).abs() < 1e-6);
        assert!((g.value(y)[(0, 1)] - 0.8).abs() < 1e-6);
        let w = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
        let wy = g.matmul(w, y);
        let ones = g.input(Matrix::from_rows(&[&[1.0], &[-0.5]]));
        let s = g.matmul(wy, ones);
        g.backward(s);
        for r in 0..2 {
            for c in 0..2 {
                let fd = finite_diff(run, &x0, r, c);
                let an = g.grad(x)[(r, c)];
                assert!((an - fd).abs() < 2e-2, "[{r},{c}] {an} vs {fd}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty segment")]
    fn segment_max_rejects_empty_segment() {
        let mut g = Graph::new();
        let x = g.param(Matrix::from_rows(&[&[1.0]]));
        let _ = g.segment_max(x, &[0], 2);
    }

    #[test]
    fn unreachable_param_has_no_grad() {
        let mut g = Graph::new();
        let a = g.param(Matrix::from_vec(1, 1, vec![1.0]));
        let b = g.param(Matrix::from_vec(1, 1, vec![1.0]));
        let out = g.scale_const(a, 2.0);
        g.backward(out);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = g.grad(b);
        }))
        .is_err());
    }
}
