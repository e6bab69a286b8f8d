//! Tape-free inference primitives.
//!
//! The autodiff [`Graph`](crate::Graph) is the right tool for training:
//! every op allocates a fresh output matrix and records itself so
//! gradients can flow back. Inference needs none of that, and the
//! adaptive pipeline runs inference on *every* decomposition unit — so
//! this module provides the same forward arithmetic as the tape ops, but
//! writing into caller-provided scratch buffers with zero per-call
//! allocation after warmup.
//!
//! Bit-identity contract: each primitive documents the tape op it
//! mirrors and reproduces its accumulation order exactly (the GEMM
//! microkernel of [`Matrix::matmul`](crate::Matrix::matmul), same
//! neighbor iteration order for SpMM, same fold/scan orders for the
//! readouts).
//! The frozen GNN engines built on top therefore produce outputs that
//! match the tape to the last ulp, which is property-tested in
//! `mpld-gnn`.

use crate::graph::Adjacency;
use std::sync::Mutex;

pub use crate::matrix::kernel_name;

/// Arithmetic precision of a frozen routing forward. F32 is the only
/// one: its outputs are bit-identical to the autodiff tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f32, bit-identical to the tape.
    #[default]
    F32,
}

/// Compressed-sparse-row adjacency: row `i`'s neighbor column indices are
/// `cols[row_ptr[i]..row_ptr[i + 1]]`, in the same order as the
/// [`Adjacency`] forward lists (so SpMM accumulates in the tape's order).
/// Unlike [`Adjacency`] no reverse lists are built — inference never
/// needs them.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    row_ptr: Vec<u32>,
    cols: Vec<u32>,
}

impl Csr {
    /// Builds a CSR view of an [`Adjacency`]'s forward lists. Since the
    /// adjacency is itself CSR-backed, this is a plain buffer clone.
    pub fn from_adjacency(adj: &Adjacency) -> Self {
        adj.fwd_csr().clone()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Row `i`'s neighbor list.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize]
    }

    /// Resets to an empty 0-row matrix, keeping allocated capacity — for
    /// callers that rebuild a (sampled) adjacency every layer without
    /// reallocating.
    pub fn clear(&mut self) {
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.cols.clear();
    }

    /// Appends one row's neighbor indices (kept in iteration order).
    pub fn push_row(&mut self, neighbors: impl IntoIterator<Item = u32>) {
        if self.row_ptr.is_empty() {
            self.row_ptr.push(0);
        }
        self.cols.extend(neighbors);
        self.row_ptr.push(self.cols.len() as u32);
    }

    /// Largest stored column index plus one, i.e. the minimum column count
    /// this matrix is consistent with (0 when there are no entries).
    pub fn max_col_bound(&self) -> usize {
        self.cols.iter().map(|&c| c as usize + 1).max().unwrap_or(0)
    }

    /// Transpose of a square `n x n` sparse matrix: entry `(i, j)` becomes
    /// `(j, i)`. Rows are scattered in ascending source-row order, so row
    /// `j` of the result lists the sources `i` with `j ∈ row(i)` in
    /// ascending `i` — the exact order the tape's `AggSum` backward pass
    /// historically folded reverse neighbors in. Duplicate entries are
    /// preserved (consecutively, since they share a source row).
    pub fn transpose(&self) -> Csr {
        let n = self.num_rows();
        let mut row_ptr = vec![0u32; n + 1];
        for &c in &self.cols {
            row_ptr[c as usize + 1] += 1;
        }
        for j in 0..n {
            row_ptr[j + 1] += row_ptr[j];
        }
        let mut next = row_ptr.clone();
        let mut cols = vec![0u32; self.cols.len()];
        for i in 0..n {
            for &j in self.row(i) {
                let slot = next[j as usize] as usize;
                cols[slot] = i as u32;
                next[j as usize] += 1;
            }
        }
        Csr { row_ptr, cols }
    }
}

/// Incremental [`Csr`] constructor for callers that produce neighbor
/// lists row by row (e.g. batching several graphs into one block-diagonal
/// adjacency without materializing intermediate `Vec<Vec<u32>>`s).
#[derive(Debug)]
pub struct CsrBuilder {
    csr: Csr,
}

impl CsrBuilder {
    /// Starts a builder; `rows_hint` pre-sizes the row-pointer table.
    pub fn new(rows_hint: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows_hint + 1);
        row_ptr.push(0);
        CsrBuilder {
            csr: Csr {
                row_ptr,
                cols: Vec::new(),
            },
        }
    }

    /// Appends one row's neighbor indices (kept in iteration order).
    pub fn push_row(&mut self, neighbors: impl IntoIterator<Item = u32>) {
        self.csr.push_row(neighbors);
    }

    /// Finalizes the matrix.
    pub fn finish(self) -> Csr {
        self.csr
    }
}

/// Sparse-times-dense product `out = A * X` where `A` is a [`Csr`]
/// 0/1-adjacency and `X` is row-major `n x cols`. Mirrors
/// [`Graph::agg_sum`](crate::Graph::agg_sum): output rows are formed by
/// adding neighbor rows in CSR order, columns innermost, so the result
/// is bit-identical to the tape op.
///
/// # Panics
///
/// Panics if the buffer sizes disagree with `csr.num_rows() * cols`.
pub fn spmm_into(csr: &Csr, x: &[f32], cols: usize, out: &mut [f32]) {
    let n = csr.num_rows();
    assert_eq!(x.len(), n * cols, "spmm input size mismatch");
    assert_eq!(out.len(), n * cols, "spmm output size mismatch");
    for (i, o) in out.chunks_exact_mut(cols).enumerate() {
        o.fill(0.0);
        for &j in csr.row(i) {
            let src = &x[j as usize * cols..(j as usize + 1) * cols];
            for (a, &b) in o.iter_mut().zip(src) {
                *a += b;
            }
        }
    }
}

/// Dense product `out = A * B` (`m x k` times `k x n`, all row-major),
/// dispatching to the same microkernel as
/// [`Matrix::matmul`](crate::Matrix::matmul) so results are
/// bit-identical to the tape.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm lhs size mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs size mismatch");
    assert_eq!(out.len(), m * n, "gemm output size mismatch");
    crate::matrix::gemm_nn(m, k, n, a, b, out);
}

/// Dense product `out = Aᵀ * B` (A stored `k x m`, B `k x n`, all
/// row-major), dispatching to the same kernel as
/// [`Matrix::matmul_tn`](crate::Matrix::matmul_tn) so
/// results are bit-identical to the tape's MatMul backward.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_tn_into(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_tn lhs size mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn rhs size mismatch");
    assert_eq!(out.len(), m * n, "gemm_tn output size mismatch");
    crate::matrix::gemm_tn(k, m, n, a, b, out);
}

/// Dense product `out = A * Bᵀ` (A stored `m x k`, B `n x k`, all
/// row-major), dispatching to the same kernel as
/// [`Matrix::matmul_nt`](crate::Matrix::matmul_nt) so
/// results are bit-identical to the tape's MatMul backward.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_nt_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt lhs size mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt rhs size mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt output size mismatch");
    crate::matrix::gemm_nt(m, k, n, a, b, out);
}

/// Element-wise `out += x` (mirrors
/// [`Matrix::add_assign`](crate::Matrix::add_assign)).
///
/// # Panics
///
/// Panics on length mismatch.
pub fn add_assign_slice(out: &mut [f32], x: &[f32]) {
    assert_eq!(out.len(), x.len(), "add size mismatch");
    for (a, &b) in out.iter_mut().zip(x) {
        *a += b;
    }
}

/// Element-wise ReLU (mirrors [`Graph::relu`](crate::Graph::relu)).
/// The branchless select keeps the same `v < 0.0` predicate as the tape
/// op (NaN and -0.0 pass through unchanged) while letting the loop
/// autovectorize.
pub fn relu_in_place(x: &mut [f32]) {
    for v in x {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// Broadcast `x[r] += bias` over the rows of a row-major `rows x cols`
/// buffer (mirrors [`Graph::add_row`](crate::Graph::add_row)).
///
/// # Panics
///
/// Panics on size mismatch.
pub fn add_row_in_place(x: &mut [f32], cols: usize, bias: &[f32]) {
    assert_eq!(bias.len(), cols, "bias width mismatch");
    assert_eq!(
        x.len() % cols.max(1),
        0,
        "buffer not a whole number of rows"
    );
    for row in x.chunks_exact_mut(cols) {
        for (a, &b) in row.iter_mut().zip(bias) {
            *a += b;
        }
    }
}

/// Segment sum readout into `out` (`num_segments x cols`), mirroring
/// [`Graph::segment_sum`](crate::Graph::segment_sum): rows are folded in
/// ascending order, columns innermost.
///
/// # Panics
///
/// Panics on size mismatch or an out-of-range segment id.
pub fn segment_sum_into(x: &[f32], cols: usize, seg: &[u32], num_segments: usize, out: &mut [f32]) {
    assert_eq!(x.len(), seg.len() * cols, "one segment id per row");
    assert_eq!(out.len(), num_segments * cols, "readout size mismatch");
    out.fill(0.0);
    // Per-row slices instead of indexed accesses: same fold order
    // (ascending rows, columns innermost) with bounds checks hoisted out
    // of the inner loop so it autovectorizes.
    for (row, &s) in x.chunks_exact(cols.max(1)).zip(seg) {
        let s = s as usize;
        assert!(s < num_segments, "segment id out of range");
        let dst = &mut out[s * cols..(s + 1) * cols];
        for (a, &b) in dst.iter_mut().zip(row) {
            *a += b;
        }
    }
}

/// Segment max readout into `out` (`num_segments x cols`), mirroring
/// [`Graph::segment_max`](crate::Graph::segment_max) (strict `>` against
/// a `NEG_INFINITY` start, rows scanned in ascending order).
///
/// # Panics
///
/// Panics on size mismatch, an out-of-range segment id, or an empty
/// segment.
pub fn segment_max_into(x: &[f32], cols: usize, seg: &[u32], num_segments: usize, out: &mut [f32]) {
    assert_eq!(x.len(), seg.len() * cols, "one segment id per row");
    assert_eq!(out.len(), num_segments * cols, "readout size mismatch");
    out.fill(f32::NEG_INFINITY);
    let mut touched = vec![false; num_segments];
    for (row, &s) in x.chunks_exact(cols.max(1)).zip(seg) {
        let s = s as usize;
        assert!(s < num_segments, "segment id out of range");
        touched[s] = true;
        let dst = &mut out[s * cols..(s + 1) * cols];
        for (a, &b) in dst.iter_mut().zip(row) {
            *a = if b > *a { b } else { *a };
        }
    }
    assert!(
        touched.iter().all(|&t| t),
        "empty segment in segment_max_into"
    );
}

/// Segment max readout that also records, per output cell, which input
/// row supplied the winning value (`arg`, `num_segments x cols`, row
/// indices as `u32`). Same scan order and strict-`>` tie-breaking as
/// [`segment_max_into`], so `out` is bit-identical to the tape's
/// `SegmentMax` forward while `arg` is exactly the routing its backward
/// pass needs.
///
/// # Panics
///
/// Panics on size mismatch, an out-of-range segment id, or an empty
/// segment (message contains "empty segment" to match the tape op).
pub fn segment_max_argmax_into(
    x: &[f32],
    cols: usize,
    seg: &[u32],
    num_segments: usize,
    out: &mut [f32],
    arg: &mut [u32],
) {
    assert_eq!(x.len(), seg.len() * cols, "one segment id per row");
    assert_eq!(out.len(), num_segments * cols, "readout size mismatch");
    assert_eq!(arg.len(), num_segments * cols, "argmax size mismatch");
    out.fill(f32::NEG_INFINITY);
    arg.fill(u32::MAX);
    for (r, &s) in seg.iter().enumerate() {
        let s = s as usize;
        assert!(s < num_segments, "segment id out of range");
        for c in 0..cols {
            if x[r * cols + c] > out[s * cols + c] {
                out[s * cols + c] = x[r * cols + c];
                arg[s * cols + c] = r as u32;
            }
        }
    }
    assert!(
        cols == 0 || arg.iter().all(|&a| a != u32::MAX),
        "empty segment in segment_max"
    );
}

/// Row-wise softmax in place, mirroring
/// [`Graph::softmax_values`](crate::Graph::softmax_values) (max-shifted
/// exp, sum in column order, then divide).
pub fn softmax_rows_in_place(x: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in x.chunks_exact_mut(cols) {
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut z = 0.0;
        for v in row.iter_mut() {
            let e = (*v - max).exp();
            *v = e;
            z += e;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
    }
}

/// Row-wise L2 normalization in place, mirroring
/// [`Graph::row_l2_normalize`](crate::Graph::row_l2_normalize):
/// `row /= max(||row||, 1e-6)` with the norm summed in column order.
pub fn row_l2_normalize_in_place(x: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in x.chunks_exact_mut(cols) {
        let norm = row.iter().map(|&e| e * e).sum::<f32>().sqrt().max(1e-6);
        for v in row.iter_mut() {
            *v /= norm;
        }
    }
}

/// A free-list of reusable `Vec<f32>` buffers. `take` hands out a zeroed
/// buffer (recycling a returned one when available), `put` returns it.
/// After warmup a fixed-shape inference pass allocates nothing: every
/// buffer it needs is already in the free list.
///
/// The scratch also tracks the high-water mark of concurrently
/// checked-out bytes, which `perf_baseline` reports as the inference
/// engine's working-set size.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f32>>,
    outstanding_bytes: usize,
    peak_bytes: usize,
}

impl Scratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Checks out a zeroed buffer of `len` floats.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        self.outstanding_bytes += len * std::mem::size_of::<f32>();
        self.peak_bytes = self.peak_bytes.max(self.outstanding_bytes);
        buf
    }

    /// Checks out a buffer of `len` floats whose contents are
    /// unspecified (stale data from an earlier checkout). Every GEMM /
    /// SpMM / segment-readout `_into` kernel fully overwrites its
    /// output before reading it, so the inference hot loops use this to
    /// skip [`Scratch::take`]'s zero-fill — which is otherwise pure
    /// memset bandwidth, megabytes per routing pass.
    pub fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.free.pop().unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, 0.0);
        } else {
            buf.truncate(len);
        }
        self.outstanding_bytes += len * std::mem::size_of::<f32>();
        self.peak_bytes = self.peak_bytes.max(self.outstanding_bytes);
        buf
    }

    /// Returns a buffer to the free list for reuse.
    pub fn put(&mut self, buf: Vec<f32>) {
        self.outstanding_bytes = self
            .outstanding_bytes
            .saturating_sub(buf.len() * std::mem::size_of::<f32>());
        self.free.push(buf);
    }

    /// Peak bytes concurrently checked out over this scratch's lifetime.
    pub fn high_water_bytes(&self) -> usize {
        self.peak_bytes
    }
}

/// A pool manager handing out per-worker [`Scratch`] arenas so frozen
/// models can be shared across decomposition worker threads and
/// concurrent server requests: [`ScratchPool::lease`] checks an arena out
/// (creating it on first use) and the returned [`ScratchLease`] gives the
/// holder exclusive, lock-free access until it drops, at which point the
/// arena returns to the free list and its high-water mark folds into the
/// pool-wide peak. A worker that holds one lease across a whole request
/// pays the pool mutex twice per request instead of twice per forward.
///
/// [`ScratchPool::with`] is the closure-scoped convenience wrapper over a
/// single lease.
#[derive(Debug, Default)]
pub struct ScratchPool {
    inner: Mutex<PoolState>,
}

#[derive(Debug, Default)]
struct PoolState {
    free: Vec<Scratch>,
    peak_bytes: usize,
}

/// Exclusive RAII checkout of one [`Scratch`] arena from a
/// [`ScratchPool`]. Dereferences to the arena; dropping it returns the
/// arena to the pool and records its high-water mark.
#[derive(Debug)]
pub struct ScratchLease<'p> {
    pool: &'p ScratchPool,
    // Always `Some` until `drop` takes it back.
    scratch: Option<Scratch>,
}

impl std::ops::Deref for ScratchLease<'_> {
    type Target = Scratch;

    fn deref(&self) -> &Scratch {
        #[allow(clippy::expect_used)] // invariant: emptied only in drop
        self.scratch.as_ref().expect("lease holds a scratch")
    }
}

impl std::ops::DerefMut for ScratchLease<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        #[allow(clippy::expect_used)] // invariant: emptied only in drop
        self.scratch.as_mut().expect("lease holds a scratch")
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        let Some(scratch) = self.scratch.take() else {
            return;
        };
        if let Ok(mut st) = self.pool.inner.lock() {
            st.peak_bytes = st.peak_bytes.max(scratch.high_water_bytes());
            st.free.push(scratch);
        }
    }
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Checks one arena out of the pool (creating it when the free list
    /// is empty). The lease holds the arena exclusively — no lock is
    /// taken between checkout and drop.
    pub fn lease(&self) -> ScratchLease<'_> {
        let scratch = match self.inner.lock() {
            Ok(mut st) => st.free.pop().unwrap_or_default(),
            Err(_) => Scratch::new(), // poisoned: degrade to a throwaway
        };
        ScratchLease {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Runs `f` with a checked-out scratch (a single-closure lease).
    pub fn with<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        let mut lease = self.lease();
        f(&mut lease)
    }

    /// Peak high-water bytes observed across all scratches in the pool.
    pub fn high_water_bytes(&self) -> usize {
        match self.inner.lock() {
            Ok(st) => st.peak_bytes.max(
                st.free
                    .iter()
                    .map(Scratch::high_water_bytes)
                    .max()
                    .unwrap_or(0),
            ),
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, Matrix};
    use std::sync::Arc;

    fn adj(fwd: Vec<Vec<u32>>) -> Arc<Adjacency> {
        Arc::new(Adjacency::new(fwd))
    }

    #[test]
    fn spmm_matches_tape_agg_sum() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let fwd = vec![vec![1, 2], vec![], vec![0, 0, 1]];
        let a = adj(fwd.clone());
        let mut g = Graph::new();
        let xi = g.input(x.clone());
        let y = g.agg_sum(xi, Arc::clone(&a));
        let want = g.value(y).as_slice().to_vec();

        // Independent naive-loop oracle (the tape itself now runs on the
        // SpMM kernel, so the reference must not).
        let mut naive = vec![0.0f32; 6];
        for (i, ns) in fwd.iter().enumerate() {
            for &j in ns {
                for c in 0..2 {
                    naive[i * 2 + c] += x[(j as usize, c)];
                }
            }
        }
        assert_eq!(want, naive);

        let csr = Csr::from_adjacency(&a);
        let mut out = vec![0.0; 6];
        spmm_into(&csr, x.as_slice(), 2, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn transpose_reverses_edges_and_preserves_order() {
        let mut b = CsrBuilder::new(3);
        b.push_row([1u32, 2]);
        b.push_row([]);
        b.push_row([0u32, 0, 1]);
        let csr = b.finish();
        let t = csr.transpose();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(0), &[2, 2]); // duplicates preserved, ascending i
        assert_eq!(t.row(1), &[0, 2]);
        assert_eq!(t.row(2), &[0]);
    }

    #[test]
    fn gemm_matches_matmul_bitwise() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(9);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (7, 32, 64),
            (13, 64, 2),
        ] {
            let a = Matrix::glorot(m, k, &mut rng);
            let b = Matrix::glorot(k, n, &mut rng);
            let want = a.matmul(&b);
            let mut out = vec![0.0; m * n];
            gemm_into(m, k, n, a.as_slice(), b.as_slice(), &mut out);
            assert_eq!(out, want.as_slice());
        }
    }

    #[test]
    fn readouts_match_tape_segments() {
        let x = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0], &[-5.0, 6.0], &[0.5, 0.25]]);
        let seg = vec![0u32, 0, 1, 1];
        let mut g = Graph::new();
        let xi = g.input(x.clone());
        let s = g.segment_sum(xi, Arc::new(seg.clone()), 2);
        let m = g.segment_max(xi, &seg, 2);
        let (want_s, want_m) = (
            g.value(s).as_slice().to_vec(),
            g.value(m).as_slice().to_vec(),
        );

        // Independent naive oracles (the tape ops now run on these very
        // kernels, so the reference is recomputed by hand).
        let mut naive_s = vec![0.0f32; 4];
        let mut naive_m = vec![f32::NEG_INFINITY; 4];
        for (r, &s) in seg.iter().enumerate() {
            for c in 0..2 {
                naive_s[s as usize * 2 + c] += x[(r, c)];
                naive_m[s as usize * 2 + c] = naive_m[s as usize * 2 + c].max(x[(r, c)]);
            }
        }
        assert_eq!(want_s, naive_s);
        assert_eq!(want_m, naive_m);

        let mut out = vec![0.0; 4];
        segment_sum_into(x.as_slice(), 2, &seg, 2, &mut out);
        assert_eq!(out, want_s);
        segment_max_into(x.as_slice(), 2, &seg, 2, &mut out);
        assert_eq!(out, want_m);

        let mut arg = vec![0u32; 4];
        segment_max_argmax_into(x.as_slice(), 2, &seg, 2, &mut out, &mut arg);
        assert_eq!(out, want_m);
        assert_eq!(arg, vec![1, 1, 3, 2]);
    }

    #[test]
    fn softmax_and_normalize_match_tape() {
        let x = Matrix::from_rows(&[&[0.3, -1.2, 4.0], &[-0.5, -0.5, 2.5]]);
        let mut g = Graph::new();
        let xi = g.input(x.clone());
        let want_soft = g.softmax_values(xi);
        let norm = g.row_l2_normalize(xi);
        let want_norm = g.value(norm).as_slice().to_vec();

        let mut buf = x.as_slice().to_vec();
        softmax_rows_in_place(&mut buf, 3);
        assert_eq!(buf, want_soft.as_slice());
        let mut buf = x.as_slice().to_vec();
        row_l2_normalize_in_place(&mut buf, 3);
        assert_eq!(buf, want_norm);
    }

    #[test]
    fn scratch_reuses_buffers_and_tracks_high_water() {
        let mut s = Scratch::new();
        let a = s.take(8);
        let b = s.take(4);
        assert_eq!(s.high_water_bytes(), 12 * 4);
        let cap_a = a.capacity();
        s.put(a);
        s.put(b);
        let c = s.take(6); // recycled, no fresh allocation needed
        assert!(c.capacity() >= 6);
        assert!(c.iter().all(|&v| v == 0.0));
        assert!(cap_a >= 6 || c.capacity() >= 6);
        assert_eq!(s.high_water_bytes(), 12 * 4);
    }

    #[test]
    fn scratch_pool_folds_peaks() {
        let pool = ScratchPool::new();
        pool.with(|s| {
            let a = s.take(16);
            s.put(a);
        });
        assert_eq!(pool.high_water_bytes(), 64);
    }

    #[test]
    fn lease_holds_arena_exclusively_and_returns_it() {
        let pool = ScratchPool::new();
        {
            let mut lease = pool.lease();
            let a = lease.take(32);
            lease.put(a);
            // A second concurrent lease gets its own arena, not the
            // checked-out one.
            let mut other = pool.lease();
            let b = other.take(8);
            other.put(b);
        }
        // Both arenas returned; the pool-wide peak folds the larger one.
        assert_eq!(pool.high_water_bytes(), 128);
        // The free list is reused: a new lease recycles a returned arena
        // whose per-arena high-water mark is already recorded.
        let lease = pool.lease();
        assert!(lease.high_water_bytes() > 0);
    }

    #[test]
    fn lease_concurrent_leases_do_not_share_state() {
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let mut lease = pool.lease();
                        let a = lease.take(64);
                        assert!(a.iter().all(|&v| v == 0.0));
                        lease.put(a);
                    }
                });
            }
        });
        assert_eq!(pool.high_water_bytes(), 256);
    }
}
