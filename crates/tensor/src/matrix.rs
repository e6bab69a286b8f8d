use rand::Rng;
use std::fmt;

/// A dense row-major `f32` matrix — the only tensor shape the MPLD
/// networks need (node-feature matrices `n x d` and weight matrices).
///
/// # Example
///
/// ```
/// use mpld_tensor::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Microkernel row tile: number of output rows whose accumulators stay in
/// registers across the whole k loop.
const MR: usize = 4;
/// Microkernel column tile: sized to a couple of SIMD lanes so the inner
/// loop autovectorizes at the baseline x86-64 target.
const NR: usize = 8;

/// The row-major `C = A * B` kernel shared by [`Matrix::matmul`] and the
/// tape-free [`crate::infer`] primitives. Keeping a single entry point
/// guarantees both paths produce bit-identical results: the frozen
/// inference engine promises outputs that match the autodiff tape to the
/// last ulp, which only holds if they dispatch to the same microkernel.
///
/// `c` is fully overwritten (no accumulate-into semantics).
pub(crate) fn gemm_nn(m: usize, kk: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2_fma() {
        // SAFETY: the AVX2+FMA feature check just passed.
        unsafe { x86::gemm_wide(m, kk, n, a, kk, 1, b, c) };
        return;
    }
    let mut i = 0;
    while i < m {
        let ib = (m - i).min(MR);
        let mut j = 0;
        while j < n {
            let jb = (n - j).min(NR);
            if ib == MR && jb == NR {
                // Full MR x NR microkernel: the C tile lives in local
                // accumulators across the whole k loop, so the inner
                // loop is pure load-a/load-b/FMA and autovectorizes.
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..kk {
                    let bs = &b[p * n + j..p * n + j + NR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = a[(i + r) * kk + p];
                        for (o, &bv) in accr.iter_mut().zip(bs) {
                            *o += av * bv;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    c[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(accr);
                }
            } else {
                for r in 0..ib {
                    for col in 0..jb {
                        let mut s = 0.0;
                        for p in 0..kk {
                            s += a[(i + r) * kk + p] * b[p * n + j + col];
                        }
                        c[(i + r) * n + j + col] = s;
                    }
                }
            }
            j += jb;
        }
        i += ib;
    }
}

/// Row-major `C = Aᵀ * B` kernel (A stored `kk x m`, read transposed)
/// shared by [`Matrix::matmul_tn`] and the tape's MatMul backward pass.
/// `c` is fully overwritten.
pub(crate) fn gemm_tn(kk: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), kk * m);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2_fma() {
        // SAFETY: the AVX2+FMA feature check just passed. A is read
        // transposed: element (p, row) of the stored matrix, i.e. row
        // stride 1 and p stride `m`.
        unsafe { x86::gemm_wide(m, kk, n, a, 1, m, b, c) };
        return;
    }
    let mut i = 0;
    while i < m {
        let ib = (m - i).min(MR);
        let mut j = 0;
        while j < n {
            let jb = (n - j).min(NR);
            if ib == MR && jb == NR {
                // out[i..i+MR][j..j+NR] += A[p][i..i+MR] (contiguous)
                // x B[p][j..j+NR] (contiguous) summed over p.
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..kk {
                    let avs = &a[p * m + i..p * m + i + MR];
                    let bs = &b[p * n + j..p * n + j + NR];
                    for (accr, &av) in acc.iter_mut().zip(avs) {
                        for (o, &bv) in accr.iter_mut().zip(bs) {
                            *o += av * bv;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    c[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(accr);
                }
            } else {
                for r in 0..ib {
                    for col in 0..jb {
                        let mut s = 0.0;
                        for p in 0..kk {
                            s += a[p * m + i + r] * b[p * n + j + col];
                        }
                        c[(i + r) * n + j + col] = s;
                    }
                }
            }
            j += jb;
        }
        i += ib;
    }
}

/// Row-major `C = A * Bᵀ` kernel (B stored `n x kk`, read transposed)
/// shared by [`Matrix::matmul_nt`] and the tape's MatMul backward pass.
/// `c` is fully overwritten.
pub(crate) fn gemm_nt(m: usize, kk: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), n * kk);
    debug_assert_eq!(c.len(), m * n);
    let mut i = 0;
    while i < m {
        let ib = (m - i).min(MR);
        let mut j = 0;
        while j < n {
            let jb = (n - j).min(MR);
            if ib == MR && jb == MR {
                // MR x MR tile of dot products: each p contributes MR
                // a-values x MR b-values from contiguous rows of A and
                // B, accumulated in registers.
                let mut acc = [[0.0f32; MR]; MR];
                for p in 0..kk {
                    let mut avs = [0.0f32; MR];
                    let mut bvs = [0.0f32; MR];
                    for r in 0..MR {
                        avs[r] = a[(i + r) * kk + p];
                        bvs[r] = b[(j + r) * kk + p];
                    }
                    for (accr, &av) in acc.iter_mut().zip(&avs) {
                        for (o, &bv) in accr.iter_mut().zip(&bvs) {
                            *o += av * bv;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    c[(i + r) * n + j..(i + r) * n + j + MR].copy_from_slice(accr);
                }
            } else {
                for r in 0..ib {
                    let arow = &a[(i + r) * kk..(i + r + 1) * kk];
                    for col in 0..jb {
                        let brow = &b[(j + col) * kk..(j + col + 1) * kk];
                        c[(i + r) * n + j + col] =
                            arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
                    }
                }
            }
            j += jb;
        }
        i += ib;
    }
}

/// Name of the GEMM microkernel selected at runtime (`"avx2fma"` or
/// `"scalar"`). Recorded in benchmark artifacts so CI only compares
/// floating-point-sensitive digests between runs on the same kernel.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2_fma() {
        return "avx2fma";
    }
    "scalar"
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows * cols"
        );
        Matrix { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Xavier/Glorot-style random initialization.
    pub fn glorot<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the matrix, returning its backing buffer — the recycling
    /// hook for scratch-pooled callers (the autodiff tape hands op
    /// outputs and gradient buffers back to its free list through this).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Flat row-major mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`, computed with the register-tiled
    /// kernel ([`Self::matmul_naive`] is the reference oracle).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let (m, kk, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        gemm_nn(m, kk, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// `selfᵀ * other` without materializing the transpose (register-tiled;
    /// [`Self::matmul_tn_naive`] is the reference oracle).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "row counts must agree for tn product"
        );
        let (kk, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        gemm_tn(kk, m, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// `self * otherᵀ` without materializing the transpose (register-tiled;
    /// [`Self::matmul_nt_naive`] is the reference oracle).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "col counts must agree for nt product"
        );
        let (m, kk, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        gemm_nt(m, kk, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// Naive triple-loop `self * other` — the property-test reference
    /// oracle for [`Self::matmul`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Naive `selfᵀ * other` — the reference oracle for
    /// [`Self::matmul_tn`].
    pub fn matmul_tn_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "row counts must agree for tn product"
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            for i in 0..self.cols {
                let a = self.data[r * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[r * other.cols..(r + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Naive `self * otherᵀ` — the reference oracle for
    /// [`Self::matmul_nt`].
    pub fn matmul_nt_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "col counts must agree for nt product"
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..other.rows {
                let brow = &other.data[j * other.cols..(j + 1) * other.cols];
                out.data[i * other.rows + j] = arow.iter().zip(brow).map(|(&a, &b)| a * b).sum();
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise scaled in-place addition `self += s * other`.
    pub fn add_scaled_assign(&mut self, other: &Matrix, s: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Returns `self` scaled by `s`.
    pub fn scaled(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|&x| x * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// The single element of a `1 x 1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `1 x 1`.
    pub fn scalar(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "scalar() requires a 1 x 1 matrix"
        );
        self.data[0]
    }
}

/// Runtime-dispatched AVX2+FMA microkernels. The crate compiles at the
/// baseline x86-64 target (SSE2), where the scalar-tiled loops above are
/// compute-bound near the 4-lane peak; on CPUs with 8-lane FMA these
/// kernels roughly triple matmul throughput. Detection is per call and
/// cached by `std::arch`; the scalar-tiled path remains the portable
/// fallback (and the `*_naive` oracles pin both paths in the property
/// tests).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// Microkernel row tile (output rows held in registers).
    const MR: usize = 4;
    /// Microkernel column tile: two 8-lane AVX registers per output row.
    const NR: usize = 16;

    /// Whether the wide kernels may run on this CPU.
    pub fn have_avx2_fma() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// `C = op(A) * B` for row-major `C` (`m x n`) and `B` (`k x n`),
    /// where `op(A)[r][p] = a[r * a_rs + p * a_ps]` — `(a_rs, a_ps) =
    /// (k, 1)` reads `A` plainly, `(1, m)` reads it transposed, covering
    /// both `matmul` and `matmul_tn` with one kernel.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available ([`have_avx2_fma`]) and
    /// that the slices have the shapes implied by `(m, k, n)`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_wide(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        c: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + MR <= m {
            let mut j = 0;
            while j + NR <= n {
                // Full MR x NR tile: 8 accumulator registers across the
                // whole k loop; 2 loads + 4 broadcasts + 8 FMAs per step.
                let mut acc = [_mm256_setzero_ps(); 2 * MR];
                for p in 0..k {
                    let brow = bp.add(p * n + j);
                    let b0 = _mm256_loadu_ps(brow);
                    let b1 = _mm256_loadu_ps(brow.add(8));
                    for r in 0..MR {
                        let av = _mm256_set1_ps(*ap.add((i + r) * a_rs + p * a_ps));
                        acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                        acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                    }
                }
                for r in 0..MR {
                    let crow = cp.add((i + r) * n + j);
                    _mm256_storeu_ps(crow, acc[2 * r]);
                    _mm256_storeu_ps(crow.add(8), acc[2 * r + 1]);
                }
                j += NR;
            }
            if j < n {
                edge_wide(i, MR, j, n, k, ap, a_rs, a_ps, bp, cp);
            }
            i += MR;
        }
        if i < m {
            edge_wide(i, m - i, 0, n, k, ap, a_rs, a_ps, bp, cp);
        }
    }

    /// Ragged-edge rows/columns: plain dot loops, still compiled with
    /// AVX2+FMA enabled so the compiler vectorizes what it can.
    ///
    /// # Safety
    ///
    /// Same contract as [`gemm_wide`]; `[i, i + ib) x [j, n)` must lie
    /// within the output.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn edge_wide(
        i: usize,
        ib: usize,
        j: usize,
        n: usize,
        k: usize,
        ap: *const f32,
        a_rs: usize,
        a_ps: usize,
        bp: *const f32,
        cp: *mut f32,
    ) {
        for r in i..i + ib {
            for col in j..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += *ap.add(r * a_rs + p * a_ps) * *bp.add(p * n + col);
                }
                *cp.add(r * n + col) = s;
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::eye(2)), a);
        assert_eq!(Matrix::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.0], &[-1.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.scalar(), -2.0);
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 0.0]]);
        // aᵀ (2x3) * b (3x3) = 2x3
        let tn = a.matmul_tn(&b);
        assert_eq!(tn.rows(), 2);
        assert_eq!(tn.cols(), 3);
        assert_eq!(tn[(0, 0)], 1.0 * 1.0 + 3.0 * 0.0 + 5.0 * 1.0);
        // b (3x3) * aᵀ? shapes: nt of (3x2)*(3x2)ᵀ
        let nt = a.matmul_nt(&a);
        assert_eq!(nt.rows(), 3);
        assert_eq!(nt.cols(), 3);
        assert_eq!(nt[(0, 1)], 1.0 * 3.0 + 2.0 * 4.0);
        assert_eq!(nt[(1, 0)], nt[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scalar_reads_the_single_element() {
        let s = Matrix::from_rows(&[&[7.5]]);
        assert_eq!(s.scalar(), 7.5);
    }

    #[test]
    fn add_scaled() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, -2.0]]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 0.0]]));
    }
}
