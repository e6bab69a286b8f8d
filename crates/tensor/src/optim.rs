//! Parameter storage and optimizers (SGD and Adam).
//!
//! Each forward pass builds a fresh [`crate::Graph`]; trainable weights
//! live across passes in a [`ParamSet`]. Bind them into a graph with
//! [`ParamSet::bind`], backpropagate, then call [`ParamSet::apply_grads`]
//! followed by an optimizer step.

use crate::{Graph, Matrix, VarId};

/// Identifier of a parameter inside a [`ParamSet`].
pub type ParamId = usize;

/// Which update rule [`ParamSet::step`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd,
    /// Adam with the standard `beta1 = 0.9`, `beta2 = 0.999`.
    Adam,
}

/// A set of trainable matrices with Adam moment buffers.
///
/// # Example
///
/// ```
/// use mpld_tensor::{Graph, Matrix, Optimizer, ParamSet};
///
/// // Fit w to minimize (3 - w)^2-ish via the tape: loss = (x*w - y)^2
/// let mut params = ParamSet::new(Optimizer::Adam);
/// let w = params.add(Matrix::from_vec(1, 1, vec![0.0]));
/// for _ in 0..500 {
///     let mut g = Graph::new();
///     let wv = params.bind(&mut g, w);
///     let x = g.input(Matrix::from_vec(1, 1, vec![1.0]));
///     let pred = g.matmul(x, wv);
///     // (pred - 3)^2 expressed with the available ops:
///     let minus3 = g.input(Matrix::from_vec(1, 1, vec![-3.0]));
///     let diff = g.add(pred, minus3);
///     let sq = g.matmul(diff, diff);
///     g.backward(sq);
///     params.apply_grads(&g);
///     params.step(0.05);
/// }
/// assert!((params.value(w).scalar() - 3.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct ParamSet {
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
    optimizer: Optimizer,
    bindings: Vec<(ParamId, VarId)>,
}

impl ParamSet {
    /// Creates an empty parameter set with the given update rule.
    pub fn new(optimizer: Optimizer) -> Self {
        ParamSet {
            values: Vec::new(),
            grads: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
            optimizer,
            bindings: Vec::new(),
        }
    }

    /// Registers a new parameter initialized to `init`.
    pub fn add(&mut self, init: Matrix) -> ParamId {
        let id = self.values.len();
        self.grads.push(Matrix::zeros(init.rows(), init.cols()));
        self.m.push(Matrix::zeros(init.rows(), init.cols()));
        self.v.push(Matrix::zeros(init.rows(), init.cols()));
        self.values.push(init);
        id
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id]
    }

    /// Overwrites a parameter value (used by tests and model loading).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the registered shape.
    pub fn set_value(&mut self, id: ParamId, value: Matrix) {
        assert_eq!(
            (self.values[id].rows(), self.values[id].cols()),
            (value.rows(), value.cols()),
            "parameter shape mismatch"
        );
        self.values[id] = value;
    }

    /// Inserts the parameter into `graph` as a trainable leaf and records
    /// the binding for [`ParamSet::apply_grads`]. The value is copied into
    /// the graph's pooled arena, so re-binding every step allocates
    /// nothing once the tape has warmed up.
    pub fn bind(&mut self, graph: &mut Graph, id: ParamId) -> VarId {
        let var = graph.param_copied(&self.values[id]);
        self.bindings.push((id, var));
        var
    }

    /// Inserts the parameter into `graph` as a **constant** leaf: no
    /// gradient is tracked and no binding is recorded, so the set itself
    /// stays immutable. This is the inference-path counterpart of
    /// [`ParamSet::bind`] — it makes forward passes `&self` and therefore
    /// shareable across threads (per-call tape state lives in `graph`,
    /// never in the parameter set).
    pub fn bind_frozen(&self, graph: &mut Graph, id: ParamId) -> VarId {
        graph.input(self.values[id].clone())
    }

    /// Accumulates the gradients of all bound parameters from `graph`
    /// (after `graph.backward(..)`) and clears the bindings.
    ///
    /// Parameters that were bound but not reached by backprop contribute
    /// nothing.
    pub fn apply_grads(&mut self, graph: &Graph) {
        let bindings = std::mem::take(&mut self.bindings);
        for (pid, var) in bindings {
            if let Some(g) = graph.try_grad(var) {
                self.grads[pid].add_assign(g);
            }
        }
    }

    /// Sets all accumulated gradients to zero.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            for x in g.as_mut_slice() {
                *x = 0.0;
            }
        }
    }

    /// Writes all parameter values to `writer` in a simple binary format
    /// (magic, parameter count, then per-matrix rows/cols/LE f32 data).
    /// Optimizer state is not persisted.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_values<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(b"MPLDW001")?;
        writer.write_all(&(self.values.len() as u64).to_le_bytes())?;
        for m in &self.values {
            writer.write_all(&(m.rows() as u64).to_le_bytes())?;
            writer.write_all(&(m.cols() as u64).to_le_bytes())?;
            for &x in m.as_slice() {
                writer.write_all(&x.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Restores parameter values previously written with
    /// [`ParamSet::write_values`]. The parameter count and every matrix
    /// shape must match this set's registered parameters.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a magic/count/shape mismatch and
    /// propagates reader errors.
    pub fn read_values<R: std::io::Read>(&mut self, mut reader: R) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != b"MPLDW001" {
            return Err(Error::new(ErrorKind::InvalidData, "bad weight-file magic"));
        }
        let mut u64buf = [0u8; 8];
        reader.read_exact(&mut u64buf)?;
        let count = u64::from_le_bytes(u64buf) as usize;
        if count != self.values.len() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "parameter count mismatch: file {count}, model {}",
                    self.values.len()
                ),
            ));
        }
        for m in &mut self.values {
            reader.read_exact(&mut u64buf)?;
            let rows = u64::from_le_bytes(u64buf) as usize;
            reader.read_exact(&mut u64buf)?;
            let cols = u64::from_le_bytes(u64buf) as usize;
            if rows != m.rows() || cols != m.cols() {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "shape mismatch: file {rows}x{cols}, model {}x{}",
                        m.rows(),
                        m.cols()
                    ),
                ));
            }
            let mut f32buf = [0u8; 4];
            for x in m.as_mut_slice() {
                reader.read_exact(&mut f32buf)?;
                *x = f32::from_le_bytes(f32buf);
            }
        }
        Ok(())
    }

    /// Applies one optimizer step with learning rate `lr`, consuming the
    /// accumulated gradients (which are zeroed afterwards).
    ///
    /// Both update rules run as a single fused pass per parameter: the
    /// gradient is read and zeroed in the same sweep that updates the
    /// moments and the weights, so no per-step gradient clone or separate
    /// zeroing pass remains. The per-element arithmetic is unchanged, so
    /// trajectories are bit-identical to the unfused update.
    pub fn step(&mut self, lr: f32) {
        self.t += 1;
        let Self {
            values,
            grads,
            m,
            v,
            t,
            optimizer,
            ..
        } = self;
        match optimizer {
            Optimizer::Sgd => {
                for (value, grad) in values.iter_mut().zip(grads.iter_mut()) {
                    for (val, gx) in value.as_mut_slice().iter_mut().zip(grad.as_mut_slice()) {
                        *val += -lr * *gx;
                        *gx = 0.0;
                    }
                }
            }
            Optimizer::Adam => {
                let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
                let bc1 = 1.0 - b1.powi(*t as i32);
                let bc2 = 1.0 - b2.powi(*t as i32);
                for i in 0..values.len() {
                    for ((m, v), (gx, val)) in
                        m[i].as_mut_slice().iter_mut().zip(v[i].as_mut_slice()).zip(
                            grads[i]
                                .as_mut_slice()
                                .iter_mut()
                                .zip(values[i].as_mut_slice()),
                        )
                    {
                        let g = *gx;
                        *gx = 0.0;
                        *m = b1 * *m + (1.0 - b1) * g;
                        *v = b2 * *v + (1.0 - b2) * g * g;
                        let mhat = *m / bc1;
                        let vhat = *v / bc2;
                        *val -= lr * mhat / (vhat.sqrt() + eps);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_minimizes_quadratic() {
        // loss = (w - 5)^2 via tape.
        let mut ps = ParamSet::new(Optimizer::Sgd);
        let w = ps.add(Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..200 {
            let mut g = Graph::new();
            let wv = ps.bind(&mut g, w);
            let c = g.input(Matrix::from_vec(1, 1, vec![-5.0]));
            let diff = g.add(wv, c);
            let sq = g.matmul(diff, diff);
            g.backward(sq);
            ps.apply_grads(&g);
            ps.step(0.1);
        }
        assert!((ps.value(w).scalar() - 5.0).abs() < 1e-3);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut ps = ParamSet::new(Optimizer::Adam);
        let w = ps.add(Matrix::from_vec(1, 1, vec![10.0]));
        for _ in 0..800 {
            let mut g = Graph::new();
            let wv = ps.bind(&mut g, w);
            let c = g.input(Matrix::from_vec(1, 1, vec![2.0]));
            let diff = g.add(wv, c); // w + 2, min at w = -2
            let sq = g.matmul(diff, diff);
            g.backward(sq);
            ps.apply_grads(&g);
            ps.step(0.05);
        }
        assert!((ps.value(w).scalar() + 2.0).abs() < 0.05);
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut ps = ParamSet::new(Optimizer::Sgd);
        let w = ps.add(Matrix::from_vec(1, 1, vec![1.0]));
        let mut g = Graph::new();
        let wv = ps.bind(&mut g, w);
        let out = g.scale_const(wv, 3.0);
        g.backward(out);
        ps.apply_grads(&g);
        ps.zero_grads();
        ps.step(1.0); // no-op update
        assert_eq!(ps.value(w).scalar(), 1.0);
    }

    #[test]
    fn weights_round_trip() {
        let mut a = ParamSet::new(Optimizer::Adam);
        let w1 = a.add(Matrix::from_rows(&[&[1.5, -2.5], &[0.25, 4.0]]));
        let w2 = a.add(Matrix::from_vec(1, 1, vec![7.125]));
        let mut buf = Vec::new();
        a.write_values(&mut buf).expect("write");
        let mut b = ParamSet::new(Optimizer::Adam);
        let _ = b.add(Matrix::zeros(2, 2));
        let _ = b.add(Matrix::zeros(1, 1));
        b.read_values(buf.as_slice()).expect("read");
        assert_eq!(b.value(0), a.value(w1));
        assert_eq!(b.value(1), a.value(w2));
    }

    #[test]
    fn weights_reject_shape_mismatch() {
        let mut a = ParamSet::new(Optimizer::Sgd);
        a.add(Matrix::zeros(2, 3));
        let mut buf = Vec::new();
        a.write_values(&mut buf).expect("write");
        let mut b = ParamSet::new(Optimizer::Sgd);
        b.add(Matrix::zeros(3, 2));
        assert!(b.read_values(buf.as_slice()).is_err());
        let mut c = ParamSet::new(Optimizer::Sgd);
        c.add(Matrix::zeros(2, 3));
        c.add(Matrix::zeros(1, 1));
        assert!(c.read_values(buf.as_slice()).is_err());
    }

    #[test]
    fn weights_reject_bad_magic() {
        let mut b = ParamSet::new(Optimizer::Sgd);
        b.add(Matrix::zeros(1, 1));
        assert!(b.read_values(&b"NOTMAGIC_____"[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_value_rejects_wrong_shape() {
        let mut ps = ParamSet::new(Optimizer::Sgd);
        let w = ps.add(Matrix::zeros(2, 2));
        ps.set_value(w, Matrix::zeros(1, 2));
    }
}
