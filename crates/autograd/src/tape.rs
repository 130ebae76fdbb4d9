//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a forward computation over [`Matrix`] values as a DAG
//! of nodes; [`Tape::backward`] walks the tape in reverse, accumulating
//! gradients. Trainable parameters live in a [`ParamStore`] outside the
//! tape (the tape is rebuilt every step), and
//! [`Tape::accumulate_param_grads`] exports gradients back to the store for
//! the optimizer.
//!
//! The op set is exactly what the HGNN heads and the gradient-matching
//! baselines (GCond / HGCond) need — including `matmul_tn`, which lets the
//! *analytic relay gradient* `Xᵀ(softmax(XW) − Y)/n` be expressed as a
//! first-order forward computation so the gradient-matching loss is
//! differentiable without double-backward.
//!
//! Gradients flow only where a parameter can be reached. Each node
//! notes, as it is recorded, whether it *requires a gradient*: a
//! constant does not, a parameter does, and any other op does exactly
//! when one of its inputs does. [`Tape::backward`] never computes a
//! gradient for a node that does not, so a constant input — the `X_i`
//! of every `X_i·W_i` projection, a frozen relay weight, a label
//! matrix — costs no backward work, and [`Gradients::get`] returns
//! `None` for it. The pruned gradients are exactly those no parameter
//! depends on, so every parameter gradient keeps its bits.

use crate::matrix::Matrix;
use crate::tanh::tanh_in_place;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// Trainable parameters with their gradients and Adam moments.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Matrix::zeros(value.rows, value.cols));
        self.values.push(value);
        id
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.grads[id.0]
    }

    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill(0.0);
        }
    }

    pub fn param_ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|m| m.data.len()).sum()
    }
}

enum Op {
    Constant,
    Param(ParamId),
    MatMul(NodeId, NodeId),
    /// `C = AᵀB`.
    MatMulTN(NodeId, NodeId),
    Add(NodeId, NodeId),
    /// `C = A + 1·bias`, bias is `1 × cols`.
    AddBias(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Hadamard(NodeId, NodeId),
    Scale(NodeId, f32),
    Relu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    /// Mask stored in `aux` (inverted dropout).
    Dropout(NodeId),
    SoftmaxRows(NodeId),
    /// Labels stored in the node; softmax probabilities in `aux`.
    CrossEntropyMean(NodeId),
    SumSquares(NodeId),
    AddN(Vec<NodeId>),
    /// `C = Σ_i w[0,i] · M_i`; `weights` is `1 × L`.
    WeightedSum {
        mats: Vec<NodeId>,
        weights: NodeId,
    },
    ConcatCols(Vec<NodeId>),
}

struct Node<'a> {
    op: Op,
    /// Borrowed only for a constant inserted with
    /// [`Tape::constant_ref`].
    value: Cow<'a, Matrix>,
    aux: Option<Matrix>,
    labels: Option<Vec<u32>>,
    /// Whether a parameter reaches this node, so that its gradient can
    /// matter (see the module docs).
    requires_grad: bool,
}

/// A single forward computation; build ops, call [`Tape::backward`] once.
/// Constants inserted with [`Tape::constant_ref`] are borrowed for the
/// tape's lifetime `'a` instead of copied.
#[derive(Default)]
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
}

impl<'a> Tape<'a> {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: Op, value: Matrix) -> NodeId {
        self.push_value(op, Cow::Owned(value))
    }

    fn push_value(&mut self, op: Op, value: Cow<'a, Matrix>) -> NodeId {
        let req = |id: &NodeId| self.nodes[id.0].requires_grad;
        let requires_grad = match &op {
            Op::Constant => false,
            Op::Param(_) => true,
            Op::MatMul(a, b)
            | Op::MatMulTN(a, b)
            | Op::Add(a, b)
            | Op::AddBias(a, b)
            | Op::Sub(a, b)
            | Op::Hadamard(a, b) => req(a) || req(b),
            Op::Scale(a, _)
            | Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Dropout(a)
            | Op::SoftmaxRows(a)
            | Op::CrossEntropyMean(a)
            | Op::SumSquares(a) => req(a),
            Op::AddN(parts) | Op::ConcatCols(parts) => parts.iter().any(req),
            Op::WeightedSum { mats, weights } => req(weights) || mats.iter().any(req),
        };
        self.nodes.push(Node {
            op,
            value,
            aux: None,
            labels: None,
            requires_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// The current value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Inserts a non-trainable input. It never receives a gradient, and
    /// neither does any node computed from constants alone.
    pub fn constant(&mut self, m: Matrix) -> NodeId {
        self.push(Op::Constant, m)
    }

    /// [`Tape::constant`] without the copy: the tape borrows `m` for its
    /// lifetime.
    pub fn constant_ref(&mut self, m: &'a Matrix) -> NodeId {
        self.push_value(Op::Constant, Cow::Borrowed(m))
    }

    /// Inserts a trainable parameter (its value is copied from the store).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        self.push(Op::Param(id), store.value(id).clone())
    }

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a, b), v)
    }

    /// `AᵀB`.
    pub fn matmul_tn(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.matmul_tn(&self.nodes[b.0].value);
        self.push(Op::MatMulTN(a, b), v)
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(Op::Add(a, b), v)
    }

    /// Adds a `1 × cols` bias row to every row of `a`.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(bias));
        assert_eq!(bv.rows, 1, "bias must be a single row");
        assert_eq!(bv.cols, av.cols, "bias width mismatch");
        let mut v = av.clone();
        for r in 0..v.rows {
            for (x, y) in v.row_mut(r).iter_mut().zip(bv.row(0)) {
                *x += y;
            }
        }
        self.push(Op::AddBias(a, bias), v)
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(Op::Sub(a, b), v)
    }

    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(Op::Hadamard(a, b), v)
    }

    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.nodes[a.0].value.scale(s);
        self.push(Op::Scale(a, s), v)
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        for x in v.data.iter_mut() {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        self.push(Op::Relu(a), v)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        for x in v.data.iter_mut() {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        self.push(Op::Sigmoid(a), v)
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        tanh_in_place(&mut v.data);
        self.push(Op::Tanh(a), v)
    }

    /// Inverted dropout: at train time each entry is zeroed with
    /// probability `p` and survivors are scaled by `1/(1−p)`.
    pub fn dropout(&mut self, a: NodeId, p: f32, rng: &mut StdRng) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        let src = &self.nodes[a.0].value;
        let keep = 1.0 - p;
        let mut mask = Matrix::zeros(src.rows, src.cols);
        for m in mask.data.iter_mut() {
            if rng.gen::<f32>() < keep {
                *m = 1.0 / keep;
            }
        }
        let v = src.hadamard(&mask);
        let id = self.push(Op::Dropout(a), v);
        self.nodes[id.0].aux = Some(mask);
        id
    }

    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.softmax_rows();
        self.push(Op::SoftmaxRows(a), v)
    }

    /// Mean cross-entropy of row-wise softmax against integer labels;
    /// returns a scalar node.
    pub fn cross_entropy_mean(&mut self, logits: NodeId, labels: &[u32]) -> NodeId {
        let probs = self.nodes[logits.0].value.softmax_rows();
        assert_eq!(probs.rows, labels.len(), "one label per row");
        let n = labels.len().max(1) as f32;
        let mut loss = 0f32;
        for (r, &y) in labels.iter().enumerate() {
            loss -= (probs.get(r, y as usize) + 1e-12).ln();
        }
        let id = self.push(Op::CrossEntropyMean(logits), Matrix::scalar(loss / n));
        self.nodes[id.0].aux = Some(probs);
        self.nodes[id.0].labels = Some(labels.to_vec());
        id
    }

    /// Sum of squared entries; returns a scalar node.
    pub fn sum_squares(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::scalar(self.nodes[a.0].value.sum_squares());
        self.push(Op::SumSquares(a), v)
    }

    /// Element-wise sum of same-shape nodes.
    pub fn add_n(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let mut v = self.value(parts[0]).clone();
        for p in &parts[1..] {
            v.add_assign(&self.nodes[p.0].value);
        }
        self.push(Op::AddN(parts.to_vec()), v)
    }

    /// `Σ_i w[0,i]·M_i` with a differentiable `1 × L` weight node — the
    /// semantic-attention fusion primitive.
    pub fn weighted_sum(&mut self, mats: &[NodeId], weights: NodeId) -> NodeId {
        assert!(!mats.is_empty());
        let w = &self.nodes[weights.0].value;
        assert_eq!(w.rows, 1, "weights must be 1 × L");
        assert_eq!(w.cols, mats.len(), "one weight per matrix");
        let (r, c) = self.nodes[mats[0].0].value.shape();
        let mut v = Matrix::zeros(r, c);
        for (i, &m) in mats.iter().enumerate() {
            let mv = &self.nodes[m.0].value;
            assert_eq!(mv.shape(), (r, c), "weighted_sum shape mismatch");
            let wi = w.get(0, i);
            for (o, &x) in v.data.iter_mut().zip(&mv.data) {
                *o += wi * x;
            }
        }
        self.push(
            Op::WeightedSum {
                mats: mats.to_vec(),
                weights,
            },
            v,
        )
    }

    /// Horizontal concatenation of nodes with equal row counts.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::hcat(&mats);
        self.push(Op::ConcatCols(parts.to_vec()), v)
    }

    /// Reverse-mode sweep from a scalar `loss` node. Returns per-node
    /// gradients; use [`Gradients::get`] / [`Tape::accumulate_param_grads`]
    /// afterwards. Only nodes that require a gradient get one (see the
    /// module docs); a loss computed from constants alone gives none.
    pub fn backward(&mut self, loss: NodeId) -> Gradients {
        let lv = &self.nodes[loss.0].value;
        assert_eq!(lv.shape(), (1, 1), "backward needs a scalar loss");
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        if self.nodes[loss.0].requires_grad {
            grads[loss.0] = Some(Matrix::scalar(1.0));
        }
        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            self.propagate(i, &g, &mut grads);
            grads[i] = Some(g);
        }
        Gradients { grads }
    }

    /// Adds `delta()` to the gradient of `id`, computing it only if `id`
    /// requires a gradient.
    fn add_to(&self, grads: &mut [Option<Matrix>], id: NodeId, delta: impl FnOnce() -> Matrix) {
        if !self.nodes[id.0].requires_grad {
            return;
        }
        let delta = delta();
        match &mut grads[id.0] {
            Some(existing) => existing.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    fn propagate(&self, i: usize, g: &Matrix, grads: &mut [Option<Matrix>]) {
        match &self.nodes[i].op {
            Op::Constant | Op::Param(_) => {}
            Op::MatMul(a, b) => {
                let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                self.add_to(grads, *a, || g.matmul_nt(bv));
                self.add_to(grads, *b, || av.matmul_tn(g));
            }
            Op::MatMulTN(a, b) => {
                let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                self.add_to(grads, *a, || bv.matmul_nt(g));
                self.add_to(grads, *b, || av.matmul(g));
            }
            Op::Add(a, b) => {
                self.add_to(grads, *a, || g.clone());
                self.add_to(grads, *b, || g.clone());
            }
            Op::AddBias(a, bias) => {
                self.add_to(grads, *a, || g.clone());
                self.add_to(grads, *bias, || {
                    let mut db = Matrix::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for (d, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                            *d += x;
                        }
                    }
                    db
                });
            }
            Op::Sub(a, b) => {
                self.add_to(grads, *a, || g.clone());
                self.add_to(grads, *b, || g.scale(-1.0));
            }
            Op::Hadamard(a, b) => {
                let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                self.add_to(grads, *a, || g.hadamard(bv));
                self.add_to(grads, *b, || g.hadamard(av));
            }
            Op::Scale(a, s) => self.add_to(grads, *a, || g.scale(*s)),
            Op::Relu(a) => self.add_to(grads, *a, || {
                let av = &self.nodes[a.0].value;
                let mut d = g.clone();
                for (x, &orig) in d.data.iter_mut().zip(&av.data) {
                    if orig <= 0.0 {
                        *x = 0.0;
                    }
                }
                d
            }),
            Op::Sigmoid(a) => self.add_to(grads, *a, || {
                let s = &self.nodes[i].value;
                let mut d = g.clone();
                for (x, &sv) in d.data.iter_mut().zip(&s.data) {
                    *x *= sv * (1.0 - sv);
                }
                d
            }),
            Op::Tanh(a) => self.add_to(grads, *a, || {
                let t = &self.nodes[i].value;
                let mut d = g.clone();
                for (x, &tv) in d.data.iter_mut().zip(&t.data) {
                    *x *= 1.0 - tv * tv;
                }
                d
            }),
            Op::Dropout(a) => self.add_to(grads, *a, || {
                let mask = self.nodes[i].aux.as_ref().expect("dropout mask");
                g.hadamard(mask)
            }),
            Op::SoftmaxRows(a) => self.add_to(grads, *a, || {
                let s = &self.nodes[i].value;
                let mut d = Matrix::zeros(g.rows, g.cols);
                for r in 0..g.rows {
                    let dot: f32 = g.row(r).iter().zip(s.row(r)).map(|(x, y)| x * y).sum();
                    for ((dv, &gv), &sv) in d.row_mut(r).iter_mut().zip(g.row(r)).zip(s.row(r)) {
                        *dv = sv * (gv - dot);
                    }
                }
                d
            }),
            Op::CrossEntropyMean(logits) => self.add_to(grads, *logits, || {
                let probs = self.nodes[i].aux.as_ref().expect("softmax cache");
                let labels = self.nodes[i].labels.as_ref().expect("labels cache");
                let n = labels.len().max(1) as f32;
                let scale = g.get(0, 0) / n;
                let mut d = probs.clone();
                for (r, &y) in labels.iter().enumerate() {
                    let v = d.get(r, y as usize);
                    d.set(r, y as usize, v - 1.0);
                }
                d.scale(scale)
            }),
            Op::SumSquares(a) => {
                self.add_to(grads, *a, || self.nodes[a.0].value.scale(2.0 * g.get(0, 0)))
            }
            Op::AddN(parts) => {
                for p in parts {
                    self.add_to(grads, *p, || g.clone());
                }
            }
            Op::WeightedSum { mats, weights } => {
                let w = &self.nodes[weights.0].value;
                for (k, m) in mats.iter().enumerate() {
                    self.add_to(grads, *m, || g.scale(w.get(0, k)));
                }
                self.add_to(grads, *weights, || {
                    let mut dw = Matrix::zeros(1, mats.len());
                    for (k, m) in mats.iter().enumerate() {
                        let mv = &self.nodes[m.0].value;
                        let dot: f32 = g.data.iter().zip(&mv.data).map(|(x, y)| x * y).sum();
                        dw.set(0, k, dot);
                    }
                    dw
                });
            }
            Op::ConcatCols(parts) => {
                let mut off = 0usize;
                for p in parts {
                    let pc = self.nodes[p.0].value.cols;
                    self.add_to(grads, *p, || {
                        let mut d = Matrix::zeros(g.rows, pc);
                        for r in 0..g.rows {
                            d.row_mut(r).copy_from_slice(&g.row(r)[off..off + pc]);
                        }
                        d
                    });
                    off += pc;
                }
            }
        }
    }

    /// Adds the gradients of every `param` node into the store.
    pub fn accumulate_param_grads(&self, grads: &Gradients, store: &mut ParamStore) {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Op::Param(pid) = node.op {
                if let Some(g) = &grads.grads[i] {
                    store.grad_mut(pid).add_assign(g);
                }
            }
        }
    }
}

/// Per-node gradients from one backward sweep.
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss with respect to node `id`, if it received
    /// one. A node that does not require a gradient — a constant, or any
    /// node computed from constants alone — never receives one, so this
    /// returns `None` for it even when the loss depends on its value.
    pub fn get(&self, id: NodeId) -> Option<&Matrix> {
        self.grads[id.0].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Central finite-difference check of d(loss)/d(param) for a scalar
    /// loss builder `f`.
    fn grad_check<F>(init: Matrix, f: F)
    where
        F: Fn(&mut Tape, NodeId) -> NodeId,
    {
        let mut store = ParamStore::new();
        let p = store.add(init.clone());

        let mut tape = Tape::new();
        let x = tape.param(&store, p);
        let loss = f(&mut tape, x);
        let grads = tape.backward(loss);
        store.zero_grads();
        tape.accumulate_param_grads(&grads, &mut store);
        let analytic = store.grad(p).clone();

        let eps = 1e-2f32;
        for k in 0..init.data.len() {
            let eval = |delta: f32| -> f32 {
                let mut s2 = ParamStore::new();
                let mut m = init.clone();
                m.data[k] += delta;
                let p2 = s2.add(m);
                let mut t2 = Tape::new();
                let x2 = t2.param(&s2, p2);
                let l2 = f(&mut t2, x2);
                t2.value(l2).get(0, 0)
            };
            let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let a = analytic.data[k];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "grad mismatch at {k}: analytic {a}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_matmul_sum_squares() {
        grad_check(Matrix::xavier(3, 4, 1), |t, x| {
            let w = t.constant(Matrix::xavier(4, 2, 2));
            let h = t.matmul(x, w);
            t.sum_squares(h)
        });
    }

    #[test]
    fn grad_matmul_tn() {
        grad_check(Matrix::xavier(4, 3, 3), |t, x| {
            let b = t.constant(Matrix::xavier(4, 2, 4));
            let h = t.matmul_tn(x, b);
            t.sum_squares(h)
        });
    }

    #[test]
    fn grad_relu_chain() {
        grad_check(Matrix::xavier(3, 3, 5), |t, x| {
            let h = t.relu(x);
            t.sum_squares(h)
        });
    }

    #[test]
    fn grad_sigmoid_tanh() {
        grad_check(Matrix::xavier(2, 3, 6), |t, x| {
            let s = t.sigmoid(x);
            let h = t.tanh(s);
            t.sum_squares(h)
        });
    }

    #[test]
    fn grad_softmax_rows() {
        grad_check(Matrix::xavier(3, 4, 7), |t, x| {
            let s = t.softmax_rows(x);
            let c = t.constant(Matrix::from_vec(
                3,
                4,
                (0..12).map(|i| i as f32 * 0.1).collect(),
            ));
            let h = t.hadamard(s, c);
            t.sum_squares(h)
        });
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check(Matrix::xavier(4, 3, 8), |t, x| {
            t.cross_entropy_mean(x, &[0, 1, 2, 1])
        });
    }

    #[test]
    fn grad_bias_and_sub() {
        grad_check(Matrix::xavier(1, 4, 9), |t, bias| {
            let a = t.constant(Matrix::xavier(3, 4, 10));
            let h = t.add_bias(a, bias);
            let c = t.constant(Matrix::xavier(3, 4, 11));
            let d = t.sub(h, c);
            t.sum_squares(d)
        });
    }

    #[test]
    fn grad_weighted_sum_weights() {
        grad_check(Matrix::from_vec(1, 3, vec![0.5, -0.2, 0.1]), |t, w| {
            let m1 = t.constant(Matrix::xavier(2, 2, 12));
            let m2 = t.constant(Matrix::xavier(2, 2, 13));
            let m3 = t.constant(Matrix::xavier(2, 2, 14));
            let s = t.weighted_sum(&[m1, m2, m3], w);
            t.sum_squares(s)
        });
    }

    #[test]
    fn grad_weighted_sum_matrices() {
        grad_check(Matrix::xavier(2, 2, 15), |t, m| {
            let m2 = t.constant(Matrix::xavier(2, 2, 16));
            let w = t.constant(Matrix::from_vec(1, 2, vec![0.7, 0.3]));
            let s = t.weighted_sum(&[m, m2], w);
            t.sum_squares(s)
        });
    }

    #[test]
    fn grad_concat_cols() {
        grad_check(Matrix::xavier(2, 2, 17), |t, m| {
            let m2 = t.constant(Matrix::xavier(2, 3, 18));
            let c = t.concat_cols(&[m, m2]);
            t.sum_squares(c)
        });
    }

    #[test]
    fn grad_add_n_and_scale() {
        grad_check(Matrix::xavier(2, 2, 19), |t, m| {
            let s1 = t.scale(m, 0.5);
            let s2 = t.scale(m, 2.0);
            let sum = t.add_n(&[s1, s2, m]);
            t.sum_squares(sum)
        });
    }

    #[test]
    fn dropout_zero_p_is_identity_and_mask_backprop() {
        let mut store = ParamStore::new();
        let p = store.add(Matrix::xavier(3, 3, 20));
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = Tape::new();
        let x = t.param(&store, p);
        let d = t.dropout(x, 0.0, &mut rng);
        assert_eq!(t.value(d), store.value(p));
        let loss = t.sum_squares(d);
        let g = t.backward(loss);
        t.accumulate_param_grads(&g, &mut store);
        let expect = store.value(p).scale(2.0);
        for (a, b) in store.grad(p).data.iter().zip(&expect.data) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn dropout_masks_proportion() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(100, 10, vec![1.0; 1000]));
        let d = t.dropout(x, 0.5, &mut rng);
        let zeros = t.value(d).data.iter().filter(|&&v| v == 0.0).count();
        assert!((400..600).contains(&zeros), "zeros={zeros}");
        // Survivors are scaled to preserve expectation.
        let mean: f32 = t.value(d).data.iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn param_grads_accumulate_across_uses() {
        let mut store = ParamStore::new();
        let p = store.add(Matrix::from_vec(1, 1, vec![3.0]));
        let mut t = Tape::new();
        let x = t.param(&store, p);
        // loss = (x + x)^2 = 4x^2, dloss/dx = 8x = 24
        let s = t.add(x, x);
        let loss = t.sum_squares(s);
        let g = t.backward(loss);
        t.accumulate_param_grads(&g, &mut store);
        assert!((store.grad(p).get(0, 0) - 24.0).abs() < 1e-4);
    }

    #[test]
    fn constants_and_constant_only_nodes_get_no_gradient() {
        let mut store = ParamStore::new();
        let p = store.add(Matrix::xavier(3, 2, 21));
        let mut t = Tape::new();
        let x = t.constant(Matrix::xavier(4, 3, 22));
        let xs = t.scale(x, 2.0);
        let w = t.param(&store, p);
        let h = t.matmul(xs, w);
        let loss = t.sum_squares(h);
        let g = t.backward(loss);
        assert!(g.get(x).is_none(), "constant");
        assert!(g.get(xs).is_none(), "computed from constants alone");
        for (id, what) in [(w, "param"), (h, "param-dependent"), (loss, "loss")] {
            assert!(g.get(id).is_some(), "{what}");
        }

        // A loss of constants alone: no node gets a gradient, the loss
        // itself included.
        let c = t.constant(Matrix::xavier(2, 2, 23));
        let tc = t.tanh(c);
        let closs = t.sum_squares(tc);
        let g = t.backward(closs);
        for id in [c, tc, closs] {
            assert!(g.get(id).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::zeros(2, 2));
        t.backward(x);
    }
}
