//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a forward computation over [`Matrix`] values as a DAG
//! of nodes; [`Tape::backward`] walks the tape in reverse, accumulating
//! gradients. Trainable parameters live in a [`ParamStore`] outside the
//! tape (the tape is rebuilt every step). The tape borrows parameter
//! values from the store instead of copying them, so the gradients go
//! back in two steps: [`Tape::param_grads`] moves them out of the sweep,
//! and once the tape is done with the store,
//! [`ParamStore::accumulate_grads`] adds them in for the optimizer.
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
//!
//! # Inference tapes
//!
//! A tape made with [`Tape::inference`] only runs forward: no node
//! requires a gradient, parameters included, so no op keeps backward
//! state (a dropout mask, the softmax of a cross-entropy). Its op
//! outputs are buffers taken from the thread's
//! [`freehgc_parallel::workspace`] pool and handed back when the tape
//! drops, so repeated forward passes over the same shapes (validation
//! every epoch, `predict`) reuse one set of buffers instead of getting
//! fresh zeroed pages for every op. Every op writes each element of its
//! output with the operations a training tape performs, so both kinds
//! of tape compute the same bits.

use crate::matrix::Matrix;
use crate::tanh::tanh_in_place;
use freehgc_parallel::workspace;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Deref;

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

    /// Adds each `(id, gradient)` pair into that parameter's gradient,
    /// in order; the pairs come from [`Tape::param_grads`].
    pub fn accumulate_grads(&mut self, grads: impl IntoIterator<Item = (ParamId, Matrix)>) {
        for (id, g) in grads {
            self.grads[id.0].add_assign(&g);
        }
    }

    /// Every parameter value, mutably, beside its gradient, in id order.
    pub fn values_and_grads_mut(&mut self) -> impl Iterator<Item = (&mut Matrix, &Matrix)> {
        self.values.iter_mut().zip(&self.grads)
    }

    /// Every parameter value, in id order.
    pub fn values(&self) -> &[Matrix] {
        &self.values
    }

    /// Copies every parameter value into `dst`, which holds one matrix
    /// of the same shape per parameter (a clone of [`ParamStore::values`]).
    pub fn save_values(&self, dst: &mut [Matrix]) {
        assert_eq!(dst.len(), self.values.len(), "one matrix per parameter");
        for (d, v) in dst.iter_mut().zip(&self.values) {
            d.data.copy_from_slice(&v.data);
        }
    }

    /// Overwrites every parameter value with `src`'s, as saved by
    /// [`ParamStore::save_values`]; gradients are left alone.
    pub fn load_values(&mut self, src: &[Matrix]) {
        assert_eq!(src.len(), self.values.len(), "one matrix per parameter");
        for (v, s) in self.values.iter_mut().zip(src) {
            v.data.copy_from_slice(&s.data);
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

/// A node's value.
enum Value<'a> {
    /// A parameter, or a constant inserted with [`Tape::constant_ref`].
    Borrowed(&'a Matrix),
    Owned(Matrix),
    /// An inference tape's op output; back to the pool on drop.
    Pooled(Pooled),
}

/// A matrix whose buffer came from [`workspace::take_f32_owned`] and
/// goes back with [`workspace::give_f32`] when it drops.
struct Pooled(Matrix);

impl Drop for Pooled {
    fn drop(&mut self) {
        workspace::give_f32(std::mem::take(&mut self.0.data));
    }
}

impl Deref for Value<'_> {
    type Target = Matrix;
    fn deref(&self) -> &Matrix {
        match self {
            Value::Borrowed(m) => m,
            Value::Owned(m) | Value::Pooled(Pooled(m)) => m,
        }
    }
}

struct Node<'a> {
    op: Op,
    value: Value<'a>,
    aux: Option<Matrix>,
    labels: Option<Vec<u32>>,
    /// Whether a parameter reaches this node, so that its gradient can
    /// matter (see the module docs).
    requires_grad: bool,
}

/// A single forward computation; build ops, call [`Tape::backward`] once.
/// Parameters and constants inserted with [`Tape::constant_ref`] are
/// borrowed for the tape's lifetime `'a` instead of copied.
#[derive(Default)]
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
    /// Made by [`Tape::inference`] (see the module docs).
    inference: bool,
}

impl<'a> Tape<'a> {
    pub fn new() -> Self {
        Self::default()
    }

    /// A forward-only tape: nothing gets a gradient, and op outputs
    /// reuse pooled buffers (see the module docs).
    pub fn inference() -> Self {
        Self {
            nodes: Vec::new(),
            inference: true,
        }
    }

    /// A `rows × cols` buffer for an op's output, with unspecified
    /// contents: the op writes every element. An inference tape takes
    /// it from the workspace pool.
    fn output(&self, rows: usize, cols: usize) -> Matrix {
        if self.inference {
            let data = workspace::take_f32_owned(rows * cols);
            Matrix { rows, cols, data }
        } else {
            Matrix::zeros(rows, cols)
        }
    }

    /// [`Tape::output`] filled with zeros, for ops that accumulate.
    fn output_zeroed(&self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.output(rows, cols);
        if self.inference {
            m.data.fill(0.0);
        }
        m
    }

    /// `f` applied to every element of `a`.
    fn map(&self, a: NodeId, f: impl Fn(f32) -> f32) -> Matrix {
        let av = self.value(a);
        let mut v = self.output(av.rows, av.cols);
        for (o, &x) in v.data.iter_mut().zip(&av.data) {
            *o = f(x);
        }
        v
    }

    /// `f` applied to every pair of elements of the same-shape `a` and
    /// `b`.
    fn zip_map(&self, a: NodeId, b: NodeId, what: &str, f: impl Fn(f32, f32) -> f32) -> Matrix {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape(), bv.shape(), "{what} shape mismatch");
        let mut v = self.output(av.rows, av.cols);
        for ((o, &x), &y) in v.data.iter_mut().zip(&av.data).zip(&bv.data) {
            *o = f(x, y);
        }
        v
    }

    /// Records an op whose output [`Tape::output`] made.
    fn push(&mut self, op: Op, value: Matrix) -> NodeId {
        let value = if self.inference {
            Value::Pooled(Pooled(value))
        } else {
            Value::Owned(value)
        };
        self.push_value(op, value)
    }

    fn push_value(&mut self, op: Op, value: Value<'a>) -> NodeId {
        let req = |id: &NodeId| self.nodes[id.0].requires_grad;
        let requires_grad = match &op {
            Op::Constant => false,
            Op::Param(_) => !self.inference,
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
        self.push_value(Op::Constant, Value::Owned(m))
    }

    /// [`Tape::constant`] without the copy: the tape borrows `m` for its
    /// lifetime.
    pub fn constant_ref(&mut self, m: &'a Matrix) -> NodeId {
        self.push_value(Op::Constant, Value::Borrowed(m))
    }

    /// Inserts a trainable parameter. The tape borrows its value from
    /// `store`, so the store can take the gradients only once the tape
    /// is done (see [`Tape::param_grads`]).
    pub fn param(&mut self, store: &'a ParamStore, id: ParamId) -> NodeId {
        self.push_value(Op::Param(id), Value::Borrowed(store.value(id)))
    }

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(b));
        let mut v = self.output_zeroed(av.rows, bv.cols);
        av.matmul_into(bv, &mut v.data);
        self.push(Op::MatMul(a, b), v)
    }

    /// `AᵀB`.
    pub fn matmul_tn(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(b));
        let mut v = self.output_zeroed(av.cols, bv.cols);
        av.matmul_tn_into(bv, &mut v.data);
        self.push(Op::MatMulTN(a, b), v)
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip_map(a, b, "add", |x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// Adds a `1 × cols` bias row to every row of `a`.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(bias));
        assert_eq!(bv.rows, 1, "bias must be a single row");
        assert_eq!(bv.cols, av.cols, "bias width mismatch");
        let mut v = self.output(av.rows, av.cols);
        for r in 0..v.rows {
            for ((o, &x), &y) in v.row_mut(r).iter_mut().zip(av.row(r)).zip(bv.row(0)) {
                *o = x + y;
            }
        }
        self.push(Op::AddBias(a, bias), v)
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip_map(a, b, "sub", |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip_map(a, b, "hadamard", |x, y| x * y);
        self.push(Op::Hadamard(a, b), v)
    }

    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.map(a, |x| x * s);
        self.push(Op::Scale(a, s), v)
    }

    /// `max(x, 0)` as a select, which vectorizes; a conditional store
    /// does not. `-0.0` and NaN pass through, as `x < 0.0` is false for
    /// both.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.map(a, |x| if x < 0.0 { 0.0 } else { x });
        self.push(Op::Relu(a), v)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.map(a, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let mut v = self.output(av.rows, av.cols);
        v.data.copy_from_slice(&av.data);
        tanh_in_place(&mut v.data);
        self.push(Op::Tanh(a), v)
    }

    /// Inverted dropout: at train time each entry is zeroed with
    /// probability `p` and survivors are scaled by `1/(1−p)`. One pass
    /// draws each entry's mask value, in order, and writes `x · mask`;
    /// the mask is kept for the backward pass when `a` requires a
    /// gradient.
    pub fn dropout(&mut self, a: NodeId, p: f32, rng: &mut StdRng) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        let src = self.value(a);
        let keep = 1.0 - p;
        let mut v = self.output(src.rows, src.cols);
        let mut mask = Vec::with_capacity(src.data.len());
        for (o, &x) in v.data.iter_mut().zip(&src.data) {
            let m = if rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            };
            mask.push(m);
            *o = x * m;
        }
        let mask = Matrix::from_vec(src.rows, src.cols, mask);
        let id = self.push(Op::Dropout(a), v);
        self.keep_for_backward(id, mask, None);
        id
    }

    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let mut v = self.output(av.rows, av.cols);
        v.data.copy_from_slice(&av.data);
        v.softmax_rows_in_place();
        self.push(Op::SoftmaxRows(a), v)
    }

    /// Mean cross-entropy of row-wise softmax against integer labels;
    /// returns a scalar node.
    pub fn cross_entropy_mean(&mut self, logits: NodeId, labels: &[u32]) -> NodeId {
        let probs = self.value(logits).softmax_rows();
        assert_eq!(probs.rows, labels.len(), "one label per row");
        let n = labels.len().max(1) as f32;
        let mut loss = 0f32;
        for (r, &y) in labels.iter().enumerate() {
            loss -= (probs.get(r, y as usize) + 1e-12).ln();
        }
        let v = self.scalar_output(loss / n);
        let id = self.push(Op::CrossEntropyMean(logits), v);
        self.keep_for_backward(id, probs, Some(labels));
        id
    }

    /// Sum of squared entries; returns a scalar node.
    pub fn sum_squares(&mut self, a: NodeId) -> NodeId {
        let v = self.scalar_output(self.value(a).sum_squares());
        self.push(Op::SumSquares(a), v)
    }

    /// A `1 × 1` op output holding `x`.
    fn scalar_output(&self, x: f32) -> Matrix {
        let mut v = self.output(1, 1);
        v.data[0] = x;
        v
    }

    /// Stores what node `id`'s backward step reads, if it will run:
    /// only a node that requires a gradient is ever propagated.
    fn keep_for_backward(&mut self, id: NodeId, aux: Matrix, labels: Option<&[u32]>) {
        let node = &mut self.nodes[id.0];
        if node.requires_grad {
            node.aux = Some(aux);
            node.labels = labels.map(<[u32]>::to_vec);
        }
    }

    /// Element-wise sum of same-shape nodes.
    pub fn add_n(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let first = self.value(parts[0]);
        let mut v = self.output(first.rows, first.cols);
        v.data.copy_from_slice(&first.data);
        for p in &parts[1..] {
            v.add_assign(self.value(*p));
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
        let mut v = self.output_zeroed(r, c);
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
        assert!(!mats.is_empty());
        let cols = mats.iter().map(|m| m.cols).sum();
        let mut v = self.output(mats[0].rows, cols);
        Matrix::hcat_into(&mats, &mut v);
        self.push(Op::ConcatCols(parts.to_vec()), v)
    }

    /// Reverse-mode sweep from a scalar `loss` node. Returns per-node
    /// gradients; use [`Gradients::get`] / [`Tape::param_grads`]
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
                    *x = if orig <= 0.0 { 0.0 } else { *x };
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

    /// Moves the gradient of every `param` node out of `grads`, with its
    /// parameter, in tape order; [`ParamStore::accumulate_grads`] adds
    /// them into the store once the tape no longer borrows it.
    pub fn param_grads(&self, mut grads: Gradients) -> Vec<(ParamId, Matrix)> {
        self.nodes
            .iter()
            .zip(&mut grads.grads)
            .filter_map(|(node, g)| match node.op {
                Op::Param(pid) => g.take().map(|g| (pid, g)),
                _ => None,
            })
            .collect()
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
        let grads = tape.param_grads(grads);
        store.zero_grads();
        store.accumulate_grads(grads);
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
        let g = t.param_grads(g);
        store.accumulate_grads(g);
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
    fn relu_select_matches_the_conditional_store_on_special_values() {
        let xs = [
            -0.0f32,
            0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x0000_0001), // smallest subnormal
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::from_bits(0x807f_ffff),
            1.0,
            -1.0,
        ];
        let upstream = [1.5f32, f32::NAN, f32::NEG_INFINITY, 3e-45, -2.0];
        // Every input beside every upstream gradient: the loss y·c
        // hands relu the gradient c.
        let x: Vec<f32> = xs.iter().flat_map(|&x| upstream.map(|_| x)).collect();
        let c: Vec<f32> = xs.iter().flat_map(|_| upstream).collect();
        let n = x.len();
        let mut store = ParamStore::new();
        let p = store.add(Matrix::from_vec(1, n, x.clone()));
        let mut t = Tape::new();
        let xn = t.param(&store, p);
        let y = t.relu(xn);
        let cn = t.constant(Matrix::from_vec(n, 1, c));
        let loss = t.matmul(y, cn);
        let g = t.backward(loss);

        let bits = |m: &Matrix| -> Vec<u32> { m.data.iter().map(|v| v.to_bits()).collect() };
        let mut want = x.clone();
        for v in want.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        assert_eq!(bits(t.value(y)), bits(&Matrix::from_vec(1, n, want)));
        let mut want = g.get(y).expect("relu output gradient").clone();
        for (d, &orig) in want.data.iter_mut().zip(&x) {
            if orig <= 0.0 {
                *d = 0.0;
            }
        }
        assert_eq!(bits(g.get(xn).expect("relu input gradient")), bits(&want));
    }

    #[test]
    fn dropout_keeps_its_draw_order_and_products() {
        // The two-pass form the fused loop replaced: a zeroed mask
        // filled in draw order, then `x · mask`.
        let x = Matrix::xavier(9, 7, 24);
        let p = 0.3f32;
        let mut rng = StdRng::seed_from_u64(25);
        let keep = 1.0 - p;
        let mut mask = Matrix::zeros(9, 7);
        for m in mask.data.iter_mut() {
            if rng.gen::<f32>() < keep {
                *m = 1.0 / keep;
            }
        }
        let want = x.hadamard(&mask);
        let next_draw = rng.gen::<u64>();

        let mut store = ParamStore::new();
        let id = store.add(x);
        let mut rng = StdRng::seed_from_u64(25);
        let mut t = Tape::new();
        let xn = t.param(&store, id);
        let d = t.dropout(xn, p, &mut rng);
        assert_eq!(t.value(d), &want);
        assert_eq!(rng.gen::<u64>(), next_draw, "same number of draws");
        let loss = t.sum_squares(d);
        let g = t.backward(loss);
        // d(Σ y²)/dx = 2y · mask.
        let want_grad = want.scale(2.0).hadamard(&mask);
        assert_eq!(g.get(xn), Some(&want_grad));
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
        let g = t.param_grads(g);
        store.accumulate_grads(g);
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
