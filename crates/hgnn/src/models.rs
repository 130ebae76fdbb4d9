//! The five HGNN fusion heads.
//!
//! Every model consumes the same per-meta-path propagated blocks
//! ([`crate::propagation`]) and differs only in its semantic-fusion
//! mechanism — mirroring how the real HGNNs the paper evaluates differ
//! (§II-B, Table IV). This is exactly the property that makes the
//! generalization experiment meaningful: a condensed graph that bakes in
//! one model's fusion will transfer poorly to the others.

use freehgc_autograd::{Matrix, NodeId, ParamId, ParamStore, Tape};
use rand::rngs::StdRng;

/// Which HGNN architecture to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// HeteroSGC — HGCond's relay model: linear mean fusion, no hidden
    /// nonlinearity.
    HeteroSgc,
    /// SeHGNN-style: semantic attention over paths + 2-layer MLP.
    SeHgnn,
    /// HAN-style: per-path tanh projection + semantic attention, linear head.
    Han,
    /// HGB-style: learnable relation-embedding sigmoid gates (unnormalized).
    Hgb,
    /// HGT-style: two-head scaled dot-product semantic mixing + residual.
    Hgt,
}

impl ModelKind {
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::HeteroSgc => "HSGC",
            ModelKind::SeHgnn => "SeHGNN",
            ModelKind::Han => "HAN",
            ModelKind::Hgb => "HGB",
            ModelKind::Hgt => "HGT",
        }
    }

    /// The four evaluation models of Table IV.
    pub fn table_iv() -> [ModelKind; 4] {
        [
            ModelKind::Hgb,
            ModelKind::Hgt,
            ModelKind::Han,
            ModelKind::SeHgnn,
        ]
    }
}

/// A trainable HGNN head over propagated feature blocks.
pub trait Model {
    fn kind(&self) -> ModelKind;
    fn store(&self) -> &ParamStore;
    fn store_mut(&mut self) -> &mut ParamStore;
    /// Builds the forward computation and returns the logits node
    /// (`rows × num_classes`). `training` enables dropout. The tape
    /// borrows `blocks` and the parameter values instead of copying
    /// them. The same description serves training and inference: on a
    /// [`Tape::inference`] tape it records no backward state.
    fn logits<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        blocks: &'a [Matrix],
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId;
}

/// Builds a model of the given kind for blocks with the given dims.
pub fn build_model(
    kind: ModelKind,
    block_dims: &[usize],
    num_classes: usize,
    hidden: usize,
    dropout: f32,
    seed: u64,
) -> Box<dyn Model> {
    match kind {
        ModelKind::HeteroSgc => Box::new(HeteroSgc::new(block_dims, num_classes, hidden, seed)),
        ModelKind::SeHgnn => Box::new(SeHgnn::new(block_dims, num_classes, hidden, dropout, seed)),
        ModelKind::Han => Box::new(Han::new(block_dims, num_classes, hidden, seed)),
        ModelKind::Hgb => Box::new(Hgb::new(block_dims, num_classes, hidden, dropout, seed)),
        ModelKind::Hgt => Box::new(Hgt::new(block_dims, num_classes, hidden, seed)),
    }
}

/// Per-block linear projections shared by all heads.
struct Projections {
    weights: Vec<ParamId>,
}

impl Projections {
    fn new(store: &mut ParamStore, dims: &[usize], hidden: usize, seed: u64) -> Self {
        let weights = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| store.add(Matrix::xavier(d, hidden, seed.wrapping_add(i as u64))))
            .collect();
        Self { weights }
    }

    /// `H_i = X_i · W_i` for every block.
    fn apply<'a>(
        &self,
        tape: &mut Tape<'a>,
        store: &'a ParamStore,
        blocks: &'a [Matrix],
    ) -> Vec<NodeId> {
        assert_eq!(blocks.len(), self.weights.len(), "block count mismatch");
        blocks
            .iter()
            .zip(&self.weights)
            .map(|(x, &w)| {
                let xn = tape.constant_ref(x);
                let wn = tape.param(store, w);
                tape.matmul(xn, wn)
            })
            .collect()
    }
}

/// Row-mean of a node as `1/n · 1ᵀ H` — used by attention scoring.
fn mean_rows(tape: &mut Tape, h: NodeId) -> NodeId {
    let n = tape.value(h).rows;
    let ones = tape.constant(Matrix::from_vec(1, n, vec![1.0 / n.max(1) as f32; n]));
    tape.matmul(ones, h)
}

/// Semantic-attention weights `softmax_i(mean(tanh(H_i)) · q)` as a
/// `1 × L` node.
fn semantic_attention<'a>(
    tape: &mut Tape<'a>,
    store: &'a ParamStore,
    hs: &[NodeId],
    q: ParamId,
) -> NodeId {
    let qn = tape.param(store, q);
    let scores: Vec<NodeId> = hs
        .iter()
        .map(|&h| {
            let t = tape.tanh(h);
            let m = mean_rows(tape, t);
            tape.matmul(m, qn) // 1×1
        })
        .collect();
    let cat = tape.concat_cols(&scores);
    tape.softmax_rows(cat)
}

// --------------------------------------------------------------------------
// HeteroSGC
// --------------------------------------------------------------------------

/// HGCond's relay model: `logits = mean_i(X_i W_i) · W_out + b`. Purely
/// linear — "the simplest heterogeneous graph model" (§I).
pub struct HeteroSgc {
    store: ParamStore,
    proj: Projections,
    w_out: ParamId,
    b_out: ParamId,
}

impl HeteroSgc {
    pub fn new(dims: &[usize], num_classes: usize, hidden: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let proj = Projections::new(&mut store, dims, hidden, seed);
        let w_out = store.add(Matrix::xavier(hidden, num_classes, seed ^ 0xa1));
        let b_out = store.add(Matrix::zeros(1, num_classes));
        Self {
            store,
            proj,
            w_out,
            b_out,
        }
    }
}

impl Model for HeteroSgc {
    fn kind(&self) -> ModelKind {
        ModelKind::HeteroSgc
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn logits<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        blocks: &'a [Matrix],
        _training: bool,
        _rng: &mut StdRng,
    ) -> NodeId {
        let hs = self.proj.apply(tape, &self.store, blocks);
        let sum = tape.add_n(&hs);
        let mean = tape.scale(sum, 1.0 / hs.len() as f32);
        let w = tape.param(&self.store, self.w_out);
        let b = tape.param(&self.store, self.b_out);
        let z = tape.matmul(mean, w);
        tape.add_bias(z, b)
    }
}

// --------------------------------------------------------------------------
// SeHGNN
// --------------------------------------------------------------------------

/// SeHGNN-style head: semantic attention over path blocks, then a two-layer
/// MLP with dropout — the strongest test model in the paper (its
/// whole-graph accuracy is the "ideal" line of Fig. 2a).
pub struct SeHgnn {
    store: ParamStore,
    proj: Projections,
    q: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    dropout: f32,
}

impl SeHgnn {
    pub fn new(dims: &[usize], num_classes: usize, hidden: usize, dropout: f32, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let proj = Projections::new(&mut store, dims, hidden, seed);
        let q = store.add(Matrix::xavier(hidden, 1, seed ^ 0xb2));
        let w1 = store.add(Matrix::xavier(hidden, hidden, seed ^ 0xb3));
        let b1 = store.add(Matrix::zeros(1, hidden));
        let w2 = store.add(Matrix::xavier(hidden, num_classes, seed ^ 0xb4));
        let b2 = store.add(Matrix::zeros(1, num_classes));
        Self {
            store,
            proj,
            q,
            w1,
            b1,
            w2,
            b2,
            dropout,
        }
    }
}

impl Model for SeHgnn {
    fn kind(&self) -> ModelKind {
        ModelKind::SeHgnn
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn logits<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        blocks: &'a [Matrix],
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let hs = self.proj.apply(tape, &self.store, blocks);
        let alpha = semantic_attention(tape, &self.store, &hs, self.q);
        let fused = tape.weighted_sum(&hs, alpha);
        let w1 = tape.param(&self.store, self.w1);
        let b1 = tape.param(&self.store, self.b1);
        let h = tape.matmul(fused, w1);
        let h = tape.add_bias(h, b1);
        let mut h = tape.relu(h);
        if training && self.dropout > 0.0 {
            h = tape.dropout(h, self.dropout, rng);
        }
        let w2 = tape.param(&self.store, self.w2);
        let b2 = tape.param(&self.store, self.b2);
        let z = tape.matmul(h, w2);
        tape.add_bias(z, b2)
    }
}

// --------------------------------------------------------------------------
// HAN
// --------------------------------------------------------------------------

/// HAN-style head: per-path tanh projection with bias, shared semantic
/// attention vector, single linear output (node-level attention replaced by
/// the mean aggregator per SeHGNN's finding).
pub struct Han {
    store: ParamStore,
    proj: Projections,
    proj_bias: Vec<ParamId>,
    q: ParamId,
    w_out: ParamId,
    b_out: ParamId,
}

impl Han {
    pub fn new(dims: &[usize], num_classes: usize, hidden: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let proj = Projections::new(&mut store, dims, hidden, seed);
        let proj_bias = dims
            .iter()
            .map(|_| store.add(Matrix::zeros(1, hidden)))
            .collect();
        let q = store.add(Matrix::xavier(hidden, 1, seed ^ 0xc1));
        let w_out = store.add(Matrix::xavier(hidden, num_classes, seed ^ 0xc2));
        let b_out = store.add(Matrix::zeros(1, num_classes));
        Self {
            store,
            proj,
            proj_bias,
            q,
            w_out,
            b_out,
        }
    }
}

impl Model for Han {
    fn kind(&self) -> ModelKind {
        ModelKind::Han
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn logits<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        blocks: &'a [Matrix],
        _training: bool,
        _rng: &mut StdRng,
    ) -> NodeId {
        let hs = self.proj.apply(tape, &self.store, blocks);
        let zs: Vec<NodeId> = hs
            .iter()
            .zip(&self.proj_bias)
            .map(|(&h, &b)| {
                let bn = tape.param(&self.store, b);
                let hb = tape.add_bias(h, bn);
                tape.tanh(hb)
            })
            .collect();
        let alpha = semantic_attention(tape, &self.store, &zs, self.q);
        let fused = tape.weighted_sum(&zs, alpha);
        let w = tape.param(&self.store, self.w_out);
        let b = tape.param(&self.store, self.b_out);
        let z = tape.matmul(fused, w);
        tape.add_bias(z, b)
    }
}

// --------------------------------------------------------------------------
// HGB
// --------------------------------------------------------------------------

/// HGB-style head: each path gets a learnable relation embedding that
/// produces a sigmoid gate (unnormalized, unlike softmax attention); the
/// gated sum feeds a ReLU MLP.
pub struct Hgb {
    store: ParamStore,
    proj: Projections,
    /// Relation-embedding scalars, one per path (`1 × L`).
    gates: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    dropout: f32,
}

impl Hgb {
    pub fn new(dims: &[usize], num_classes: usize, hidden: usize, dropout: f32, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let proj = Projections::new(&mut store, dims, hidden, seed);
        let gates = store.add(Matrix::zeros(1, dims.len())); // sigmoid(0)=0.5
        let w1 = store.add(Matrix::xavier(hidden, hidden, seed ^ 0xd1));
        let b1 = store.add(Matrix::zeros(1, hidden));
        let w2 = store.add(Matrix::xavier(hidden, num_classes, seed ^ 0xd2));
        let b2 = store.add(Matrix::zeros(1, num_classes));
        Self {
            store,
            proj,
            gates,
            w1,
            b1,
            w2,
            b2,
            dropout,
        }
    }
}

impl Model for Hgb {
    fn kind(&self) -> ModelKind {
        ModelKind::Hgb
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn logits<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        blocks: &'a [Matrix],
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let hs = self.proj.apply(tape, &self.store, blocks);
        let gn = tape.param(&self.store, self.gates);
        let gates = tape.sigmoid(gn);
        let fused = tape.weighted_sum(&hs, gates);
        let w1 = tape.param(&self.store, self.w1);
        let b1 = tape.param(&self.store, self.b1);
        let h = tape.matmul(fused, w1);
        let h = tape.add_bias(h, b1);
        let mut h = tape.relu(h);
        if training && self.dropout > 0.0 {
            h = tape.dropout(h, self.dropout, rng);
        }
        let w2 = tape.param(&self.store, self.w2);
        let b2 = tape.param(&self.store, self.b2);
        let z = tape.matmul(h, w2);
        tape.add_bias(z, b2)
    }
}

// --------------------------------------------------------------------------
// HGT
// --------------------------------------------------------------------------

/// HGT-style head: two attention heads with scaled dot-product scores over
/// path summaries, averaged and combined with a mean residual, then a ReLU
/// output block — transformer-flavoured semantic mixing.
pub struct Hgt {
    store: ParamStore,
    proj: Projections,
    q1: ParamId,
    q2: ParamId,
    w_out: ParamId,
    b_out: ParamId,
    hidden: usize,
}

impl Hgt {
    pub fn new(dims: &[usize], num_classes: usize, hidden: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let proj = Projections::new(&mut store, dims, hidden, seed);
        let q1 = store.add(Matrix::xavier(hidden, 1, seed ^ 0xe1));
        let q2 = store.add(Matrix::xavier(hidden, 1, seed ^ 0xe2));
        let w_out = store.add(Matrix::xavier(hidden, num_classes, seed ^ 0xe3));
        let b_out = store.add(Matrix::zeros(1, num_classes));
        Self {
            store,
            proj,
            q1,
            q2,
            w_out,
            b_out,
            hidden,
        }
    }

    fn head<'a>(&'a self, tape: &mut Tape<'a>, hs: &[NodeId], q: ParamId) -> NodeId {
        let qn = tape.param(&self.store, q);
        let inv_sqrt = 1.0 / (self.hidden as f32).sqrt();
        let scores: Vec<NodeId> = hs
            .iter()
            .map(|&h| {
                let m = mean_rows(tape, h);
                let s = tape.matmul(m, qn);
                tape.scale(s, inv_sqrt)
            })
            .collect();
        let cat = tape.concat_cols(&scores);
        let alpha = tape.softmax_rows(cat);
        tape.weighted_sum(hs, alpha)
    }
}

impl Model for Hgt {
    fn kind(&self) -> ModelKind {
        ModelKind::Hgt
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn logits<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        blocks: &'a [Matrix],
        _training: bool,
        _rng: &mut StdRng,
    ) -> NodeId {
        let hs = self.proj.apply(tape, &self.store, blocks);
        let h1 = self.head(tape, &hs, self.q1);
        let h2 = self.head(tape, &hs, self.q2);
        let sum = tape.add_n(&hs);
        let residual = tape.scale(sum, 1.0 / hs.len() as f32);
        let heads = tape.add(h1, h2);
        let heads = tape.scale(heads, 0.5);
        let mixed = tape.add(heads, residual);
        let act = tape.relu(mixed);
        let w = tape.param(&self.store, self.w_out);
        let b = tape.param(&self.store, self.b_out);
        let z = tape.matmul(act, w);
        tape.add_bias(z, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy_blocks() -> Vec<Matrix> {
        vec![Matrix::xavier(6, 4, 1), Matrix::xavier(6, 3, 2)]
    }

    fn all_kinds() -> [ModelKind; 5] {
        [
            ModelKind::HeteroSgc,
            ModelKind::SeHgnn,
            ModelKind::Han,
            ModelKind::Hgb,
            ModelKind::Hgt,
        ]
    }

    #[test]
    fn every_model_produces_logits_of_right_shape() {
        let blocks = toy_blocks();
        let mut rng = StdRng::seed_from_u64(0);
        for kind in all_kinds() {
            let m = build_model(kind, &[4, 3], 3, 8, 0.5, 7);
            let mut tape = Tape::new();
            let z = m.logits(&mut tape, &blocks, true, &mut rng);
            assert_eq!(tape.value(z).shape(), (6, 3), "{kind:?}");
            assert_eq!(m.kind(), kind);
        }
    }

    #[test]
    fn logits_are_deterministic_without_dropout() {
        let blocks = toy_blocks();
        for kind in all_kinds() {
            let m = build_model(kind, &[4, 3], 3, 8, 0.0, 7);
            let mut rng1 = StdRng::seed_from_u64(1);
            let mut rng2 = StdRng::seed_from_u64(2);
            let mut t1 = Tape::new();
            let z1 = m.logits(&mut t1, &blocks, false, &mut rng1);
            let mut t2 = Tape::new();
            let z2 = m.logits(&mut t2, &blocks, false, &mut rng2);
            assert_eq!(t1.value(z1), t2.value(z2), "{kind:?}");
        }
    }

    #[test]
    fn inference_tape_matches_a_training_tape_bitwise() {
        // Blocks with exact zeros, so the matmul zero skip and relu's
        // select both run.
        let mut blocks = toy_blocks();
        for (i, x) in blocks[0].data.iter_mut().enumerate() {
            if i % 3 == 0 {
                *x = 0.0;
            }
        }
        for kind in all_kinds() {
            let m = build_model(kind, &[4, 3], 3, 8, 0.5, 7);
            let bits =
                |t: &Tape, z| -> Vec<u32> { t.value(z).data.iter().map(|x| x.to_bits()).collect() };
            let mut rng = StdRng::seed_from_u64(5);
            let mut fresh = Tape::new();
            let want = m.logits(&mut fresh, &blocks, false, &mut rng);
            let want = bits(&fresh, want);
            // Twice: the second pass runs on the buffers the first
            // handed back, whose contents are stale.
            for pass in 0..2 {
                let mut tape = Tape::inference();
                let z = m.logits(&mut tape, &blocks, false, &mut rng);
                assert_eq!(bits(&tape, z), want, "{kind:?} pass {pass}");
            }
        }
    }

    #[test]
    fn models_have_trainable_parameters() {
        for kind in all_kinds() {
            let m = build_model(kind, &[4, 3], 3, 8, 0.5, 7);
            assert!(m.store().num_scalars() > 0, "{kind:?}");
        }
    }

    #[test]
    fn architectures_differ_in_output() {
        let blocks = toy_blocks();
        let mut rng = StdRng::seed_from_u64(3);
        let mut outputs: Vec<Vec<f32>> = Vec::new();
        for kind in all_kinds() {
            let m = build_model(kind, &[4, 3], 3, 8, 0.0, 7);
            let mut t = Tape::new();
            let z = m.logits(&mut t, &blocks, false, &mut rng);
            outputs.push(t.value(z).data.clone());
        }
        for i in 0..outputs.len() {
            for j in i + 1..outputs.len() {
                assert_ne!(outputs[i], outputs[j], "models {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let blocks = toy_blocks();
        let labels = vec![0u32, 1, 2, 0, 1, 2];
        let mut rng = StdRng::seed_from_u64(4);
        for kind in all_kinds() {
            let mut m = build_model(kind, &[4, 3], 3, 8, 0.0, 7);
            let mut tape = Tape::new();
            let z = m.logits(&mut tape, &blocks, true, &mut rng);
            let loss = tape.cross_entropy_mean(z, &labels);
            let grads = tape.backward(loss);
            let grads = tape.param_grads(grads);
            m.store_mut().zero_grads();
            m.store_mut().accumulate_grads(grads);
            let touched = m
                .store()
                .param_ids()
                .filter(|&id| m.store().grad(id).data.iter().any(|&g| g != 0.0))
                .count();
            // At least the output layer and projections must receive grads.
            assert!(touched >= 3, "{kind:?}: only {touched} params touched");
        }
    }
}
