//! Gradient-matching machinery shared by the GCond and HGCond baselines.
//!
//! Both methods follow the bi-level paradigm the paper analyzes in §III:
//! an *inner* loop trains a relay model on the synthetic data, an *outer*
//! loop updates the synthetic target features so the relay's gradient on
//! synthetic data matches its gradient on the real data (GMLoss).
//!
//! The relay's representation uses frozen random projections with a
//! model-specific fusion (mean / semantic attention / gates / two-head),
//! so the gradient of the matching loss with respect to the synthetic
//! features is an ordinary first-order computation: the relay gradient
//! `G = ψᵀ(softmax(ψW) − Y)/n` is *expressed as forward ops* on the tape
//! and differentiated through. This mirrors HGCond's observation that
//! complex relay models do not optimize well (Fig. 2a): richer frozen
//! fusions do not produce better-matched gradients.

use freehgc_autograd::{Adam, Matrix, NodeId, ParamStore, Tape};
use freehgc_hetgraph::{
    enumerate_metapaths, CondenseContext, CondenseSpec, CondensedGraph, FeatureMatrix, HeteroGraph,
};
use freehgc_hgnn::propagate_ctx;

/// Relay architectures for the HGCond relay study (Fig. 2a):
/// `Hsgc` is the default (and best, per the paper) relay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelayKind {
    Hsgc,
    SeHgnn,
    Hgb,
    Hgt,
}

impl RelayKind {
    pub fn name(self) -> &'static str {
        match self {
            RelayKind::Hsgc => "HSGC",
            RelayKind::SeHgnn => "SeHGNN",
            RelayKind::Hgb => "HGB",
            RelayKind::Hgt => "HGT",
        }
    }
}

/// Bi-level optimization knobs.
#[derive(Clone, Debug)]
pub struct GradMatchConfig {
    pub relay: RelayKind,
    /// Outer iterations (synthetic-feature updates).
    pub outer: usize,
    /// Inner relay-training steps per outer iteration.
    pub inner: usize,
    /// Number of relay parameter samples (GCond's K initializations /
    /// HGCond's orthogonal parameter sequences).
    pub relay_samples: usize,
    /// Enable HGCond's orthogonal-parameter-sequence exploration.
    pub ops: bool,
    pub lr_feat: f32,
    pub lr_relay: f32,
    /// Frozen projection width of the relay representation.
    pub hidden: usize,
    /// Meta-path cap (must match between real and synthetic sides).
    pub max_paths: usize,
}

impl Default for GradMatchConfig {
    fn default() -> Self {
        Self {
            relay: RelayKind::Hsgc,
            outer: 24,
            inner: 4,
            relay_samples: 2,
            ops: false,
            lr_feat: 0.05,
            lr_relay: 0.05,
            hidden: 32,
            max_paths: 12,
        }
    }
}

/// How one propagated block of the *synthetic* graph depends on the
/// synthetic target features `X`.
pub enum SynBlock {
    /// Block 0: the raw features, `X` itself.
    Raw,
    /// A meta-path returning to the target type: `M · X` with a constant
    /// (dense, condensed-size) propagation matrix.
    Linear(Matrix),
    /// A path ending at another type: constant.
    Const(Matrix),
}

/// Builds the synthetic-side block plan for the condensed graph. Its
/// compositions go through a [`CondenseContext`], under the same fill-in
/// cap as the evaluator's `propagate`, so the relay matches the blocks
/// the evaluated model reads.
pub fn syn_block_plan(cond: &HeteroGraph, max_hops: usize, max_paths: usize) -> Vec<SynBlock> {
    let schema = cond.schema();
    let target = schema.target();
    let n = cond.num_nodes(target);
    let paths = enumerate_metapaths(schema, target, max_hops, max_paths);
    let engine = CondenseContext::new(cond);
    let mut plan = Vec::with_capacity(paths.len() + 1);
    plan.push(SynBlock::Raw);
    for p in &paths {
        if p.source() == target {
            let m = engine.adjacency(p);
            plan.push(SynBlock::Linear(Matrix::from_vec(n, n, m.to_dense())));
        } else {
            let adj = engine.adjacency(p);
            let f = cond.features(p.source());
            let data = adj.spmm_dense(f.data(), f.dim());
            plan.push(SynBlock::Const(Matrix::from_vec(n, f.dim(), data)));
        }
    }
    plan
}

/// Frozen relay: random projections and fusion parameters that stay fixed
/// during condensation (only the classifier `W` is trained in the inner
/// loop).
pub struct FrozenRelay {
    kind: RelayKind,
    proj: Vec<Matrix>,
    q1: Matrix,
    q2: Matrix,
    gates: Matrix,
    hidden: usize,
}

impl FrozenRelay {
    pub fn new(kind: RelayKind, block_dims: &[usize], hidden: usize, seed: u64) -> Self {
        let proj = block_dims
            .iter()
            .enumerate()
            .map(|(i, &d)| Matrix::xavier(d, hidden, seed.wrapping_add(11 * i as u64 + 1)))
            .collect();
        Self {
            kind,
            proj,
            q1: Matrix::xavier(hidden, 1, seed ^ 0xf1),
            q2: Matrix::xavier(hidden, 1, seed ^ 0xf2),
            gates: {
                // Pre-computed sigmoid gates in (0,1).
                let mut m = Matrix::xavier(1, block_dims.len(), seed ^ 0xf3);
                for v in m.data.iter_mut() {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
                m
            },
            hidden,
        }
    }

    /// Representation `ψ(blocks)` on the tape.
    pub fn repr(&self, tape: &mut Tape, blocks: &[NodeId]) -> NodeId {
        assert_eq!(blocks.len(), self.proj.len(), "block count mismatch");
        let hs: Vec<NodeId> = blocks
            .iter()
            .zip(&self.proj)
            .map(|(&b, p)| {
                let pn = tape.constant(p.clone());
                tape.matmul(b, pn)
            })
            .collect();
        match self.kind {
            RelayKind::Hsgc => {
                // Linear mean fusion — the "simplest" relay.
                let s = tape.add_n(&hs);
                tape.scale(s, 1.0 / hs.len() as f32)
            }
            RelayKind::SeHgnn => {
                let q = tape.constant(self.q1.clone());
                let scores: Vec<NodeId> = hs
                    .iter()
                    .map(|&h| {
                        let t = tape.tanh(h);
                        let m = mean_rows(tape, t);
                        tape.matmul(m, q)
                    })
                    .collect();
                let cat = tape.concat_cols(&scores);
                let alpha = tape.softmax_rows(cat);
                let fused = tape.weighted_sum(&hs, alpha);
                tape.relu(fused)
            }
            RelayKind::Hgb => {
                let gates = tape.constant(self.gates.clone());
                let fused = tape.weighted_sum(&hs, gates);
                tape.relu(fused)
            }
            RelayKind::Hgt => {
                let inv = 1.0 / (self.hidden as f32).sqrt();
                let head = |tape: &mut Tape, q: &Matrix| {
                    let qn = tape.constant(q.clone());
                    let scores: Vec<NodeId> = hs
                        .iter()
                        .map(|&h| {
                            let m = mean_rows(tape, h);
                            let s = tape.matmul(m, qn);
                            tape.scale(s, inv)
                        })
                        .collect();
                    let cat = tape.concat_cols(&scores);
                    let alpha = tape.softmax_rows(cat);
                    tape.weighted_sum(&hs, alpha)
                };
                let h1 = head(tape, &self.q1);
                let h2 = head(tape, &self.q2);
                let sum = tape.add(h1, h2);
                let half = tape.scale(sum, 0.5);
                let res = tape.add_n(&hs);
                let res = tape.scale(res, 1.0 / hs.len() as f32);
                let mixed = tape.add(half, res);
                tape.relu(mixed)
            }
        }
    }
}

fn mean_rows(tape: &mut Tape, h: NodeId) -> NodeId {
    let n = tape.value(h).rows;
    let ones = tape.constant(Matrix::from_vec(1, n, vec![1.0 / n.max(1) as f32; n]));
    tape.matmul(ones, h)
}

/// One-hot label matrix.
pub fn one_hot(labels: &[u32], num_classes: usize) -> Matrix {
    let mut m = Matrix::zeros(labels.len(), num_classes);
    for (r, &y) in labels.iter().enumerate() {
        m.set(r, y as usize, 1.0);
    }
    m
}

/// Relay gradient `G = ψᵀ (softmax(ψW) − Y) / n` as a tape node —
/// differentiable through `ψ`.
pub fn relay_grad_node(tape: &mut Tape, psi: NodeId, w: NodeId, y_onehot: &Matrix) -> NodeId {
    let n = y_onehot.rows.max(1) as f32;
    let logits = tape.matmul(psi, w);
    let probs = tape.softmax_rows(logits);
    let y = tape.constant(y_onehot.clone());
    let r = tape.sub(probs, y);
    let r = tape.scale(r, 1.0 / n);
    tape.matmul_tn(psi, r)
}

/// In-place Gram–Schmidt orthogonalization of flattened weight matrices —
/// HGCond's orthogonal parameter sequences (OPS).
pub fn orthogonalize(ws: &mut [Matrix]) {
    for i in 0..ws.len() {
        for j in 0..i {
            let dot: f32 = ws[i].data.iter().zip(&ws[j].data).map(|(a, b)| a * b).sum();
            let nj: f32 = ws[j].data.iter().map(|v| v * v).sum();
            if nj > 1e-12 {
                let f = dot / nj;
                // Split borrow: j < i.
                let (left, right) = ws.split_at_mut(i);
                for (a, b) in right[0].data.iter_mut().zip(&left[j].data) {
                    *a -= f * b;
                }
            }
        }
        let norm: f32 = ws[i].data.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for v in ws[i].data.iter_mut() {
                *v /= norm;
            }
        }
    }
}

/// Statistics of a gradient-matching run (time accounting for Fig. 2b/8).
#[derive(Clone, Debug)]
pub struct GradMatchStats {
    pub outer_steps: usize,
    pub inner_steps: usize,
    pub final_loss: f32,
}

/// The bi-level gradient-matching refinement: updates the condensed
/// graph's target-type features so relay gradients match the real graph's.
///
/// `ctx` is the context of the *real* graph: the real-side propagated
/// blocks — the only full-graph-sized cost of the bi-level loop — come
/// from its `(max_hops, max_paths)` cache, so repeated GCond/HGCond runs
/// (ratio and seed sweeps, the Fig. 2a relay study) propagate once. The
/// synthetic side is per-condensed-graph and stays uncached.
pub fn gradient_matching_refine(
    ctx: &CondenseContext<'_>,
    cond: &mut CondensedGraph,
    spec: &CondenseSpec,
    cfg: &GradMatchConfig,
) -> GradMatchStats {
    let real = ctx.graph();
    let target = real.schema().target();
    let num_classes = real.num_classes();

    // Real side: propagated blocks gathered on the training split.
    let pf_real = propagate_ctx(ctx, spec.max_hops, cfg.max_paths);
    let train = &real.split().train;
    let real_blocks: Vec<Matrix> = pf_real.gather(train);
    let y_real: Vec<u32> = train.iter().map(|&v| real.labels()[v as usize]).collect();
    let y_real_oh = one_hot(&y_real, num_classes);

    // Synthetic side: block plan over the condensed graph.
    let plan = syn_block_plan(&cond.graph, spec.max_hops, cfg.max_paths);
    assert_eq!(
        plan.len(),
        real_blocks.len(),
        "real/synthetic block plans must align"
    );
    let y_syn = cond.graph.labels().to_vec();
    let y_syn_oh = one_hot(&y_syn, num_classes);
    let dims: Vec<usize> = real_blocks.iter().map(|b| b.cols).collect();

    let relay = FrozenRelay::new(cfg.relay, &dims, cfg.hidden, spec.seed ^ 0x6e55);

    // Synthetic target features are the optimized parameter.
    let x0 = cond.graph.features(target);
    let mut xstore = ParamStore::new();
    let x_id = xstore.add(Matrix::from_vec(
        x0.num_rows(),
        x0.dim(),
        x0.data().to_vec(),
    ));
    let mut adam_x = Adam::new(cfg.lr_feat);

    // Relay parameter samples.
    let mut w_samples: Vec<Matrix> = (0..cfg.relay_samples.max(1))
        .map(|s| {
            Matrix::xavier(
                cfg.hidden,
                num_classes,
                spec.seed.wrapping_add(97 * s as u64),
            )
        })
        .collect();
    if cfg.ops {
        orthogonalize(&mut w_samples);
    }
    let mut adam_w: Vec<Adam> = w_samples.iter().map(|_| Adam::new(cfg.lr_relay)).collect();

    let mut inner_steps = 0usize;
    let mut final_loss = f32::NAN;
    for _outer in 0..cfg.outer {
        // Real representation is recomputed every outer iteration, as the
        // actual bi-level implementations do — this is the size-dependent
        // cost that makes these methods slow on large graphs (Fig. 2b).
        let mut tr = Tape::new();
        let rb: Vec<NodeId> = real_blocks.iter().map(|b| tr.constant_ref(b)).collect();
        let psi_real_node = relay.repr(&mut tr, &rb);
        let psi_real = tr.value(psi_real_node).clone();

        // Current synthetic ψ for the inner relay training.
        let psi_syn_now = {
            let mut ts = Tape::new();
            let x = ts.param(&xstore, x_id);
            let bn = plan_nodes(&mut ts, &plan, x);
            let node = relay.repr(&mut ts, &bn);
            ts.value(node).clone()
        };

        for (s, w) in w_samples.iter_mut().enumerate() {
            // Inner loop: train the relay classifier on synthetic data.
            for _ in 0..cfg.inner {
                inner_steps += 1;
                let mut ws = ParamStore::new();
                let wid = ws.add(w.clone());
                let mut t = Tape::new();
                let psi = t.constant_ref(&psi_syn_now);
                let wn = t.param(&ws, wid);
                let logits = t.matmul(psi, wn);
                let loss = t.cross_entropy_mean(logits, &y_syn);
                let grads = t.backward(loss);
                let grads = t.param_grads(grads);
                ws.zero_grads();
                ws.accumulate_grads(grads);
                adam_w[s].step(&mut ws);
                *w = ws.value(wid).clone();
            }
        }
        if cfg.ops {
            orthogonalize(&mut w_samples);
        }

        // Outer step: match gradients across all relay samples.
        let mut t = Tape::new();
        let x = t.param(&xstore, x_id);
        let bn = plan_nodes(&mut t, &plan, x);
        let psi_syn = relay.repr(&mut t, &bn);
        let mut losses = Vec::with_capacity(w_samples.len());
        for w in &w_samples {
            // G_real for this sample (constant wrt X).
            let g_real = {
                let mut tg = Tape::new();
                let p = tg.constant_ref(&psi_real);
                let wn = tg.constant_ref(w);
                let g = relay_grad_node(&mut tg, p, wn, &y_real_oh);
                tg.value(g).clone()
            };
            let wn = t.constant_ref(w);
            let g_syn = relay_grad_node(&mut t, psi_syn, wn, &y_syn_oh);
            let gr = t.constant(g_real);
            let diff = t.sub(g_syn, gr);
            losses.push(t.sum_squares(diff));
        }
        let total = t.add_n(&losses);
        final_loss = t.value(total).get(0, 0);
        let grads = t.backward(total);
        let grads = t.param_grads(grads);
        xstore.zero_grads();
        xstore.accumulate_grads(grads);
        adam_x.step(&mut xstore);
    }

    // Write refined features back into the condensed graph.
    let xv = xstore.value(x_id);
    cond.graph
        .set_features(target, FeatureMatrix::from_rows(xv.cols, xv.data.clone()));
    GradMatchStats {
        outer_steps: cfg.outer,
        inner_steps,
        final_loss,
    }
}

fn plan_nodes<'a>(tape: &mut Tape<'a>, plan: &'a [SynBlock], x: NodeId) -> Vec<NodeId> {
    plan.iter()
        .map(|b| match b {
            SynBlock::Raw => x,
            SynBlock::Linear(m) => {
                let mn = tape.constant_ref(m);
                tape.matmul(mn, x)
            }
            SynBlock::Const(c) => tape.constant_ref(c),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthogonalize_produces_orthonormal_set() {
        let mut ws = vec![
            Matrix::xavier(3, 2, 1),
            Matrix::xavier(3, 2, 2),
            Matrix::xavier(3, 2, 3),
        ];
        orthogonalize(&mut ws);
        for i in 0..3 {
            let ni: f32 = ws[i].data.iter().map(|v| v * v).sum();
            assert!((ni - 1.0).abs() < 1e-4, "norm {ni}");
            for j in 0..i {
                let dot: f32 = ws[i].data.iter().zip(&ws[j].data).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-4, "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn one_hot_rows() {
        let m = one_hot(&[1, 0, 2], 3);
        assert_eq!(m.row(0), &[0.0, 1.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 0.0, 0.0]);
        assert_eq!(m.row(2), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relay_grad_matches_manual_computation() {
        // ψ fixed; G = ψᵀ(softmax(ψW) − Y)/n computed two ways.
        let psi_m = Matrix::xavier(4, 3, 5);
        let w_m = Matrix::xavier(3, 2, 6);
        let y = one_hot(&[0, 1, 0, 1], 2);
        let mut t = Tape::new();
        let psi = t.constant(psi_m.clone());
        let w = t.constant(w_m.clone());
        let g = relay_grad_node(&mut t, psi, w, &y);
        let manual = {
            let probs = psi_m.matmul(&w_m).softmax_rows();
            let r = probs.sub(&y).scale(1.0 / 4.0);
            psi_m.matmul_tn(&r)
        };
        for (a, b) in t.value(g).data.iter().zip(&manual.data) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn frozen_relays_produce_distinct_representations() {
        let blocks = [Matrix::xavier(5, 4, 7), Matrix::xavier(5, 3, 8)];
        let mut outs = Vec::new();
        for kind in [
            RelayKind::Hsgc,
            RelayKind::SeHgnn,
            RelayKind::Hgb,
            RelayKind::Hgt,
        ] {
            let relay = FrozenRelay::new(kind, &[4, 3], 8, 42);
            let mut t = Tape::new();
            let bn: Vec<NodeId> = blocks.iter().map(|b| t.constant(b.clone())).collect();
            let psi = relay.repr(&mut t, &bn);
            assert_eq!(t.value(psi).shape(), (5, 8), "{kind:?}");
            outs.push(t.value(psi).data.clone());
        }
        for i in 0..outs.len() {
            for j in i + 1..outs.len() {
                assert_ne!(outs[i], outs[j], "relays {i}/{j} coincide");
            }
        }
    }
}

#[cfg(test)]
mod refine_tests {
    use super::*;
    use freehgc_datasets::tiny;
    use freehgc_hetgraph::{induce_selection, EdgeTypeId, HeteroGraphBuilder, Schema, MAX_ROW_NNZ};
    use freehgc_hgnn::propagate;

    fn quick_cfg(outer: usize) -> GradMatchConfig {
        GradMatchConfig {
            outer,
            inner: 2,
            relay_samples: 2,
            ..Default::default()
        }
    }

    /// Real and synthetic block plans must align one-to-one — the
    /// precondition for the matching loss to be meaningful.
    #[test]
    fn syn_block_plan_aligns_with_propagation() {
        let g = tiny(0);
        let keep: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..(g.num_nodes(t) as u32 / 2).max(2)).collect())
            .collect();
        let cond = induce_selection(&g, keep);
        let plan = syn_block_plan(&cond.graph, 2, 12);
        let pf = propagate(&g, 2, 12);
        assert_eq!(plan.len(), pf.blocks.len());
        // Dimensions agree per block.
        let t = g.schema().target();
        for (i, b) in plan.iter().enumerate() {
            let dim = match b {
                SynBlock::Raw => cond.graph.features(t).dim(),
                SynBlock::Linear(m) => {
                    assert_eq!(m.rows, cond.graph.num_nodes(t));
                    cond.graph.features(t).dim()
                }
                SynBlock::Const(c) => c.cols,
            };
            assert_eq!(dim, pf.blocks[i].cols, "block {i} dim mismatch");
        }
    }

    /// Authors writing two papers each, one in each of two venues: every
    /// author reaches every paper along A-P-V-P and every author along
    /// A-P-V-P-A, so both products have rows wider than [`MAX_ROW_NNZ`].
    fn two_venue_graph() -> HeteroGraph {
        let (n_authors, n_papers) = (MAX_ROW_NNZ + 44, MAX_ROW_NNZ + 45);
        let mut s = Schema::new();
        let a = s.add_node_type("author");
        let p = s.add_node_type("paper");
        let v = s.add_node_type("venue");
        let ap = s.add_edge_type("ap", a, p);
        let pv = s.add_edge_type("pv", p, v);
        s.set_target(a);
        let mut b = HeteroGraphBuilder::new(s, vec![n_authors, n_papers, 2]);
        for i in 0..n_authors as u32 {
            b.add_edge(ap, i, i);
            b.add_edge(ap, i, i + 1);
        }
        for j in 0..n_papers as u32 {
            b.add_edge(pv, j, j % 2);
        }
        let ramp = |n: usize, dim: usize| {
            FeatureMatrix::from_rows(dim, (0..n * dim).map(|i| (i % 97) as f32 * 0.25).collect())
        };
        b.set_features(a, ramp(n_authors, 3));
        b.set_features(p, ramp(n_papers, 2));
        b.set_features(v, ramp(2, 1));
        b.set_labels((0..n_authors as u32).map(|i| i % 2).collect(), 2);
        b.build()
    }

    /// The synthetic side composes under the same fill-in cap as the
    /// evaluator's `propagate`: constant blocks equal propagation's bit
    /// for bit, and no propagation matrix has a row wider than the cap.
    #[test]
    fn syn_block_plan_reads_the_capped_blocks_propagation_reads() {
        let cond = two_venue_graph();
        let (hops, paths) = (4, 24);
        let plan = syn_block_plan(&cond, hops, paths);
        let pf = propagate(&cond, hops, paths);
        assert_eq!(plan.len(), pf.blocks.len());
        let (mut consts, mut linears) = (0, 0);
        for (i, b) in plan.iter().enumerate() {
            match b {
                SynBlock::Raw => {}
                SynBlock::Const(c) => {
                    consts += 1;
                    let bits = |m: &Matrix| m.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(c), bits(&pf.blocks[i]), "{}", pf.path_names[i]);
                }
                SynBlock::Linear(m) => {
                    linears += 1;
                    for r in 0..m.rows {
                        let nnz = m.row(r).iter().filter(|&&x| x != 0.0).count();
                        assert!(nnz <= MAX_ROW_NNZ, "{} row {r}: {nnz}", pf.path_names[i]);
                    }
                }
            }
        }
        assert!(consts > 0 && linears > 0);
        // Uncapped, the A-P-V-P product really is wider than the cap.
        let (ap, pv) = (EdgeTypeId(0), EdgeTypeId(1));
        let fwd = |e| cond.adjacency(e).row_normalized();
        let apvp = fwd(ap)
            .spgemm(&fwd(pv))
            .spgemm(&cond.adjacency(pv).transpose().row_normalized());
        assert!((0..apvp.nrows()).any(|r| apvp.row_nnz(r) > MAX_ROW_NNZ));
    }

    /// More outer iterations must not blow up the matching loss; the
    /// refined features stay finite.
    #[test]
    fn refinement_is_stable() {
        let g = tiny(1);
        let spec = freehgc_hetgraph::CondenseSpec::new(0.25)
            .with_max_hops(2)
            .with_seed(3);
        let keep: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..spec.budget_for(g.num_nodes(t)) as u32).collect())
            .collect();
        let mut cond = induce_selection(&g, keep);
        let stats =
            gradient_matching_refine(&CondenseContext::new(&g), &mut cond, &spec, &quick_cfg(8));
        assert!(stats.final_loss.is_finite());
        let t = g.schema().target();
        assert!(cond.graph.features(t).data().iter().all(|v| v.is_finite()));
    }

    /// The inner loop actually trains the relay: with more inner steps the
    /// relay CE on synthetic data is lower, observable via lower final
    /// gradient-matching loss variance. We assert the bookkeeping instead:
    /// inner_steps = outer × samples × inner.
    #[test]
    fn inner_step_accounting() {
        let g = tiny(2);
        let spec = freehgc_hetgraph::CondenseSpec::new(0.25)
            .with_max_hops(2)
            .with_seed(4);
        let keep: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..spec.budget_for(g.num_nodes(t)) as u32).collect())
            .collect();
        let mut cond = induce_selection(&g, keep);
        let cfg = quick_cfg(5);
        let stats = gradient_matching_refine(&CondenseContext::new(&g), &mut cond, &spec, &cfg);
        assert_eq!(stats.outer_steps, 5);
        assert_eq!(stats.inner_steps, 5 * cfg.relay_samples * cfg.inner);
    }
}
