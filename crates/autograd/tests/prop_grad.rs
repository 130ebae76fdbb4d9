//! Property-based gradient checks: every composite expression the HGNN
//! heads and gradient-matching baselines build must match central finite
//! differences on random shapes and values.

use freehgc_autograd::{Matrix, NodeId, ParamStore, Tape};
use proptest::prelude::*;

/// Central finite-difference check for a scalar-valued builder.
fn grad_check<F>(init: &Matrix, tol: f32, f: F) -> Result<(), TestCaseError>
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

    let eps = 5e-2f32;
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
        prop_assert!(
            (a - numeric).abs() <= tol * (1.0 + a.abs().max(numeric.abs())),
            "grad mismatch at {k}: analytic {a}, numeric {numeric}"
        );
    }
    Ok(())
}

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linear_relu_chain(x in arb_matrix(3, 4)) {
        grad_check(&x, 0.08, |t, p| {
            let w = t.constant(Matrix::xavier(4, 3, 11));
            let h = t.matmul(p, w);
            let h = t.relu(h);
            t.sum_squares(h)
        })?;
    }

    #[test]
    fn attention_style_fusion(x in arb_matrix(4, 3)) {
        // softmax over per-block scores, weighted sum — the SeHGNN head.
        grad_check(&x, 0.1, |t, p| {
            let other = t.constant(Matrix::xavier(4, 3, 12));
            let q = t.constant(Matrix::xavier(3, 1, 13));
            let ones = t.constant(Matrix::from_vec(1, 4, vec![0.25; 4]));
            let s1 = {
                let th = t.tanh(p);
                let m = t.matmul(ones, th);
                t.matmul(m, q)
            };
            let s2 = {
                let th = t.tanh(other);
                let m = t.matmul(ones, th);
                t.matmul(m, q)
            };
            let cat = t.concat_cols(&[s1, s2]);
            let alpha = t.softmax_rows(cat);
            let fused = t.weighted_sum(&[p, other], alpha);
            t.sum_squares(fused)
        })?;
    }

    #[test]
    fn cross_entropy_over_random_labels(x in arb_matrix(5, 3), y in prop::collection::vec(0u32..3, 5)) {
        grad_check(&x, 0.08, |t, p| t.cross_entropy_mean(p, &y))?;
    }

    #[test]
    fn gradient_matching_expression(x in arb_matrix(4, 3)) {
        // The GCond/HGCond matching loss: ||ψᵀ(softmax(ψW) − Y)/n − G||².
        grad_check(&x, 0.15, |t, p| {
            let w = t.constant(Matrix::xavier(3, 2, 14));
            let logits = t.matmul(p, w);
            let probs = t.softmax_rows(logits);
            let y = t.constant(Matrix::from_vec(4, 2, vec![1., 0., 0., 1., 1., 0., 0., 1.]));
            let r = t.sub(probs, y);
            let r = t.scale(r, 0.25);
            let gsyn = t.matmul_tn(p, r);
            let greal = t.constant(Matrix::xavier(3, 2, 15));
            let diff = t.sub(gsyn, greal);
            t.sum_squares(diff)
        })?;
    }

    #[test]
    fn sigmoid_gated_sum(x in arb_matrix(3, 3)) {
        grad_check(&x, 0.08, |t, p| {
            let other = t.constant(Matrix::xavier(3, 3, 16));
            let gate_logits = t.constant(Matrix::from_vec(1, 2, vec![0.3, -0.4]));
            let gates = t.sigmoid(gate_logits);
            let fused = t.weighted_sum(&[p, other], gates);
            let h = t.tanh(fused);
            t.sum_squares(h)
        })?;
    }

    #[test]
    fn bias_broadcast(bias in arb_matrix(1, 5)) {
        grad_check(&bias, 0.08, |t, p| {
            let a = t.constant(Matrix::xavier(4, 5, 17));
            let h = t.add_bias(a, p);
            let h = t.relu(h);
            t.sum_squares(h)
        })?;
    }
}
