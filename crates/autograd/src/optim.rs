//! First-order optimizers over a [`ParamStore`].

use crate::matrix::Matrix;
use crate::tape::ParamStore;

/// Adam (Kingma & Ba, 2015) with optional decoupled weight decay.
#[derive(Clone, Debug)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update from the gradients currently in `store`: one
    /// pass over each parameter's value, gradient and moments together,
    /// every element taking the same operations in the same order as
    /// the textbook per-element update.
    pub fn step(&mut self, store: &mut ParamStore) {
        // Lazily size the moment buffers (params may be added before the
        // first step but not after).
        for value in &store.values()[self.m.len()..] {
            let (r, c) = value.shape();
            self.m.push(Matrix::zeros(r, c));
            self.v.push(Matrix::zeros(r, c));
        }
        self.t += 1;
        let (beta1, beta2, lr, eps, wd) =
            (self.beta1, self.beta2, self.lr, self.eps, self.weight_decay);
        let b1t = 1.0 - beta1.powi(self.t as i32);
        let b2t = 1.0 - beta2.powi(self.t as i32);
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((value, grad), (m, v)) in store.values_and_grads_mut().zip(moments) {
            let elems = value.data.iter_mut().zip(&grad.data);
            for ((x, &g), (mk, vk)) in elems.zip(m.data.iter_mut().zip(&mut v.data)) {
                let mut gk = g;
                if wd > 0.0 {
                    gk += wd * *x;
                }
                *mk = beta1 * *mk + (1.0 - beta1) * gk;
                *vk = beta2 * *vk + (1.0 - beta2) * gk * gk;
                let mhat = *mk / b1t;
                let vhat = *vk / b2t;
                *x -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimize ||XW - Y||² over W; the optimizer must reach ~0 loss.
    fn fit(optimizer: &mut dyn FnMut(&mut ParamStore)) -> f32 {
        let x = Matrix::xavier(8, 3, 1);
        let w_true = Matrix::xavier(3, 2, 2);
        let y = x.matmul(&w_true);
        let mut store = ParamStore::new();
        let w = store.add(Matrix::zeros(3, 2));
        let mut last = f32::MAX;
        for _ in 0..400 {
            let mut t = Tape::new();
            let xn = t.constant(x.clone());
            let wn = t.param(&store, w);
            let pred = t.matmul(xn, wn);
            let yn = t.constant(y.clone());
            let diff = t.sub(pred, yn);
            let loss = t.sum_squares(diff);
            last = t.value(loss).get(0, 0);
            let g = t.backward(loss);
            let g = t.param_grads(g);
            store.zero_grads();
            store.accumulate_grads(g);
            optimizer(&mut store);
        }
        last
    }

    #[test]
    fn adam_converges_on_least_squares() {
        let mut adam = Adam::new(0.05);
        let loss = fit(&mut |s| adam.step(s));
        assert!(loss < 1e-3, "final loss {loss}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![10.0]));
        let mut adam = Adam::new(0.1).with_weight_decay(1.0);
        for _ in 0..200 {
            store.zero_grads(); // gradient = 0; only decay acts
            adam.step(&mut store);
        }
        assert!(store.value(w).get(0, 0).abs() < 1.0);
    }

    #[test]
    fn adam_handles_params_added_before_first_step() {
        let mut store = ParamStore::new();
        let a = store.add(Matrix::zeros(2, 2));
        let b = store.add(Matrix::zeros(1, 3));
        let mut adam = Adam::new(0.01);
        store.zero_grads();
        adam.step(&mut store);
        assert_eq!(store.value(a).shape(), (2, 2));
        assert_eq!(store.value(b).shape(), (1, 3));
    }

    /// The per-index update `step` replaced, kept as its oracle: it
    /// copies each gradient and indexes every buffer element by element.
    fn step_per_index(adam: &mut Adam, store: &mut ParamStore) {
        while adam.m.len() < store.len() {
            let id = crate::tape::ParamId(adam.m.len());
            let (r, c) = store.value(id).shape();
            adam.m.push(Matrix::zeros(r, c));
            adam.v.push(Matrix::zeros(r, c));
        }
        adam.t += 1;
        let b1t = 1.0 - adam.beta1.powi(adam.t as i32);
        let b2t = 1.0 - adam.beta2.powi(adam.t as i32);
        for id in store.param_ids().collect::<Vec<_>>() {
            let g = store.grad(id).clone();
            let m = &mut adam.m[id.0];
            let v = &mut adam.v[id.0];
            let value = store.value_mut(id);
            for k in 0..value.data.len() {
                let mut gk = g.data[k];
                if adam.weight_decay > 0.0 {
                    gk += adam.weight_decay * value.data[k];
                }
                m.data[k] = adam.beta1 * m.data[k] + (1.0 - adam.beta1) * gk;
                v.data[k] = adam.beta2 * v.data[k] + (1.0 - adam.beta2) * gk * gk;
                let mhat = m.data[k] / b1t;
                let vhat = v.data[k] / b2t;
                value.data[k] -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
            }
        }
    }

    fn bits(store: &ParamStore) -> Vec<u32> {
        let values = store.values().iter().flat_map(|m| &m.data);
        values.map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_step_matches_the_per_index_loop_bitwise() {
        for wd in [0.0, 5e-4, 0.3] {
            let mut store = ParamStore::new();
            for (i, (r, c)) in [(7, 5), (1, 5), (64, 3), (1, 1)].into_iter().enumerate() {
                store.add(Matrix::xavier(r, c, 40 + i as u64));
            }
            let mut reference = store.clone();
            let mut fused = Adam::new(0.02).with_weight_decay(wd);
            let mut oracle = fused.clone();
            for step in 0..12u64 {
                // Fresh gradients each step, with exact zeros, -0.0 and
                // large magnitudes among them.
                for (id, seed) in store.param_ids().zip(100 * step..) {
                    let (r, c) = store.value(id).shape();
                    let mut g = Matrix::xavier(r, c, seed);
                    for (k, x) in g.data.iter_mut().enumerate() {
                        *x = match k % 7 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => *x * 1e4,
                            _ => *x,
                        };
                    }
                    *store.grad_mut(id) = g.clone();
                    *reference.grad_mut(id) = g;
                }
                fused.step(&mut store);
                step_per_index(&mut oracle, &mut reference);
                assert_eq!(bits(&store), bits(&reference), "wd {wd}, step {step}");
            }
            let moments = |a: &Adam| -> Vec<u32> {
                let all = a.m.iter().chain(&a.v).flat_map(|m| &m.data);
                all.map(|x| x.to_bits()).collect()
            };
            assert_eq!(moments(&fused), moments(&oracle), "wd {wd}");
        }
    }
}
