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

    /// Applies one update from the gradients currently in `store`.
    pub fn step(&mut self, store: &mut ParamStore) {
        // Lazily size the moment buffers (params may be added before the
        // first step but not after).
        while self.m.len() < store.len() {
            let id = crate::tape::ParamId(self.m.len());
            let (r, c) = store.value(id).shape();
            self.m.push(Matrix::zeros(r, c));
            self.v.push(Matrix::zeros(r, c));
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for id in store.param_ids().collect::<Vec<_>>() {
            let g = store.grad(id).clone();
            let m = &mut self.m[id.0];
            let v = &mut self.v[id.0];
            let value = store.value_mut(id);
            for k in 0..value.data.len() {
                let mut gk = g.data[k];
                if self.weight_decay > 0.0 {
                    gk += self.weight_decay * value.data[k];
                }
                m.data[k] = self.beta1 * m.data[k] + (1.0 - self.beta1) * gk;
                v.data[k] = self.beta2 * v.data[k] + (1.0 - self.beta2) * gk * gk;
                let mhat = m.data[k] / b1t;
                let vhat = v.data[k] / b2t;
                value.data[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
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
            store.zero_grads();
            t.accumulate_param_grads(&g, &mut store);
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
}
