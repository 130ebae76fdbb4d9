//! Full-batch training with Adam and validation-based early stopping.
//!
//! The paper's evaluation protocol (§V-B) is: train the test model on the
//! *condensed* graph and evaluate on the *full* graph's test split. The
//! trainer therefore works on gathered per-split block sets and never sees
//! the graph itself.

use crate::metrics::accuracy;
use crate::models::Model;
use freehgc_autograd::{Adam, Matrix, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters (paper §V-B: lr 0.001, dropout 0.5, hidden 128; we
/// default to a smaller hidden size and larger lr suited to the scaled
/// synthetic datasets).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub hidden: usize,
    pub lr: f32,
    pub weight_decay: f32,
    pub dropout: f32,
    pub epochs: usize,
    /// Early-stopping patience in epochs (0 disables early stopping).
    pub patience: usize,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            lr: 0.01,
            weight_decay: 5e-4,
            dropout: 0.5,
            epochs: 120,
            patience: 25,
            seed: 0,
        }
    }
}

impl TrainConfig {
    pub fn quick() -> Self {
        Self {
            epochs: 40,
            patience: 10,
            ..Self::default()
        }
    }
}

/// A labeled block set (gathered rows of propagated features).
pub struct EvalData<'a> {
    pub blocks: &'a [Matrix],
    pub labels: &'a [u32],
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    pub epochs_run: usize,
    pub final_train_loss: f32,
    pub best_val_acc: f64,
}

/// Predicted classes for a block set, from a forward pass on an
/// inference tape: repeated calls on the same shapes reuse its buffers.
pub fn predict(model: &dyn Model, blocks: &[Matrix]) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut tape = Tape::inference();
    let z = model.logits(&mut tape, blocks, false, &mut rng);
    tape.value(z).argmax_rows()
}

/// Accuracy of `model` on a block set.
pub fn evaluate(model: &dyn Model, data: &EvalData) -> f64 {
    accuracy(&predict(model, data.blocks), data.labels)
}

/// Trains `model` on `train_data`, early-stopping on `val` accuracy when
/// provided; the best-validation parameter values are restored before
/// returning. They are kept in one snapshot allocated up front, which
/// each validation improvement overwrites.
pub fn train(
    model: &mut dyn Model,
    train_data: &EvalData,
    val: Option<&EvalData>,
    cfg: &TrainConfig,
) -> TrainReport {
    assert_eq!(
        train_data.blocks[0].rows,
        train_data.labels.len(),
        "one label per training row"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut adam = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut best_val = f64::NEG_INFINITY;
    let mut snapshot = match val {
        Some(_) => model.store().values().to_vec(),
        None => Vec::new(),
    };
    let mut saved = false;
    let mut since_best = 0usize;
    let mut final_loss = f32::NAN;
    let mut epochs_run = 0usize;

    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        let mut tape = Tape::new();
        let z = model.logits(&mut tape, train_data.blocks, true, &mut rng);
        let loss = tape.cross_entropy_mean(z, train_data.labels);
        final_loss = tape.value(loss).get(0, 0);
        let grads = tape.backward(loss);
        // The tape borrows the parameter values; take the gradients out
        // before the store is updated.
        let grads = tape.param_grads(grads);
        let store = model.store_mut();
        store.zero_grads();
        store.accumulate_grads(grads);
        adam.step(store);

        if let Some(v) = val {
            let acc = evaluate(model, v);
            if acc > best_val {
                best_val = acc;
                model.store().save_values(&mut snapshot);
                saved = true;
                since_best = 0;
            } else {
                since_best += 1;
                if cfg.patience > 0 && since_best >= cfg.patience {
                    break;
                }
            }
        }
    }
    if saved {
        model.store_mut().load_values(&snapshot);
    }
    TrainReport {
        epochs_run,
        final_train_loss: final_loss,
        best_val_acc: if best_val.is_finite() { best_val } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_model, ModelKind};

    /// Linearly separable two-block toy problem.
    fn toy(n_per_class: usize, seed: u64) -> (Vec<Matrix>, Vec<u32>) {
        let mut data0 = Vec::new();
        let mut data1 = Vec::new();
        let mut labels = Vec::new();
        let mut rng_state = seed;
        let mut next = || {
            // xorshift for tiny deterministic noise
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1000) as f32 / 1000.0 - 0.5
        };
        for c in 0..3u32 {
            for _ in 0..n_per_class {
                let base = c as f32;
                data0.extend([base + 0.2 * next(), -base + 0.2 * next()]);
                data1.extend([2.0 * base + 0.2 * next()]);
                labels.push(c);
            }
        }
        let n = labels.len();
        (
            vec![Matrix::from_vec(n, 2, data0), Matrix::from_vec(n, 1, data1)],
            labels,
        )
    }

    #[test]
    fn every_model_fits_separable_data() {
        let (blocks, labels) = toy(20, 42);
        for kind in [
            ModelKind::HeteroSgc,
            ModelKind::SeHgnn,
            ModelKind::Han,
            ModelKind::Hgb,
            ModelKind::Hgt,
        ] {
            let mut model = build_model(kind, &[2, 1], 3, 16, 0.0, 1);
            let data = EvalData {
                blocks: &blocks,
                labels: &labels,
            };
            let cfg = TrainConfig {
                epochs: 200,
                patience: 0,
                lr: 0.05,
                weight_decay: 0.0,
                dropout: 0.0,
                hidden: 16,
                seed: 0,
            };
            train(&mut *model, &data, None, &cfg);
            let acc = evaluate(&*model, &data);
            assert!(acc > 0.9, "{kind:?} reached only {acc:.3}");
        }
    }

    #[test]
    fn early_stopping_restores_best_params() {
        let (blocks, labels) = toy(10, 7);
        let mut model = build_model(ModelKind::SeHgnn, &[2, 1], 3, 8, 0.0, 2);
        let data = EvalData {
            blocks: &blocks,
            labels: &labels,
        };
        let cfg = TrainConfig {
            epochs: 100,
            patience: 5,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            hidden: 8,
            seed: 0,
        };
        let report = train(&mut *model, &data, Some(&data), &cfg);
        // Restored parameters must reproduce the reported best accuracy.
        let acc = evaluate(&*model, &data);
        assert!(
            (acc - report.best_val_acc).abs() < 1e-9,
            "restored {acc} vs best {}",
            report.best_val_acc
        );
    }

    #[test]
    fn training_reduces_loss() {
        let (blocks, labels) = toy(15, 3);
        let mut model = build_model(ModelKind::Hgb, &[2, 1], 3, 8, 0.0, 3);
        let data = EvalData {
            blocks: &blocks,
            labels: &labels,
        };
        let mut cfg = TrainConfig {
            epochs: 1,
            patience: 0,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            hidden: 8,
            seed: 0,
        };
        let first = train(&mut *model, &data, None, &cfg).final_train_loss;
        cfg.epochs = 150;
        let last = train(&mut *model, &data, None, &cfg).final_train_loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn warm_predict_takes_every_buffer_from_the_pool() {
        // Pools and counters are thread-local: a dedicated thread
        // isolates this from every other test.
        std::thread::spawn(|| {
            let (blocks, _) = toy(30, 11);
            for kind in [ModelKind::SeHgnn, ModelKind::Hgt] {
                let model = build_model(kind, &[2, 1], 3, 8, 0.0, 5);
                let first = predict(&*model, &blocks);
                freehgc_parallel::workspace::reset_stats();
                let second = predict(&*model, &blocks);
                let stats = freehgc_parallel::workspace::stats();
                assert_eq!(first, second);
                assert!(stats.takes > 0, "{kind:?}: op outputs must be pooled");
                assert_eq!(stats.fresh_allocs, 0, "{kind:?}: {stats:?}");
                assert_eq!(stats.alloc_bytes, 0, "{kind:?}: {stats:?}");
                assert_eq!(stats.gives, stats.takes, "{kind:?}: {stats:?}");
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn predict_shape() {
        let (blocks, labels) = toy(5, 9);
        let model = build_model(ModelKind::HeteroSgc, &[2, 1], 3, 8, 0.0, 4);
        let pred = predict(&*model, &blocks);
        assert_eq!(pred.len(), labels.len());
        assert!(pred.iter().all(|&p| p < 3));
    }
}
