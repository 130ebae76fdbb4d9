//! The condense → train → evaluate pipeline (paper §V-B).

use freehgc_autograd::Matrix;
use freehgc_hetgraph::{CondenseContext, CondenseSpec, CondensedGraph, Condenser, HeteroGraph};
use freehgc_hgnn::metrics::{accuracy, macro_f1, mean_std};
use freehgc_hgnn::models::{build_model, ModelKind};
use freehgc_hgnn::propagation::{propagate, propagate_ctx, PropagatedFeatures};
use freehgc_hgnn::trainer::{predict, train, EvalData, TrainConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Evaluation configuration.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Meta-path hops for both condensation and propagation.
    pub max_hops: usize,
    /// Meta-path cap for propagation.
    pub max_paths: usize,
    /// Test model (the paper uses SeHGNN).
    pub model: ModelKind,
    pub train: TrainConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            max_hops: 2,
            max_paths: 12,
            model: ModelKind::SeHgnn,
            train: TrainConfig::default(),
        }
    }
}

impl EvalConfig {
    /// A faster configuration for tests.
    pub fn quick() -> Self {
        Self {
            train: TrainConfig::quick(),
            ..Default::default()
        }
    }
}

/// Mean/std accuracy plus timings over seeds.
#[derive(Clone, Debug)]
pub struct RunStats {
    pub accs: Vec<f64>,
    pub acc_mean: f64,
    pub acc_std: f64,
    pub condense_secs: f64,
    pub train_secs: f64,
}

/// A labeled method run (one table cell).
#[derive(Clone, Debug)]
pub struct MethodRun {
    pub method: String,
    pub ratio: f64,
    pub stats: RunStats,
}

/// Shared evaluation state for one dataset: the full graph, one
/// [`CondenseContext`] over it, and its propagated feature blocks.
///
/// The context is built once per benchmark graph and reused across
/// *every* method, ratio and seed the bench runs — meta-path
/// compositions, influence scores, diversity bonuses and the full-graph
/// propagated blocks are computed once, turning an O(methods × ratios ×
/// seeds) precompute into O(1) per graph without changing a single
/// output bit.
pub struct Bench<'g> {
    pub graph: &'g HeteroGraph,
    /// The shared precompute every condensation run of this bench uses.
    pub ctx: CondenseContext<'g>,
    pub pf: Arc<PropagatedFeatures>,
    pub cfg: EvalConfig,
}

impl<'g> Bench<'g> {
    pub fn new(graph: &'g HeteroGraph, cfg: EvalConfig) -> Self {
        let ctx = CondenseContext::new(graph);
        let pf = propagate_ctx(&ctx, cfg.max_hops, cfg.max_paths);
        Self {
            graph,
            ctx,
            pf,
            cfg,
        }
    }

    /// The [`CondenseSpec`] this bench hands to condensers: ratio and
    /// seed per run, with the hop/path caps taken from [`EvalConfig`] so
    /// condensation and propagation enumerate the same path family.
    /// Every eval entry point (tables, generalization, timings) builds
    /// its specs here — one place to extend when `EvalConfig` grows.
    pub fn spec(&self, ratio: f64, seed: u64) -> CondenseSpec {
        CondenseSpec::new(ratio)
            .with_max_hops(self.cfg.max_hops)
            .with_max_paths(self.cfg.max_paths)
            .with_seed(seed)
    }

    fn split_blocks(&self, ids: &[u32]) -> (Vec<Matrix>, Vec<u32>) {
        let blocks = self.pf.gather(ids);
        let labels = ids
            .iter()
            .map(|&v| self.graph.labels()[v as usize])
            .collect();
        (blocks, labels)
    }

    /// Trains `model_kind` on the given training blocks and returns
    /// (test-accuracy, macro-F1, training-time) on the full graph's test
    /// split.
    fn train_and_test(
        &self,
        train_blocks: &[Matrix],
        train_labels: &[u32],
        model_kind: ModelKind,
        seed: u64,
    ) -> (f64, f64, Duration) {
        let dims: Vec<usize> = train_blocks.iter().map(|b| b.cols).collect();
        let mut model = build_model(
            model_kind,
            &dims,
            self.graph.num_classes(),
            self.cfg.train.hidden,
            self.cfg.train.dropout,
            seed,
        );
        let (val_blocks, val_labels) = self.split_blocks(&self.graph.split().val);
        let train_data = EvalData {
            blocks: train_blocks,
            labels: train_labels,
        };
        let val_data = EvalData {
            blocks: &val_blocks,
            labels: &val_labels,
        };
        let mut cfg = self.cfg.train.clone();
        cfg.seed = seed;
        let t0 = Instant::now();
        let val_opt = if val_labels.is_empty() {
            None
        } else {
            Some(&val_data)
        };
        train(&mut *model, &train_data, val_opt, &cfg);
        let train_time = t0.elapsed();

        let (test_blocks, test_labels) = self.split_blocks(&self.graph.split().test);
        let pred = predict(&*model, &test_blocks);
        (
            accuracy(&pred, &test_labels),
            macro_f1(&pred, &test_labels, self.graph.num_classes()),
            train_time,
        )
    }

    /// Whole-graph reference: train on the full training split.
    pub fn whole_graph(&self, model_kind: ModelKind, seeds: &[u64]) -> RunStats {
        let (train_blocks, train_labels) = self.split_blocks(&self.graph.split().train);
        let mut accs = Vec::with_capacity(seeds.len());
        let mut train_secs = 0.0;
        for &s in seeds {
            let (acc, _, tt) = self.train_and_test(&train_blocks, &train_labels, model_kind, s);
            accs.push(acc * 100.0);
            train_secs += tt.as_secs_f64();
        }
        let (m, sd) = mean_std(&accs);
        RunStats {
            accs,
            acc_mean: m,
            acc_std: sd,
            condense_secs: 0.0,
            train_secs: train_secs / seeds.len().max(1) as f64,
        }
    }

    /// Evaluates an already-condensed graph with the configured test model.
    pub fn eval_condensed(&self, cond: &CondensedGraph, model_kind: ModelKind, seed: u64) -> f64 {
        let pf_cond = propagate(&cond.graph, self.cfg.max_hops, self.cfg.max_paths);
        let labels = cond.graph.labels().to_vec();
        let (acc, _, _) = self.train_and_test(&pf_cond.blocks, &labels, model_kind, seed);
        acc
    }

    /// The full protocol for one method at one ratio over several seeds.
    pub fn run_method(&self, condenser: &dyn Condenser, ratio: f64, seeds: &[u64]) -> MethodRun {
        let mut accs = Vec::with_capacity(seeds.len());
        let mut condense_secs = 0.0;
        let mut train_secs = 0.0;
        for &seed in seeds {
            let spec = self.spec(ratio, seed);
            let t0 = Instant::now();
            let cond = condenser.condense_in(&self.ctx, &spec);
            condense_secs += t0.elapsed().as_secs_f64();

            let pf_cond = propagate(&cond.graph, self.cfg.max_hops, self.cfg.max_paths);
            let labels = cond.graph.labels().to_vec();
            let (acc, _, tt) = self.train_and_test(&pf_cond.blocks, &labels, self.cfg.model, seed);
            accs.push(acc * 100.0);
            train_secs += tt.as_secs_f64();
        }
        let (m, sd) = mean_std(&accs);
        MethodRun {
            method: condenser.name().to_string(),
            ratio,
            stats: RunStats {
                accs,
                acc_mean: m,
                acc_std: sd,
                condense_secs: condense_secs / seeds.len().max(1) as f64,
                train_secs: train_secs / seeds.len().max(1) as f64,
            },
        }
    }

    /// Condensation wall-clock only (Fig. 2b / Fig. 8). Runs through the
    /// bench's shared context, so a first call on a cold bench includes
    /// the precompute and subsequent calls measure the warm cost.
    pub fn time_condense(&self, condenser: &dyn Condenser, ratio: f64, seed: u64) -> f64 {
        let spec = self.spec(ratio, seed);
        let t0 = Instant::now();
        let _ = condenser.condense_in(&self.ctx, &spec);
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_baselines::RandomHg;
    use freehgc_core::FreeHgc;
    use freehgc_datasets::{generate, DatasetKind};

    fn small_acm() -> HeteroGraph {
        generate(DatasetKind::Acm, 0.15, 0)
    }

    #[test]
    fn whole_graph_beats_chance_comfortably() {
        let g = small_acm();
        let bench = Bench::new(&g, EvalConfig::quick());
        let stats = bench.whole_graph(ModelKind::SeHgnn, &[0]);
        let chance = 100.0 / g.num_classes() as f64;
        assert!(
            stats.acc_mean > chance + 15.0,
            "whole-graph acc {:.1} too close to chance {:.1}",
            stats.acc_mean,
            chance
        );
    }

    #[test]
    fn condensed_training_reaches_reasonable_accuracy() {
        let g = small_acm();
        let bench = Bench::new(&g, EvalConfig::quick());
        let run = bench.run_method(&FreeHgc::default(), 0.3, &[0]);
        let chance = 100.0 / g.num_classes() as f64;
        assert!(
            run.stats.acc_mean > chance + 10.0,
            "condensed acc {:.1}",
            run.stats.acc_mean
        );
        assert!(run.stats.condense_secs >= 0.0);
    }

    #[test]
    fn freehgc_outperforms_random_on_average() {
        let g = small_acm();
        let bench = Bench::new(&g, EvalConfig::quick());
        let free = bench.run_method(&FreeHgc::default(), 0.15, &[0, 1]);
        let rand = bench.run_method(&RandomHg, 0.15, &[0, 1]);
        assert!(
            free.stats.acc_mean > rand.stats.acc_mean - 3.0,
            "FreeHGC {:.1} vs Random {:.1}",
            free.stats.acc_mean,
            rand.stats.acc_mean
        );
    }

    #[test]
    fn run_stats_aggregate_multiple_seeds() {
        let g = small_acm();
        let bench = Bench::new(&g, EvalConfig::quick());
        let run = bench.run_method(&RandomHg, 0.2, &[0, 1, 2]);
        assert_eq!(run.stats.accs.len(), 3);
        assert!(run.stats.acc_std >= 0.0);
    }
}
