//! The condense → train → evaluate pipeline (paper §V-B).

use freehgc_autograd::Matrix;
use freehgc_hetgraph::{CondenseContext, CondenseSpec, CondensedGraph, Condenser, HeteroGraph};
use freehgc_hgnn::metrics::{accuracy, macro_f1, mean_std};
use freehgc_hgnn::models::{build_model, ModelKind};
use freehgc_hgnn::propagation::{propagate, propagate_ctx, PropagatedFeatures};
use freehgc_hgnn::trainer::{predict, train, EvalData, TrainConfig};
use std::sync::Arc;
use std::time::Instant;

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

/// One train-and-test outcome on the full graph's test split.
#[derive(Clone, Copy, Debug)]
pub struct Score {
    /// Test accuracy, a fraction in [0, 1].
    pub acc: f64,
    /// Test macro-F1, a fraction in [0, 1].
    pub macro_f1: f64,
    /// Wall-clock training time.
    pub train_secs: f64,
}

/// Per-seed accuracy and macro-F1, their summary and timings over seeds.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Test accuracy per seed, in percent.
    pub accs: Vec<f64>,
    /// Test macro-F1 per seed, in percent, in the order of `accs`.
    pub f1s: Vec<f64>,
    pub acc_mean: f64,
    pub acc_std: f64,
    pub condense_secs: f64,
    pub train_secs: f64,
}

impl RunStats {
    /// Summarizes one [`Score`] per seed; `condense_secs` is the total
    /// condensation time over those seeds.
    fn new(scores: &[Score], condense_secs: f64) -> Self {
        let accs: Vec<f64> = scores.iter().map(|s| s.acc * 100.0).collect();
        let (acc_mean, acc_std) = mean_std(&accs);
        let per_seed = scores.len().max(1) as f64;
        Self {
            f1s: scores.iter().map(|s| s.macro_f1 * 100.0).collect(),
            accs,
            acc_mean,
            acc_std,
            condense_secs: condense_secs / per_seed,
            train_secs: scores.iter().map(|s| s.train_secs).sum::<f64>() / per_seed,
        }
    }
}

/// A labeled method run (one table cell).
#[derive(Clone, Debug)]
pub struct MethodRun {
    pub method: String,
    pub ratio: f64,
    pub stats: RunStats,
}

/// Shared evaluation state for one dataset: the full graph, one
/// [`CondenseContext`] over it, its propagated feature blocks, and the
/// validation and test rows of those blocks.
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
    /// The validation and test rows of `pf` with their labels, gathered
    /// once for every [`Self::evaluate`] call.
    val: (Vec<Matrix>, Vec<u32>),
    test: (Vec<Matrix>, Vec<u32>),
}

impl<'g> Bench<'g> {
    pub fn new(graph: &'g HeteroGraph, cfg: EvalConfig) -> Self {
        let ctx = CondenseContext::new(graph);
        let pf = propagate_ctx(&ctx, cfg.max_hops, cfg.max_paths);
        let split = graph.split();
        let (val, test) = (rows(graph, &pf, &split.val), rows(graph, &pf, &split.test));
        Self {
            graph,
            ctx,
            pf,
            cfg,
            val,
            test,
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

    /// The full graph's propagated blocks and labels at `ids`.
    pub fn gather(&self, ids: &[u32]) -> (Vec<Matrix>, Vec<u32>) {
        rows(self.graph, &self.pf, ids)
    }

    /// The paper's evaluation step (§V-B), and the only one: trains
    /// `model` on the given blocks, early-stopping on the full graph's
    /// validation split, then tests it on the full graph's test split.
    /// `seed` drives both the model's initialization and its training.
    pub fn evaluate(
        &self,
        train_blocks: &[Matrix],
        train_labels: &[u32],
        model: ModelKind,
        seed: u64,
    ) -> Score {
        let dims: Vec<usize> = train_blocks.iter().map(|b| b.cols).collect();
        let classes = self.graph.num_classes();
        let cfg = TrainConfig {
            seed,
            ..self.cfg.train.clone()
        };
        let mut net = build_model(model, &dims, classes, cfg.hidden, cfg.dropout, seed);
        let train_data = EvalData {
            blocks: train_blocks,
            labels: train_labels,
        };
        let val = EvalData {
            blocks: &self.val.0,
            labels: &self.val.1,
        };
        let t0 = Instant::now();
        train(
            &mut *net,
            &train_data,
            (!val.labels.is_empty()).then_some(&val),
            &cfg,
        );
        let train_secs = t0.elapsed().as_secs_f64();
        let pred = predict(&*net, &self.test.0);
        Score {
            acc: accuracy(&pred, &self.test.1),
            macro_f1: macro_f1(&pred, &self.test.1, classes),
            train_secs,
        }
    }

    /// Whole-graph reference: train on the full training split.
    pub fn whole_graph(&self, model: ModelKind, seeds: &[u64]) -> RunStats {
        let (blocks, labels) = self.gather(&self.graph.split().train);
        let scores: Vec<Score> = seeds
            .iter()
            .map(|&s| self.evaluate(&blocks, &labels, model, s))
            .collect();
        RunStats::new(&scores, 0.0)
    }

    /// Test accuracy (a fraction) of `model` trained on an
    /// already-condensed graph.
    pub fn eval_condensed(&self, cond: &CondensedGraph, model: ModelKind, seed: u64) -> f64 {
        self.score_condensed(cond, model, seed).acc
    }

    /// Propagates the condensed graph once, then [`Self::evaluate`]s it.
    fn score_condensed(&self, cond: &CondensedGraph, model: ModelKind, seed: u64) -> Score {
        let pf = propagate(&cond.graph, self.cfg.max_hops, self.cfg.max_paths);
        self.evaluate(&pf.blocks, cond.graph.labels(), model, seed)
    }

    /// The full protocol for one method at one ratio over several seeds.
    pub fn run_method(&self, condenser: &dyn Condenser, ratio: f64, seeds: &[u64]) -> MethodRun {
        let mut scores = Vec::with_capacity(seeds.len());
        let mut condense_secs = 0.0;
        for &seed in seeds {
            let spec = self.spec(ratio, seed);
            let t0 = Instant::now();
            let cond = condenser.condense_in(&self.ctx, &spec);
            condense_secs += t0.elapsed().as_secs_f64();
            scores.push(self.score_condensed(&cond, self.cfg.model, seed));
        }
        MethodRun {
            method: condenser.name().to_string(),
            ratio,
            stats: RunStats::new(&scores, condense_secs),
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

/// `pf`'s blocks and `graph`'s labels at `ids`.
fn rows(graph: &HeteroGraph, pf: &PropagatedFeatures, ids: &[u32]) -> (Vec<Matrix>, Vec<u32>) {
    let labels = ids.iter().map(|&v| graph.labels()[v as usize]).collect();
    (pf.gather(ids), labels)
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
