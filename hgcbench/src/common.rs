//! Pieces shared by the workloads: dataset configuration, the
//! train-on-condensed / test-on-full-graph step, and output checks.

use crate::trace::span;
use freehgc_datasets::DatasetKind;
use freehgc_eval::pipeline::EvalConfig;
use freehgc_hetgraph::{CondenseSpec, CondensedGraph, HeteroGraph};
use freehgc_hgnn::metrics::{accuracy, macro_f1};
use freehgc_hgnn::models::build_model;
use freehgc_hgnn::propagation::{propagate, PropagatedFeatures};
use freehgc_hgnn::trainer::{predict, train, EvalData};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Generator seed of the benchmark's datasets: fixed, as in the
/// experiment binaries (`freehgc_bench::dataset`), so every run condenses,
/// trains on and serves the same graphs. `--seed` drives everything that
/// varies between runs: condensation and training seeds, the request
/// script, delta contents and first-sight inline graphs.
pub const DATASET_SEED: u64 = 42;

/// The experiment binaries' evaluation configuration for `kind`: paper
/// meta-path hops (capped at 3), 12 paths, SeHGNN with 100 epochs.
pub fn eval_cfg(kind: DatasetKind) -> EvalConfig {
    let opts = freehgc_bench::ExpOpts {
        scale: 1.0,
        seeds: Vec::new(),
        quick: false,
    };
    freehgc_bench::eval_cfg(kind, &opts)
}

/// [`eval_cfg`] with meta-paths capped at two hops: the setting of the
/// large-graph and serving workloads, where three-hop compositions of
/// the scale-32 ACM graph take seconds per condensation.
pub fn two_hop_cfg(kind: DatasetKind) -> EvalConfig {
    EvalConfig {
        max_hops: 2,
        ..eval_cfg(kind)
    }
}

/// The condensation spec for `ratio` (a paper ratio, clamped so every
/// class keeps a target node) exactly as `Bench::spec` builds it.
pub fn spec_for(g: &HeteroGraph, cfg: &EvalConfig, paper_ratio: f64, seed: u64) -> CondenseSpec {
    CondenseSpec::new(freehgc_bench::effective_ratio(g, paper_ratio))
        .with_max_hops(cfg.max_hops)
        .with_max_paths(cfg.max_paths)
        .with_seed(seed)
}

/// The paper ratio the condense→train→test loop uses (r = 2.4%) and the
/// one a second, warm condensation of the same context uses (r = 4.8%).
pub fn paper_ratio(kind: DatasetKind, warm: bool) -> f64 {
    freehgc_bench::paper_ratios(kind)[if warm { 2 } else { 1 }]
}

/// Epochs run by, and number of, the traced run's trainings.
pub static TRAIN_EPOCHS: AtomicU64 = AtomicU64::new(0);
pub static TRAIN_RUNS: AtomicU64 = AtomicU64::new(0);
/// Cache hits and misses of the traced run's condensation contexts.
pub static CTX_HITS: AtomicU64 = AtomicU64::new(0);
pub static CTX_MISSES: AtomicU64 = AtomicU64::new(0);

/// Adds a context's cache hit/miss totals to the traced run's counters.
pub fn record_context_stats(ctx: &freehgc_hetgraph::CondenseContext<'_>) {
    if crate::trace::enabled() {
        let s = ctx.stats();
        CTX_HITS.fetch_add(s.total_hits(), Ordering::Relaxed);
        CTX_MISSES.fetch_add(s.total_misses(), Ordering::Relaxed);
    }
}

/// Test-split quality of a model trained on a condensed graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Accuracy in percent, computed exactly as `Bench::run_method`.
    pub acc_pct: f64,
    pub macro_f1: f64,
    pub epochs: usize,
}

fn split_blocks(
    g: &HeteroGraph,
    pf: &PropagatedFeatures,
    ids: &[u32],
) -> (Vec<freehgc_autograd::Matrix>, Vec<u32>) {
    let labels = ids.iter().map(|&v| g.labels()[v as usize]).collect();
    (pf.gather(ids), labels)
}

/// Trains `cfg.model` on the condensed graph and tests it on the full
/// graph's test split, step for step as `Bench::run_method` does, so
/// the accuracy matches it bit for bit.
pub fn train_and_test(
    g: &HeteroGraph,
    pf: &PropagatedFeatures,
    cond: &CondensedGraph,
    cfg: &EvalConfig,
    seed: u64,
) -> Quality {
    let pf_cond = span("hgnn.propagate_cond", || {
        propagate(&cond.graph, cfg.max_hops, cfg.max_paths)
    });
    let labels = cond.graph.labels().to_vec();
    let dims: Vec<usize> = pf_cond.blocks.iter().map(|b| b.cols).collect();
    let mut model = build_model(
        cfg.model,
        &dims,
        g.num_classes(),
        cfg.train.hidden,
        cfg.train.dropout,
        seed,
    );
    let (val_blocks, val_labels) = split_blocks(g, pf, &g.split().val);
    let mut tcfg = cfg.train.clone();
    tcfg.seed = seed;
    let train_data = EvalData {
        blocks: &pf_cond.blocks,
        labels: &labels,
    };
    let val_data = EvalData {
        blocks: &val_blocks,
        labels: &val_labels,
    };
    let val = (!val_labels.is_empty()).then_some(&val_data);
    let report = span("hgnn.train", || train(&mut *model, &train_data, val, &tcfg));
    if crate::trace::enabled() {
        TRAIN_EPOCHS.fetch_add(report.epochs_run as u64, Ordering::Relaxed);
        TRAIN_RUNS.fetch_add(1, Ordering::Relaxed);
    }
    let (test_blocks, test_labels) = split_blocks(g, pf, &g.split().test);
    let pred = span("hgnn.predict", || predict(&*model, &test_blocks));
    Quality {
        acc_pct: accuracy(&pred, &test_labels) * 100.0,
        macro_f1: macro_f1(&pred, &test_labels, g.num_classes()),
        epochs: report.epochs_run,
    }
}

/// True when `cond` passes `CondensedGraph::validate` against `g`.
pub fn valid(cond: &CondensedGraph, g: &HeteroGraph) -> bool {
    catch_unwind(AssertUnwindSafe(|| cond.validate(g))).is_ok()
}

/// A content hash of propagated blocks, to check that repeated rounds
/// produce the same bits.
pub fn blocks_hash(pf: &PropagatedFeatures) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &pf.blocks {
        for v in b.data.iter() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
        h = (h ^ b.rows as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}
