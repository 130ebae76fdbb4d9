//! End-to-end integration: condense → train → evaluate on every dataset
//! family, exercising the full public API the way the experiment binaries
//! do (paper §V-B protocol).

use freehgc::core::FreeHgc;
use freehgc::datasets::{generate, DatasetKind};
use freehgc::eval::pipeline::{Bench, EvalConfig};
use freehgc::hetgraph::{CondenseSpec, Condenser};
use freehgc::hgnn::trainer::TrainConfig;

fn quick_cfg() -> EvalConfig {
    EvalConfig {
        max_hops: 2,
        max_paths: 10,
        train: TrainConfig {
            epochs: 30,
            patience: 8,
            ..TrainConfig::default()
        },
        ..EvalConfig::default()
    }
}

fn run_dataset(kind: DatasetKind, scale: f64, ratio: f64) {
    let g = generate(kind, scale, 0);
    let bench = Bench::new(&g, quick_cfg());
    let cond = FreeHgc::default().condense_in(&bench.ctx, &bench.spec(ratio, 0));
    cond.validate(&g);

    // Mean over a few training seeds: a single 30-epoch run on these
    // scaled-down graphs is noisy enough to dip below chance even when
    // the condensed graph is fine.
    let seeds = 3;
    let acc = (0..seeds)
        .map(|s| bench.eval_condensed(&cond, bench.cfg.model, s))
        .sum::<f64>()
        / seeds as f64;
    let chance = 1.0 / g.num_classes() as f64;
    assert!(
        acc > chance,
        "{kind:?}: condensed accuracy {acc:.3} at or below chance {chance:.3}"
    );
    assert!(
        cond.graph.storage_bytes() < g.storage_bytes(),
        "{kind:?}: condensation must reduce storage"
    );
}

#[test]
fn acm_end_to_end() {
    run_dataset(DatasetKind::Acm, 0.2, 0.1);
}

#[test]
fn dblp_end_to_end() {
    run_dataset(DatasetKind::Dblp, 0.15, 0.1);
}

#[test]
fn imdb_end_to_end() {
    run_dataset(DatasetKind::Imdb, 0.15, 0.1);
}

#[test]
fn freebase_end_to_end() {
    run_dataset(DatasetKind::Freebase, 0.15, 0.1);
}

#[test]
fn aminer_end_to_end() {
    run_dataset(DatasetKind::Aminer, 0.05, 0.05);
}

#[test]
fn mutag_end_to_end() {
    // MUTAG's base target count (340) is the smallest of all families;
    // scale 0.1 leaves ~34 labeled nodes, too few for even whole-graph
    // training to beat chance. 0.2 is the smallest scale at which the
    // task is learnable.
    run_dataset(DatasetKind::Mutag, 0.2, 0.08);
}

#[test]
fn am_end_to_end() {
    run_dataset(DatasetKind::Am, 0.1, 0.05);
}

/// Condensation at a fixed ratio must preserve the shape of the data it
/// summarizes: every node type survives with a nonzero budget, and the
/// per-class share of target labels in the condensed graph stays close
/// to the original distribution (FreeHGC allocates per-class budgets
/// proportionally, §IV).
#[test]
fn condensation_preserves_label_distribution() {
    for (kind, scale, ratio) in [
        (DatasetKind::Acm, 0.25, 0.1),
        (DatasetKind::Dblp, 0.15, 0.1),
        (DatasetKind::Am, 0.1, 0.05),
    ] {
        let g = generate(kind, scale, 0);
        let spec = CondenseSpec::new(ratio).with_max_hops(2);
        let cond = FreeHgc::default().condense(&g, &spec);
        cond.validate(&g);

        for t in g.schema().node_type_ids() {
            assert!(
                cond.graph.num_nodes(t) > 0,
                "{kind:?}: node type {t:?} lost all nodes at ratio {ratio}"
            );
        }

        let orig_hist = g.class_histogram();
        let orig_n: usize = orig_hist.iter().sum();
        let mut cond_hist = vec![0usize; g.num_classes()];
        for &y in cond.graph.labels() {
            cond_hist[y as usize] += 1;
        }
        let cond_n: usize = cond_hist.iter().sum();
        assert!(cond_n > 0, "{kind:?}: condensed graph has no labeled nodes");

        for (c, (&o, &s)) in orig_hist.iter().zip(&cond_hist).enumerate() {
            let orig_share = o as f64 / orig_n as f64;
            let cond_share = s as f64 / cond_n as f64;
            assert!(
                (orig_share - cond_share).abs() <= 0.10,
                "{kind:?}: class {c} share drifted {orig_share:.3} -> {cond_share:.3}"
            );
            // Any class the budget can represent must be represented.
            if (orig_share * cond_n as f64) >= 1.0 {
                assert!(s > 0, "{kind:?}: class {c} vanished from condensed labels");
            }
        }
    }
}

/// The whole-graph reference should beat the condensed graph in general
/// (condensation trades accuracy for size), and both must beat chance.
#[test]
fn whole_graph_dominates_condensed_on_average() {
    let g = generate(DatasetKind::Acm, 0.25, 1);
    let bench = Bench::new(&g, quick_cfg());
    let whole = bench.whole_graph(bench.cfg.model, &[0, 1]);
    let cond = FreeHgc::default().condense_in(&bench.ctx, &bench.spec(0.05, 0));
    let cond_acc = bench.eval_condensed(&cond, bench.cfg.model, 0) * 100.0;
    assert!(
        whole.acc_mean + 5.0 > cond_acc,
        "whole {:.1} vs condensed {:.1}",
        whole.acc_mean,
        cond_acc
    );
}

/// Higher condensation ratios must not systematically hurt: accuracy at
/// r=0.3 should be at least accuracy at r=0.05 minus tolerance (the
/// paper's "flexible condensation ratio" property, Fig. 7).
#[test]
fn accuracy_grows_with_ratio() {
    let g = generate(DatasetKind::Acm, 0.25, 2);
    let bench = Bench::new(&g, quick_cfg());
    let lo = bench.run_method(&FreeHgc::default(), 0.05, &[0]);
    let hi = bench.run_method(&FreeHgc::default(), 0.3, &[0]);
    assert!(
        hi.stats.acc_mean >= lo.stats.acc_mean - 8.0,
        "accuracy degraded sharply with ratio: {:.1} -> {:.1}",
        lo.stats.acc_mean,
        hi.stats.acc_mean
    );
}
