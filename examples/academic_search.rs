//! Scenario: scaling model selection on an academic network.
//!
//! The paper motivates condensation with workloads that train *many*
//! models on the same graph — hyper-parameter search, architecture
//! search, multi-stage pipelines (§I). This example runs a small
//! architecture search over all five HGNNs twice: once on the full
//! DBLP-like graph and once on a FreeHGC-condensed graph, comparing total
//! wall-clock and whether the search picks the same winner.
//!
//! ```bash
//! cargo run --release --example academic_search
//! ```

use freehgc::core::FreeHgc;
use freehgc::datasets::{generate, DatasetKind};
use freehgc::eval::pipeline::{Bench, EvalConfig};
use freehgc::hetgraph::Condenser;
use freehgc::hgnn::models::ModelKind;
use freehgc::hgnn::propagation::propagate;
use freehgc::hgnn::trainer::TrainConfig;
use std::time::Instant;

use freehgc::util::smoke_mode as smoke;

/// Trains and tests every architecture on the given blocks; returns each
/// one's test accuracy in percent.
fn search(
    bench: &Bench<'_>,
    train_blocks: &[freehgc::autograd::Matrix],
    train_labels: &[u32],
) -> Vec<(ModelKind, f64)> {
    [
        ModelKind::HeteroSgc,
        ModelKind::SeHgnn,
        ModelKind::Han,
        ModelKind::Hgb,
        ModelKind::Hgt,
    ]
    .into_iter()
    .map(|kind| {
        let score = bench.evaluate(train_blocks, train_labels, kind, 0);
        (kind, score.acc * 100.0)
    })
    .collect()
}

fn main() {
    let scale = if smoke() { 0.15 } else { 0.5 };
    let graph = generate(DatasetKind::Dblp, scale, 3);
    let train = if smoke() {
        TrainConfig::quick()
    } else {
        TrainConfig {
            epochs: 80,
            patience: 15,
            ..TrainConfig::default()
        }
    };
    let bench = Bench::new(
        &graph,
        EvalConfig {
            train,
            ..EvalConfig::default()
        },
    );
    println!(
        "DBLP-like network: {} nodes / {} edges\n",
        graph.total_nodes(),
        graph.total_edges()
    );

    // Search on the full graph.
    let (full_blocks, full_labels) = bench.gather(&graph.split().train);
    let t0 = Instant::now();
    let full = search(&bench, &full_blocks, &full_labels);
    let full_time = t0.elapsed().as_secs_f64();

    // Search on a 2.4% condensed graph — through the bench's shared
    // context, so condensation reuses the meta-path compositions the
    // full-graph propagation above already paid for.
    let cond = FreeHgc::default().condense_in(&bench.ctx, &bench.spec(0.024, 0));
    let pf_cond = propagate(&cond.graph, bench.cfg.max_hops, bench.cfg.max_paths);
    let t0 = Instant::now();
    let small = search(&bench, &pf_cond.blocks, cond.graph.labels());
    let small_time = t0.elapsed().as_secs_f64();

    println!("model            full-graph acc   condensed acc");
    println!("------------------------------------------------");
    for ((kind, facc), (_, cacc)) in full.iter().zip(&small) {
        println!("{:<16} {:>10.2}%      {:>10.2}%", kind.name(), facc, cacc);
    }
    let best_full = full
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let best_small = small
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    println!(
        "\nsearch time: {full_time:.2}s on the full graph vs {small_time:.2}s condensed ({:.1}× faster)",
        full_time / small_time
    );
    println!(
        "winner on full graph: {}; winner on condensed graph: {} — {}",
        best_full.0.name(),
        best_small.0.name(),
        if best_full.0 == best_small.0 {
            "the condensed search picked the same architecture"
        } else {
            "winners differ (acceptable when top models are within noise)"
        }
    );
}
