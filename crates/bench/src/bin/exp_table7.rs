//! Table VII — condensed graphs vs original graphs: accuracy, storage and
//! model training time.
//!
//! For each dataset (middle-scale at r = 2.4%, AMiner at r = 0.2%):
//! accuracy of SeHGNN trained on Whole / HGCond / FreeHGC graphs, storage
//! in bytes of each graph, and 100-epoch training times for HGB ("TH") and
//! SeHGNN ("TS").

use freehgc_baselines::HGCondBaseline;
use freehgc_bench::{dataset, dataset_ratio, effective_ratio, eval_cfg, ExpOpts};
use freehgc_core::FreeHgc;
use freehgc_datasets::DatasetKind;
use freehgc_eval::pipeline::Bench;
use freehgc_eval::table::{secs, TextTable};
use freehgc_hetgraph::{CondensedGraph, Condenser};
use freehgc_hgnn::models::{build_model, ModelKind};
use freehgc_hgnn::propagation::propagate;
use freehgc_hgnn::trainer::{train, EvalData, TrainConfig};
use std::time::Instant;

/// 100-epoch training time (no early stopping), per Table VII's protocol.
fn train_time(
    bench: &Bench<'_>,
    blocks: &[freehgc_autograd::Matrix],
    labels: &[u32],
    model: ModelKind,
) -> f64 {
    let dims: Vec<usize> = blocks.iter().map(|b| b.cols).collect();
    let mut m = build_model(model, &dims, bench.graph.num_classes(), 64, 0.5, 0);
    let cfg = TrainConfig {
        epochs: 100,
        patience: 0,
        ..TrainConfig::default()
    };
    let data = EvalData { blocks, labels };
    let t0 = Instant::now();
    train(&mut *m, &data, None, &cfg);
    t0.elapsed().as_secs_f64()
}

fn condensed_row(bench: &Bench<'_>, cond: &CondensedGraph) -> (f64, usize, f64, f64) {
    let pf = propagate(&cond.graph, bench.cfg.max_hops, bench.cfg.max_paths);
    let labels = cond.graph.labels();
    let acc = bench.evaluate(&pf.blocks, labels, bench.cfg.model, 0).acc * 100.0;
    let th = train_time(bench, &pf.blocks, labels, ModelKind::Hgb);
    let ts = train_time(bench, &pf.blocks, labels, ModelKind::SeHgnn);
    (acc, cond.graph.storage_bytes(), th, ts)
}

fn main() {
    let opts = ExpOpts::parse(1.0, 1);
    println!("== Table VII: condensed vs original graphs ==\n");

    let cases = [
        (DatasetKind::Acm, 0.024),
        (DatasetKind::Dblp, 0.024),
        (DatasetKind::Imdb, 0.024),
        (DatasetKind::Freebase, 0.024),
        (DatasetKind::Aminer, 0.002),
    ];
    for (kind, ratio) in cases {
        let g = dataset(kind, &opts);
        let bench = Bench::new(&g, eval_cfg(kind, &opts));
        let r = effective_ratio(&g, dataset_ratio(kind, ratio));
        let spec = bench.spec(r, 0);

        // Whole-graph row.
        let whole_acc = bench.whole_graph(bench.cfg.model, &opts.seeds).acc_mean;
        let whole_storage = g.storage_bytes();
        let (whole_blocks, whole_labels) = bench.gather(&g.split().train);
        let whole_th = train_time(&bench, &whole_blocks, &whole_labels, ModelKind::Hgb);
        let whole_ts = train_time(&bench, &whole_blocks, &whole_labels, ModelKind::SeHgnn);

        let hg = HGCondBaseline::default().condense_in(&bench.ctx, &spec);
        let (hg_acc, hg_sto, hg_th, hg_ts) = condensed_row(&bench, &hg);
        let fh = FreeHgc::default().condense_in(&bench.ctx, &spec);
        let (fh_acc, fh_sto, fh_th, fh_ts) = condensed_row(&bench, &fh);

        let mut table = TextTable::new(vec!["", "Whole", "HGCond", "FreeHGC"]);
        table.row(vec![
            "Accuracy".to_string(),
            format!("{whole_acc:.2}"),
            format!("{hg_acc:.2}"),
            format!("{fh_acc:.2}"),
        ]);
        let kb = |b: usize| format!("{:.1} KB", b as f64 / 1024.0);
        table.row(vec![
            "Storage".to_string(),
            kb(whole_storage),
            kb(hg_sto),
            kb(fh_sto),
        ]);
        table.row(vec![
            "TH (HGB, 100 ep)".to_string(),
            secs(whole_th),
            secs(hg_th),
            secs(fh_th),
        ]);
        table.row(vec![
            "TS (SeHGNN, 100 ep)".to_string(),
            secs(whole_ts),
            secs(hg_ts),
            secs(fh_ts),
        ]);
        println!("--- {} (r = {:.2}%) ---", kind.name(), ratio * 100.0);
        println!("{}", table.render());
        println!(
            "storage reduction: HGCond {:.1}%, FreeHGC {:.1}%\n",
            100.0 * (1.0 - hg_sto as f64 / whole_storage as f64),
            100.0 * (1.0 - fh_sto as f64 / whole_storage as f64),
        );
    }
}
