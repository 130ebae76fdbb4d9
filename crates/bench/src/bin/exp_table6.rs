//! Table VI — scalability on the large-scale AMiner dataset.
//!
//! Herding-HG, GCond, HGCond and FreeHGC at r ∈ {0.05, 0.2, 0.8}%.
//! GCond's dense machinery goes out of (simulated) memory for r ≥ 0.2%;
//! HGCond's accuracy stays flat with r while FreeHGC's increases.

use freehgc_baselines::{GCondBaseline, HGCondBaseline, HerdingHg};
use freehgc_bench::{dataset, dataset_ratio, effective_ratio, eval_cfg, paper_ratios, ExpOpts};
use freehgc_core::FreeHgc;
use freehgc_datasets::DatasetKind;
use freehgc_eval::pipeline::Bench;
use freehgc_eval::table::{pm, TextTable};
use freehgc_hetgraph::{CondenseContext, Condenser};

fn main() {
    let opts = ExpOpts::parse(1.0, 2);
    let kind = DatasetKind::Aminer;
    let g = dataset(kind, &opts);
    println!(
        "== Table VI: large-scale AMiner ({} nodes, {} edges) ==\n",
        g.total_nodes(),
        g.total_edges()
    );
    let bench = Bench::new(&g, eval_cfg(kind, &opts));
    let whole = bench.whole_graph(bench.cfg.model, &opts.seeds);

    let mut table = TextTable::new(vec!["Method", "r=0.05%", "r=0.2%", "r=0.8%", "Whole acc"]);
    let ratios = paper_ratios(kind);

    // Herding / HGCond / FreeHGC rows.
    let methods: Vec<Box<dyn Condenser>> = vec![
        Box::new(HerdingHg),
        Box::new(HGCondBaseline::default()),
        Box::new(FreeHgc::default()),
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    // GCond row with OOM handling.
    {
        let gcond = GCondBaseline::default();
        let mut cells = vec!["GCond".to_string()];
        for &ratio in &ratios {
            let r = effective_ratio(&g, dataset_ratio(kind, ratio));
            let spec = bench.spec(r, 0);
            match gcond.try_condense(&CondenseContext::new(&g), &spec) {
                Ok((cond, _)) => {
                    let acc = bench.eval_condensed(&cond, bench.cfg.model, 0) * 100.0;
                    cells.push(format!("{acc:.2}"));
                }
                Err(_) => cells.push("OOM".to_string()),
            }
        }
        cells.push(pm(whole.acc_mean, whole.acc_std));
        rows.push(cells);
    }
    for m in &methods {
        let mut cells = vec![m.name().to_string()];
        for &ratio in &ratios {
            let r = effective_ratio(&g, dataset_ratio(kind, ratio));
            let run = bench.run_method(m.as_ref(), r, &opts.seeds);
            cells.push(pm(run.stats.acc_mean, run.stats.acc_std));
        }
        cells.push(pm(whole.acc_mean, whole.acc_std));
        rows.push(cells);
    }
    // Paper row order: Herding, GCond, HGCond, FreeHGC.
    table.row(rows[1].clone());
    table.row(rows[0].clone());
    table.row(rows[2].clone());
    table.row(rows[3].clone());
    println!("{}", table.render());
}
