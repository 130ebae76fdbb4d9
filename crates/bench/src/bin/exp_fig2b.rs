//! Fig. 2(b) — condensation time of GCond vs HGCond.
//!
//! Wall-clock condensation time on Freebase (r ∈ {0.6, 1.2, 2.4, 4.8}%)
//! and AMiner (r ∈ {0.01, 0.05, 0.5, 1.0}%). The shapes to reproduce:
//! HGCond is consistently slower than GCond (clustering + OPS overhead)
//! and GCond goes out of memory on AMiner at the larger ratios.

use freehgc_baselines::{GCondBaseline, HGCondBaseline};
use freehgc_bench::{dataset, dataset_ratio, effective_ratio, eval_cfg, fmt_time, ExpOpts};
use freehgc_datasets::DatasetKind;
use freehgc_eval::pipeline::Bench;
use freehgc_eval::table::TextTable;
use freehgc_hetgraph::CondenseContext;
use std::time::Instant;

fn main() {
    let opts = ExpOpts::parse(1.0, 1);
    println!("== Fig. 2(b): condensation time, GCond vs HGCond ==\n");

    let cases = [
        (DatasetKind::Freebase, vec![0.006, 0.012, 0.024, 0.048]),
        (DatasetKind::Aminer, vec![0.0001, 0.0005, 0.005, 0.01]),
    ];
    for (kind, ratios) in cases {
        let g = dataset(kind, &opts);
        let bench = Bench::new(&g, eval_cfg(kind, &opts));
        let mut table = TextTable::new(vec!["Ratio (r)", "GCond", "HGCond"]);
        for &ratio in &ratios {
            let r = effective_ratio(&g, dataset_ratio(kind, ratio));
            let spec = bench.spec(r, 0);
            // GCond may hit its (simulated) memory budget on AMiner.
            let gcond = GCondBaseline::default();
            let t0 = Instant::now();
            let gcond_cell = match gcond.try_condense(&CondenseContext::new(&g), &spec) {
                Ok(_) => fmt_time(t0.elapsed().as_secs_f64()),
                Err(_) => "OOM".to_string(),
            };
            let hg_secs = bench.time_condense(&HGCondBaseline::default(), r, 0);
            table.row(vec![
                format!("{:.2}%", ratio * 100.0),
                gcond_cell,
                fmt_time(hg_secs),
            ]);
        }
        println!("--- {} ---", kind.name());
        println!("{}", table.render());
    }
}
