//! Fig. 8 — condensation time cost: GCond vs HGCond vs FreeHGC.
//!
//! Wall-clock condensation time on Freebase (r ∈ {1.2, 2.4, 4.8}%),
//! AM (r ∈ {0.2, 0.4, 0.8}%) and AMiner (r ∈ {0.05, 0.5, 1.0}%).
//! The paper reports FreeHGC up to 4.2×/4.7× (Freebase), 5.7×/6.3× (AM)
//! and 3.1×/11.2× (AMiner) faster than GCond/HGCond; GCond OOMs on AMiner
//! beyond r = 0.05%.

use freehgc_baselines::{GCondBaseline, HGCondBaseline};
use freehgc_bench::{dataset, dataset_ratio, effective_ratio, eval_cfg, fmt_time, ExpOpts};
use freehgc_core::FreeHgc;
use freehgc_datasets::DatasetKind;
use freehgc_eval::pipeline::Bench;
use freehgc_eval::table::TextTable;
use freehgc_hetgraph::CondenseContext;
use std::time::Instant;

fn main() {
    let opts = ExpOpts::parse(1.0, 1);
    println!("== Fig. 8: condensation time comparison ==\n");

    let cases = [
        (DatasetKind::Freebase, vec![0.012, 0.024, 0.048]),
        (DatasetKind::Am, vec![0.002, 0.004, 0.008]),
        (DatasetKind::Aminer, vec![0.0005, 0.005, 0.01]),
    ];
    for (kind, ratios) in cases {
        let g = dataset(kind, &opts);
        let bench = Bench::new(&g, eval_cfg(kind, &opts));
        let mut table = TextTable::new(vec![
            "Ratio (r)",
            "GCond",
            "HGCond",
            "FreeHGC",
            "speedup vs GCond",
            "speedup vs HGCond",
        ]);
        for &ratio in &ratios {
            let r = effective_ratio(&g, dataset_ratio(kind, ratio));
            let spec = bench.spec(r, 0);
            let t0 = Instant::now();
            let gcond_secs =
                match GCondBaseline::default().try_condense(&CondenseContext::new(&g), &spec) {
                    Ok(_) => Some(t0.elapsed().as_secs_f64()),
                    Err(_) => None,
                };
            let hg_secs = bench.time_condense(&HGCondBaseline::default(), r, 0);
            let fh_secs = bench.time_condense(&FreeHgc::default(), r, 0);
            table.row(vec![
                format!("{:.2}%", ratio * 100.0),
                gcond_secs.map_or("OOM".to_string(), fmt_time),
                fmt_time(hg_secs),
                fmt_time(fh_secs),
                gcond_secs.map_or("—".to_string(), |s| format!("{:.2}×", s / fh_secs)),
                format!("{:.2}×", hg_secs / fh_secs),
            ]);
        }
        println!("--- {} ---", kind.name());
        println!("{}", table.render());
    }
}
