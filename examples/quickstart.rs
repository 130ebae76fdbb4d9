//! Quickstart: condense a heterogeneous graph with FreeHGC and check the
//! quality of the condensed graph.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use freehgc::core::FreeHgc;
use freehgc::datasets::{generate, DatasetKind};
use freehgc::eval::pipeline::{Bench, EvalConfig};
use freehgc::hetgraph::Condenser;

use freehgc::util::smoke_mode as smoke;

fn main() {
    // 1. Load a heterogeneous graph. Here: a synthetic ACM-like academic
    //    network (papers, authors, subjects, terms) with 3 paper classes.
    let scale = if smoke() { 0.15 } else { 0.5 };
    let graph = generate(DatasetKind::Acm, scale, 7);
    println!(
        "full graph: {} nodes, {} edges, {} node types",
        graph.total_nodes(),
        graph.total_edges(),
        graph.schema().num_node_types()
    );

    // 2. Set up the paper's protocol (§V-B): the bench propagates the
    //    full graph's meta-path features once, and its context shares
    //    those compositions with the condenser.
    let cfg = if smoke() {
        EvalConfig::quick()
    } else {
        EvalConfig::default()
    };
    let bench = Bench::new(&graph, cfg);

    // 3. Condense to 5% of every node type — training-free, pre-processing
    //    only. The spec carries the bench's meta-path bounds, so selection
    //    and evaluation read the same path family.
    let spec = bench.spec(0.05, 0);
    let t0 = std::time::Instant::now();
    let condensed = FreeHgc::default().condense_in(&bench.ctx, &spec);
    println!(
        "condensed in {:?}: {} nodes ({:.1}% of original), {} edges",
        t0.elapsed(),
        condensed.graph.total_nodes(),
        100.0 * condensed.achieved_ratio(&graph),
        condensed.graph.total_edges()
    );
    println!(
        "storage: {} KB -> {} KB",
        graph.storage_bytes() / 1024,
        condensed.graph.storage_bytes() / 1024
    );

    // 4. Train SeHGNN on the condensed graph and evaluate on the *full*
    //    graph's held-out test split.
    let whole = bench.whole_graph(bench.cfg.model, &[0]);
    let condensed_acc = bench.eval_condensed(&condensed, bench.cfg.model, 0) * 100.0;
    println!(
        "test accuracy: whole graph {:.2}%, condensed graph {:.2}% ({:.1}% of whole)",
        whole.acc_mean,
        condensed_acc,
        100.0 * condensed_acc / whole.acc_mean
    );
}
