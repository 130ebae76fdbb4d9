//! The traced run's layer probe: one pass through every layer on the
//! workload's own primary graph, with the sparse kernels timed on that
//! graph's matrices serially and at [`parallel_threads`].

use crate::common::{self, paper_ratio, spec_for};
use crate::report::{median, Metrics, Tally};
use crate::serve_mixed;
use crate::trace::span;
use freehgc_autograd::Matrix;
use freehgc_core::FreeHgc;
use freehgc_datasets::DatasetKind;
use freehgc_eval::pipeline::EvalConfig;
use freehgc_hetgraph::{CondenseContext, Condenser, HeteroGraph};
use freehgc_hgnn::propagation::propagate_ctx;
use freehgc_sparse::ppr::{ppr_push, PprConfig};
use freehgc_sparse::CsrMatrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median time of `f` over at least 5 calls and 0.05 s, after a warm-up.
fn time<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed().as_secs_f64() < 0.05 {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Threads the parallel kernel timings use: two, or fewer on a smaller
/// machine.
pub fn parallel_threads() -> usize {
    2.min(freehgc_parallel::machine_parallelism())
}

/// Times `f` serially and at `threads`, alternating the two call by
/// call so drift in machine speed hits both alike; returns both median
/// times and whether every parallel output equalled the serial one (the
/// parallel paths are bitwise identical to the serial ones). Leaves the
/// budget serial.
fn serial_vs_parallel<T: PartialEq>(threads: usize, f: impl Fn() -> T) -> (f64, f64, bool) {
    let run = |n: usize| {
        freehgc_parallel::set_thread_override(Some(n));
        let t = Instant::now();
        let out = black_box(f());
        (t.elapsed().as_secs_f64(), out)
    };
    let (_, serial) = run(1); // warm-up: pools, caches, page faults
    run(threads);
    let (mut t1, mut tn, mut same) = (Vec::new(), Vec::new(), true);
    let start = Instant::now();
    while t1.len() < 5 || start.elapsed().as_secs_f64() < 0.1 {
        let (a, _) = run(1);
        let (b, out) = run(threads);
        t1.push(a);
        tn.push(b);
        same &= out == serial;
    }
    freehgc_parallel::set_thread_override(Some(1));
    (median(&t1), median(&tn), same)
}

/// The target type's one-hop relation with the most edges, as the
/// context composes it (row-normalized, target rows).
fn widest_hop(ctx: &CondenseContext<'_>) -> Arc<CsrMatrix> {
    let g = ctx.graph();
    ctx.metapaths(g.schema().target(), 1, usize::MAX)
        .iter()
        .map(|p| ctx.adjacency(p))
        .max_by_key(|a| a.nnz())
        .expect("the target type has at least one relation")
}

/// Multiply-adds of `a · b` (each stored `a[i,k]` meets row `k` of `b`).
fn spgemm_flops(a: &CsrMatrix, b: &CsrMatrix) -> f64 {
    let fl: usize = a.indices().iter().map(|&k| b.row_nnz(k as usize)).sum();
    2.0 * fl as f64
}

/// The graph a workload's layer probe runs on.
pub struct Primary {
    pub graph: Arc<HeteroGraph>,
    pub kind: DatasetKind,
    pub cfg: EvalConfig,
}

/// A sparse kernel: metric name, speedup metric name (empty for none)
/// and the call.
type Kernel<'a> = (&'a str, &'a str, Box<dyn Fn() -> Vec<f32> + 'a>);

/// Runs every layer once on `p`, adding the per-layer metrics the spans
/// do not give to `m`. With `serve_probe`, also serves `p`'s graph for a
/// short session.
pub fn probe(p: &Primary, seed: u64, serve_probe: bool, m: &mut Metrics, tally: &mut Tally) {
    let (g, kind, cfg) = (&p.graph, p.kind, &p.cfg);
    let spec = spec_for(g, cfg, paper_ratio(kind, false), seed);
    let warm_spec = spec_for(g, cfg, paper_ratio(kind, true), seed);
    let ctx = CondenseContext::new(g);
    let target = g.schema().target();
    let nnz = span("hetgraph.compose", || {
        ctx.metapaths(target, cfg.max_hops, cfg.max_paths)
            .iter()
            .map(|p| ctx.adjacency(p).nnz())
            .sum::<usize>()
    });
    m.set("hetgraph.compose_nnz", nnz as f64, "count");
    let cond = span("core.condense", || {
        FreeHgc::default().condense_in(&ctx, &spec)
    });
    let pf = span("hgnn.propagate", || {
        propagate_ctx(&ctx, cfg.max_hops, cfg.max_paths)
    });
    let warm = span("core.warm_condense", || {
        FreeHgc::default().condense_in(&ctx, &warm_spec)
    });
    common::record_context_stats(&ctx);
    tally.record(common::valid(&cond, g) && common::valid(&warm, g));

    // Sparse kernels on this graph's own matrices.
    let a = widest_hop(&ctx);
    let at = a.transpose();
    let sq = a.spgemm(&at);
    let n = a.nrows();
    let src_t = g
        .schema()
        .node_type_ids()
        .find(|&t| g.num_nodes(t) == a.ncols())
        .expect("a node type matches the relation's columns");
    let x = g.features(src_t);
    let seed_vec = vec![1.0 / n as f32; n];
    let ppr_cfg = PprConfig::default();
    let kernels: [Kernel<'_>; 4] = [
        (
            "spgemm",
            "spgemm_speedup",
            Box::new(|| a.spgemm(&at).values().to_vec()),
        ),
        (
            "ppr_push",
            "ppr_push_speedup",
            Box::new(|| ppr_push(&sq, &seed_vec, &ppr_cfg)),
        ),
        ("spmv_t", "", Box::new(|| a.spmv_t(&seed_vec))),
        (
            "spmm_dense",
            "spmm_dense_speedup",
            Box::new(|| a.spmm_dense(x.data(), x.dim())),
        ),
    ];
    for (name, speedup, f) in &kernels {
        let (t1, tn, same) = span("sparse.kernel", || {
            serial_vs_parallel(parallel_threads(), f)
        });
        tally.record(same);
        m.set(format!("sparse.{name}_s"), t1, "s");
        if !speedup.is_empty() {
            m.set(format!("parallel.{speedup}"), t1 / tn, "x");
        }
    }
    m.set("sparse.spgemm_flops", spgemm_flops(&a, &at), "count");

    // One dense product of the training shapes: a propagated block
    // times a hidden-width weight matrix.
    let block = &pf.blocks[pf.blocks.len() - 1];
    let w = Matrix::xavier(block.cols, cfg.train.hidden, seed);
    let t = span("autograd.matmul", || time(|| block.matmul(&w)));
    m.set("autograd.matmul_s", t, "s");

    if serve_probe {
        let inp = serve_mixed::serve(vec![(kind, Arc::clone(g))], seed, serve_mixed::PROBE_SHAPE);
        let s = serve_mixed::session(&inp, serve_mixed::PROBE_SECONDS);
        tally.absorb(s.tally);
        for (k, v) in s.layer.0 {
            m.0.insert(k, v);
        }
    }
}
