//! `cold-scale`: one large ACM graph, condensed cold every round.
//!
//! Each round takes a fresh context, composes every target meta-path,
//! condenses with FreeHGC at r = 2.4%, propagates the full graph, then
//! condenses the now-warm context again at r = 4.8%. No training and no
//! serving: the sparse kernels, the parallel layer and the context
//! caches do the work.

use crate::common::{self, paper_ratio, spec_for, two_hop_cfg, DATASET_SEED};
use crate::report::{median, mix, Metrics, Tally};
use crate::trace::span;
use crate::Pass;
use freehgc_core::FreeHgc;
use freehgc_datasets::{generate, DatasetKind};
use freehgc_eval::pipeline::EvalConfig;
use freehgc_hetgraph::{CondenseContext, CondensedGraph, Condenser, HeteroGraph};
use freehgc_hgnn::propagation::{propagate_ctx, PropagatedFeatures};
use freehgc_serve::CondensedSummary;
use std::sync::Arc;
use std::time::Instant;

pub const KIND: DatasetKind = DatasetKind::Acm;

pub struct Inputs {
    pub graph: Arc<HeteroGraph>,
    pub cfg: EvalConfig,
    pub seed: u64,
}

pub fn setup(seed: u64, scale: f64) -> Inputs {
    Inputs {
        graph: Arc::new(span("datasets.generate", || {
            generate(KIND, scale, DATASET_SEED)
        })),
        cfg: two_hop_cfg(KIND),
        seed: mix(seed, 200) % 1000,
    }
}

/// Outputs of one round.
struct Round {
    cond: CondensedGraph,
    warm: CondensedGraph,
    pf: Arc<PropagatedFeatures>,
}

pub fn run(inp: &Inputs, seconds: f64) -> Pass {
    let g = &*inp.graph;
    let spec = spec_for(g, &inp.cfg, paper_ratio(KIND, false), inp.seed);
    let warm_spec = spec_for(g, &inp.cfg, paper_ratio(KIND, true), inp.seed);
    let mut tally = Tally::default();
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let mut first: Option<(Round, u64)> = None;
    let mut rounds = 0u64;
    // Seconds each round took, excluding the per-round output checks.
    let mut round_s = Vec::new();
    let t_start = Instant::now();
    while rounds < 2 || t_start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let round = span("bench.round", || {
            let ctx = span("hetgraph.context", || CondenseContext::new(g));
            span("hetgraph.compose", || {
                let target = g.schema().target();
                for p in ctx
                    .metapaths(target, inp.cfg.max_hops, inp.cfg.max_paths)
                    .iter()
                {
                    ctx.adjacency(p);
                }
            });
            let cond = span("core.condense", || {
                FreeHgc::default().condense_in(&ctx, &spec)
            });
            cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let pf = span("hgnn.propagate", || {
                propagate_ctx(&ctx, inp.cfg.max_hops, inp.cfg.max_paths)
            });
            let t1 = Instant::now();
            let warm = span("core.warm_condense", || {
                FreeHgc::default().condense_in(&ctx, &warm_spec)
            });
            warm_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            common::record_context_stats(&ctx);
            Round { cond, warm, pf }
        });
        round_s.push(t0.elapsed().as_secs_f64());
        rounds += 1;
        let ok = common::valid(&round.cond, g) && common::valid(&round.warm, g);
        let hash = common::blocks_hash(&round.pf);
        match &first {
            None => {
                tally.record(ok);
                first = Some((round, hash));
            }
            Some((f, h)) => tally.record(
                ok && *h == hash
                    && CondensedSummary::from(&f.cond) == CondensedSummary::from(&round.cond)
                    && CondensedSummary::from(&f.warm) == CondensedSummary::from(&round.warm),
            ),
        }
    }
    let peak = crate::report::peak_rss_mb();

    // Outside the timed window: the rounds' output must equal a
    // context-free `Condenser::condense` of the same specs.
    let (f, _) = first.expect("at least two rounds ran");
    let reference =
        |s| -> CondensedSummary { CondensedSummary::from(&FreeHgc::default().condense(g, s)) };
    tally.record(reference(&spec) == CondensedSummary::from(&f.cond));
    tally.record(reference(&warm_spec) == CondensedSummary::from(&f.warm));
    let q = common::train_and_test(g, &f.pf, &f.cond, &inp.cfg, inp.seed);

    let mut metrics = Metrics::default();
    metrics.set("cold_p50_ms", median(&cold_ms), "ms");
    metrics.set("warm_p50_ms", median(&warm_ms), "ms");
    // Rounds per second at the median round time.
    metrics.set("ops_per_s", 1.0 / median(&round_s), "1/s");
    metrics.set("test_acc", q.acc_pct / 100.0, "share");
    metrics.set("test_macro_f1", q.macro_f1, "share");
    metrics.set("peak_rss_mb", peak, "MB");
    Pass {
        metrics,
        tally,
        layer: Metrics::default(),
        facts: vec![
            ("rounds".into(), rounds as f64),
            ("graph_nodes".into(), g.total_nodes() as f64),
            ("graph_edges".into(), g.total_edges() as f64),
        ],
    }
}
