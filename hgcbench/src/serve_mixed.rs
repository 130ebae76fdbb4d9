//! `serve-mixed`: closed-loop clients against an in-process server.
//!
//! Clients call `ServeHandle::handle_frame`, so every request is encoded
//! and every reply decoded through the wire codec. The request script is
//! a pure function of the seed and has four classes:
//!
//! * warm `Condense` requests on registered graphs, each with a fresh
//!   (ratio, seed), answered on the caller's thread from a warm context;
//! * repeats of one of the client's recent requests, which the reply
//!   memo answers;
//! * first-sight `GraphRef::Inline` graphs, which go cold through the
//!   worker pool;
//! * `ApplyDelta` writes with edges drawn valid from the schema's
//!   `edge_endpoints`. Each graph has exactly one writing client, so no
//!   write races another on the same graph.
//!
//! Inline requests and deltas run on a fixed schedule: a run sends the
//! same number of each (which sets its memory footprint) whatever its
//! throughput, spread evenly over the measured seconds.

use crate::common::{self, spec_for, two_hop_cfg, DATASET_SEED};
use crate::report::{median, mix, quantile, Metrics, Tally};
use crate::trace::span;
use crate::Pass;
use freehgc_core::FreeHgc;
use freehgc_datasets::{generate, DatasetKind};
use freehgc_eval::pipeline::EvalConfig;
use freehgc_hetgraph::{Condenser, ContextRegistry, GraphDelta, HeteroGraph};
use freehgc_hgnn::propagation::propagate_ctx;
use freehgc_serve::{
    wire, CondensedSummary, GraphRef, Reply, Request, ServeConfig, ServeHandle, StatsReply,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Registry-wide resident cache bytes the server keeps after each cold
/// computation: contexts of superseded graph versions are evicted, the
/// live ones (touched by every request) stay.
const RESIDENT_BUDGET: u64 = 24 << 20;
/// Edges added by one `ApplyDelta`.
const DELTA_EDGES: usize = 4;
/// Recent requests a client picks its repeats from.
const HISTORY: usize = 8;
/// Generator scale of the first-sight inline ACM graphs.
const INLINE_SCALE: f64 = 0.5;

pub struct Served {
    pub id: String,
    pub kind: DatasetKind,
    pub graph: Arc<HeteroGraph>,
    pub cfg: EvalConfig,
    /// The set-up requests that primed this graph's context, with their
    /// replies.
    pub primes: Vec<(Request, Reply)>,
}

/// Session shape: how many clients, and how many cold inline requests
/// and delta writes per measured second.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub clients: usize,
    pub inline_per_s: f64,
    pub deltas_per_s: f64,
}

/// The workload's traffic. At the 1200–1500 requests/s two clients
/// reach on two cores, inline requests are 0.5–0.7% and deltas 4–5% of
/// requests.
pub const SHAPE: Shape = Shape {
    clients: 2,
    inline_per_s: 8.0,
    deltas_per_s: 64.0,
};

/// The layer probe's session: one client, a handful of cold requests
/// and writes, on the probing workload's own graph.
pub const PROBE_SHAPE: Shape = Shape {
    clients: 1,
    inline_per_s: 2.0,
    deltas_per_s: 2.0,
};
pub const PROBE_SECONDS: f64 = 1.0;

pub struct Inputs {
    pub handle: ServeHandle,
    pub graphs: Vec<Served>,
    pub seed: u64,
    pub shape: Shape,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        self.handle.shutdown();
    }
}

fn condense_req(graph: GraphRef, ratio: f64, seed: u64, cfg: &EvalConfig) -> Request {
    Request::Condense {
        graph,
        method: FreeHgc::default().name().to_string(),
        ratio,
        seed,
        max_hops: cfg.max_hops as u32,
        max_paths: cfg.max_paths as u32,
        deadline_ms: 0,
    }
}

/// Priming condensations per registered graph, at the fixed seeds
/// `0..PRIMES`: part of the served catalog's state, like the graphs, so
/// the workload's accuracy (the mean over models trained on each of
/// them) does not depend on the traffic seed.
const PRIMES: u64 = 4;

/// Builds a server with one pool worker, registers `graphs` and primes
/// each graph's context with `PRIMES` condensations.
pub fn serve(graphs: Vec<(DatasetKind, Arc<HeteroGraph>)>, seed: u64, shape: Shape) -> Inputs {
    let handle = ServeHandle::new(ServeConfig {
        workers: 1,
        queue_depth: 16,
        snapshot_dir: None,
        resident_budget: Some(RESIDENT_BUDGET),
    });
    let graphs = graphs
        .into_iter()
        .map(|(kind, graph)| {
            let id = kind.name().to_string();
            handle.register_graph(id.clone(), Arc::clone(&graph));
            let cfg = two_hop_cfg(kind);
            let ratio = spec_for(&graph, &cfg, common::paper_ratio(kind, false), 0).ratio;
            let primes = (0..PRIMES)
                .map(|k| {
                    let req = condense_req(GraphRef::Id(id.clone()), ratio, k, &cfg);
                    let reply = handle.call(&req);
                    (req, reply)
                })
                .collect();
            Served {
                id,
                kind,
                graph,
                cfg,
                primes,
            }
        })
        .collect();
    Inputs {
        handle,
        graphs,
        seed,
        shape,
    }
}

pub fn setup(seed: u64, scale: f64) -> Inputs {
    let graphs = [DatasetKind::Acm, DatasetKind::Dblp, DatasetKind::Imdb]
        .into_iter()
        .map(|kind| {
            let g = span("datasets.generate", || generate(kind, scale, DATASET_SEED));
            (kind, Arc::new(g))
        })
        .collect();
    serve(graphs, mix(seed, 300) % 1000, SHAPE)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Warm,
    Repeat,
    Inline,
    Delta,
}

struct Sample {
    class: Class,
    /// Registered graph index (reads and deltas).
    graph: usize,
    /// Versions of `graph` (successful deltas applied) the request may
    /// have seen: at least `lo` when sent, at most `hi` when answered.
    lo: u64,
    hi: u64,
    req: Request,
    reply: Option<Reply>,
    secs: f64,
    reply_bytes: usize,
}

/// Per-graph write progress, shared between the writer and readers.
#[derive(Default)]
struct Versions {
    applied: AtomicU64,
    pending: AtomicU64,
}

/// The `k`-th delta written to graph `j`: `DELTA_EDGES` edges of one
/// relation, endpoints in range for the relation's node types.
fn delta_for(g: &HeteroGraph, seed: u64, j: usize, k: u64) -> GraphDelta {
    let schema = g.schema();
    let edge_types: Vec<_> = schema.edge_type_ids().collect();
    let base = mix(seed ^ ((j as u64) << 48), k);
    let e = edge_types[(base % edge_types.len() as u64) as usize];
    let (src_t, dst_t) = schema.edge_endpoints(e);
    let mut d = GraphDelta::new();
    for i in 0..DELTA_EDGES as u64 {
        let r = mix(base, i + 1);
        let src = (r % g.num_nodes(src_t) as u64) as u32;
        let dst = ((r >> 32) % g.num_nodes(dst_t) as u64) as u32;
        d.add_edge(e, src, dst);
    }
    d
}

/// True when the `(done+1)`-th of `total` scheduled requests is due at
/// `elapsed` of a `seconds`-long run.
fn due(done: usize, total: usize, elapsed: f64, seconds: f64) -> bool {
    done < total && (done + 1) as f64 * seconds / (total + 1) as f64 <= elapsed
}

/// One closed-loop client.
fn client(inp: &Inputs, versions: &[Versions], c: usize, seconds: f64, t0: Instant) -> Vec<Sample> {
    let shape = inp.shape;
    let n = inp.graphs.len();
    let seed = mix(inp.seed, 400 + c as u64);
    let owned: Vec<usize> = (0..n).filter(|j| j % shape.clients == c).collect();
    let total_deltas = (shape.deltas_per_s * seconds).round() as usize;
    let my_deltas = if owned.is_empty() {
        0
    } else {
        owned.len() * total_deltas / n
    };
    let total_inline = (shape.inline_per_s * seconds).round() as usize;
    let my_inline = total_inline / shape.clients + usize::from(c < total_inline % shape.clients);
    let mut written = vec![0u64; n];
    let (mut reads, mut inline, mut deltas) = (0u64, 0usize, 0usize);
    let mut history: VecDeque<(usize, Request)> = VecDeque::new();
    let mut out = Vec::new();
    let mut req_id = (c as u64) << 40;
    loop {
        let el = t0.elapsed().as_secs_f64();
        let (class, graph, req) = if due(inline, my_inline, el, seconds) {
            inline += 1;
            let spec = GraphRef::Inline {
                kind: DatasetKind::Acm.name().to_string(),
                scale: INLINE_SCALE,
                seed: mix(seed, 1 << 32 | inline as u64),
            };
            let cfg = two_hop_cfg(DatasetKind::Acm);
            let ratio = common::paper_ratio(DatasetKind::Acm, true);
            (
                Class::Inline,
                usize::MAX,
                condense_req(spec, ratio, seed % 1000, &cfg),
            )
        } else if due(deltas, my_deltas, el, seconds) {
            let j = owned[deltas % owned.len()];
            deltas += 1;
            let delta = delta_for(&inp.graphs[j].graph, inp.seed, j, written[j]);
            written[j] += 1;
            let req = Request::ApplyDelta {
                graph_id: inp.graphs[j].id.clone(),
                delta,
            };
            (Class::Delta, j, req)
        } else if el >= seconds {
            break;
        } else {
            let i = reads;
            reads += 1;
            let r = mix(seed, i);
            if i % 3 == 2 && !history.is_empty() {
                let (j, req) = history[(r % history.len() as u64) as usize].clone();
                (Class::Repeat, j, req)
            } else {
                let j = (i as usize + c) % n;
                let s = &inp.graphs[j];
                let paper = freehgc_bench::paper_ratios(s.kind)[(i / 3) as usize % 4];
                let ratio = spec_for(&s.graph, &s.cfg, paper, 0).ratio;
                // A 64-bit seed drawn per read: no two reads share one.
                let req = condense_req(GraphRef::Id(s.id.clone()), ratio, r, &s.cfg);
                if history.len() == HISTORY {
                    history.pop_front();
                }
                history.push_back((j, req.clone()));
                (Class::Warm, j, req)
            }
        };
        req_id += 1;
        let lo = versions
            .get(graph)
            .map_or(0, |v| v.applied.load(Ordering::SeqCst));
        if class == Class::Delta {
            versions[graph].pending.fetch_add(1, Ordering::SeqCst);
        }
        let t = Instant::now();
        let (reply, reply_bytes) = span("serve.request", || {
            let frame = span("serve.encode", || wire::encode_request(req_id, &req));
            let bytes = span("serve.handle", || inp.handle.handle_frame(&frame));
            let reply = span("serve.decode", || wire::decode_reply(&bytes));
            let reply = reply.ok().filter(|(id, _)| *id == req_id).map(|(_, r)| r);
            (reply, bytes.len())
        });
        let secs = t.elapsed().as_secs_f64();
        if class == Class::Delta {
            let v = &versions[graph];
            if matches!(reply, Some(Reply::DeltaApplied { .. })) {
                v.applied.fetch_add(1, Ordering::SeqCst);
            } else {
                v.pending.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let hi = versions
            .get(graph)
            .map_or(0, |v| v.pending.load(Ordering::SeqCst));
        out.push(Sample {
            class,
            graph,
            lo,
            hi,
            req,
            reply,
            secs,
            reply_bytes,
        });
    }
    out
}

/// Runs the closed-loop clients for `seconds`, then verifies every reply
/// outside the timed window.
pub fn session(inp: &Inputs, seconds: f64) -> Pass {
    let versions: Vec<Versions> = inp.graphs.iter().map(|_| Versions::default()).collect();
    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..inp.shape.clients)
            .map(|c| {
                let versions = &versions;
                s.spawn(move || client(inp, versions, c, seconds, t0))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let peak = crate::report::peak_rss_mb();
    let stats = inp.handle.stats();

    let tv = Instant::now();
    let ok = verify(inp, &samples);
    let verify_s = tv.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for &o in &ok {
        tally.record(o);
    }
    let lat = |pred: &dyn Fn(Class) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| pred(s.class))
            .map(|s| s.secs * 1e3)
            .collect()
    };
    let warm = lat(&|c| c == Class::Warm);
    let cold = lat(&|c| c == Class::Inline);
    let repeat = lat(&|c| c == Class::Repeat);
    let reads = lat(&|c| c != Class::Delta);
    let writes = lat(&|c| c == Class::Delta);

    let mut e2e = Metrics::default();
    e2e.set("warm_p50_ms", median(&warm), "ms");
    e2e.set("cold_p50_ms", median(&cold), "ms");
    e2e.set("ops_per_s", samples.len() as f64 / elapsed, "1/s");
    e2e.set("peak_rss_mb", peak, "MB");

    let mut layer = Metrics::default();
    layer.set("serve.read_p99_ms", quantile(&reads, 0.99), "ms");
    layer.set("serve.read_samples", reads.len() as f64, "count");
    layer.set("serve.delta_p50_ms", median(&writes), "ms");
    layer.set("serve.repeat_p50_ms", median(&repeat), "ms");
    let bytes: Vec<f64> = samples.iter().map(|s| s.reply_bytes as f64).collect();
    layer.set("serve.reply_bytes", median(&bytes), "B");
    layer.set(
        "serve.fast_path_share",
        stats.fast_path_hits as f64 / reads.len().max(1) as f64,
        "share",
    );
    layer.set("serve.coalesced", stats.coalesced as f64, "count");
    layer.set("serve.overloaded", stats.overloaded as f64, "count");
    layer.set(
        "serve.duplicate_computes",
        stats.duplicate_computes as f64,
        "count",
    );
    registry_layer(&stats, &mut layer);

    let facts = vec![
        ("clients".into(), inp.shape.clients as f64),
        ("pool_workers".into(), 1.0),
        ("samples_warm".into(), warm.len() as f64),
        ("samples_repeat".into(), repeat.len() as f64),
        ("samples_inline".into(), cold.len() as f64),
        ("samples_delta".into(), writes.len() as f64),
        ("samples_read".into(), reads.len() as f64),
        ("verify_s".into(), verify_s),
    ];
    Pass {
        metrics: e2e,
        tally,
        layer,
        facts,
    }
}

fn registry_layer(stats: &StatsReply, layer: &mut Metrics) {
    layer.set(
        "hetgraph.registry_contexts",
        stats.registry_contexts as f64,
        "count",
    );
    layer.set(
        "hetgraph.resident_mb",
        stats.resident_bytes as f64 / (1u64 << 20) as f64,
        "MB",
    );
    let lookups = (stats.registry_hits + stats.registry_misses).max(1);
    layer.set(
        "hetgraph.registry_hit_share",
        stats.registry_hits as f64 / lookups as f64,
        "share",
    );
    layer.set(
        "parallel.pool_executed",
        stats.pool_executed as f64,
        "count",
    );
}

/// The condensation spec a condense request asks for.
fn spec_of(req: &Request) -> Option<freehgc_hetgraph::CondenseSpec> {
    let Request::Condense {
        ratio,
        seed,
        max_hops,
        max_paths,
        ..
    } = req
    else {
        return None;
    };
    Some(
        freehgc_hetgraph::CondenseSpec::new(*ratio)
            .with_seed(*seed)
            .with_max_hops(*max_hops as usize)
            .with_max_paths(*max_paths as usize),
    )
}

/// The reference for one condense request: `condense_shared` on a
/// registry of the verifier's own, against graph version `g`; `None`
/// when the reference condensation fails `CondensedGraph::validate`.
fn reference(
    reg: &ContextRegistry,
    g: &Arc<HeteroGraph>,
    req: &Request,
) -> Option<CondensedSummary> {
    let spec = spec_of(req)?;
    let cond = FreeHgc::default().condense_shared(reg, g, &spec);
    common::valid(&cond, g).then(|| CondensedSummary::from(&cond))
}

fn matches(reply: &Option<Reply>, want: &CondensedSummary) -> bool {
    matches!(reply, Some(Reply::Condensed(got)) if got == want)
}

/// Checks every sample: each condense reply equals the reference at some
/// graph version the request could have seen, each delta reports the
/// fingerprint of the locally replayed graph. Two verifier threads split
/// the versions (and the inline graphs) between them.
fn verify(inp: &Inputs, samples: &[Sample]) -> Vec<bool> {
    let workers = 2;
    let parts: Vec<Vec<bool>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| s.spawn(move || verify_part(inp, samples, w, workers)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    (0..samples.len())
        .map(|i| parts.iter().any(|p| p[i]))
        .collect()
}

fn verify_part(inp: &Inputs, samples: &[Sample], w: usize, workers: usize) -> Vec<bool> {
    let mut ok = vec![false; samples.len()];
    let reg = ContextRegistry::new();
    for (j, served) in inp.graphs.iter().enumerate() {
        // Deltas of graph j, in the order its single writer sent them.
        let writes: Vec<usize> = (0..samples.len())
            .filter(|&i| samples[i].class == Class::Delta && samples[i].graph == j)
            .collect();
        let mut g = Arc::clone(&served.graph);
        let mut v = 0u64;
        let mut writes = writes.into_iter();
        loop {
            if v as usize % workers == w {
                let mut memo: BTreeMap<(u64, u64), Option<CondensedSummary>> = BTreeMap::new();
                for (i, s) in samples.iter().enumerate() {
                    if s.class == Class::Delta || s.class == Class::Inline || s.graph != j {
                        continue;
                    }
                    if ok[i] || v < s.lo || v > s.hi {
                        continue;
                    }
                    let Request::Condense { ratio, seed, .. } = &s.req else {
                        continue;
                    };
                    let key = (ratio.to_bits(), *seed);
                    let want = memo
                        .entry(key)
                        .or_insert_with(|| reference(&reg, &g, &s.req));
                    ok[i] = want.as_ref().is_some_and(|w| matches(&s.reply, w));
                }
                reg.clear();
            }
            // Advance to the next version by replaying the next delta.
            let Some(idx) = writes.next() else { break };
            let s = &samples[idx];
            let Request::ApplyDelta { delta, .. } = &s.req else {
                unreachable!("delta samples carry delta requests")
            };
            // A failed delta left the graph unchanged (and stays failed).
            if let Some(Reply::DeltaApplied {
                new_fingerprint, ..
            }) = &s.reply
            {
                let mut next = (*g).clone();
                next.apply_delta(delta);
                let fp = next.fingerprint();
                g = Arc::new(next);
                v += 1;
                if w == 0 {
                    ok[idx] = (fp.0, fp.1) == *new_fingerprint;
                }
            }
        }
    }
    // Inline graphs: regenerate from the spec, condense, compare.
    for (i, s) in samples.iter().enumerate() {
        if s.class != Class::Inline || i % workers != w {
            continue;
        }
        let Request::Condense {
            graph: GraphRef::Inline { kind, scale, seed },
            ..
        } = &s.req
        else {
            continue;
        };
        let Some(kind) = freehgc_serve::dataset_kind_by_name(kind) else {
            continue;
        };
        let g = Arc::new(generate(kind, *scale, *seed));
        ok[i] = reference(&reg, &g, &s.req).is_some_and(|r| matches(&s.reply, &r));
        reg.clear();
    }
    ok
}

/// Accuracy of models trained on the served priming condensations,
/// each verified against the reference first.
pub fn served_quality(inp: &Inputs, tally: &mut Tally) -> (f64, f64) {
    let (mut acc, mut f1, mut n) = (0.0, 0.0, 0.0);
    for s in &inp.graphs {
        let reg = ContextRegistry::new();
        for (req, reply) in &s.primes {
            let spec = spec_of(req).expect("priming requests are condense requests");
            let cond = FreeHgc::default().condense_shared(&reg, &s.graph, &spec);
            let ok = common::valid(&cond, &s.graph);
            tally.record(
                ok && matches!(reply, Reply::Condensed(got) if *got == CondensedSummary::from(&cond)),
            );
            let ctx = reg.context_for(&s.graph, &spec);
            let pf = propagate_ctx(&ctx, s.cfg.max_hops, s.cfg.max_paths);
            let q = common::train_and_test(&s.graph, &pf, &cond, &s.cfg, spec.seed);
            acc += q.acc_pct / 100.0;
            f1 += q.macro_f1;
            n += 1.0;
        }
    }
    (acc / n, f1 / n)
}

pub fn run(inp: &Inputs, seconds: f64) -> Pass {
    let mut pass = session(inp, seconds);
    let (acc, f1) = served_quality(inp, &mut pass.tally);
    pass.metrics.set("test_acc", acc, "share");
    pass.metrics.set("test_macro_f1", f1, "share");
    pass
}
