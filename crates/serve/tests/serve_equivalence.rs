//! End-to-end serving semantics: served replies are bitwise-identical
//! to direct `condense_shared`, identical in-flight requests coalesce,
//! overload and shutdown produce typed replies, and the TCP transport
//! agrees byte-for-byte with the in-process path.

use freehgc_datasets::tiny;
use freehgc_hetgraph::{
    propagate, propagate_ctx, CondenseSpec, ContextRegistry, DEFAULT_MAX_PATHS,
};
use freehgc_parallel::WorkerPool;
use freehgc_serve::wire::{self, CondensedSummary};
use freehgc_serve::{
    default_methods, ErrorCode, GraphRef, Reply, Request, ServeConfig, ServeHandle, TcpServer,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn condense_req(graph: GraphRef, method: &str, ratio: f64, seed: u64) -> Request {
    Request::Condense {
        graph,
        method: method.to_string(),
        ratio,
        seed,
        max_hops: 2,
        max_paths: DEFAULT_MAX_PATHS as u32,
        deadline_ms: 0,
    }
}

/// The ground truth a served reply must match bit for bit: a direct
/// `condense_shared` against a *fresh* registry (proving the serving
/// path adds nothing and loses nothing).
fn reference_reply(
    graph: &Arc<freehgc_hetgraph::HeteroGraph>,
    method: &str,
    ratio: f64,
    seed: u64,
) -> Reply {
    let registry = ContextRegistry::new();
    let methods = default_methods();
    let condenser = methods
        .iter()
        .find(|c| c.name() == method)
        .expect("method registered");
    let spec = CondenseSpec::new(ratio).with_seed(seed);
    let condensed = condenser.condense_shared(&registry, graph, &spec);
    Reply::Condensed(CondensedSummary::from(&condensed))
}

fn assert_bitwise_equal(served: &Reply, reference: &Reply, what: &str) {
    assert_eq!(
        wire::encode_reply_payload(served),
        wire::encode_reply_payload(reference),
        "{what}: served reply differs from direct condense_shared"
    );
}

fn wait_until(mut cond: impl FnMut() -> bool) {
    for _ in 0..4000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("condition not reached within 4s");
}

#[test]
fn served_condense_is_bitwise_equal_to_direct() {
    // Eight concurrent clients each run the whole method × ratio grid,
    // twice: the cold pass races identical requests onto shared
    // flights, the warm pass answers every request from the fast path.
    // Every reply must carry the direct run's bits, and racing cold
    // requests must never build the shared context twice.
    const CLIENTS: usize = 8;
    let handle = ServeHandle::new(ServeConfig::default());
    let graph = Arc::new(tiny(3));
    handle.register_graph("acm", Arc::clone(&graph));
    let mut grid = Vec::new();
    for method in ["FreeHGC", "Random-HG", "Herding-HG"] {
        for ratio in [0.25, 0.5] {
            let req = condense_req(GraphRef::Id("acm".into()), method, ratio, 7);
            grid.push((
                req,
                reference_reply(&graph, method, ratio, 7),
                method,
                ratio,
            ));
        }
    }
    for pass in ["cold", "warm"] {
        let hits_before = handle.stats().fast_path_hits;
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let (handle, grid) = (&handle, &grid);
                s.spawn(move || {
                    for (req, reference, method, ratio) in grid {
                        let what = format!("{pass} client {client}: {method} r={ratio}");
                        assert_bitwise_equal(&handle.call(req), reference, &what);
                    }
                });
            }
        });
        if pass == "warm" {
            assert_eq!(
                handle.stats().fast_path_hits - hits_before,
                (CLIENTS * grid.len()) as u64,
                "every warm request must answer from the fast path"
            );
        }
    }
    assert_eq!(
        handle.stats().duplicate_computes,
        0,
        "racing clients must not duplicate a cold build"
    );
    handle.shutdown();
}

#[test]
fn warm_repeat_takes_the_fast_path_with_identical_bits() {
    let handle = ServeHandle::new(ServeConfig::default());
    let graph = Arc::new(tiny(5));
    handle.register_graph("acm", Arc::clone(&graph));
    let req = condense_req(GraphRef::Id("acm".into()), "Random-HG", 0.5, 11);
    let cold = handle.call(&req);
    assert_eq!(handle.stats().fast_path_hits, 0, "first request is cold");
    let warm = handle.call(&req);
    assert_eq!(
        handle.stats().fast_path_hits,
        1,
        "repeat must answer from the warm registry without the pool"
    );
    assert_eq!(
        wire::encode_reply_payload(&cold),
        wire::encode_reply_payload(&warm),
        "warm and cold replies must be identical"
    );
    handle.shutdown();
}

#[test]
fn inline_specs_condense_and_memoize() {
    let handle = ServeHandle::new(ServeConfig::default());
    let spec = GraphRef::Inline {
        kind: "ACM".into(),
        scale: 0.08,
        seed: 3,
    };
    let req = condense_req(spec, "Random-HG", 0.5, 1);
    let first = handle.call(&req);
    assert!(first.error_code().is_none(), "got {first:?}");
    let second = handle.call(&req);
    assert_eq!(handle.stats().fast_path_hits, 1, "inline graph memoized");
    assert_eq!(
        wire::encode_reply_payload(&first),
        wire::encode_reply_payload(&second)
    );
    // The same spec generated directly matches bitwise.
    let graph = Arc::new(freehgc_datasets::generate(
        freehgc_datasets::DatasetKind::Acm,
        0.08,
        3,
    ));
    assert_bitwise_equal(
        &first,
        &reference_reply(&graph, "Random-HG", 0.5, 1),
        "inline spec",
    );
    handle.shutdown();
}

#[test]
fn evicted_inline_graphs_regenerate_to_the_same_fingerprint_and_bytes() {
    // A zero resident budget evicts every context that caches anything
    // (FreeHGC does) after its cold condensation, and with it the only
    // strong hold on the inline graph.
    let handle = ServeHandle::new(ServeConfig {
        resident_budget: Some(0),
        ..ServeConfig::default()
    });
    let spec = GraphRef::Inline {
        kind: "ACM".into(),
        scale: 0.08,
        seed: 5,
    };
    let req = condense_req(spec.clone(), "FreeHGC", 0.5, 1);
    let first = handle.call(&req);
    assert!(first.error_code().is_none(), "got {first:?}");
    let graph = handle.catalog().resolve(&spec).unwrap();
    let fingerprint = graph.fingerprint();
    let gone = Arc::downgrade(&graph);
    drop(graph);
    wait_until(|| gone.strong_count() == 0);

    let regenerated = handle.catalog().resolve(&spec).unwrap();
    assert_eq!(regenerated.fingerprint(), fingerprint);
    drop(regenerated);
    // A fresh seed misses the reply memo, so it condenses the
    // regenerated graph; the repeat matches the first reply.
    let direct = Arc::new(freehgc_datasets::generate(
        freehgc_datasets::DatasetKind::Acm,
        0.08,
        5,
    ));
    let other = handle.call(&condense_req(spec, "FreeHGC", 0.5, 2));
    assert_bitwise_equal(
        &other,
        &reference_reply(&direct, "FreeHGC", 0.5, 2),
        "regenerated",
    );
    assert_eq!(
        wire::encode_reply_payload(&handle.call(&req)),
        wire::encode_reply_payload(&first)
    );
    assert_bitwise_equal(
        &first,
        &reference_reply(&direct, "FreeHGC", 0.5, 1),
        "first",
    );
    handle.shutdown();
}

#[test]
fn identical_inflight_requests_coalesce_without_duplicate_computes() {
    // One worker, blocked: the leader's job sits queued while followers
    // arrive, so coalescing is guaranteed, not raced.
    let pool = WorkerPool::new(1, 8);
    let gate = Arc::new(Barrier::new(2));
    let blocker = Arc::clone(&gate);
    pool.submit(Box::new(move || {
        blocker.wait();
    }))
    .unwrap();
    wait_until(|| pool.queued() == 0); // blocker dispatched

    let handle = ServeHandle::with_pool(ServeConfig::default(), pool);
    let graph = Arc::new(tiny(9));
    handle.register_graph("acm", Arc::clone(&graph));
    let req = condense_req(GraphRef::Id("acm".into()), "Random-HG", 0.25, 2);

    const CLIENTS: usize = 6;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let handle = handle.clone();
        let req = req.clone();
        clients.push(std::thread::spawn(move || handle.call(&req)));
    }
    // All but the leader must have joined the one flight before the
    // worker is released — deterministic, no timing assumptions.
    wait_until(|| handle.stats().coalesced == (CLIENTS as u64 - 1));
    gate.wait();

    let replies: Vec<Reply> = clients.into_iter().map(|t| t.join().unwrap()).collect();
    let reference = reference_reply(&graph, "Random-HG", 0.25, 2);
    for (i, reply) in replies.iter().enumerate() {
        assert_bitwise_equal(reply, &reference, &format!("client {i}"));
    }
    let stats = handle.stats();
    assert_eq!(stats.coalesced, CLIENTS as u64 - 1);
    assert_eq!(
        stats.duplicate_computes, 0,
        "coalesced requests must not recompute"
    );
    assert_eq!(stats.condense_ok, 1, "exactly one real condensation ran");
    handle.shutdown();
}

#[test]
fn coalesced_follower_that_bails_leaves_the_flight_to_the_rest() {
    // Same blocked single worker as above, so every client coalesces.
    let pool = WorkerPool::new(1, 8);
    let gate = Arc::new(Barrier::new(2));
    let blocker = Arc::clone(&gate);
    pool.submit(Box::new(move || {
        blocker.wait();
    }))
    .unwrap();
    wait_until(|| pool.queued() == 0);

    let handle = ServeHandle::with_pool(ServeConfig::default(), pool);
    let graph = Arc::new(tiny(11));
    handle.register_graph("acm", Arc::clone(&graph));
    let req = condense_req(GraphRef::Id("acm".into()), "Random-HG", 0.25, 5);

    const CLIENTS: usize = 4;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let handle = handle.clone();
        let req = req.clone();
        clients.push(std::thread::spawn(move || handle.call(&req)));
    }
    wait_until(|| handle.stats().coalesced == (CLIENTS as u64 - 1));

    // One more follower of the same flight, whose own deadline expires
    // while the worker is still blocked.
    let mut short = req.clone();
    if let Request::Condense { deadline_ms, .. } = &mut short {
        *deadline_ms = 250;
    }
    let bailer = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.call(&short))
    };
    wait_until(|| handle.stats().coalesced == CLIENTS as u64);
    let bailed = bailer.join().unwrap();
    assert_eq!(
        bailed.error_code(),
        Some(ErrorCode::DeadlineExceeded),
        "got {bailed:?}"
    );
    gate.wait();

    let reference = reference_reply(&graph, "Random-HG", 0.25, 5);
    for (i, t) in clients.into_iter().enumerate() {
        assert_bitwise_equal(&t.join().unwrap(), &reference, &format!("client {i}"));
    }
    let stats = handle.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.condense_ok, 1, "the bail did not restart the flight");
    assert_eq!(stats.duplicate_computes, 0);
    handle.shutdown();
}

#[test]
fn full_queue_yields_typed_overload_and_recovers() {
    // One worker and a queue of one: block the worker, fill the slot,
    // and the next cold request must bounce with typed backpressure.
    let pool = WorkerPool::new(1, 1);
    let gate = Arc::new(Barrier::new(2));
    let blocker = Arc::clone(&gate);
    pool.submit(Box::new(move || {
        blocker.wait();
    }))
    .unwrap();
    wait_until(|| pool.queued() == 0);
    pool.submit(Box::new(|| {})).unwrap(); // occupy the only queue slot

    let handle = ServeHandle::with_pool(ServeConfig::default(), pool);
    let graph = Arc::new(tiny(13));
    handle.register_graph("acm", Arc::clone(&graph));
    let req = condense_req(GraphRef::Id("acm".into()), "Random-HG", 0.5, 4);
    let reply = handle.call(&req);
    assert_eq!(
        reply.error_code(),
        Some(ErrorCode::Overloaded),
        "got {reply:?}"
    );
    assert_eq!(handle.stats().overloaded, 1);

    // Release the worker: the same request must now succeed, bitwise
    // equal to the direct run — overload sheds load, it breaks nothing.
    gate.wait();
    wait_until(|| handle.pool().queued() == 0);
    let served = handle.call(&req);
    assert_bitwise_equal(
        &served,
        &reference_reply(&graph, "Random-HG", 0.5, 4),
        "post-overload",
    );
    handle.shutdown();
}

#[test]
fn deadline_exceeded_is_typed_and_sheds_the_request() {
    let pool = WorkerPool::new(1, 8);
    let gate = Arc::new(Barrier::new(2));
    let blocker = Arc::clone(&gate);
    pool.submit(Box::new(move || {
        blocker.wait();
    }))
    .unwrap();
    wait_until(|| pool.queued() == 0);

    let handle = ServeHandle::with_pool(ServeConfig::default(), pool);
    handle.register_graph("acm", Arc::new(tiny(17)));
    let req = Request::Condense {
        graph: GraphRef::Id("acm".into()),
        method: "Random-HG".into(),
        ratio: 0.5,
        seed: 1,
        max_hops: 2,
        max_paths: DEFAULT_MAX_PATHS as u32,
        deadline_ms: 30, // expires while the worker is blocked
    };
    let reply = handle.call(&req);
    assert_eq!(
        reply.error_code(),
        Some(ErrorCode::DeadlineExceeded),
        "got {reply:?}"
    );
    assert!(handle.stats().deadline_exceeded >= 1);
    gate.wait();
    handle.shutdown();
}

#[test]
fn invalid_requests_get_typed_errors() {
    let handle = ServeHandle::new(ServeConfig::default());
    handle.register_graph("acm", Arc::new(tiny(1)));
    let cases = [
        (
            condense_req(GraphRef::Id("nope".into()), "Random-HG", 0.5, 0),
            ErrorCode::UnknownGraph,
        ),
        (
            condense_req(GraphRef::Id("acm".into()), "NoSuchMethod", 0.5, 0),
            ErrorCode::UnknownMethod,
        ),
        (
            condense_req(GraphRef::Id("acm".into()), "Random-HG", 1.5, 0),
            ErrorCode::BadRequest,
        ),
        (
            condense_req(GraphRef::Id("acm".into()), "Random-HG", f64::NAN, 0),
            ErrorCode::BadRequest,
        ),
        (
            Request::Condense {
                graph: GraphRef::Id("acm".into()),
                method: "Random-HG".into(),
                ratio: 0.5,
                seed: 0,
                max_hops: 0,
                max_paths: 1,
                deadline_ms: 0,
            },
            ErrorCode::BadRequest,
        ),
        (
            Request::ApplyDelta {
                graph_id: "nope".into(),
                delta: freehgc_hetgraph::GraphDelta::new(),
            },
            ErrorCode::UnknownGraph,
        ),
    ];
    for (req, code) in cases {
        let reply = handle.call(&req);
        assert_eq!(reply.error_code(), Some(code), "req {req:?} gave {reply:?}");
    }
    handle.shutdown();
}

#[test]
fn apply_delta_swaps_the_catalog_and_seeds_the_context() {
    let handle = ServeHandle::new(ServeConfig::default());
    let graph = Arc::new(tiny(21));
    handle.register_graph("acm", Arc::clone(&graph));
    // Warm a context with a method that populates the precompute caches
    // (FreeHGC enumerates meta-paths and scores influence), so the delta
    // has survivors to inherit.
    let warm = condense_req(GraphRef::Id("acm".into()), "FreeHGC", 0.5, 1);
    assert!(handle.call(&warm).error_code().is_none());

    let mut delta = freehgc_hetgraph::GraphDelta::new();
    let e = freehgc_hetgraph::EdgeTypeId(0);
    delta.add_weighted_edge(e, 0, 1, 2.0);
    let reply = handle.call(&Request::ApplyDelta {
        graph_id: "acm".into(),
        delta: delta.clone(),
    });
    let Reply::DeltaApplied {
        new_fingerprint,
        reused_entries,
        ..
    } = reply
    else {
        panic!("expected DeltaApplied, got {reply:?}");
    };
    // Fingerprint matches an out-of-band application of the same delta.
    let mut expect = (*graph).clone();
    expect.apply_delta(&delta);
    let fp = expect.fingerprint();
    assert_eq!(new_fingerprint, (fp.0, fp.1));
    assert!(reused_entries > 0, "delta seeding must inherit survivors");
    // The catalog now serves the mutated graph: a condense against it
    // matches a direct run on the mutated value.
    let served = handle.call(&warm);
    let reference = reference_reply(&Arc::new(expect), "FreeHGC", 0.5, 1);
    assert_bitwise_equal(&served, &reference, "post-delta");
    assert_eq!(handle.stats().deltas_applied, 1);
    handle.shutdown();
}

#[test]
fn apply_delta_seeds_from_the_snapshot_dir_of_an_earlier_server() {
    let dir = std::env::temp_dir().join(format!("fhgc-serve-snap-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let graph = Arc::new(tiny(29));
    let warm = condense_req(GraphRef::Id("acm".into()), "FreeHGC", 0.5, 1);
    let spec = CondenseSpec::new(0.5);
    // The delta rewires `pt` (paper → term). One-hop propagation capped
    // just before the first path over `pt` never reads it, so its
    // blocks survive the delta.
    let pt = freehgc_hetgraph::EdgeTypeId(3);
    let target = graph.schema().target();
    let clean_paths = freehgc_hetgraph::enumerate_metapaths(graph.schema(), target, 1, 64)
        .iter()
        .position(|p| p.steps.iter().any(|s| s.edge == pt))
        .expect("a one-hop path over pt");

    // An earlier server warms the old graph's context (condensation and
    // propagation) and persists it.
    let first = ServeHandle::new(ServeConfig::default());
    first.register_graph("acm", Arc::clone(&graph));
    assert!(first.call(&warm).error_code().is_none());
    propagate_ctx(&first.registry().context_for(&graph, &spec), 1, clean_paths);
    first.registry().persist(&dir, &graph).expect("persist");
    first.shutdown();

    // A fresh server on the same directory has no live old context, so
    // the delta must seed from the old fingerprint's snapshot file.
    let handle = ServeHandle::new(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    handle.register_graph("acm", Arc::clone(&graph));
    let mut delta = freehgc_hetgraph::GraphDelta::new();
    delta.add_weighted_edge(pt, 0, 1, 2.0);
    let reply = handle.call(&Request::ApplyDelta {
        graph_id: "acm".into(),
        delta: delta.clone(),
    });
    let Reply::DeltaApplied { reused_entries, .. } = reply else {
        panic!("expected DeltaApplied, got {reply:?}");
    };
    assert!(
        reused_entries > 0,
        "snapshot seeding must inherit survivors"
    );
    assert_eq!(handle.registry().stats().snapshot_loads, 1);

    let mut mutated = (*graph).clone();
    mutated.apply_delta(&delta);
    let mutated = Arc::new(mutated);
    let served = handle.call(&warm);
    let reference = reference_reply(&mutated, "FreeHGC", 0.5, 1);
    assert_bitwise_equal(&served, &reference, "post-delta from snapshot");

    // The propagated blocks the delta left clean were installed from
    // the file too: the first propagation on the seeded context hits,
    // with the bits of a fresh propagation of the mutated graph.
    let ctx = handle.registry().context_for(&mutated, &spec);
    let blocks = propagate_ctx(&ctx, 1, clean_paths);
    let propagated = ctx.stats()[freehgc_hetgraph::CacheFamily::Propagated];
    assert_eq!(
        (propagated.hits, propagated.misses),
        (1, 0),
        "the clean blocks must come from the snapshot"
    );
    let fresh = propagate(&mutated, 1, clean_paths);
    assert_eq!(blocks.path_names, fresh.path_names);
    for (a, b) in blocks.blocks.iter().zip(&fresh.blocks) {
        assert_eq!(a.data, b.data, "seeded block bits");
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_deltas_are_rejected_and_leave_the_graph_servable() {
    let handle = ServeHandle::new(ServeConfig::default());
    let graph = Arc::new(tiny(23));
    let target = graph.schema().target();
    let dim = graph.features(target).dim();
    handle.register_graph("acm", graph);
    let e = freehgc_hetgraph::EdgeTypeId(0);
    let mut nan_weight = freehgc_hetgraph::GraphDelta::new();
    nan_weight.add_weighted_edge(e, 0, 1, f32::NAN);
    let mut inf_weight = freehgc_hetgraph::GraphDelta::new();
    inf_weight.add_weighted_edge(e, 0, 1, f32::INFINITY);
    let mut nan_feature = freehgc_hetgraph::GraphDelta::new();
    let mut row = vec![0.5; dim];
    row[dim / 2] = f32::NAN;
    nan_feature.update_feature_row(target, 0, row);
    // Through the wire path, so the decoder's handling of the
    // non-finite bits is covered too.
    let call = |req_id: u64, req: &Request| {
        let frame = handle.handle_frame(&wire::encode_request(req_id, req));
        wire::decode_reply(&frame).expect("well-formed reply").1
    };

    for (seed, (what, delta)) in [
        ("NaN weight", nan_weight),
        ("+inf weight", inf_weight),
        ("NaN feature", nan_feature),
    ]
    .into_iter()
    .enumerate()
    {
        let reply = call(
            seed as u64,
            &Request::ApplyDelta {
                graph_id: "acm".into(),
                delta,
            },
        );
        assert_eq!(
            reply.error_code(),
            Some(ErrorCode::BadRequest),
            "{what}: {reply:?}"
        );
        assert_eq!(handle.stats().deltas_applied, 0, "{what}: nothing applied");
        // The catalog entry is untouched: the methods a poisoned graph
        // panics in still condense (a fresh seed forces a compute).
        for method in ["Herding-HG", "K-Center-HG"] {
            let req = condense_req(GraphRef::Id("acm".into()), method, 0.5, seed as u64);
            let reply = call(100 + seed as u64, &req);
            assert!(
                matches!(reply, Reply::Condensed(_)),
                "{what}: {method} after the rejected delta gave {reply:?}"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn shutdown_drains_then_rejects_with_typed_replies() {
    let handle = ServeHandle::new(ServeConfig::default());
    let graph = Arc::new(tiny(23));
    handle.register_graph("acm", Arc::clone(&graph));
    let req = condense_req(GraphRef::Id("acm".into()), "Random-HG", 0.5, 6);
    assert!(handle.call(&req).error_code().is_none());

    handle.shutdown();
    handle.shutdown(); // idempotent

    let rejected = handle.call(&req);
    assert_eq!(rejected.error_code(), Some(ErrorCode::ShuttingDown));
    assert!(handle.stats().shutdown_rejected >= 1);
    // Liveness endpoints still answer during/after drain.
    assert_eq!(handle.call(&Request::Ping), Reply::Pong);
    assert!(matches!(handle.call(&Request::Stats), Reply::Stats(_)));
}

#[test]
fn tcp_transport_matches_the_inprocess_path_bit_for_bit() {
    let handle = ServeHandle::new(ServeConfig::default());
    let graph = Arc::new(tiny(31));
    handle.register_graph("acm", Arc::clone(&graph));
    let mut server = TcpServer::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let mut client = freehgc_serve::ServeClient::connect(server.addr()).unwrap();

    assert_eq!(client.call(&Request::Ping).unwrap(), Reply::Pong);

    let req = condense_req(GraphRef::Id("acm".into()), "FreeHGC", 0.5, 3);
    let over_tcp = client.call(&req).unwrap();
    let in_process = handle.call(&req);
    assert_eq!(
        wire::encode_reply_payload(&over_tcp),
        wire::encode_reply_payload(&in_process),
        "transport must not change a single bit"
    );
    assert_bitwise_equal(
        &over_tcp,
        &reference_reply(&graph, "FreeHGC", 0.5, 3),
        "tcp",
    );

    let stats = client.call(&Request::Stats).unwrap();
    let Reply::Stats(s) = stats else {
        panic!("expected stats, got {stats:?}");
    };
    assert!(s.requests >= 3);
    server.shutdown();
}
