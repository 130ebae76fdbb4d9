//! Chaos drills: every injected fault must degrade to a counted
//! recovery with bitwise-identical output.
//!
//! Requires the `failpoints` cargo feature (`cargo test --features
//! failpoints`); without it the whole file compiles away. Failpoint
//! state is process-global, so every test serializes on [`FP_LOCK`] and
//! resets the table on entry and exit.

#![cfg(feature = "failpoints")]

use freehgc::core::FreeHgc;
use freehgc::datasets::tiny;
use freehgc::hetgraph::failpoints as fp;
use freehgc::hetgraph::{CondenseSpec, CondensedGraph, Condenser, ContextRegistry};
use std::sync::{Arc, Mutex};

static FP_LOCK: Mutex<()> = Mutex::new(());

/// `(hits, misses)` of the registry's lookups.
fn lookups(reg: &ContextRegistry) -> (u64, u64) {
    let s = reg.stats();
    (s.hits, s.misses)
}

/// `(loads, rejections)` of the registry's snapshot-file attempts.
fn disk_loads(reg: &ContextRegistry) -> (u64, u64) {
    let s = reg.stats();
    (s.snapshot_loads, s.snapshot_rejections)
}

/// Serializes a drill and guarantees a clean failpoint table on both
/// sides, even when the drill itself panics.
fn drill<T>(f: impl FnOnce() -> T) -> T {
    let _guard = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fp::reset();
    let out = f();
    fp::reset();
    out
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fhgc-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn condenser_panic_recovers_and_registry_keeps_serving() {
    drill(|| {
        let g = Arc::new(tiny(41));
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(3);
        let c = FreeHgc::default();
        // Fault-free reference, through its own registry.
        let want = c.condense_shared(&ContextRegistry::new(), &g, &spec);

        let reg = ContextRegistry::new();
        fp::arm(fp::CONDENSE_PANIC, 1);
        let got = c.condense_shared(&reg, &g, &spec);
        assert_eq!(fp::fired(fp::CONDENSE_PANIC), 1, "the fault must fire");
        assert_eq!(
            reg.stats().panics_recovered,
            1,
            "the panic must be caught and counted"
        );
        assert_eq!(got.orig_ids, want.orig_ids, "retry output bitwise");

        // The registry is not wedged: a second request serves warm with
        // the same bits and no further recoveries.
        let again = c.condense_shared(&reg, &g, &spec);
        assert_eq!(again.orig_ids, want.orig_ids);
        assert_eq!(reg.stats().panics_recovered, 1);
        let (hits, misses) = lookups(&reg);
        assert_eq!(misses, 1, "one cold build despite the injected panic");
        assert!(hits >= 1);
    });
}

#[test]
fn persistent_condenser_panic_propagates_after_bounded_retries() {
    drill(|| {
        let g = Arc::new(tiny(42));
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(3);
        let reg = ContextRegistry::new();
        fp::arm(fp::CONDENSE_PANIC, u64::MAX);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FreeHgc::default().condense_shared(&reg, &g, &spec)
        }));
        let payload = err.expect_err("a persistent fault must escape");
        let msg = payload
            .downcast_ref::<String>()
            .expect("injected panics carry String payloads");
        assert!(
            msg.contains(fp::CONDENSE_PANIC),
            "payload must name the failpoint, got: {msg}"
        );
        assert!(reg.stats().panics_recovered >= 1);
        fp::reset();
        // Recovery after the fault clears: same registry, clean serve.
        let ok = FreeHgc::default().condense_shared(&reg, &g, &spec);
        assert!(!ok.orig_ids.is_empty());
    });
}

#[test]
fn failed_leader_build_is_retaken_and_output_is_unchanged() {
    drill(|| {
        let g = Arc::new(tiny(43));
        let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(7);
        let want = FreeHgc::default().condense_shared(&ContextRegistry::new(), &g, &spec);

        let reg = ContextRegistry::new();
        fp::arm(fp::REGISTRY_BUILD_PANIC, 2);
        let got = FreeHgc::default().condense_shared(&reg, &g, &spec);
        assert_eq!(got.orig_ids, want.orig_ids, "bits survive two dead leaders");
        let stats = reg.stats();
        assert_eq!(stats.panics_recovered, 2);
        // Each failed leader attempt is a (counted) miss; no partial
        // context was ever installed.
        assert_eq!(lookups(&reg).1, 3);
        assert_eq!(reg.len(), 1);
    });
}

#[test]
fn delayed_leader_coalesces_every_concurrent_waiter() {
    drill(|| {
        let g = Arc::new(tiny(44));
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(1);
        let reg = ContextRegistry::new();
        // Hold the leader's build open: every other thread must arrive
        // while the flight is in the air and coalesce onto it.
        fp::arm_seeded(fp::REGISTRY_BUILD_DELAY, 0, 1);
        let n = 6;
        let barrier = std::sync::Barrier::new(n);
        let ctxs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        reg.context_for(&g, &spec)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ctxs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let stats = reg.stats();
        assert_eq!(
            stats.singleflight_coalesced,
            n as u64 - 1,
            "with the leader held open, every other resolver coalesces"
        );
        assert_eq!(stats.duplicate_computes, 0);
        assert_eq!(lookups(&reg), (n as u64 - 1, 1));
    });
}

#[test]
fn transient_read_error_is_retried_into_a_successful_load() {
    drill(|| {
        let dir = temp_dir("read-retry");
        let g = Arc::new(tiny(45));
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(2);
        let reg = ContextRegistry::new();
        let ctx = reg.context_for(&g, &spec);
        let root = g.schema().target();
        for p in ctx.metapaths(root, 2, 50).iter() {
            ctx.adjacency(p);
        }
        reg.persist(&dir, &g).expect("persist");

        let retries_before = reg.stats().io_retries;
        // Fail exactly the first read attempt; the retry must land.
        fp::arm(fp::SNAPSHOT_READ_IO, 1);
        let reg2 = ContextRegistry::new();
        let warm = reg2.resolve(&g, Some(&dir), None).0;
        assert_eq!(
            disk_loads(&reg2),
            (1, 0),
            "the load must succeed through the retry, not fall back cold"
        );
        assert!(warm.composed_len() > 0, "warm state actually arrived");
        assert!(reg2.stats().io_retries > retries_before);
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn torn_write_retries_and_the_orphan_is_swept_on_restart() {
    drill(|| {
        let dir = temp_dir("torn");
        let g = Arc::new(tiny(46));
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(2);
        let reg = ContextRegistry::new();
        let ctx = reg.context_for(&g, &spec);
        let root = g.schema().target();
        for p in ctx.metapaths(root, 2, 50).iter() {
            ctx.adjacency(p);
        }
        // First write attempt tears mid-persist (leaving its temp file
        // behind, as a crash would); the retry must succeed.
        fp::arm(fp::SNAPSHOT_TORN_WRITE, 1);
        let path = reg.persist(&dir, &g).expect("retry lands");
        assert!(path.exists(), "canonical file published despite the tear");
        let orphans = || {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .contains(".fhgc.tmp-")
                })
                .count()
        };
        assert_eq!(orphans(), 1, "the torn attempt's temp file is left over");

        // "Restart": a fresh registry's first touch of the directory
        // sweeps the orphan and still loads the snapshot cleanly.
        let reg2 = ContextRegistry::new();
        let warm = reg2.resolve(&g, Some(&dir), None).0;
        assert_eq!(orphans(), 0, "startup sweep collects the orphan");
        assert_eq!(reg2.stats().tmp_files_swept, 1);
        assert_eq!(disk_loads(&reg2), (1, 0));
        for p in warm.metapaths(root, 2, 50).iter() {
            assert_eq!(*warm.adjacency(p), *ctx.adjacency(p), "loaded bits");
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Full structural equality of two condensations, bit for bit.
fn same_bits(a: &CondensedGraph, b: &CondensedGraph) -> bool {
    let (x, y) = (&a.graph, &b.graph);
    let schema = x.schema();
    a.orig_ids == b.orig_ids
        && schema
            .node_type_ids()
            .all(|t| x.num_nodes(t) == y.num_nodes(t) && x.features(t) == y.features(t))
        && schema
            .edge_type_ids()
            .all(|e| x.adjacency(e) == y.adjacency(e))
        && x.labels() == y.labels()
        && x.split() == y.split()
}

#[test]
fn every_fault_at_once_under_concurrent_clients_keeps_reference_bits() {
    drill(|| {
        let g = Arc::new(tiny(49));
        let spec = CondenseSpec::new(0.15).with_max_hops(2).with_seed(11);
        let c = FreeHgc::default();
        let want = c.condense_shared(&ContextRegistry::new(), &g, &spec);

        // An earlier "process" persisted the warm snapshot and a crashed
        // writer left an orphaned temp file beside it.
        let dir = temp_dir("combined");
        let reg0 = ContextRegistry::new();
        c.condense_shared(&reg0, &g, &spec);
        reg0.persist(&dir, &g).expect("persist");
        std::fs::write(dir.join("ctx-dead.fhgc.tmp-99999-0"), b"torn").unwrap();

        fp::arm_seeded(fp::SNAPSHOT_READ_IO, 1234, 3);
        fp::arm(fp::SNAPSHOT_TORN_WRITE, 1);
        fp::arm(fp::CONDENSE_PANIC, 2);
        fp::arm(fp::REGISTRY_BUILD_PANIC, 1);
        fp::arm_seeded(fp::REGISTRY_BUILD_DELAY, 1234, 1);

        // Eight clients hammer one key through the snapshot-backed
        // resolve and `condense_shared` while every fault fires.
        const CLIENTS: usize = 8;
        let reg = ContextRegistry::new();
        let barrier = std::sync::Barrier::new(CLIENTS);
        let outs: Vec<CondensedGraph> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (0..2)
                            .map(|_| {
                                reg.resolve(&g, Some(&dir), None);
                                c.condense_shared(&reg, &g, &spec)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("an injected fault escaped isolation"))
                .collect()
        });
        assert_eq!(outs.len(), 2 * CLIENTS);
        assert!(
            outs.iter().all(|o| same_bits(o, &want)),
            "every faulted response carries the fault-free bits"
        );
        // Still armed: persisting tears once and retries into a file.
        reg.persist(&dir, &g)
            .expect("persist survives the torn write");
        let stats = reg.stats();
        assert!(fp::total_fired() > 0, "the drill injected faults");
        assert!(stats.panics_recovered > 0, "injected panics were recovered");
        assert_eq!(stats.duplicate_computes, 0, "single-flight held");
        assert!(stats.tmp_files_swept > 0, "the startup sweep ran");
        fp::reset();

        // "Restart": a fresh registry sweeps the torn write's orphan and
        // serves the reference bits from the published file.
        let reg2 = ContextRegistry::new();
        reg2.resolve(&g, Some(&dir), None);
        assert!(reg2.stats().tmp_files_swept > 0, "the torn orphan is swept");
        assert!(same_bits(&c.condense_shared(&reg2, &g, &spec), &want));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// One blocked-pool serving setup shared by the serving drills: a
/// single worker held at a barrier, so requests queue (and coalesce)
/// deterministically before any execution happens.
fn blocked_serve(
    seed: u64,
) -> (
    freehgc::serve::ServeHandle,
    Arc<std::sync::Barrier>,
    Arc<freehgc::hetgraph::HeteroGraph>,
) {
    use freehgc::parallel::WorkerPool;
    use freehgc::serve::{ServeConfig, ServeHandle};
    let pool = WorkerPool::new(1, 8);
    let gate = Arc::new(std::sync::Barrier::new(2));
    let blocker = Arc::clone(&gate);
    pool.submit(Box::new(move || {
        blocker.wait();
    }))
    .unwrap();
    for _ in 0..4000 {
        if pool.queued() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let handle = ServeHandle::with_pool(ServeConfig::default(), pool);
    let g = Arc::new(tiny(seed));
    handle.register_graph("acm", Arc::clone(&g));
    (handle, gate, g)
}

fn serve_condense_req(seed: u64) -> freehgc::serve::Request {
    freehgc::serve::Request::Condense {
        graph: freehgc::serve::GraphRef::Id("acm".into()),
        method: "Random-HG".into(),
        ratio: 0.5,
        seed,
        max_hops: 2,
        max_paths: 64,
        deadline_ms: 0,
    }
}

/// The fault-free ground truth for [`serve_condense_req`], as reply
/// payload bytes.
fn serve_reference_payload(g: &Arc<freehgc::hetgraph::HeteroGraph>, seed: u64) -> (u8, Vec<u8>) {
    use freehgc::serve::wire;
    let spec = CondenseSpec::new(0.5).with_seed(seed).with_max_paths(64);
    let methods = freehgc::serve::default_methods();
    let c = methods.iter().find(|c| c.name() == "Random-HG").unwrap();
    let condensed = c.condense_shared(&ContextRegistry::new(), g, &spec);
    wire::encode_reply_payload(&freehgc::serve::Reply::Condensed(
        wire::CondensedSummary::from(&condensed),
    ))
}

#[test]
fn serve_worker_panic_errors_exactly_one_client_and_the_rest_serve_bitwise() {
    drill(|| {
        use freehgc::serve::{wire, ErrorCode};
        let (handle, gate, g) = blocked_serve(51);
        let req = serve_condense_req(7);
        let reference = serve_reference_payload(&g, 7);

        fp::arm(fp::SERVE_WORKER_PANIC, 1);

        // Six identical requests: one leader (whose pooled job will hit
        // the injected panic), five coalesced followers.
        const CLIENTS: usize = 6;
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            let handle = handle.clone();
            let req = req.clone();
            clients.push(std::thread::spawn(move || handle.call(&req)));
        }
        for _ in 0..4000 {
            if handle.stats().coalesced == CLIENTS as u64 - 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(handle.stats().coalesced, CLIENTS as u64 - 1);
        gate.wait(); // release the worker; the panic fires now

        let replies: Vec<_> = clients.into_iter().map(|t| t.join().unwrap()).collect();
        let panicked: Vec<_> = replies
            .iter()
            .filter(|r| r.error_code() == Some(ErrorCode::WorkerPanic))
            .collect();
        assert_eq!(
            panicked.len(),
            1,
            "exactly one client observes the injected worker panic: {replies:?}"
        );
        assert_eq!(fp::fired(fp::SERVE_WORKER_PANIC), 1, "the fault must fire");
        for r in replies.iter().filter(|r| r.error_code().is_none()) {
            assert_eq!(
                wire::encode_reply_payload(r),
                reference,
                "surviving replies must be bitwise-identical to fault-free"
            );
        }
        assert_eq!(
            replies.iter().filter(|r| r.error_code().is_none()).count(),
            CLIENTS - 1,
            "every other client must be re-served successfully"
        );
        let stats = handle.stats();
        assert_eq!(stats.worker_panics, 1, "the panic is counted once");
        assert_eq!(
            stats.duplicate_computes, 0,
            "re-election must not duplicate a completed compute"
        );
        assert_eq!(
            handle.pool().stats().panics,
            0,
            "the job converts its own panic; the worker-thread backstop stays untouched"
        );

        // The pool and registry keep serving: a fresh request is warm
        // and bitwise-identical.
        let again = handle.call(&req);
        assert_eq!(wire::encode_reply_payload(&again), reference);
        handle.shutdown();
    });
}

#[test]
fn serve_queue_full_injection_is_typed_backpressure_then_full_recovery() {
    drill(|| {
        use freehgc::serve::{wire, ErrorCode, ServeConfig, ServeHandle};
        let handle = ServeHandle::new(ServeConfig::default());
        let g = Arc::new(tiny(52));
        handle.register_graph("acm", Arc::clone(&g));
        let req = serve_condense_req(9);
        let reference = serve_reference_payload(&g, 9);

        fp::arm(fp::SERVE_QUEUE_FULL, 1);

        let bounced = handle.call(&req);
        assert_eq!(
            bounced.error_code(),
            Some(ErrorCode::Overloaded),
            "injected full queue must surface as typed backpressure: {bounced:?}"
        );
        assert_eq!(fp::fired(fp::SERVE_QUEUE_FULL), 1, "the fault must fire");
        assert_eq!(handle.stats().overloaded, 1);

        // The spike passed (plan exhausted): the same request now
        // serves, bitwise-identical to the fault-free reference.
        let served = handle.call(&req);
        assert_eq!(wire::encode_reply_payload(&served), reference);
        assert_eq!(handle.stats().overloaded, 1, "no further rejections");
        handle.shutdown();
    });
}
