//! On-disk snapshot equivalence: warm-starting from a persisted context
//! snapshot must be invisible in every output.
//!
//! Two contracts, each exercised at worker-thread counts 1 and 4 (CI
//! additionally runs the whole suite in its `FREEHGC_THREADS` 1/4
//! matrix):
//!
//! * **Round trip** — a condensation served from a snapshot loaded into
//!   a fresh registry (a stand-in for a restarted process) must be
//!   bitwise-identical to the run that produced the snapshot, for
//!   FreeHGC and every baseline, and must not recompute anything the
//!   snapshot carried (composed adjacencies, influence vectors,
//!   diversity bonuses, propagated blocks).
//! * **Corruption safety** — a truncated file, a flipped byte, a wrong
//!   format version and a wrong-fingerprint file must each load as a
//!   clean cold miss: no panic, a counted rejection, nothing installed,
//!   and bit-identical outputs from cold compute.

use freehgc::baselines::{
    CoarseningHg, GCondBaseline, GradMatchConfig, HGCondBaseline, HerdingHg, KCenterHg, RandomHg,
};
use freehgc::core::FreeHgc;
use freehgc::datasets::tiny;
use freehgc::hetgraph::{
    snapshot_file_name, CacheFamily, CondenseSpec, CondensedGraph, Condenser, ContextRegistry,
    HeteroGraph,
};
use freehgc::hgnn::propagation::propagate_ctx;
use freehgc::parallel as par;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// `(loads, rejections)` of the registry's snapshot-file attempts.
fn disk_loads(reg: &ContextRegistry) -> (u64, u64) {
    let s = reg.stats();
    (s.snapshot_loads, s.snapshot_rejections)
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_thread_override(Some(n));
    let out = f();
    par::set_thread_override(None);
    out
}

/// FreeHGC plus all five baselines of the paper's §V-A comparison, with
/// the gradient-matching methods on their quick schedules.
fn condensers() -> Vec<Box<dyn Condenser>> {
    let quick_gm = GradMatchConfig {
        outer: 3,
        inner: 2,
        relay_samples: 2,
        ..Default::default()
    };
    vec![
        Box::new(FreeHgc::default()),
        Box::new(RandomHg),
        Box::new(HerdingHg),
        Box::new(KCenterHg),
        Box::new(CoarseningHg),
        Box::new(HGCondBaseline {
            cfg: quick_gm.clone(),
            kmeans_iters: 3,
        }),
        Box::new(GCondBaseline {
            cfg: quick_gm,
            ..Default::default()
        }),
    ]
}

fn assert_graphs_equal(a: &HeteroGraph, b: &HeteroGraph, what: &str) {
    let schema = a.schema();
    for t in schema.node_type_ids() {
        assert_eq!(a.num_nodes(t), b.num_nodes(t), "{what}: node count {t:?}");
        assert_eq!(a.features(t), b.features(t), "{what}: features {t:?}");
    }
    for e in schema.edge_type_ids() {
        assert_eq!(a.adjacency(e), b.adjacency(e), "{what}: adjacency {e:?}");
    }
    assert_eq!(a.labels(), b.labels(), "{what}: labels");
    assert_eq!(a.split(), b.split(), "{what}: split");
}

fn assert_condensed_equal(a: &CondensedGraph, b: &CondensedGraph, what: &str) {
    assert_eq!(a.orig_ids, b.orig_ids, "{what}: provenance");
    assert_graphs_equal(&a.graph, &b.graph, what);
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fhgc-snapshot-eq-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn snapshot_round_trip_matches_fresh_for_every_condenser() {
    let g = Arc::new(tiny(41));
    let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(5);
    let dir = temp_dir("roundtrip");

    // "Process one": warm one registry context through every condenser
    // (and feature propagation), then persist it.
    let reg1 = ContextRegistry::new();
    let reference: Vec<CondensedGraph> = condensers()
        .iter()
        .map(|c| with_threads(1, || c.condense_shared(&reg1, &g, &spec)))
        .collect();
    let ctx1 = reg1.context_for(&g, &spec);
    let pf1 = propagate_ctx(&ctx1, 2, 16);
    let path = reg1.persist(&dir, &g).expect("persist");
    assert!(path.ends_with(snapshot_file_name(g.fingerprint())));

    for threads in [1usize, 4] {
        // "Process two": a fresh registry resolves warm from disk.
        let reg2 = ContextRegistry::new();
        let ctx2 = reg2.resolve(&g, Some(&dir), None).0;
        assert_eq!(disk_loads(&reg2), (1, 0), "{threads}t: must load");
        let pf2 = propagate_ctx(&ctx2, 2, 16);
        let propagated = ctx2.stats()[CacheFamily::Propagated];
        assert_eq!(
            (propagated.hits, propagated.misses),
            (1, 0),
            "{threads}t: the first propagation must hit the loaded block set"
        );
        let before = ctx2.stats();
        for (c, want) in condensers().iter().zip(&reference) {
            let got = with_threads(threads, || c.condense_in(&ctx2, &spec));
            assert_condensed_equal(want, &got, &format!("{} snapshot/{threads}t", c.name()));
        }
        // Everything the snapshot carried must be served, not redone.
        let after = ctx2.stats();
        assert_eq!(
            after[CacheFamily::Factors].misses,
            before[CacheFamily::Factors].misses,
            "{threads}t: factors"
        );
        assert_eq!(
            after[CacheFamily::Composed].misses,
            before[CacheFamily::Composed].misses,
            "{threads}t: composed"
        );
        assert_eq!(
            after[CacheFamily::Influence].misses,
            before[CacheFamily::Influence].misses,
            "{threads}t: influence"
        );
        assert_eq!(
            after[CacheFamily::Diversity].misses,
            before[CacheFamily::Diversity].misses,
            "{threads}t: diversity"
        );
        propagate_ctx(&ctx2, 2, 16);
        let propagated = ctx2.stats()[CacheFamily::Propagated];
        assert_eq!(
            propagated.misses,
            before[CacheFamily::Propagated].misses,
            "{threads}t: propagated blocks come from the snapshot, never recomputed"
        );
        assert!(
            propagated.hits > 0,
            "{threads}t: the loaded blocks must serve"
        );
        assert_eq!(pf2.path_names, pf1.path_names, "{threads}t: block names");
        for (a, b) in pf2.blocks.iter().zip(&pf1.blocks) {
            assert_eq!(a.data, b.data, "{threads}t: propagated block bits");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_snapshots_load_as_clean_cold_misses() {
    let g = Arc::new(tiny(42));
    let spec = CondenseSpec::new(0.3).with_max_hops(2).with_seed(3);
    let dir = temp_dir("corrupt");

    // Persist a genuinely warm snapshot, then a cold reference run.
    let reg1 = ContextRegistry::new();
    let reference = with_threads(1, || FreeHgc::default().condense_shared(&reg1, &g, &spec));
    let path = reg1.persist(&dir, &g).expect("persist");
    let good = std::fs::read(&path).unwrap();
    assert!(good.len() > 64, "snapshot must have real content");

    let mut cases: Vec<(&str, Vec<u8>)> = vec![
        ("truncated to a third", good[..good.len() / 3].to_vec()),
        ("truncated by one byte", good[..good.len() - 1].to_vec()),
        ("empty file", Vec::new()),
    ];
    let mut flipped = good.clone();
    let mid = flipped.len() * 2 / 3;
    flipped[mid] ^= 0x08;
    cases.push(("flipped payload byte", flipped));
    let mut versioned = good.clone();
    versioned[8] = 0xEE; // first byte of the little-endian version field
    cases.push(("wrong format version", versioned));

    for (what, bytes) in cases {
        std::fs::write(&path, &bytes).unwrap();
        for threads in [1usize, 4] {
            let reg = ContextRegistry::new();
            let ctx = reg.resolve(&g, Some(&dir), None).0;
            assert_eq!(
                disk_loads(&reg),
                (0, 1),
                "{what}/{threads}t: a counted rejection, never a load"
            );
            assert_eq!(ctx.composed_len(), 0, "{what}/{threads}t: cold");
            let got = with_threads(threads, || FreeHgc::default().condense_in(&ctx, &spec));
            assert_condensed_equal(&reference, &got, &format!("{what}/{threads}t"));
        }
    }

    // A *valid* snapshot of a different graph copied under this graph's
    // canonical name: the fingerprint check rejects it.
    let g2 = Arc::new(tiny(43));
    assert_ne!(g.fingerprint(), g2.fingerprint(), "distinct fixtures");
    let regx = ContextRegistry::new();
    with_threads(1, || FreeHgc::default().condense_shared(&regx, &g2, &spec));
    let other = regx.persist(&dir, &g2).expect("persist other");
    std::fs::copy(&other, &path).unwrap();
    for threads in [1usize, 4] {
        let reg = ContextRegistry::new();
        let ctx = reg.resolve(&g, Some(&dir), None).0;
        assert_eq!(
            disk_loads(&reg),
            (0, 1),
            "wrong fingerprint/{threads}t: rejected"
        );
        let got = with_threads(threads, || FreeHgc::default().condense_in(&ctx, &spec));
        assert_condensed_equal(&reference, &got, &format!("wrong fingerprint/{threads}t"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The snapshot file format is pinned byte for byte: one fixed warm
/// context (FreeHGC condensation plus feature propagation, so propagated
/// blocks are included) must always encode to the same bytes. A change
/// to the header, entry order, or any entry layout moves the digest —
/// which is a format change and needs a `SNAPSHOT_VERSION` bump, not a
/// new digest.
#[test]
fn snapshot_bytes_match_the_golden_digest() {
    use freehgc::hetgraph::snapshot::encode_snapshot;
    use freehgc::sparse::fx::FxHasher;
    use std::hash::Hasher;

    let g = tiny(43);
    let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(5);
    let ctx = freehgc::hetgraph::CondenseContext::new(&g);
    with_threads(1, || {
        FreeHgc::default().condense_in(&ctx, &spec);
        propagate_ctx(&ctx, 2, 16);
    });
    let bytes = encode_snapshot(&ctx);
    let mut h = FxHasher::default();
    h.write(&bytes);
    assert_eq!(
        (bytes.len(), h.finish()),
        (268_118, 4_651_957_946_707_149_754),
        "snapshot bytes moved: the file format changed"
    );
}
