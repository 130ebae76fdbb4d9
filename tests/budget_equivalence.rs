//! Memory-governance equivalence: the PR-9 unified cache accountant —
//! one byte budget across all four cache families, plus the
//! priority-tiered capped snapshot — must be invisible in every output.
//!
//! Three contracts, each at worker-thread counts 1 and 4 (CI
//! additionally runs the suite in its `FREEHGC_THREADS` 1/4 matrix):
//!
//! * **Budgeted vs unbounded** — a context budgeted to ½ and ¼ of the
//!   unbounded workload footprint must produce bitwise-identical
//!   condensations (FreeHGC and every baseline, over a ratio sweep)
//!   AND bitwise-identical propagated feature blocks, while the peak
//!   resident bytes never exceed the budget at any `stats()` sample.
//! * **Eviction order** — under pressure the propagated family (the
//!   cheapest recompute flops per byte) must absorb evictions.
//! * **Capped snapshot** — a snapshot persisted under a disk byte
//!   ceiling must fit the ceiling, still load as a *valid* partial
//!   context, and serve the reference bits with the dropped tiers
//!   degraded to counted cold misses — never wrong bytes.

use freehgc::baselines::{
    CoarseningHg, GCondBaseline, GradMatchConfig, HGCondBaseline, HerdingHg, KCenterHg, RandomHg,
};
use freehgc::core::FreeHgc;
use freehgc::datasets::tiny;
use freehgc::hetgraph::{
    CacheFamily, CondenseContext, CondenseSpec, CondensedGraph, Condenser, HeteroGraph,
};
use freehgc::hgnn::propagation::{propagate_ctx, PropagatedFeatures, PropagatedFeaturesCodec};
use freehgc::parallel as par;
use std::sync::{Arc, Mutex};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_thread_override(Some(n));
    let out = f();
    par::set_thread_override(None);
    out
}

/// FreeHGC plus all six baselines, gradient-matching ones on quick
/// schedules.
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

fn assert_propagated_equal(a: &PropagatedFeatures, b: &PropagatedFeatures, what: &str) {
    assert_eq!(a.path_names, b.path_names, "{what}: path names");
    assert_eq!(a.blocks.len(), b.blocks.len(), "{what}: block count");
    for (i, (x, y)) in a.blocks.iter().zip(&b.blocks).enumerate() {
        assert_eq!((x.rows, x.cols), (y.rows, y.cols), "{what}: block {i} dims");
        assert_eq!(x.data, y.data, "{what}: block {i} payload bits");
    }
}

const RATIOS: [f64; 2] = [0.15, 0.3];
/// Two hop depths with the first re-requested at the end: a budget that
/// cannot hold both block sets forces the re-request to recompute — the
/// ping-pong that makes the propagated family demonstrably evict.
const PROP_KEYS: [(usize, usize); 3] = [(2, 8), (3, 8), (2, 8)];

fn spec_for(ratio: f64) -> CondenseSpec {
    CondenseSpec::new(ratio).with_max_hops(2).with_seed(9)
}

/// Runs the full workload — every condenser over the ratio sweep, then
/// the propagation keys — on `ctx`, invoking `sample` on the live
/// counters after every step (where the budget invariant is asserted).
fn run_workload(
    ctx: &CondenseContext<'_>,
    sample: &mut dyn FnMut(&freehgc::hetgraph::CacheCounters),
) -> (Vec<CondensedGraph>, Vec<Arc<PropagatedFeatures>>) {
    let mut grids = Vec::new();
    for c in condensers() {
        for ratio in RATIOS {
            grids.push(c.condense_in(ctx, &spec_for(ratio)));
            sample(&ctx.stats());
        }
    }
    let mut props = Vec::new();
    for (hops, paths) in PROP_KEYS {
        props.push(propagate_ctx(ctx, hops, paths));
        sample(&ctx.stats());
    }
    (grids, props)
}

/// The unbounded reference workload (at one worker) and its footprint.
fn reference() -> (
    HeteroGraph,
    Vec<CondensedGraph>,
    Vec<Arc<PropagatedFeatures>>,
    usize,
) {
    let g = tiny(51);
    let unbounded = CondenseContext::new(&g);
    let (grids, props) = with_threads(1, || run_workload(&unbounded, &mut |_| {}));
    let footprint = unbounded.stats().cache_bytes as usize;
    (g, grids, props, footprint)
}

#[test]
fn budgeted_context_is_bitwise_equal_and_never_exceeds_its_budget() {
    let (g, want_grids, want_props, footprint) = reference();
    assert!(footprint > 0, "the reference workload must cache something");

    for divisor in [2usize, 4] {
        let budget = (footprint / divisor).max(1);
        for threads in [1usize, 4] {
            let ctx = CondenseContext::new(&g).with_cache_budget(Some(budget));
            let what = format!("budget 1/{divisor} @ {threads}t");
            let (grids, props) = with_threads(threads, || {
                run_workload(&ctx, &mut |st| {
                    assert!(
                        st.cache_peak_bytes <= budget as u64,
                        "{what}: peak {} exceeded budget {budget}",
                        st.cache_peak_bytes
                    );
                    assert!(
                        st.cache_bytes <= budget as u64,
                        "{what}: resident {} exceeded budget {budget}",
                        st.cache_bytes
                    );
                })
            });
            for ((a, b), i) in want_grids.iter().zip(&grids).zip(0..) {
                assert_condensed_equal(a, b, &format!("{what}: grid cell {i}"));
            }
            for ((a, b), i) in want_props.iter().zip(&props).zip(0..) {
                assert_propagated_equal(a, b, &format!("{what}: propagation {i}"));
            }
            let st = ctx.stats();
            let evictions = st[CacheFamily::Composed].evictions
                + st[CacheFamily::Influence].evictions
                + st[CacheFamily::Diversity].evictions
                + st[CacheFamily::Propagated].evictions;
            let rejected = st[CacheFamily::Composed].rejected
                + st[CacheFamily::Influence].rejected
                + st[CacheFamily::Diversity].rejected
                + st[CacheFamily::Propagated].rejected;
            assert!(
                evictions + rejected > 0,
                "{what}: a fractional budget must actually constrain the caches"
            );
        }
    }
}

#[test]
fn propagated_blocks_are_evicted_first_under_pressure() {
    let (g, _, want_props, footprint) = reference();
    let budget = (footprint / 2).max(1);
    let ctx = CondenseContext::new(&g).with_cache_budget(Some(budget));
    let (_, props) = with_threads(1, || run_workload(&ctx, &mut |_| {}));
    let st = ctx.stats();
    assert!(
        st[CacheFamily::Propagated].evictions > 0,
        "at half the footprint the propagated family (cheapest flops per byte) must \
         absorb evictions, got composed {} influence {} diversity {} propagated {}",
        st[CacheFamily::Composed].evictions,
        st[CacheFamily::Influence].evictions,
        st[CacheFamily::Diversity].evictions,
        st[CacheFamily::Propagated].evictions
    );
    // Evicted-and-recomputed blocks carry the reference bits.
    for ((a, b), i) in want_props.iter().zip(&props).zip(0..) {
        assert_propagated_equal(a, b, &format!("pressured propagation {i}"));
    }
}

#[test]
fn capped_snapshot_loads_as_a_partial_context_and_counts_cold_misses() {
    let (g, want_grids, want_props, _) = reference();
    let warm = CondenseContext::new(&g);
    with_threads(1, || run_workload(&warm, &mut |_| {}));

    let dir = std::env::temp_dir().join(format!("fhgc-budget-equiv-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let full_path = dir.join("full.fhgc");
    warm.save_snapshot(&full_path, Some(&PropagatedFeaturesCodec), None)
        .expect("save full snapshot");
    let full_bytes = std::fs::metadata(&full_path).unwrap().len() as usize;

    let cap = (full_bytes / 2).max(64);
    let capped_path = dir.join("capped.fhgc");
    let dropped = warm
        .save_snapshot(&capped_path, Some(&PropagatedFeaturesCodec), Some(cap))
        .expect("save capped snapshot");
    let capped_bytes = std::fs::metadata(&capped_path).unwrap().len() as usize;
    assert!(
        capped_bytes <= cap,
        "capped file {capped_bytes} B must fit its {cap} B ceiling"
    );
    assert!(
        dropped > 0,
        "half the file size must drop at least one tier"
    );

    // Baseline: a context seeded from the FULL snapshot pays some
    // misses on the workload (paths and oriented maps are never
    // persisted); the capped load must pay strictly more — the dropped
    // tiers come back as cold recomputes, not as wrong bytes.
    let full_misses = {
        let loaded = CondenseContext::new(&g);
        loaded
            .load_snapshot(&full_path, Some(&PropagatedFeaturesCodec))
            .expect("full snapshot loads");
        with_threads(1, || run_workload(&loaded, &mut |_| {}));
        loaded.stats().total_misses()
    };

    for threads in [1usize, 4] {
        let loaded = CondenseContext::new(&g);
        let report = loaded
            .load_snapshot(&capped_path, Some(&PropagatedFeaturesCodec))
            .expect("a capped snapshot is still a valid snapshot");
        assert!(
            report.reused() > 0,
            "{threads}t: the kept tiers must install as a working partial context"
        );
        let (grids, props) = with_threads(threads, || run_workload(&loaded, &mut |_| {}));
        for ((a, b), i) in want_grids.iter().zip(&grids).zip(0..) {
            assert_condensed_equal(a, b, &format!("capped/{threads}t: grid cell {i}"));
        }
        for ((a, b), i) in want_props.iter().zip(&props).zip(0..) {
            assert_propagated_equal(a, b, &format!("capped/{threads}t: propagation {i}"));
        }
        assert!(
            loaded.stats().total_misses() > full_misses,
            "{threads}t: dropped tiers must surface as extra counted cold misses \
             (capped {} vs full {})",
            loaded.stats().total_misses(),
            full_misses
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
