//! Serving-layer equivalence: the PR-4 cache layer on top of
//! [`CondenseContext`] must be invisible in every output.
//!
//! Two independent mechanisms are exercised, each at worker-thread
//! counts 1 and 4 (CI additionally runs the whole suite in its
//! `FREEHGC_THREADS` 1/4 matrix):
//!
//! * **Registry sharing** — condensing through a keyed
//!   [`ContextRegistry`] (graph fingerprint → shared context) must be
//!   bitwise-identical to fresh-per-call condensation, for FreeHGC and
//!   every baseline.
//! * **Diversity-bonus memoization** — a warm context that serves the
//!   Eq. 5–7 bonus from cache must select exactly the nodes a cold
//!   context selects.

use freehgc::baselines::{
    CoarseningHg, GCondBaseline, GradMatchConfig, HGCondBaseline, HerdingHg, KCenterHg, RandomHg,
};
use freehgc::core::selection::{condense_target, SelectionConfig};
use freehgc::core::FreeHgc;
use freehgc::datasets::tiny;
use freehgc::hetgraph::{
    CacheFamily, CondenseContext, CondenseSpec, CondensedGraph, Condenser, ContextRegistry,
    HeteroGraph,
};
use freehgc::hgnn::propagation::propagate_ctx;
use freehgc::parallel as par;
use std::sync::{Arc, Mutex};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// `(hits, misses)` of the registry's lookups.
fn lookups(reg: &ContextRegistry) -> (u64, u64) {
    let s = reg.stats();
    (s.hits, s.misses)
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

#[test]
fn registry_shared_matches_fresh_for_every_condenser() {
    let g = Arc::new(tiny(31));
    // ONE registry for the whole matrix: every method, ratio and thread
    // count resolves the same shared context by fingerprint.
    let registry = ContextRegistry::new();
    for threads in [1usize, 4] {
        for c in condensers() {
            for ratio in [0.15, 0.3] {
                let spec = CondenseSpec::new(ratio).with_max_hops(2).with_seed(5);
                let fresh = with_threads(threads, || c.condense(&g, &spec));
                let shared = with_threads(threads, || c.condense_shared(&registry, &g, &spec));
                assert_condensed_equal(
                    &fresh,
                    &shared,
                    &format!("{} @ ratio {ratio} / {threads}t", c.name()),
                );
            }
        }
    }
    // All specs share the default knobs, so the whole matrix must have
    // resolved to exactly one registered context — and hit it.
    assert_eq!(registry.len(), 1, "one graph, one context");
    let (hits, misses) = lookups(&registry);
    assert_eq!(misses, 1, "only the first resolution may miss");
    assert!(hits > 0, "the sweep must reuse the registered context");
    // Two owners resolving the same graph share that context and, through
    // it, one propagated block set.
    let spec = CondenseSpec::new(0.5);
    let (a, b) = (
        registry.context_for(&g, &spec),
        registry.context_for(&g, &spec),
    );
    assert!(Arc::ptr_eq(&a, &b), "same graph, one shared context");
    assert!(
        Arc::ptr_eq(&propagate_ctx(&a, 2, 16), &propagate_ctx(&b, 2, 16)),
        "the second owner must reuse the first's propagated blocks"
    );
}

#[test]
fn concurrent_cold_key_resolves_exactly_once() {
    // N requests race onto one cold registry key: single-flight must
    // elect exactly one builder and coalesce everyone else, at worker
    // budgets 1 and 4 (CI re-runs the suite across FREEHGC_THREADS too).
    for threads in [1usize, 4] {
        let g = Arc::new(tiny(35 + threads as u64));
        let registry = ContextRegistry::new();
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(1);
        let n = 8;
        let barrier = std::sync::Barrier::new(n);
        let ctxs: Vec<_> = with_threads(threads, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            registry.context_for(&g, &spec)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            })
        });
        assert!(
            ctxs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "{threads}t: all requests must share one context"
        );
        assert_eq!(
            lookups(&registry),
            (n as u64 - 1, 1),
            "{threads}t: exactly one miss (the leader), N-1 hits"
        );
        assert_eq!(
            registry.stats().duplicate_computes,
            0,
            "{threads}t: single-flight must prevent duplicate cold builds"
        );
        assert_eq!(registry.len(), 1);
    }
}

#[test]
fn warm_diversity_bonus_matches_cold_selection() {
    let g = tiny(33);
    let budget = 10;
    let cfg = SelectionConfig::default();
    for threads in [1usize, 4] {
        let cold = with_threads(threads, || {
            condense_target(&CondenseContext::new(&g), budget, &cfg)
        });
        let ctx = CondenseContext::new(&g);
        let first = with_threads(threads, || condense_target(&ctx, budget, &cfg));
        let after_first = ctx.stats()[CacheFamily::Diversity];
        assert!(
            after_first.misses > 0,
            "{threads}t: first run computes bonuses"
        );
        let second = with_threads(threads, || condense_target(&ctx, budget, &cfg));
        let after_second = ctx.stats()[CacheFamily::Diversity];
        assert_eq!(
            after_second.misses, after_first.misses,
            "{threads}t: the warm run must not recompute any bonus"
        );
        assert!(
            after_second.hits > after_first.hits,
            "{threads}t: the warm run must hit the diversity cache"
        );
        assert_eq!(cold.selected, first.selected, "{threads}t: cold vs fresh");
        assert_eq!(first.selected, second.selected, "{threads}t: cold vs warm");
        assert_eq!(first.scores, second.scores, "{threads}t: scores bitwise");
    }
}

#[test]
fn ratio_sweep_through_one_context_reuses_diversity_bonuses() {
    // The motivating workload: a ratio sweep on one graph. The bonus
    // depends on neither ratio nor seed, so only the first run may miss.
    let g = tiny(34);
    let ctx = CondenseContext::new(&g);
    let c = FreeHgc::default();
    let mut misses_after_first = None;
    for (i, ratio) in [0.1, 0.2, 0.3].into_iter().enumerate() {
        for seed in [0u64, 7] {
            let spec = CondenseSpec::new(ratio).with_max_hops(2).with_seed(seed);
            let shared = c.condense_in(&ctx, &spec);
            let fresh = c.condense(&g, &spec);
            assert_condensed_equal(&fresh, &shared, &format!("ratio {ratio} seed {seed}"));
        }
        if i == 0 {
            misses_after_first = Some(ctx.stats()[CacheFamily::Diversity].misses);
        }
    }
    let st = ctx.stats()[CacheFamily::Diversity];
    assert_eq!(
        Some(st.misses),
        misses_after_first,
        "later ratios/seeds must not add diversity misses"
    );
    assert!(st.hits > 0, "the sweep must hit the diversity cache");
}
