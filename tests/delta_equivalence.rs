//! Incremental-invalidation equivalence: a context updated through a
//! typed [`GraphDelta`] must be indistinguishable — in every output bit
//! — from a cold rebuild of the mutated graph.
//!
//! Contracts, each exercised at worker-thread counts 1 and 4 (CI
//! additionally runs the whole suite in its `FREEHGC_THREADS` 1/4
//! matrix):
//!
//! * **Bitwise equivalence** — for FreeHGC and every baseline, a
//!   condensation (and feature propagation) served from a delta-seeded
//!   context equals the cold-rebuild result exactly, while the seed
//!   report shows nonzero reuse beyond the schema-only path sets.
//! * **Degenerate deltas** — a delta touching every edge type keeps
//!   nothing derived (full rebuild), and an empty delta is a perfect
//!   no-op: same fingerprint, zero invalidations, everything inherited.
//! * **Cross-restart seeding** — with no live old context, the delta
//!   resolution seeds from the *old* fingerprint's on-disk snapshot,
//!   filtered through the same invalidation rules, and FreeHGC and
//!   every baseline condense from it exactly as from a cold rebuild.

use freehgc::baselines::{
    CoarseningHg, GCondBaseline, GradMatchConfig, HGCondBaseline, HerdingHg, KCenterHg, RandomHg,
};
use freehgc::core::FreeHgc;
use freehgc::datasets::tiny;
use freehgc::hetgraph::{
    CacheFamily, CondenseContext, CondenseSpec, CondensedGraph, Condenser, ContextRegistry,
    GraphDelta, HeteroGraph, SeedReport,
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

/// FreeHGC plus all baselines, gradient-matching ones on quick schedules.
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
    let dir = std::env::temp_dir().join(format!("fhgc-delta-eq-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The first stored edge `(row, col)` of edge type `e` at or after
/// `from_row` (wrapping).
fn some_edge(g: &HeteroGraph, e: freehgc::hetgraph::EdgeTypeId, from_row: usize) -> (u32, u32) {
    let a = g.adjacency(e);
    for i in 0..a.nrows() {
        let r = (from_row + i) % a.nrows();
        if let Some(&c) = a.row_indices(r).first() {
            return (r as u32, c);
        }
    }
    panic!("fixture relation {e:?} has no edges");
}

/// A deterministic "random" delta parameterized by `variant`: touches
/// exactly one relation (remove one edge, add two — one of them
/// weighted and possibly accumulating onto an existing pair) and one
/// target feature row, so plenty of cache entries must survive and
/// plenty must die.
fn one_relation_delta(g: &HeteroGraph, variant: u64) -> GraphDelta {
    let schema = g.schema();
    let e = schema
        .edge_type_ids()
        .next()
        .expect("fixture has relations");
    let a = g.adjacency(e);
    let (r, c) = some_edge(g, e, variant as usize * 7 + 3);
    let t = schema.target();
    let dim = g.features(t).dim();
    let row = (variant as usize * 5 + 1) % g.num_nodes(t);
    let mut d = GraphDelta::new();
    d.remove_edge(e, r, c)
        .add_edge(
            e,
            r,
            ((c as usize + 1 + variant as usize) % a.ncols()) as u32,
        )
        .add_weighted_edge(e, ((r as usize + 2) % a.nrows()) as u32, c, 0.5)
        .update_feature_row(
            t,
            row as u32,
            (0..dim).map(|i| 0.25 * i as f32 - 1.0).collect(),
        );
    d
}

/// Warms every cache family of `ctx` the way a serving process would:
/// one full FreeHGC condensation plus feature propagation.
fn warm(ctx: &CondenseContext<'_>, spec: &CondenseSpec) {
    FreeHgc::default().condense_in(ctx, spec);
    propagate_ctx(ctx, 2, 16);
}

#[test]
fn delta_updated_context_matches_cold_rebuild_for_every_condenser() {
    for threads in [1usize, 4] {
        for variant in [0u64, 1] {
            let what = format!("{threads}t/v{variant}");
            let g_old = Arc::new(tiny(61 + variant));
            let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(5);
            let delta = one_relation_delta(&g_old, variant);
            let mut mutated = (*g_old).clone();
            mutated.apply_delta(&delta);
            let g_new = Arc::new(mutated);
            assert_ne!(
                g_old.fingerprint(),
                g_new.fingerprint(),
                "{what}: the delta must change the graph"
            );

            // Cold reference: a fresh context over the mutated graph.
            let reg_cold = ContextRegistry::new();
            let ctx_cold = reg_cold.context_for(&g_new, &spec);
            let reference: Vec<CondensedGraph> = condensers()
                .iter()
                .map(|c| with_threads(threads, || c.condense_in(&ctx_cold, &spec)))
                .collect();
            let pf_cold = with_threads(threads, || propagate_ctx(&ctx_cold, 2, 16));

            // Delta path: warm the old graph's context, then resolve the
            // mutated graph by inheriting its surviving entries.
            let reg = ContextRegistry::new();
            let ctx_old = reg.context_for(&g_old, &spec);
            with_threads(threads, || warm(&ctx_old, &spec));
            let (ctx_new, report) = reg.resolve(&g_new, None, Some((g_old.fingerprint(), &delta)));
            assert!(
                report.reused() > report[CacheFamily::Paths],
                "{what}: entries beyond the schema-only path sets must survive \
                 a one-relation delta, got {report:?}"
            );
            assert!(
                report.dropped > 0,
                "{what}: the delta must invalidate something, got {report:?}"
            );

            for (c, want) in condensers().iter().zip(&reference) {
                let got = with_threads(threads, || c.condense_in(&ctx_new, &spec));
                assert_condensed_equal(want, &got, &format!("{} delta/{what}", c.name()));
            }
            let pf_new = with_threads(threads, || propagate_ctx(&ctx_new, 2, 16));
            assert_eq!(pf_new.path_names, pf_cold.path_names, "{what}: block names");
            for (a, b) in pf_new.blocks.iter().zip(&pf_cold.blocks) {
                assert_eq!(a.data, b.data, "{what}: propagated block bits");
            }
        }
    }
}

#[test]
fn a_delta_touching_every_edge_type_degenerates_to_a_full_rebuild() {
    let g_old = Arc::new(tiny(71));
    let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(5);
    let mut delta = GraphDelta::new();
    for e in g_old.schema().edge_type_ids() {
        let (r, c) = some_edge(&g_old, e, 0);
        delta.remove_edge(e, r, c);
        delta.add_edge(
            e,
            r,
            (c as usize + 1).rem_euclid(g_old.adjacency(e).ncols()) as u32,
        );
    }
    assert_eq!(
        delta.touched_edges().len(),
        g_old.schema().num_edge_types(),
        "the delta must touch every relation"
    );
    let mut mutated = (*g_old).clone();
    mutated.apply_delta(&delta);
    let g_new = Arc::new(mutated);

    let reg = ContextRegistry::new();
    let ctx_old = reg.context_for(&g_old, &spec);
    with_threads(1, || warm(&ctx_old, &spec));
    let (ctx_new, report) = reg.resolve(&g_new, None, Some((g_old.fingerprint(), &delta)));
    // Every derived family depends on at least one relation, so nothing
    // derived survives — only the schema-only path sets (and any cached
    // "no relation between these types" negatives) carry over.
    assert_eq!(
        report[CacheFamily::Factors],
        0,
        "all factors traverse a touched relation"
    );
    assert_eq!(report[CacheFamily::Composed], 0, "{report:?}");
    assert_eq!(report[CacheFamily::Influence], 0, "{report:?}");
    assert_eq!(report[CacheFamily::Diversity], 0, "{report:?}");
    assert_eq!(report[CacheFamily::Propagated], 0, "{report:?}");
    assert!(report.dropped > 0, "{report:?}");

    // And the rebuild-from-scratch semantics still hold bitwise.
    let reg_cold = ContextRegistry::new();
    let ctx_cold = reg_cold.context_for(&g_new, &spec);
    for threads in [1usize, 4] {
        let want = with_threads(threads, || FreeHgc::default().condense_in(&ctx_cold, &spec));
        let got = with_threads(threads, || FreeHgc::default().condense_in(&ctx_new, &spec));
        assert_condensed_equal(&want, &got, &format!("full-rebuild delta/{threads}t"));
    }
}

#[test]
fn an_empty_delta_is_a_noop_with_zero_invalidations() {
    let g = tiny(81);
    let fp = g.fingerprint();
    let empty = GraphDelta::new();
    assert!(empty.is_empty());
    assert!(empty.touched_edges().is_empty());

    let mut clone = g.clone();
    clone.apply_delta(&empty);
    assert_eq!(
        clone.fingerprint(),
        fp,
        "an empty delta must not change (or even invalidate) the fingerprint"
    );

    let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(5);
    let ctx_old = CondenseContext::new(&g);
    with_threads(1, || warm(&ctx_old, &spec));
    let ctx_new = CondenseContext::new(&clone);
    let report = ctx_new.seed_from(&ctx_old, &empty);
    assert_eq!(report.dropped, 0, "nothing to invalidate: {report:?}");
    assert!(report[CacheFamily::Factors] > 0, "{report:?}");
    assert!(report[CacheFamily::Composed] > 0, "{report:?}");
    assert_eq!(report[CacheFamily::Propagated], 1, "{report:?}");

    // The seeded context serves everything without recomputing: a full
    // FreeHGC run adds no new misses to the inherited families.
    let before = ctx_new.stats();
    let want = with_threads(1, || FreeHgc::default().condense_in(&ctx_old, &spec));
    let got = with_threads(1, || FreeHgc::default().condense_in(&ctx_new, &spec));
    assert_condensed_equal(&want, &got, "empty delta");
    let after = ctx_new.stats();
    assert_eq!(
        after[CacheFamily::Factors].misses,
        before[CacheFamily::Factors].misses,
        "factors re-missed"
    );
    assert_eq!(
        after[CacheFamily::Composed].misses,
        before[CacheFamily::Composed].misses,
        "composed re-missed"
    );
    assert_eq!(
        after[CacheFamily::Influence].misses,
        before[CacheFamily::Influence].misses,
        "influence re-missed"
    );
    assert_eq!(
        after[CacheFamily::Diversity].misses,
        before[CacheFamily::Diversity].misses,
        "diversity re-missed"
    );
}

#[test]
fn delta_resolution_seeds_from_the_old_snapshot_across_restarts() {
    let dir = temp_dir("restart");
    let g_old = Arc::new(tiny(91));
    let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(5);
    let delta = one_relation_delta(&g_old, 0);
    let mut mutated = (*g_old).clone();
    mutated.apply_delta(&delta);
    let g_new = Arc::new(mutated);

    // "Process one": warm the old graph's context through every
    // condenser, so the snapshot also holds what the baselines read
    // (their propagated blocks), and persist it.
    let reg1 = ContextRegistry::new();
    let ctx1 = reg1.context_for(&g_old, &spec);
    with_threads(1, || warm(&ctx1, &spec));
    for c in condensers() {
        with_threads(1, || c.condense_in(&ctx1, &spec));
    }
    reg1.persist(&dir, &g_old).expect("persist");
    let in_memory = CondenseContext::new(&g_new).seed_from(&ctx1, &delta);

    // Cold reference over the mutated graph, for every condenser.
    let reg_cold = ContextRegistry::new();
    let ctx_cold = reg_cold.context_for(&g_new, &spec);
    let reference: Vec<CondensedGraph> = condensers()
        .iter()
        .map(|c| with_threads(1, || c.condense_in(&ctx_cold, &spec)))
        .collect();

    for threads in [1usize, 4] {
        // "Process two": no live old context — the old fingerprint's
        // snapshot, filtered through the delta rules, seeds the resolve.
        let reg2 = ContextRegistry::new();
        let (ctx2, report) = reg2.resolve(&g_new, Some(&dir), Some((g_old.fingerprint(), &delta)));
        assert_eq!(
            disk_loads(&reg2),
            (1, 0),
            "{threads}t: the old snapshot must load (delta-filtered)"
        );
        assert!(report.reused() > 0, "{threads}t: {report:?}");
        assert!(report.dropped > 0, "{threads}t: {report:?}");
        assert_same_persisted_reuse(&report, &in_memory, &format!("{threads}t"));
        for (c, want) in condensers().iter().zip(&reference) {
            let got = with_threads(threads, || c.condense_in(&ctx2, &spec));
            assert_condensed_equal(
                want,
                &got,
                &format!("{} snapshot delta/{threads}t", c.name()),
            );
        }
    }

    // One feature-free edit per relation: influence and diversity
    // entries the delta above wipes out survive some of these, so the
    // per-family agreement is checked where it is not vacuous.
    let mut vectors_kept = 0;
    for e in g_old.schema().edge_type_ids() {
        let (r, c) = some_edge(&g_old, e, 0);
        let mut edit = GraphDelta::new();
        edit.remove_edge(e, r, c);
        let mut mutated = (*g_old).clone();
        mutated.apply_delta(&edit);
        let g_edit = Arc::new(mutated);
        let (_, from_disk) =
            ContextRegistry::new().resolve(&g_edit, Some(&dir), Some((g_old.fingerprint(), &edit)));
        let from_memory = CondenseContext::new(&g_edit).seed_from(&ctx1, &edit);
        assert_same_persisted_reuse(&from_disk, &from_memory, &format!("edit of {e:?}"));
        vectors_kept += from_disk[CacheFamily::Influence] + from_disk[CacheFamily::Diversity];
    }
    assert!(
        vectors_kept > 0,
        "some edit must leave a vector entry alive"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The snapshot-delta loader and in-memory seeding filter through one
/// survival rule, so for one delta they keep exactly the same entries of
/// every family a snapshot persists.
fn assert_same_persisted_reuse(from_disk: &SeedReport, from_memory: &SeedReport, what: &str) {
    for family in [
        CacheFamily::Factors,
        CacheFamily::Composed,
        CacheFamily::Influence,
        CacheFamily::Diversity,
        CacheFamily::Propagated,
    ] {
        assert_eq!(
            from_disk[family], from_memory[family],
            "{what}: snapshot-delta and in-memory seeding disagree on {family:?}"
        );
    }
}
