//! Reproducible benchmark harness: measures the serial vs parallel
//! wall-time of every hot kernel at fixed scales and writes a
//! machine-readable `BENCH_*.json` so later PRs have a perf trajectory
//! to regress against.
//!
//! ```bash
//! cargo run --release -p freehgc_bench --bin bench_report            # full scales → BENCH_PR10.json
//! cargo run --release -p freehgc_bench --bin bench_report -- --quick # smoke scales
//! cargo run --release -p freehgc_bench --bin bench_report -- --threads=8 --out=path.json
//! ```
//!
//! Every kernel is timed twice through the *same* public entry point:
//! once with the thread override pinned to 1 (the serial escape hatch)
//! and once at `--threads` (default 4). The harness also asserts the
//! two results are bitwise-equal and records that bit in the JSON —
//! a perf report that silently changed numerics would be worthless.
//!
//! The `sweep` section measures the shared-[`CondenseContext`] reuse: a
//! ratio × method sweep run cold (a fresh context per condensation, the
//! pre-context behaviour) versus warm (one context shared across the
//! whole sweep), asserting the condensed graphs are bitwise-equal and
//! recording the wall times and cache hit/miss counters — including the
//! memoized diversity-bonus cache, which a warm ratio sweep must hit.
//! Two further legs exercise the PR-4 serving layer: a *registry* leg
//! resolves every condensation through a keyed [`ContextRegistry`] (the
//! cross-request sharing path), and an *evicting* leg runs the same
//! sweep through a context whose composed cache is byte-budgeted,
//! asserting the peak resident bytes never exceed the budget and the
//! outputs still match the cold reference bitwise. Unlike the kernel
//! speedups these wins are algorithmic, so they show up even on a
//! single-core runner.
//!
//! The *snapshot* legs (PR 5) exercise the on-disk warm-start path: the
//! warm context is persisted to a versioned snapshot file, a fresh
//! registry (standing in for a restarted process) resolves it back via
//! `resolve` with the snapshot directory, and the identical grid reruns from the loaded
//! precompute — asserting bitwise equality against the cold reference
//! and a nonzero snapshot-load count. A final corruption probe flips
//! one byte in the file and asserts the loader rejects it, counts the
//! rejection, and still produces the cold-reference bits from scratch.
//!
//! The *delta* leg (PR 6) exercises incremental invalidation: a typed
//! `GraphDelta` edits one relation, and the mutated graph's context is
//! resolved three ways — cold rebuild, in-process delta seeding from
//! the old context, and delta-filtered load of the *old* fingerprint's
//! snapshot — asserting all three produce bitwise-identical
//! condensations for FreeHGC and every baseline, that the delta paths
//! reuse a nonzero number of entries, that the in-process delta beats
//! the cold rebuild on wall time, and (at full scale, where the
//! precompute dwarfs file I/O) that the snapshot-seeded delta does
//! too.
//!
//! The *micro* leg (PR 8) measures the kernel rework head-to-head: each
//! reworked kernel is timed serially (thread override pinned to 1)
//! against the retained pre-rework reference implementation on the same
//! operands, its output is checked bitwise against the canonical oracle
//! (for SpMV the canonical-lane reference, which is also its baseline;
//! for `matmul_nt` the canonical-lane reference — the rework *changed*
//! its reduction order, so the retained sequential kernel is a timing
//! baseline only), and the workspace-pool counters are
//! sampled over a steady-state loop to prove the iterative callers
//! allocate nothing per call. Two of the rows back hard throughput
//! gates: the dense-accumulator SpGEMM must beat the naive
//! hash/sort-based reference by ≥ 1.5× and the register-blocked
//! sparse × dense product must beat its predecessor by ≥ 1.2×.
//!
//! The *memory* leg (PR 9) drills the unified cache accountant: one
//! workload (a condensation grid plus feature propagation at several
//! hop depths, so all four cache families — composed, influence,
//! diversity, propagated — hold bytes) runs unbounded to measure its
//! footprint, then reruns under a budget of half that footprint. The
//! leg asserts the peak resident bytes never exceed the budget at any
//! `stats()` sample, that the propagated family (cheapest recompute
//! cost per byte) absorbed evictions, and that the outputs — condensed
//! graphs AND propagated blocks — stay bitwise-equal; the slowdown
//! column prices what half the memory costs in recompute time. A
//! second half persists the warm context under a disk ceiling of half
//! its full snapshot size: the capped file must fit the cap, must have
//! dropped at least one cheap tier, and must load as a valid partial
//! context that still serves the reference bits.
//!
//! The *chaos* leg (PR 7) drills the failure-hardened serving layer:
//! concurrent clients resolve one registry key and condense through it
//! while deterministic faults fire underneath (compiled in with
//! `--features failpoints`; without the feature the same traffic runs
//! fault-free and the leg degenerates to a concurrency smoke). It
//! asserts every response is bitwise-equal to the fault-free
//! reference, that single-flight allowed zero duplicate cold computes,
//! and that each recovery was counted.
//!
//! The *serve* leg (PR 10) drives the condensation service end to end:
//! eight concurrent clients run a method × ratio grid through
//! [`ServeHandle`]'s request path (validate → single-flight → registry
//! fast-path peek → bounded worker pool), first cold and then warm,
//! asserting every `Condensed` reply is bitwise-equal to a direct
//! `condense_shared` on a fresh registry and that the warm p95 latency
//! beats the cold p95 (the fast path answers from the registry without
//! touching the pool). Two deterministic probes pin down the
//! concurrency contracts: a blocked single-worker pool forces eight
//! identical in-flight requests to coalesce onto one leader
//! (`duplicate_computes` must stay 0), and a saturated depth-1 queue
//! must answer with typed `Overloaded` backpressure, then serve the
//! identical bits once the queue drains. A TCP smoke runs one
//! ping + condense through the framed wire protocol and checks the
//! socket path returns the same bytes as the in-process path.

use freehgc_baselines::{
    CoarseningHg, GCondBaseline, GradMatchConfig, HGCondBaseline, HerdingHg, KCenterHg, RandomHg,
};
use freehgc_core::selection::{condense_target, SelectionConfig};
use freehgc_core::FreeHgc;
use freehgc_datasets::{generate, DatasetKind};
use freehgc_eval::{drive_clients, percentile_ms, InProcess};
use freehgc_hetgraph::snapshot::snapshot_file_name;
use freehgc_hetgraph::{
    CacheCounters, CondenseContext, CondenseSpec, CondensedGraph, Condenser, ContextRegistry,
    GraphDelta, HeteroGraph,
};
use freehgc_hgnn::propagation::{
    propagate, propagate_ctx, PropagatedFeatures, PropagatedFeaturesCodec,
};
use freehgc_parallel as par;
use freehgc_parallel::workspace as ws;
use freehgc_parallel::WorkerPool;
use freehgc_serve::{
    default_methods, wire, ErrorCode, GraphRef, Reply, Request, ServeClient, ServeConfig,
    ServeHandle, TcpServer,
};
use freehgc_sparse::ppr::{ppr_push, ppr_push_into, PprConfig};
use freehgc_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

struct KernelRow {
    name: String,
    serial_ms: f64,
    parallel_ms: f64,
    bitwise_equal: bool,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }
}

/// Best-of-`reps` wall time in milliseconds plus the last output (for
/// the bitwise-equality check). One untimed warmup run precedes the
/// timed ones.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// Times `f` serially (override 1) and at `threads`, checking the two
/// outputs are identical.
fn measure<T: PartialEq>(
    name: &str,
    reps: usize,
    threads: usize,
    mut f: impl FnMut() -> T,
) -> KernelRow {
    par::set_thread_override(Some(1));
    let (serial_ms, serial_out) = time_best(reps, &mut f);
    par::set_thread_override(Some(threads));
    let (parallel_ms, parallel_out) = time_best(reps, &mut f);
    par::set_thread_override(None);
    let row = KernelRow {
        name: name.to_string(),
        serial_ms,
        parallel_ms,
        bitwise_equal: serial_out == parallel_out,
    };
    eprintln!(
        "{:<28} serial {:>9.3} ms   {}t {:>9.3} ms   speedup {:>5.2}x   bitwise_equal={}",
        row.name,
        row.serial_ms,
        threads,
        row.parallel_ms,
        row.speedup(),
        row.bitwise_equal
    );
    row
}

fn random_sparse(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(rows * nnz_per_row);
    for r in 0..rows {
        for _ in 0..nnz_per_row {
            edges.push((r as u32, rng.gen_range(0..cols as u32)));
        }
    }
    CsrMatrix::from_edges(rows, cols, &edges)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Structural equality of two heterogeneous graphs: same per-type node
/// counts, adjacencies, features, labels and split, bit for bit.
fn graphs_equal(a: &HeteroGraph, b: &HeteroGraph) -> bool {
    let schema = a.schema();
    schema
        .node_type_ids()
        .all(|t| a.num_nodes(t) == b.num_nodes(t) && a.features(t) == b.features(t))
        && schema
            .edge_type_ids()
            .all(|e| a.adjacency(e) == b.adjacency(e))
        && a.labels() == b.labels()
        && a.split() == b.split()
}

fn condensed_equal(a: &CondensedGraph, b: &CondensedGraph) -> bool {
    a.orig_ids == b.orig_ids && graphs_equal(&a.graph, &b.graph)
}

/// Bitwise equality of two propagated block sets (`f32` payloads
/// compared bit-for-bit via `==` on the raw data).
fn pf_equal(a: &PropagatedFeatures, b: &PropagatedFeatures) -> bool {
    a.path_names == b.path_names
        && a.blocks.len() == b.blocks.len()
        && a.blocks
            .iter()
            .zip(&b.blocks)
            .all(|(x, y)| x.rows == y.rows && x.cols == y.cols && x.data == y.data)
}

/// Evictions summed across all four accountant families.
fn total_evictions(c: &CacheCounters) -> u64 {
    c.composed_evictions + c.influence_evictions + c.diversity_evictions + c.propagated_evictions
}

/// Admission rejections summed across all four accountant families.
fn total_rejected(c: &CacheCounters) -> u64 {
    c.composed_rejected + c.influence_rejected + c.diversity_rejected + c.propagated_rejected
}

struct SweepReport {
    dataset: String,
    ratios: Vec<f64>,
    methods: Vec<String>,
    cold_ms: f64,
    warm_ms: f64,
    bitwise_equal: bool,
    cache: CacheCounters,
    registry_ms: f64,
    registry_equal: bool,
    registry_hits: u64,
    registry_misses: u64,
    evict_ms: f64,
    evict_equal: bool,
    evict_budget_bytes: usize,
    evict_cache: CacheCounters,
    snapshot_save_ms: f64,
    snapshot_load_ms: f64,
    snapshot_ms: f64,
    snapshot_equal: bool,
    snapshot_load_hits: u64,
    snapshot_file_bytes: u64,
    corrupt_ms: f64,
    corrupt_equal: bool,
    corrupt_rejections: u64,
}

impl SweepReport {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(1e-9)
    }
}

/// Cold-context vs warm-context wall time over a ratio × method sweep on
/// one graph, plus the registry and evicting legs. "Cold" condenses
/// through `Condenser::condense` (a fresh context per call — the
/// pre-context behaviour); "warm" condenses the same (method, ratio)
/// grid through one shared context; "registry" resolves each call
/// through a keyed `ContextRegistry`; "evicting" reruns the grid with
/// the composed cache budgeted to half its unbounded footprint.
fn run_sweep(quick: bool) -> SweepReport {
    let scale = if quick { 0.1 } else { 0.3 };
    let g = generate(DatasetKind::Acm, scale, 42);
    let ratios = vec![0.05f64, 0.1, 0.2];
    let methods: Vec<Box<dyn Condenser>> = vec![Box::new(FreeHgc::default()), Box::new(HerdingHg)];
    let spec_for = |r: f64| CondenseSpec::new(r).with_max_hops(3).with_seed(7);

    // One timed pass over the identical (method, ratio) grid per leg —
    // only the per-cell condensation call differs, so every leg's
    // output vector is cell-for-cell comparable to the cold reference.
    let run_grid = |condense_cell: &dyn Fn(&dyn Condenser, f64) -> CondensedGraph| {
        let t = Instant::now();
        let mut out: Vec<CondensedGraph> = Vec::new();
        for m in &methods {
            for &r in &ratios {
                out.push(condense_cell(m.as_ref(), r));
            }
        }
        (out, t.elapsed().as_secs_f64() * 1e3)
    };

    let (cold, cold_ms) = run_grid(&|m, r| m.condense(&g, &spec_for(r)));

    let ctx = CondenseContext::new(&g);
    let (warm, warm_ms) = run_grid(&|m, r| m.condense_in(&ctx, &spec_for(r)));

    let matches_cold = |other: &[CondensedGraph]| {
        cold.len() == other.len() && cold.iter().zip(other).all(|(a, b)| condensed_equal(a, b))
    };
    let bitwise_equal = matches_cold(&warm);

    // Registry leg: every condensation resolves its context by graph
    // fingerprint, the way concurrent serving requests would.
    let ga = Arc::new(g.clone());
    let registry = ContextRegistry::new();
    let (through_registry, registry_ms) =
        run_grid(&|m, r| m.condense_shared(&registry, &ga, &spec_for(r)));
    let registry_equal = matches_cold(&through_registry);
    let (registry_hits, registry_misses) = (registry.stats().hits, registry.stats().misses);

    // Evicting leg: budget the unified accountant to half its unbounded
    // footprint, forcing cost-aware eviction while outputs stay fixed.
    let evict_budget_bytes = (ctx.cache_bytes() / 2).max(1);
    let evicting = CondenseContext::new(&g).with_cache_budget(Some(evict_budget_bytes));
    let (evicted, evict_ms) = run_grid(&|m, r| m.condense_in(&evicting, &spec_for(r)));
    let evict_equal = matches_cold(&evicted);

    // Snapshot legs: persist the warm context, then a fresh registry —
    // a stand-in for a restarted process — loads it from disk and
    // reruns the identical grid from the loaded precompute.
    let snap_dir = std::env::temp_dir().join(format!("fhgc-bench-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");
    let knobs = spec_for(0.05);
    let snap_path = snap_dir.join(snapshot_file_name(
        g.fingerprint(),
        knobs.max_row_nnz,
        knobs.cache_budget(),
    ));
    let t = Instant::now();
    ctx.save_snapshot(&snap_path, Some(&PropagatedFeaturesCodec), None)
        .expect("save snapshot");
    let snapshot_save_ms = t.elapsed().as_secs_f64() * 1e3;
    let snapshot_file_bytes = std::fs::metadata(&snap_path).map_or(0, |m| m.len());

    let loaded_registry = ContextRegistry::new();
    let t = Instant::now();
    let loaded = loaded_registry
        .resolve(
            &ga,
            &knobs,
            Some(&snap_dir),
            Some(&PropagatedFeaturesCodec),
            None,
        )
        .0;
    let snapshot_load_ms = t.elapsed().as_secs_f64() * 1e3;
    let (from_disk, snapshot_ms) = run_grid(&|m, r| m.condense_in(&loaded, &spec_for(r)));
    let snapshot_equal = matches_cold(&from_disk);
    let snapshot_load_hits = loaded_registry.stats().snapshot_loads;

    // Corruption probe: one flipped byte must reject as a clean cold
    // miss — counted, un-panicking, and still bit-correct from scratch.
    let mut corrupted = std::fs::read(&snap_path).expect("read snapshot back");
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x10;
    std::fs::write(&snap_path, &corrupted).expect("write corrupted snapshot");
    let corrupt_registry = ContextRegistry::new();
    let cold_again = corrupt_registry
        .resolve(
            &ga,
            &knobs,
            Some(&snap_dir),
            Some(&PropagatedFeaturesCodec),
            None,
        )
        .0;
    // Grid time only — same measurement as the snapshot and cold legs,
    // so the three `ms` fields stay directly comparable.
    let (after_corruption, corrupt_ms) = run_grid(&|m, r| m.condense_in(&cold_again, &spec_for(r)));
    let corrupt_equal = matches_cold(&after_corruption);
    let corrupt_rejections = corrupt_registry.stats().snapshot_rejections;
    std::fs::remove_dir_all(&snap_dir).ok();

    let report = SweepReport {
        dataset: "acm".to_string(),
        ratios,
        methods: methods.iter().map(|m| m.name().to_string()).collect(),
        cold_ms,
        warm_ms,
        bitwise_equal,
        cache: ctx.stats(),
        registry_ms,
        registry_equal,
        registry_hits,
        registry_misses,
        evict_ms,
        evict_equal,
        evict_budget_bytes,
        evict_cache: evicting.stats(),
        snapshot_save_ms,
        snapshot_load_ms,
        snapshot_ms,
        snapshot_equal,
        snapshot_load_hits,
        snapshot_file_bytes,
        corrupt_ms,
        corrupt_equal,
        corrupt_rejections,
    };
    eprintln!(
        "sweep ({} × {} ratios)        cold {:>9.3} ms   warm {:>9.3} ms   speedup {:>5.2}x   \
         cache {} hits / {} misses   diversity {} hits   bitwise_equal={}",
        report.methods.join("+"),
        report.ratios.len(),
        report.cold_ms,
        report.warm_ms,
        report.speedup(),
        report.cache.total_hits(),
        report.cache.total_misses(),
        report.cache.diversity.0,
        report.bitwise_equal
    );
    eprintln!(
        "  registry leg {:>9.3} ms   lookups {} hits / {} misses   bitwise_equal={}",
        report.registry_ms, report.registry_hits, report.registry_misses, report.registry_equal
    );
    eprintln!(
        "  evicting leg {:>9.3} ms   budget {} B   peak {} B   evictions {}   rejected {}   \
         bitwise_equal={}",
        report.evict_ms,
        report.evict_budget_bytes,
        report.evict_cache.cache_peak_bytes,
        total_evictions(&report.evict_cache),
        total_rejected(&report.evict_cache),
        report.evict_equal
    );
    eprintln!(
        "  snapshot leg {:>9.3} ms (save {:.3} ms, load {:.3} ms, {} B file)   loads {}   \
         bitwise_equal={}",
        report.snapshot_ms,
        report.snapshot_save_ms,
        report.snapshot_load_ms,
        report.snapshot_file_bytes,
        report.snapshot_load_hits,
        report.snapshot_equal
    );
    eprintln!(
        "  corruption probe {:>9.3} ms   rejections {}   bitwise_equal={}",
        report.corrupt_ms, report.corrupt_rejections, report.corrupt_equal
    );
    report
}

struct DeltaReport {
    cold_ms: f64,
    warm_ms: f64,
    snapshot_ms: f64,
    reused_entries: usize,
    dropped_entries: usize,
    snapshot_reused_entries: usize,
    snapshot_loads: u64,
    bitwise_equal: bool,
}

/// FreeHGC plus every baseline (gradient-matching ones on quick
/// schedules) — the delta leg's bitwise contract covers all of them.
fn all_condensers() -> Vec<Box<dyn Condenser>> {
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

/// Incremental-invalidation leg: mutate one relation (remove + add one
/// edge) plus one target feature row through a typed `GraphDelta`, then
/// resolve the mutated graph's context cold, delta-seeded in-process,
/// and delta-filtered from the *old* fingerprint's snapshot. The timed
/// unit per path is context resolution plus the precompute-heavy
/// workload a serving process pays on a graph swap (one FreeHGC
/// condensation and feature propagation); the warm paths inherit the
/// surviving entries, so they must beat the cold rebuild.
fn run_delta_leg(quick: bool) -> DeltaReport {
    // Full scale is sized so the context precompute dwarfs the fixed
    // snapshot-file read/checksum cost — the regime the delta paths are
    // for. (--quick keeps a toy graph where that fixed cost is on the
    // order of the whole rebuild, so only the in-process bound is
    // asserted there.)
    let scale = if quick { 0.1 } else { 0.5 };
    let g_old = Arc::new(generate(DatasetKind::Acm, scale, 43));
    let spec = CondenseSpec::new(0.1).with_max_hops(4).with_seed(7);
    let reps = if quick { 2usize } else { 3 };

    // Edges-only delta on the *last* relation (for ACM the
    // subject-side one): a typical traffic update that leaves the
    // feature matrices — and with them the propagated blocks, the most
    // expensive cached artifact — untouched, so the delta paths get to
    // show their reuse. Feature deltas are covered by the equivalence
    // suite (`tests/delta_equivalence.rs`).
    let schema = g_old.schema();
    let e = schema
        .edge_type_ids()
        .last()
        .expect("fixture has relations");
    let adj = g_old.adjacency(e);
    let (r, c) = (0..adj.nrows())
        .find_map(|row| adj.row_indices(row).first().map(|&col| (row as u32, col)))
        .expect("fixture relation has edges");
    let mut delta = GraphDelta::new();
    delta
        .remove_edge(e, r, c)
        .add_edge(e, r, ((c as usize + 1) % adj.ncols()) as u32);
    let mut mutated = (*g_old).clone();
    mutated.apply_delta(&delta);
    let g_new = Arc::new(mutated);

    let warm_up = |ctx: &CondenseContext<'static>| {
        FreeHgc::default().condense_in(ctx, &spec);
        propagate_ctx(ctx, 2, 12);
    };

    // Cold rebuild: fresh registry per rep, nothing to inherit.
    let mut cold_ms = f64::INFINITY;
    let mut ctx_cold = None;
    for _ in 0..reps {
        let reg = ContextRegistry::new();
        let t0 = Instant::now();
        let ctx = reg.context_for(&g_new, &spec);
        warm_up(&ctx);
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        ctx_cold = Some(ctx);
    }
    let ctx_cold = ctx_cold.expect("reps >= 1");

    // In-process delta: the old graph's context is already warm (a
    // serving process mid-flight); timed is the seeded resolve plus the
    // same workload.
    let mut warm_ms = f64::INFINITY;
    let mut reused_entries = 0usize;
    let mut dropped_entries = 0usize;
    let mut ctx_delta = None;
    for _ in 0..reps {
        let reg = ContextRegistry::new();
        let old_ctx = reg.context_for(&g_old, &spec);
        warm_up(&old_ctx);
        let t0 = Instant::now();
        let (ctx, report) = reg.resolve(
            &g_new,
            &spec,
            None,
            None,
            Some((g_old.fingerprint(), &delta)),
        );
        warm_up(&ctx);
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        reused_entries = report.reused();
        dropped_entries = report.dropped;
        ctx_delta = Some(ctx);
    }
    let ctx_delta = ctx_delta.expect("reps >= 1");

    // Snapshot-seeded delta: persist the OLD fingerprint's snapshot,
    // then fresh registries (restarted processes) resolve the mutated
    // graph by delta-filtering that file.
    let snap_dir = std::env::temp_dir().join(format!("fhgc-bench-delta-{}", std::process::id()));
    std::fs::create_dir_all(&snap_dir).expect("create delta snapshot dir");
    {
        let reg = ContextRegistry::new();
        let old_ctx = reg.context_for(&g_old, &spec);
        warm_up(&old_ctx);
        reg.persist(&snap_dir, &g_old, &spec, Some(&PropagatedFeaturesCodec))
            .expect("persist old snapshot");
    }
    let mut snapshot_ms = f64::INFINITY;
    let mut snapshot_reused_entries = 0usize;
    let mut snapshot_loads = 0u64;
    let mut ctx_snap = None;
    for _ in 0..reps {
        let reg = ContextRegistry::new();
        let t0 = Instant::now();
        let (ctx, report) = reg.resolve(
            &g_new,
            &spec,
            Some(&snap_dir),
            Some(&PropagatedFeaturesCodec),
            Some((g_old.fingerprint(), &delta)),
        );
        warm_up(&ctx);
        snapshot_ms = snapshot_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        snapshot_reused_entries = report.reused();
        snapshot_loads = reg.stats().snapshot_loads;
        ctx_snap = Some(ctx);
    }
    let ctx_snap = ctx_snap.expect("reps >= 1");
    std::fs::remove_dir_all(&snap_dir).ok();

    // The contract: every condenser produces identical bits on all
    // three contexts.
    let bitwise_equal = all_condensers().iter().all(|m| {
        let want = m.condense_in(&ctx_cold, &spec);
        condensed_equal(&want, &m.condense_in(&ctx_delta, &spec))
            && condensed_equal(&want, &m.condense_in(&ctx_snap, &spec))
    });

    let report = DeltaReport {
        cold_ms,
        warm_ms,
        snapshot_ms,
        reused_entries,
        dropped_entries,
        snapshot_reused_entries,
        snapshot_loads,
        bitwise_equal,
    };
    eprintln!(
        "delta leg                    cold {:>9.3} ms   warm {:>9.3} ms   snapshot {:>9.3} ms   \
         reused {} (+{} from disk)   dropped {}   bitwise_equal={}",
        report.cold_ms,
        report.warm_ms,
        report.snapshot_ms,
        report.reused_entries,
        report.snapshot_reused_entries,
        report.dropped_entries,
        report.bitwise_equal
    );
    report
}

struct MemoryReport {
    footprint_bytes: u64,
    budget_bytes: usize,
    unbounded_ms: f64,
    budgeted_ms: f64,
    peak_bytes: u64,
    composed_evictions: u64,
    influence_evictions: u64,
    diversity_evictions: u64,
    propagated_evictions: u64,
    rejected: u64,
    bitwise_equal: bool,
    snapshot_full_bytes: u64,
    snapshot_cap_bytes: usize,
    snapshot_file_bytes: u64,
    snapshot_dropped_sections: usize,
    capped_installed: usize,
    capped_equal: bool,
}

impl MemoryReport {
    /// What half the memory costs in wall time: budgeted / unbounded.
    fn slowdown(&self) -> f64 {
        self.budgeted_ms / self.unbounded_ms.max(1e-9)
    }
}

/// Memory-governance leg (PR 9): one workload that puts bytes in all
/// four accountant families runs unbounded to measure its footprint,
/// then again under a budget of half that footprint — peak resident
/// bytes must stay under the budget at every `stats()` sample, the
/// propagated family (cheapest recompute flops per byte) must absorb
/// evictions, and every output must match the unbounded run bitwise.
/// The disk half persists the warm context capped at half its full
/// snapshot size and proves the capped file fits, dropped at least one
/// tier, and still loads into a working partial context.
fn run_memory_leg(quick: bool) -> MemoryReport {
    let scale = if quick { 0.1 } else { 0.3 };
    let g = generate(DatasetKind::Acm, scale, 45);
    let ratios = [0.05f64, 0.1, 0.2];
    let methods: Vec<Box<dyn Condenser>> = vec![Box::new(FreeHgc::default()), Box::new(HerdingHg)];
    let spec_for = |r: f64| CondenseSpec::new(r).with_max_hops(3).with_seed(7);
    // Two hop depths, with the first re-requested at the end: under
    // pressure the budget cannot hold both block sets, so the re-request
    // finds its entry evicted and recomputes — the ping-pong that
    // guarantees the propagated family actually exercises eviction.
    let prop_keys = [(2usize, 12usize), (3, 12), (2, 12)];

    let run_workload = |ctx: &CondenseContext<'_>| {
        let t = Instant::now();
        let mut grids: Vec<CondensedGraph> = Vec::new();
        let mut peak = 0u64;
        for m in &methods {
            for &r in &ratios {
                grids.push(m.condense_in(ctx, &spec_for(r)));
                peak = peak.max(ctx.stats().cache_peak_bytes);
            }
        }
        let mut props = Vec::new();
        for &(h, p) in &prop_keys {
            props.push(propagate_ctx(ctx, h, p));
            peak = peak.max(ctx.stats().cache_peak_bytes);
        }
        (grids, props, peak, t.elapsed().as_secs_f64() * 1e3)
    };

    let unbounded = CondenseContext::new(&g);
    let (grid_u, props_u, _, unbounded_ms) = run_workload(&unbounded);
    let footprint_bytes = unbounded.stats().cache_bytes;
    let budget_bytes = (footprint_bytes as usize / 2).max(1);

    let budgeted = CondenseContext::new(&g).with_cache_budget(Some(budget_bytes));
    let (grid_b, props_b, peak_bytes, budgeted_ms) = run_workload(&budgeted);
    let bc = budgeted.stats();
    let bitwise_equal = grid_u.len() == grid_b.len()
        && grid_u
            .iter()
            .zip(&grid_b)
            .all(|(a, b)| condensed_equal(a, b))
        && props_u.iter().zip(&props_b).all(|(a, b)| pf_equal(a, b));

    // Disk half: the capped snapshot keeps whole sections in descending
    // recompute-cost-per-byte order while the file fits the cap.
    let dir = std::env::temp_dir().join(format!("fhgc-bench-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create memory snapshot dir");
    let full_path = dir.join("full.fhgc");
    unbounded
        .save_snapshot(&full_path, Some(&PropagatedFeaturesCodec), None)
        .expect("save full snapshot");
    let snapshot_full_bytes = std::fs::metadata(&full_path).map_or(0, |m| m.len());
    let snapshot_cap_bytes = (snapshot_full_bytes as usize / 2).max(64);
    let capped_path = dir.join("capped.fhgc");
    let snapshot_dropped_sections = unbounded
        .save_snapshot(
            &capped_path,
            Some(&PropagatedFeaturesCodec),
            Some(snapshot_cap_bytes),
        )
        .expect("save capped snapshot");
    let snapshot_file_bytes = std::fs::metadata(&capped_path).map_or(0, |m| m.len());

    // A capped file is a *valid* snapshot of a partial context: loading
    // must succeed, and the workload must recompute the dropped tiers
    // as ordinary cold misses while serving the reference bits.
    let loaded = CondenseContext::new(&g);
    let load_report = loaded
        .load_snapshot(&capped_path, Some(&PropagatedFeaturesCodec))
        .expect("capped snapshot must load as a valid partial context");
    let capped_installed = load_report.installed();
    let (grid_l, props_l, _, _) = run_workload(&loaded);
    let capped_equal = grid_u.len() == grid_l.len()
        && grid_u
            .iter()
            .zip(&grid_l)
            .all(|(a, b)| condensed_equal(a, b))
        && props_u.iter().zip(&props_l).all(|(a, b)| pf_equal(a, b));
    std::fs::remove_dir_all(&dir).ok();

    let report = MemoryReport {
        footprint_bytes,
        budget_bytes,
        unbounded_ms,
        budgeted_ms,
        peak_bytes,
        composed_evictions: bc.composed_evictions,
        influence_evictions: bc.influence_evictions,
        diversity_evictions: bc.diversity_evictions,
        propagated_evictions: bc.propagated_evictions,
        rejected: total_rejected(&bc),
        bitwise_equal,
        snapshot_full_bytes,
        snapshot_cap_bytes,
        snapshot_file_bytes,
        snapshot_dropped_sections,
        capped_installed,
        capped_equal,
    };
    eprintln!(
        "memory leg                   footprint {} B   budget {} B   peak {} B   \
         unbounded {:>9.3} ms   budgeted {:>9.3} ms   slowdown {:>5.2}x   bitwise_equal={}",
        report.footprint_bytes,
        report.budget_bytes,
        report.peak_bytes,
        report.unbounded_ms,
        report.budgeted_ms,
        report.slowdown(),
        report.bitwise_equal
    );
    eprintln!(
        "  evictions composed {} influence {} diversity {} propagated {}   rejected {}",
        report.composed_evictions,
        report.influence_evictions,
        report.diversity_evictions,
        report.propagated_evictions,
        report.rejected
    );
    eprintln!(
        "  capped snapshot {} B (cap {} B, full {} B)   dropped {} sections   installed {}   \
         bitwise_equal={}",
        report.snapshot_file_bytes,
        report.snapshot_cap_bytes,
        report.snapshot_full_bytes,
        report.snapshot_dropped_sections,
        report.capped_installed,
        report.capped_equal
    );
    report
}

struct ChaosReport {
    clients: usize,
    requests_per_client: usize,
    ms: f64,
    failpoints_compiled: bool,
    faults_injected: u64,
    panics_recovered: u64,
    singleflight_coalesced: u64,
    io_retries: u64,
    tmp_files_swept: u64,
    duplicate_computes: u64,
    snapshot_loads: u64,
    snapshot_rejections: u64,
    bitwise_equal: bool,
    served_after_faults: bool,
}

/// Failure-hardening leg (PR 7): N concurrent clients hammer one
/// registry key through a snapshot-backed `resolve` + `condense_shared` while
/// deterministic faults fire underneath — injected snapshot-read I/O
/// errors, a panicking leader build, panicking condensations, a torn
/// snapshot write, composed-cache and whole-accountant pressure
/// spikes, and an orphaned temp file from a "crashed" earlier writer. The contract being measured:
/// every client completes (no hangs, no deaths), every response is
/// bitwise-identical to the fault-free reference, no cold compute is
/// duplicated, and every recovery is counted. Without the `failpoints`
/// feature the same traffic runs fault-free (the counters record that).
fn run_chaos_leg(quick: bool) -> ChaosReport {
    use freehgc_eval::ChaosKnobs;

    let scale = if quick { 0.1 } else { 0.3 };
    let g = Arc::new(generate(DatasetKind::Acm, scale, 44));
    let spec = CondenseSpec::new(0.15).with_max_hops(2).with_seed(11);
    let method = FreeHgc::default();

    // Fault-free reference bits, through an isolated registry.
    let want = method.condense_shared(&ContextRegistry::new(), &g, &spec);

    // A previous "process" persists the warm snapshot … and leaves an
    // orphaned temp file behind, as a crashed writer would.
    let dir = std::env::temp_dir().join(format!("fhgc-bench-chaos-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let reg = ContextRegistry::new();
        method.condense_shared(&reg, &g, &spec);
        reg.persist(&dir, &g, &spec, None)
            .expect("persist reference snapshot");
    }
    std::fs::write(dir.join("ctx-dead.fhgc.tmp-99999-0"), b"torn leftovers")
        .expect("plant orphan temp file");

    // Injected panics are expected and recovered; keep their backtraces
    // out of the report. Anything else still prints through the default
    // hook (and would fail the join below anyway).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected failpoint panic"));
        if !injected {
            default_hook(info);
        }
    }));

    ChaosKnobs {
        seed: 1234,
        read_io_one_in: Some(3),
        torn_writes: 1,
        condense_panics: 2,
        build_panics: 1,
        build_delay: true,
        composed_pressure_one_in: Some(4),
        accountant_pressure_one_in: Some(5),
        serve_worker_panics: 0,
        serve_queue_full: 0,
    }
    .arm();

    let clients = 8usize;
    let requests_per_client = if quick { 2usize } else { 3 };
    let reg = ContextRegistry::new();
    let barrier = std::sync::Barrier::new(clients);
    let t0 = Instant::now();
    let results: Vec<CondensedGraph> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let mut outs = Vec::with_capacity(requests_per_client);
                    for _ in 0..requests_per_client {
                        let _ctx = reg.resolve(&g, &spec, Some(&dir), None, None).0;
                        outs.push(method.condense_shared(&reg, &g, &spec));
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .expect("a chaos client died — an injected fault escaped isolation")
            })
            .collect()
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    // Under the still-armed faults, persisting tears once mid-write and
    // must retry into a published canonical file (leaving the torn
    // attempt's temp file for the next startup sweep).
    reg.persist(&dir, &g, &spec, None)
        .expect("persist must survive the torn write");

    let stats = reg.stats();
    let (snapshot_loads, snapshot_rejections) = (stats.snapshot_loads, stats.snapshot_rejections);
    let faults_injected = ChaosKnobs::faults_fired();
    ChaosKnobs::disarm_all();
    let _ = std::panic::take_hook();

    // "Restart": a fresh registry sweeps the torn write's orphan and
    // keeps serving reference bits.
    let reg2 = ContextRegistry::new();
    let _warm = reg2.resolve(&g, &spec, Some(&dir), None, None).0;
    let after = method.condense_shared(&reg2, &g, &spec);
    let served_after_faults = condensed_equal(&want, &after);
    std::fs::remove_dir_all(&dir).ok();

    let report = ChaosReport {
        clients,
        requests_per_client,
        ms,
        failpoints_compiled: ChaosKnobs::active(),
        faults_injected,
        panics_recovered: stats.panics_recovered,
        singleflight_coalesced: stats.singleflight_coalesced,
        io_retries: stats.io_retries,
        tmp_files_swept: stats.tmp_files_swept + reg2.stats().tmp_files_swept,
        duplicate_computes: stats.duplicate_computes,
        snapshot_loads,
        snapshot_rejections,
        bitwise_equal: results.iter().all(|r| condensed_equal(&want, r)),
        served_after_faults,
    };
    eprintln!(
        "chaos leg                    {} clients x {} reqs in {:>9.3} ms   faults {}   \
         recovered {}   coalesced {}   io_retries {}   swept {}   dup_computes {}   \
         bitwise_equal={}",
        report.clients,
        report.requests_per_client,
        report.ms,
        report.faults_injected,
        report.panics_recovered,
        report.singleflight_coalesced,
        report.io_retries,
        report.tmp_files_swept,
        report.duplicate_computes,
        report.bitwise_equal
    );
    report
}

struct ServeReport {
    clients: usize,
    grid_cells: usize,
    cold_ms: f64,
    warm_ms: f64,
    cold_p50_ms: f64,
    cold_p95_ms: f64,
    warm_p50_ms: f64,
    warm_p95_ms: f64,
    bitwise_equal: bool,
    fast_path_hits: u64,
    grid_coalesced: u64,
    coalesce_clients: usize,
    coalesce_coalesced: u64,
    coalesce_equal: bool,
    overload_replies: u64,
    overload_recovered: bool,
    tcp_equal: bool,
    duplicate_computes: u64,
    pool_executed: u64,
    resident_bytes: u64,
}

/// Spins until `cond` holds, bounded at ~4 s; the caller's gates catch
/// a timeout (the observed counters simply stay short).
fn spin_until(cond: impl Fn() -> bool) {
    for _ in 0..4000 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The exact spec [`ServeHandle`] derives from a grid request, and its
/// fault-free reply bytes via a direct `condense_shared` on a fresh
/// registry — the unit the serve leg's bitwise gate compares.
fn serve_reference(g: &Arc<HeteroGraph>, method: &str, ratio: f64, seed: u64) -> (u8, Vec<u8>) {
    let spec = CondenseSpec::new(ratio)
        .with_seed(seed)
        .with_max_hops(2)
        .with_max_paths(64);
    let lib = default_methods();
    let c = lib
        .iter()
        .find(|c| c.name() == method)
        .expect("grid methods are all registered defaults");
    let condensed = c.condense_shared(&ContextRegistry::new(), g, &spec);
    wire::encode_reply_payload(&Reply::Condensed(wire::CondensedSummary::from(&condensed)))
}

fn serve_request(method: &str, ratio: f64, seed: u64) -> Request {
    Request::Condense {
        graph: GraphRef::Id("acm".into()),
        method: method.to_string(),
        ratio,
        seed,
        max_hops: 2,
        max_paths: 64,
        deadline_ms: 0,
    }
}

fn run_serve_leg(quick: bool) -> ServeReport {
    let scale = if quick { 0.08 } else { 0.15 };
    let g = Arc::new(generate(DatasetKind::Acm, scale, 47));
    let methods: &[&str] = if quick {
        &["FreeHGC", "Random-HG", "Herding-HG"]
    } else {
        &["FreeHGC", "Random-HG", "Herding-HG", "K-Center-HG"]
    };
    let ratios = [0.25f64, 0.5];
    let seed = 11u64;
    let clients = 8usize;

    let mut script = Vec::new();
    let mut refs = Vec::new();
    for m in methods {
        for &ratio in &ratios {
            script.push(serve_request(m, ratio, seed));
            refs.push(serve_reference(&g, m, ratio, seed));
        }
    }
    let cells = script.len();

    let handle = ServeHandle::new(ServeConfig::default());
    handle.register_graph("acm", Arc::clone(&g));

    // One pass = eight concurrent clients each running the whole grid
    // in order. Identical in-flight requests coalesce, so each cell is
    // computed once; repeats answer from the registry fast path.
    let run_pass = |handle: &ServeHandle| {
        let drivers = (0..clients)
            .map(|_| (InProcess(handle.clone()), script.clone()))
            .collect();
        let t0 = Instant::now();
        let outcomes = drive_clients(drivers);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut lat = Vec::with_capacity(clients * cells);
        let mut equal = outcomes.len() == clients;
        for outcome in &outcomes {
            equal &= outcome.len() == cells;
            for (i, t) in outcome.iter().enumerate() {
                equal &= wire::encode_reply_payload(&t.reply) == refs[i];
                lat.push(t.latency);
            }
        }
        (ms, lat, equal)
    };
    let (cold_ms, cold_lat, cold_equal) = run_pass(&handle);
    let (warm_ms, warm_lat, warm_equal) = run_pass(&handle);

    // TCP smoke on the warm handle: the framed socket path must return
    // byte-identical replies to the in-process path.
    let mut server = TcpServer::bind(handle.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut client = ServeClient::connect(server.addr()).expect("connect loopback");
    let ping_ok = matches!(client.call(&Request::Ping), Ok(Reply::Pong));
    let tcp_reply = client.call(&script[0]).expect("tcp condense");
    let tcp_equal = ping_ok && wire::encode_reply_payload(&tcp_reply) == refs[0];
    drop(client);
    let grid_stats = handle.stats();
    server.shutdown(); // also shuts down `handle`

    // Deterministic coalesce probe: the only worker is held at a
    // barrier, so all eight identical cold requests are in flight
    // together before anything executes — one leader, seven coalesced
    // followers, exactly one compute.
    let pool = WorkerPool::new(1, 8);
    let gate = Arc::new(std::sync::Barrier::new(2));
    let blocker = Arc::clone(&gate);
    pool.submit(Box::new(move || {
        blocker.wait();
    }))
    .expect("submit blocker");
    spin_until(|| pool.queued() == 0);
    let coalesce = ServeHandle::with_pool(ServeConfig::default(), pool);
    coalesce.register_graph("acm", Arc::clone(&g));
    let creq = serve_request("Random-HG", 0.5, 99);
    let cref = serve_reference(&g, "Random-HG", 0.5, 99);
    let waiters: Vec<_> = (0..clients)
        .map(|_| {
            let h = coalesce.clone();
            let r = creq.clone();
            std::thread::spawn(move || h.call(&r))
        })
        .collect();
    spin_until(|| coalesce.stats().coalesced == clients as u64 - 1);
    let coalesce_coalesced = coalesce.stats().coalesced;
    gate.wait();
    let replies: Vec<Reply> = waiters
        .into_iter()
        .map(|t| t.join().expect("coalesce client panicked"))
        .collect();
    let coalesce_equal = replies
        .iter()
        .all(|r| wire::encode_reply_payload(r) == cref);
    let coalesce_stats = coalesce.stats();
    coalesce.shutdown();

    // Deterministic overload probe: a depth-1 queue saturated by a
    // barrier-held worker plus one queued no-op, so cold requests must
    // bounce with typed backpressure — and serve the reference bits
    // once the queue drains.
    let pool = WorkerPool::new(1, 1);
    let gate = Arc::new(std::sync::Barrier::new(2));
    let blocker = Arc::clone(&gate);
    pool.submit(Box::new(move || {
        blocker.wait();
    }))
    .expect("submit blocker");
    spin_until(|| pool.queued() == 0);
    pool.submit(Box::new(|| {})).expect("fill the queue slot");
    let overload = ServeHandle::with_pool(ServeConfig::default(), pool);
    overload.register_graph("acm", Arc::clone(&g));
    let oreq = serve_request("Random-HG", 0.5, 77);
    let oref = serve_reference(&g, "Random-HG", 0.5, 77);
    let bounced = [overload.call(&oreq), overload.call(&oreq)];
    let overload_replies = overload.stats().overloaded;
    gate.wait();
    spin_until(|| overload.pool().queued() == 0);
    let served = overload.call(&oreq);
    let overload_recovered = bounced
        .iter()
        .all(|r| r.error_code() == Some(ErrorCode::Overloaded))
        && wire::encode_reply_payload(&served) == oref;
    overload.shutdown();

    let report = ServeReport {
        clients,
        grid_cells: cells,
        cold_ms,
        warm_ms,
        cold_p50_ms: percentile_ms(&cold_lat, 50.0),
        cold_p95_ms: percentile_ms(&cold_lat, 95.0),
        warm_p50_ms: percentile_ms(&warm_lat, 50.0),
        warm_p95_ms: percentile_ms(&warm_lat, 95.0),
        bitwise_equal: cold_equal && warm_equal && coalesce_equal,
        fast_path_hits: grid_stats.fast_path_hits,
        grid_coalesced: grid_stats.coalesced,
        coalesce_clients: clients,
        coalesce_coalesced,
        coalesce_equal,
        overload_replies,
        overload_recovered,
        tcp_equal,
        duplicate_computes: grid_stats.duplicate_computes + coalesce_stats.duplicate_computes,
        pool_executed: grid_stats.pool_executed,
        resident_bytes: grid_stats.resident_bytes,
    };
    eprintln!(
        "serve leg                    {} clients x {} cells   cold {:>9.3} ms (p95 {:.3})   \
         warm {:>9.3} ms (p95 {:.3})   fast_path {}   coalesced {}+{}   overloads {}   \
         dup_computes {}   bitwise_equal={}",
        report.clients,
        report.grid_cells,
        report.cold_ms,
        report.cold_p95_ms,
        report.warm_ms,
        report.warm_p95_ms,
        report.fast_path_hits,
        report.grid_coalesced,
        report.coalesce_coalesced,
        report.overload_replies,
        report.duplicate_computes,
        report.bitwise_equal
    );
    report
}

struct MicroRow {
    name: String,
    baseline: String,
    baseline_ms: f64,
    reworked_ms: f64,
    gflops: f64,
    bitwise_equal: bool,
}

impl MicroRow {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.reworked_ms.max(1e-9)
    }
}

struct MicroReport {
    rows: Vec<MicroRow>,
    steady_iters: usize,
    spgemm_steady: ws::WorkspaceStats,
    ppr_steady: ws::WorkspaceStats,
}

/// Times `baseline` vs `reworked` serially (override pinned to 1) and
/// checks the reworked output bitwise against `oracle` — which is the
/// baseline's output where the rework preserved semantics, and the
/// canonical-lane reference where it deliberately changed them. Rows
/// that back a throughput gate pass `min_speedup`; a sub-threshold
/// first reading gets one re-measurement at 10× reps before the gate in
/// `main` can fail the run (same escape as the spmv_t bound: at quick
/// scale one scheduling hiccup can swallow the best-of-N window).
fn measure_micro<T: PartialEq>(
    name: &str,
    baseline_name: &str,
    reps: usize,
    flops: f64,
    min_speedup: Option<f64>,
    mut baseline: impl FnMut() -> T,
    mut reworked: impl FnMut() -> T,
    oracle: &T,
) -> MicroRow {
    par::set_thread_override(Some(1));
    let run = |reps: usize, baseline: &mut dyn FnMut() -> T, reworked: &mut dyn FnMut() -> T| {
        let (baseline_ms, _) = time_best(reps, &mut *baseline);
        let (reworked_ms, out) = time_best(reps, &mut *reworked);
        (baseline_ms, reworked_ms, out)
    };
    let (mut baseline_ms, mut reworked_ms, mut out) = run(reps, &mut baseline, &mut reworked);
    if let Some(bound) = min_speedup {
        if baseline_ms / reworked_ms.max(1e-9) < bound {
            eprintln!(
                "micro/{name}: speedup {:.2}x below {bound}x bound, re-measuring at {} reps",
                baseline_ms / reworked_ms.max(1e-9),
                reps * 10
            );
            (baseline_ms, reworked_ms, out) = run(reps * 10, &mut baseline, &mut reworked);
        }
    }
    par::set_thread_override(None);
    let row = MicroRow {
        name: name.to_string(),
        baseline: baseline_name.to_string(),
        baseline_ms,
        reworked_ms,
        gflops: flops / (reworked_ms * 1e-3).max(1e-12) * 1e-9,
        bitwise_equal: out == *oracle,
    };
    eprintln!(
        "micro/{:<22} {:>9.3} ms ({})   reworked {:>9.3} ms   speedup {:>5.2}x   \
         {:>7.2} GFLOP/s   bitwise_equal={}",
        row.name,
        row.baseline_ms,
        row.baseline,
        row.reworked_ms,
        row.speedup(),
        row.gflops,
        row.bitwise_equal
    );
    row
}

/// Exact multiply-add count of `a.spgemm(b)` (every nonzero of A meets
/// the full B row it selects), for the throughput column.
fn spgemm_flops(a: &CsrMatrix, b: &CsrMatrix) -> f64 {
    let mults: u64 = (0..a.nrows())
        .flat_map(|r| a.row_indices(r))
        .map(|&c| b.row_indices(c as usize).len() as u64)
        .sum();
    2.0 * mults as f64
}

/// Kernel-rework leg: reworked vs retained-reference serial timings,
/// bitwise oracles, and steady-state workspace-allocation counts.
fn run_micro(quick: bool) -> MicroReport {
    // SpGEMM density mirrors meta-path composition (Eq. 1): composed
    // adjacencies like PAP land their product bound well past half the
    // output width, the regime the dense-row mode is built for.
    let (sp_n, sp_nnz, mv_n, mv_nnz, dim, dm, reps) = if quick {
        (
            400usize, 24usize, 2000usize, 16usize, 16usize, 96usize, 2usize,
        )
    } else {
        (1500, 48, 20_000, 16, 64, 256, 5)
    };
    let mut rows: Vec<MicroRow> = Vec::new();

    // Dense-accumulator SpGEMM vs the naive per-row hash/sort reference,
    // at meta-path-composition density. This row backs the ≥ 1.5× gate.
    let a = random_sparse(sp_n, sp_n, sp_nnz, 11);
    let b = random_sparse(sp_n, sp_n, sp_nnz, 12);
    let sp_flops = spgemm_flops(&a, &b);
    let sp_oracle = a.spgemm_serial(&b);
    rows.push(measure_micro(
        &format!("spgemm/{sp_n}x{sp_nnz}"),
        "spgemm_serial",
        reps,
        sp_flops,
        Some(1.5),
        || a.spgemm_serial(&b),
        || a.spgemm(&b),
        &sp_oracle,
    ));

    // The column-tiled variant, forced onto the tiling path with a tile
    // a third of the operand width (the public gate only tiles at
    // ≥ 64 Ki columns, far past bench scale).
    let tile = (sp_n / 3).max(1);
    rows.push(measure_micro(
        &format!("spgemm_wide/tile{tile}"),
        "spgemm_serial",
        reps,
        sp_flops,
        None,
        || a.spgemm_serial(&b),
        || a.spgemm_with_tile(&b, tile),
        &sp_oracle,
    ));

    // SpMV: the canonical-lane naive reference is baseline AND oracle.
    let m = random_sparse(mv_n, mv_n, mv_nnz, 13);
    let x: Vec<f32> = (0..mv_n).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let mv_flops = 2.0 * m.nnz() as f64;
    let spmv_oracle = m.spmv_ref(&x);
    rows.push(measure_micro(
        &format!("spmv/{mv_n}"),
        "spmv_ref",
        reps,
        mv_flops,
        None,
        || m.spmv_ref(&x),
        || m.spmv(&x),
        &spmv_oracle,
    ));

    // SpMVᵀ kept its scatter order; reference is baseline AND oracle.
    let spmv_t_oracle = m.spmv_t_ref(&x);
    rows.push(measure_micro(
        &format!("spmv_t/{mv_n}"),
        "spmv_t_ref",
        reps,
        mv_flops,
        None,
        || m.spmv_t_ref(&x),
        || m.spmv_t(&x),
        &spmv_t_oracle,
    ));

    // Sparse × dense: register-blocked but order-preserving, so the
    // pre-rework kernel is baseline and oracle. Backs the ≥ 1.2× gate.
    let xd: Vec<f32> = (0..mv_n * dim)
        .map(|i| (i % 13) as f32 * 0.1 - 0.6)
        .collect();
    let sd_oracle = m.spmm_dense_ref(&xd, dim);
    rows.push(measure_micro(
        &format!("spmm_dense/{mv_n}x{dim}"),
        "spmm_dense_ref",
        reps,
        2.0 * m.nnz() as f64 * dim as f64,
        Some(1.2),
        || m.spmm_dense_ref(&xd, dim),
        || m.spmm_dense(&xd, dim),
        &sd_oracle,
    ));

    // Dense matmuls: `matmul` blocking preserves contribution order
    // (oracle = naive ikj reference); `matmul_nt` moved to canonical
    // lanes, and its reference computes the same lanes naively.
    let am = freehgc_autograd::Matrix::xavier(dm, dm, 21);
    let bm = freehgc_autograd::Matrix::xavier(dm, dm, 22);
    let dm_flops = 2.0 * (dm * dm * dm) as f64;
    let mm_oracle = am.matmul_ref(&bm).data;
    rows.push(measure_micro(
        &format!("matmul/{dm}^3"),
        "matmul_ref",
        reps,
        dm_flops,
        None,
        || am.matmul_ref(&bm).data,
        || am.matmul(&bm).data,
        &mm_oracle,
    ));
    let nt_oracle = am.matmul_nt_ref(&bm).data;
    rows.push(measure_micro(
        &format!("matmul_nt/{dm}^3"),
        "matmul_nt_ref",
        reps,
        dm_flops,
        None,
        || am.matmul_nt_ref(&bm).data,
        || am.matmul_nt(&bm).data,
        &nt_oracle,
    ));

    // Steady-state allocation audit: warm the thread-local pools with
    // the exact call pattern, zero the counters, rerun, and record what
    // the pools had to allocate — the contract is "nothing".
    par::set_thread_override(Some(1));
    let steady_iters = 5usize;
    for _ in 0..2 {
        a.spgemm(&b);
    }
    ws::reset_stats();
    for _ in 0..steady_iters {
        a.spgemm(&b);
    }
    let spgemm_steady = ws::stats();

    let sym = random_sparse(mv_n / 4, mv_n / 4, 8, 14)
        .symmetrize()
        .sym_normalized();
    let mut seed_vec = vec![0f32; sym.nrows()];
    seed_vec[0] = 1.0;
    let ppr_cfg = PprConfig::default();
    let mut acc = vec![0f32; sym.nrows()];
    for _ in 0..2 {
        ppr_push_into(&sym, &seed_vec, &ppr_cfg, &mut acc);
    }
    ws::reset_stats();
    for _ in 0..steady_iters {
        ppr_push_into(&sym, &seed_vec, &ppr_cfg, &mut acc);
    }
    let ppr_steady = ws::stats();
    par::set_thread_override(None);

    eprintln!(
        "micro steady-state ({steady_iters} iters)   spgemm: takes {} pool_hits {} \
         fresh_allocs {} alloc_bytes {}   ppr: takes {} fresh_allocs {} alloc_bytes {}",
        spgemm_steady.takes,
        spgemm_steady.pool_hits,
        spgemm_steady.fresh_allocs,
        spgemm_steady.alloc_bytes,
        ppr_steady.takes,
        ppr_steady.fresh_allocs,
        ppr_steady.alloc_bytes
    );

    MicroReport {
        rows,
        steady_iters,
        spgemm_steady,
        ppr_steady,
    }
}

fn fmt_ms(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let mut quick = false;
    let mut threads = 4usize;
    let mut out_path = "BENCH_PR10.json".to_string();
    // The effective FREEHGC_THREADS / machine default, captured before
    // the measurement loops start flipping the runtime override.
    let freehgc_threads = par::max_threads();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            threads = v.parse().expect("--threads takes an integer >= 2");
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else if arg == "--help" {
            eprintln!("options: --quick --threads=<n> --out=<path>");
            std::process::exit(0);
        } else {
            // This tool writes checked-in baselines; a typo must not
            // silently produce a default-config report.
            eprintln!("unknown argument {arg:?} (see --help)");
            std::process::exit(2);
        }
    }
    assert!(threads >= 2, "--threads must be at least 2");

    let (spgemm_n, mv_n, dim, reps, scale) = if quick {
        (400usize, 2000usize, 16usize, 2usize, 0.2f64)
    } else {
        (2000, 20_000, 64, 5, 0.5)
    };

    eprintln!(
        "bench_report: quick={quick} threads={threads} available_parallelism={}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut rows: Vec<KernelRow> = Vec::new();

    // Sparse × sparse (meta-path composition, Eq. 1).
    let a = random_sparse(spgemm_n, spgemm_n, 8, 1);
    let b = random_sparse(spgemm_n, spgemm_n, 8, 2);
    rows.push(measure(
        &format!("spgemm/{spgemm_n}"),
        reps,
        threads,
        || a.spgemm(&b),
    ));

    // SpMV / SpMVᵀ / transpose / sparse×dense on one larger operand.
    let m = random_sparse(mv_n, mv_n, 16, 3);
    let x: Vec<f32> = (0..mv_n).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    rows.push(measure(&format!("spmv/{mv_n}"), reps, threads, || {
        m.spmv(&x)
    }));
    rows.push(measure(&format!("transpose/{mv_n}"), reps, threads, || {
        m.transpose()
    }));
    // SpMVᵀ only parallelizes when its output is too big for cache
    // (serial scattered adds are near-optimal below that), so it gets
    // its own large-output operand.
    let (tn, td) = if quick { (40_000, 8) } else { (150_000, 24) };
    let mt = random_sparse(tn, tn, td, 7);
    let xt: Vec<f32> = (0..tn).map(|i| (i % 7) as f32 * 0.5 - 1.5).collect();
    let mut spmvt_row = measure(&format!("spmv_t/{tn}x{td}"), reps, threads, || {
        mt.spmv_t(&xt)
    });
    // This row backs a hard never-loses-to-serial bound (checked
    // below), so a sub-threshold first reading gets one re-measurement
    // at a much higher rep count before it can fail the run — at quick
    // scale the kernel is a few hundred µs and a single scheduling
    // hiccup can swallow the whole best-of-N window.
    if spmvt_row.speedup() < 0.9 {
        eprintln!(
            "{}: speedup {:.2}x below bound, re-measuring at {} reps",
            spmvt_row.name,
            spmvt_row.speedup(),
            reps * 10
        );
        spmvt_row = measure(&spmvt_row.name.clone(), reps * 10, threads, || {
            mt.spmv_t(&xt)
        });
    }
    rows.push(spmvt_row);
    let xd: Vec<f32> = (0..mv_n * dim)
        .map(|i| (i % 13) as f32 * 0.1 - 0.6)
        .collect();
    rows.push(measure(
        &format!("spmm_dense/{mv_n}x{dim}"),
        reps,
        threads,
        || m.spmm_dense(&xd, dim),
    ));

    // Truncated-series PPR (Eq. 10–13) through the in-place SpMVᵀ.
    let sym = random_sparse(mv_n / 2, mv_n / 2, 8, 4)
        .symmetrize()
        .sym_normalized();
    let mut seed_vec = vec![0f32; sym.nrows()];
    seed_vec[0] = 1.0;
    let ppr_cfg = PprConfig::default();
    rows.push(measure("ppr_push", reps, threads, || {
        ppr_push(&sym, &seed_vec, &ppr_cfg)
    }));

    // Dense matmul as the trainer uses it (features × weights).
    let dm_rows = if quick { 256 } else { 1024 };
    let am = freehgc_autograd::Matrix::xavier(dm_rows, 256, 5);
    let bm = freehgc_autograd::Matrix::xavier(256, 256, 6);
    rows.push(measure(
        &format!("matmul/{dm_rows}x256x256"),
        reps,
        threads,
        || am.matmul(&bm),
    ));

    // End-to-end: feature propagation and Algorithm-1 target selection
    // on the ACM family at bench scale.
    let g = generate(DatasetKind::Acm, scale, 42);
    rows.push(measure("propagate_acm_k2", reps.min(3), threads, || {
        let pf = propagate(&g, 2, 12);
        pf.blocks.into_iter().map(|m| m.data).collect::<Vec<_>>()
    }));
    let sel_cfg = SelectionConfig {
        max_hops: 2,
        max_paths: 16,
        use_rf: true,
        use_jaccard: true,
    };
    rows.push(measure("condense_target_acm", reps.min(3), threads, || {
        let sel = condense_target(&g, 64, &sel_cfg);
        (sel.selected, sel.scores)
    }));

    // Shared-context sweep: cold vs warm condensation over a
    // ratio × method grid (run at the default thread budget — the win
    // here is cache reuse, not parallelism).
    let sweep = run_sweep(quick);

    // Incremental-invalidation leg (PR 6).
    let delta = run_delta_leg(quick);

    // Failure-hardening leg (PR 7).
    let chaos = run_chaos_leg(quick);

    // Kernel-rework leg (PR 8).
    let micro = run_micro(quick);

    // Memory-governance leg (PR 9).
    let memory = run_memory_leg(quick);

    // Condensation-as-a-service leg (PR 10).
    let serve = run_serve_leg(quick);

    // Emit the JSON report.
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"pr\": 10,\n");
    out.push_str("  \"created_by\": \"bench_report\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"machine\": {\n");
    out.push_str(&format!("    \"available_parallelism\": {avail},\n"));
    out.push_str(&format!("    \"freehgc_threads\": {freehgc_threads},\n"));
    out.push_str(&format!(
        "    \"os\": \"{}\",\n",
        json_escape(std::env::consts::OS)
    ));
    out.push_str(&format!(
        "    \"arch\": \"{}\"\n",
        json_escape(std::env::consts::ARCH)
    ));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"threads\": {{ \"serial\": 1, \"parallel\": {threads} }},\n"
    ));
    out.push_str(&format!("  \"samples_per_kernel\": {reps},\n"));
    out.push_str(
        "  \"note\": \"serial_ms/parallel_ms are best-of-N wall times through the same public \
         kernels with the freehgc_parallel thread override pinned to 1 vs `threads.parallel`. \
         bitwise_equal asserts the two results are identical. Speedups only materialize when \
         machine.available_parallelism > 1; a report generated on a single-core runner is a \
         parallel-overhead baseline, NOT a speedup claim — regenerate on a multi-core host \
         before reading the speedup column as the perf trajectory.\",\n",
    );
    out.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"serial_ms\": {}, \"parallel_ms\": {}, \"speedup\": {}, \"bitwise_equal\": {} }}{}\n",
            json_escape(&r.name),
            fmt_ms(r.serial_ms),
            fmt_ms(r.parallel_ms),
            fmt_ms(r.speedup()),
            r.bitwise_equal,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sweep\": {\n");
    out.push_str(
        "    \"note\": \"cold_ms condenses each (method, ratio) cell through a fresh \
         CondenseContext (the pre-context behaviour); warm_ms runs the identical sweep through \
         one shared context. bitwise_equal asserts every condensed graph matches across the two \
         runs. The registry leg resolves contexts through a keyed ContextRegistry (cross-request \
         sharing); the evicting leg budgets the unified cache accountant to half its unbounded footprint \
         and must stay within it (peak_bytes <= budget_bytes) while matching the cold outputs \
         bitwise. The speedup is algorithmic cache reuse, visible even at \
         available_parallelism=1.\",\n",
    );
    out.push_str(&format!(
        "    \"dataset\": \"{}\",\n",
        json_escape(&sweep.dataset)
    ));
    out.push_str(&format!(
        "    \"ratios\": [{}],\n",
        sweep
            .ratios
            .iter()
            .map(|r| format!("{r}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "    \"methods\": [{}],\n",
        sweep
            .methods
            .iter()
            .map(|m| format!("\"{}\"", json_escape(m)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("    \"cold_ms\": {},\n", fmt_ms(sweep.cold_ms)));
    out.push_str(&format!("    \"warm_ms\": {},\n", fmt_ms(sweep.warm_ms)));
    out.push_str(&format!("    \"speedup\": {},\n", fmt_ms(sweep.speedup())));
    out.push_str(&format!(
        "    \"bitwise_equal\": {},\n",
        sweep.bitwise_equal
    ));
    out.push_str("    \"cache\": {\n");
    let c = &sweep.cache;
    for (name, (hits, misses)) in [
        ("paths", c.paths),
        ("factors", c.factors),
        ("composed", c.composed),
        ("oriented", c.oriented),
        ("influence", c.influence),
        ("diversity", c.diversity),
        ("propagated", c.propagated),
    ] {
        out.push_str(&format!(
            "      \"{name}\": {{ \"hits\": {hits}, \"misses\": {misses} }},\n"
        ));
    }
    out.push_str(&format!(
        "      \"influence_bytes\": {},\n      \"diversity_bytes\": {},\n      \
         \"propagated_bytes\": {},\n",
        c.influence_bytes, c.diversity_bytes, c.propagated_bytes
    ));
    out.push_str(&format!(
        "      \"cache_bytes\": {},\n      \"cache_peak_bytes\": {},\n",
        c.cache_bytes, c.cache_peak_bytes
    ));
    out.push_str(&format!(
        "      \"total_hits\": {},\n      \"total_misses\": {}\n",
        c.total_hits(),
        c.total_misses()
    ));
    out.push_str("    },\n");
    out.push_str("    \"registry\": {\n");
    out.push_str(&format!("      \"ms\": {},\n", fmt_ms(sweep.registry_ms)));
    out.push_str(&format!(
        "      \"lookup_hits\": {},\n      \"lookup_misses\": {},\n",
        sweep.registry_hits, sweep.registry_misses
    ));
    out.push_str(&format!(
        "      \"bitwise_equal\": {}\n    }},\n",
        sweep.registry_equal
    ));
    out.push_str("    \"evicting\": {\n");
    out.push_str(&format!("      \"ms\": {},\n", fmt_ms(sweep.evict_ms)));
    out.push_str(&format!(
        "      \"budget_bytes\": {},\n",
        sweep.evict_budget_bytes
    ));
    let ec = &sweep.evict_cache;
    out.push_str(&format!(
        "      \"peak_bytes\": {},\n      \"resident_bytes\": {},\n",
        ec.cache_peak_bytes, ec.cache_bytes
    ));
    out.push_str(&format!(
        "      \"evictions\": {},\n      \"rejected\": {},\n",
        total_evictions(ec),
        total_rejected(ec)
    ));
    out.push_str(&format!(
        "      \"bitwise_equal\": {}\n    }},\n",
        sweep.evict_equal
    ));
    out.push_str("    \"snapshot\": {\n");
    out.push_str(
        "      \"note\": \"The warm context is persisted to a versioned on-disk snapshot, then a \
         fresh ContextRegistry (a stand-in for a restarted process) resolves it back via \
         resolve with the snapshot directory and reruns the identical grid; ms is the warm-from-disk grid time, \
         directly comparable to cold_ms. The corruption probe flips one byte in the file and \
         must fall back to cold compute: a counted rejection, no panic, identical bits.\",\n",
    );
    out.push_str(&format!(
        "      \"save_ms\": {},\n      \"load_ms\": {},\n      \"ms\": {},\n",
        fmt_ms(sweep.snapshot_save_ms),
        fmt_ms(sweep.snapshot_load_ms),
        fmt_ms(sweep.snapshot_ms)
    ));
    out.push_str(&format!(
        "      \"file_bytes\": {},\n      \"load_hits\": {},\n",
        sweep.snapshot_file_bytes, sweep.snapshot_load_hits
    ));
    out.push_str(&format!(
        "      \"bitwise_equal\": {},\n",
        sweep.snapshot_equal
    ));
    out.push_str("      \"corruption_probe\": {\n");
    out.push_str(&format!(
        "        \"ms\": {},\n        \"rejections\": {},\n        \"bitwise_equal\": {}\n",
        fmt_ms(sweep.corrupt_ms),
        sweep.corrupt_rejections,
        sweep.corrupt_equal
    ));
    out.push_str("      }\n");
    out.push_str("    }\n");
    out.push_str("  },\n");
    out.push_str("  \"delta\": {\n");
    out.push_str(
        "    \"note\": \"A typed GraphDelta edits one relation; \
         the mutated graph's context is resolved three ways and each resolution plus one \
         FreeHGC condensation and feature propagation is timed: cold_rebuild_ms builds from \
         nothing, warm_delta_ms inherits the old context's surviving entries in-process \
         (resolve with a delta), snapshot_delta_ms delta-filters the old fingerprint's \
         on-disk snapshot in a fresh registry (resolve with a delta and a snapshot \
         directory). bitwise_equal asserts FreeHGC \
         and every baseline condense identically on all three contexts.\",\n",
    );
    out.push_str("    \"dataset\": \"acm\",\n");
    out.push_str(&format!(
        "    \"cold_rebuild_ms\": {},\n    \"warm_delta_ms\": {},\n    \
         \"snapshot_delta_ms\": {},\n",
        fmt_ms(delta.cold_ms),
        fmt_ms(delta.warm_ms),
        fmt_ms(delta.snapshot_ms)
    ));
    out.push_str(&format!(
        "    \"speedup_vs_cold\": {},\n",
        fmt_ms(delta.cold_ms / delta.warm_ms.max(1e-9))
    ));
    out.push_str(&format!(
        "    \"reused_entries\": {},\n    \"dropped_entries\": {},\n",
        delta.reused_entries, delta.dropped_entries
    ));
    out.push_str(&format!(
        "    \"snapshot_reused_entries\": {},\n    \"snapshot_loads\": {},\n",
        delta.snapshot_reused_entries, delta.snapshot_loads
    ));
    out.push_str(&format!("    \"bitwise_equal\": {}\n", delta.bitwise_equal));
    out.push_str("  },\n");
    out.push_str("  \"chaos\": {\n");
    out.push_str(
        "    \"note\": \"N concurrent clients resolve one registry key and condense through it \
         while deterministic faults fire underneath (injected snapshot-read I/O errors, a \
         panicking single-flight leader, panicking condensations, one torn snapshot write, \
         composed-cache and whole-accountant pressure spikes, an orphaned temp file from a \
         crashed writer). \
         bitwise_equal asserts every response matched the fault-free reference; \
         duplicate_computes must stay 0 (single-flight); the counters record each recovery. \
         With failpoints_compiled=false the same traffic ran fault-free.\",\n",
    );
    out.push_str(&format!(
        "    \"clients\": {},\n    \"requests_per_client\": {},\n    \"ms\": {},\n",
        chaos.clients,
        chaos.requests_per_client,
        fmt_ms(chaos.ms)
    ));
    out.push_str(&format!(
        "    \"failpoints_compiled\": {},\n    \"faults_injected\": {},\n",
        chaos.failpoints_compiled, chaos.faults_injected
    ));
    out.push_str(&format!(
        "    \"panics_recovered\": {},\n    \"singleflight_coalesced\": {},\n    \
         \"io_retries\": {},\n    \"tmp_files_swept\": {},\n    \
         \"duplicate_computes\": {},\n",
        chaos.panics_recovered,
        chaos.singleflight_coalesced,
        chaos.io_retries,
        chaos.tmp_files_swept,
        chaos.duplicate_computes
    ));
    out.push_str(&format!(
        "    \"snapshot_loads\": {},\n    \"snapshot_rejections\": {},\n",
        chaos.snapshot_loads, chaos.snapshot_rejections
    ));
    out.push_str(&format!(
        "    \"bitwise_equal\": {},\n    \"served_after_faults\": {}\n",
        chaos.bitwise_equal, chaos.served_after_faults
    ));
    out.push_str("  },\n");
    out.push_str("  \"micro\": {\n");
    out.push_str(
        "    \"note\": \"Serial (thread override = 1) head-to-head of each reworked kernel \
         against the retained pre-rework reference on identical operands. bitwise_equal checks \
         the reworked output against the canonical oracle: the baseline itself where the rework \
         preserved semantics, and the canonical-lane reference for spmv/matmul_nt whose \
         reduction order the rework deliberately changed (their baselines time the OLD order). \
         speedup = baseline_ms / reworked_ms; gflops is the reworked kernel's multiply-add \
         throughput. workspace_steady_state reruns the spgemm and ppr_push inner loops after \
         warming the thread-local scratch pools: fresh_allocs and alloc_bytes must be zero — \
         iterative callers pay no per-iteration allocation.\",\n",
    );
    out.push_str("    \"kernels\": [\n");
    for (i, r) in micro.rows.iter().enumerate() {
        out.push_str(&format!(
            "      {{ \"name\": \"{}\", \"baseline\": \"{}\", \"baseline_ms\": {}, \
             \"reworked_ms\": {}, \"speedup\": {}, \"gflops\": {}, \"bitwise_equal\": {} }}{}\n",
            json_escape(&r.name),
            json_escape(&r.baseline),
            fmt_ms(r.baseline_ms),
            fmt_ms(r.reworked_ms),
            fmt_ms(r.speedup()),
            fmt_ms(r.gflops),
            r.bitwise_equal,
            if i + 1 < micro.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("    ],\n");
    out.push_str("    \"workspace_steady_state\": {\n");
    out.push_str(&format!("      \"iterations\": {},\n", micro.steady_iters));
    for (name, s, trailing) in [
        ("spgemm", &micro.spgemm_steady, ","),
        ("ppr_push", &micro.ppr_steady, ""),
    ] {
        out.push_str(&format!(
            "      \"{name}\": {{ \"takes\": {}, \"pool_hits\": {}, \"fresh_allocs\": {}, \
             \"alloc_bytes\": {}, \"gives\": {} }}{trailing}\n",
            s.takes, s.pool_hits, s.fresh_allocs, s.alloc_bytes, s.gives
        ));
    }
    out.push_str("    }\n");
    out.push_str("  },\n");
    out.push_str("  \"memory\": {\n");
    out.push_str(
        "    \"note\": \"One workload (condensation grid + feature propagation at several hop \
         depths, so all four accountant families hold bytes) runs unbounded to measure \
         footprint_bytes, then under budget_bytes = footprint/2. peak_bytes is the max \
         cache_peak_bytes over every per-cell stats() sample and must stay <= budget_bytes; the \
         propagated family (cheapest recompute flops per byte) must absorb evictions; \
         bitwise_equal covers condensed graphs AND propagated blocks; slowdown prices half the \
         memory in recompute time. capped_snapshot persists the warm context under \
         cap_bytes = full_file/2: the file must fit, drop >= 1 cheap tier, and still load as a \
         working partial context serving identical bits.\",\n",
    );
    out.push_str(&format!(
        "    \"footprint_bytes\": {},\n    \"budget_bytes\": {},\n    \"peak_bytes\": {},\n",
        memory.footprint_bytes, memory.budget_bytes, memory.peak_bytes
    ));
    out.push_str(&format!(
        "    \"unbounded_ms\": {},\n    \"budgeted_ms\": {},\n    \"slowdown\": {},\n",
        fmt_ms(memory.unbounded_ms),
        fmt_ms(memory.budgeted_ms),
        fmt_ms(memory.slowdown())
    ));
    out.push_str(&format!(
        "    \"evictions\": {{ \"composed\": {}, \"influence\": {}, \"diversity\": {}, \
         \"propagated\": {} }},\n",
        memory.composed_evictions,
        memory.influence_evictions,
        memory.diversity_evictions,
        memory.propagated_evictions
    ));
    out.push_str(&format!("    \"rejected\": {},\n", memory.rejected));
    out.push_str(&format!(
        "    \"bitwise_equal\": {},\n",
        memory.bitwise_equal
    ));
    out.push_str("    \"capped_snapshot\": {\n");
    out.push_str(&format!(
        "      \"full_file_bytes\": {},\n      \"cap_bytes\": {},\n      \
         \"snapshot_bytes\": {},\n",
        memory.snapshot_full_bytes, memory.snapshot_cap_bytes, memory.snapshot_file_bytes
    ));
    out.push_str(&format!(
        "      \"dropped_sections\": {},\n      \"installed_entries\": {},\n      \
         \"bitwise_equal\": {}\n",
        memory.snapshot_dropped_sections, memory.capped_installed, memory.capped_equal
    ));
    out.push_str("    }\n");
    out.push_str("  },\n");
    out.push_str("  \"serve\": {\n");
    out.push_str(
        "    \"note\": \"Eight concurrent clients run a method x ratio grid through the serving \
         request path (validate -> single-flight -> registry fast-path peek -> bounded worker \
         pool), cold then warm. bitwise_equal asserts every Condensed reply matched a direct \
         condense_shared on a fresh registry, byte for byte, across both passes and the \
         coalesce probe; warm_p95_ms must beat cold_p95_ms (repeats answer from the reply \
         memo / registry fast path without touching the pool). The coalesce probe holds the \
         only worker at a \
         barrier so eight identical in-flight requests elect one leader (duplicate_computes \
         must stay 0); the overload probe saturates a depth-1 queue and must get typed \
         Overloaded backpressure, then identical bits once the queue drains. tcp_bitwise_equal \
         is one framed ping + condense over a loopback socket matching the in-process \
         bytes.\",\n",
    );
    out.push_str(&format!(
        "    \"clients\": {},\n    \"grid_cells\": {},\n",
        serve.clients, serve.grid_cells
    ));
    out.push_str(&format!(
        "    \"cold_ms\": {},\n    \"warm_ms\": {},\n",
        fmt_ms(serve.cold_ms),
        fmt_ms(serve.warm_ms)
    ));
    out.push_str(&format!(
        "    \"cold_p50_ms\": {},\n    \"cold_p95_ms\": {},\n    \"warm_p50_ms\": {},\n    \
         \"warm_p95_ms\": {},\n",
        fmt_ms(serve.cold_p50_ms),
        fmt_ms(serve.cold_p95_ms),
        fmt_ms(serve.warm_p50_ms),
        fmt_ms(serve.warm_p95_ms)
    ));
    out.push_str(&format!(
        "    \"fast_path_hits\": {},\n    \"grid_coalesced\": {},\n    \"pool_executed\": {},\n",
        serve.fast_path_hits, serve.grid_coalesced, serve.pool_executed
    ));
    out.push_str(&format!(
        "    \"coalesce_probe\": {{ \"clients\": {}, \"coalesced\": {}, \"bitwise_equal\": {} \
         }},\n",
        serve.coalesce_clients, serve.coalesce_coalesced, serve.coalesce_equal
    ));
    out.push_str(&format!(
        "    \"overload_probe\": {{ \"replies\": {}, \"recovered\": {} }},\n",
        serve.overload_replies, serve.overload_recovered
    ));
    out.push_str(&format!(
        "    \"tcp_bitwise_equal\": {},\n    \"duplicate_computes\": {},\n    \
         \"resident_bytes\": {},\n",
        serve.tcp_equal, serve.duplicate_computes, serve.resident_bytes
    ));
    out.push_str(&format!("    \"bitwise_equal\": {}\n", serve.bitwise_equal));
    out.push_str("  }\n");
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("write bench report");
    eprintln!("wrote {out_path}");

    if rows.iter().any(|r| !r.bitwise_equal) {
        eprintln!("FATAL: a parallel kernel diverged from its serial result");
        std::process::exit(1);
    }
    if !sweep.bitwise_equal || !sweep.registry_equal || !sweep.evict_equal {
        eprintln!("FATAL: a shared-context condensation diverged from its fresh-context result");
        std::process::exit(1);
    }
    if sweep.cache.total_hits() == 0 {
        eprintln!("FATAL: the warm sweep recorded zero cache hits — context reuse is broken");
        std::process::exit(1);
    }
    if sweep.cache.diversity.0 == 0 {
        eprintln!("FATAL: the warm ratio sweep recorded zero diversity-bonus hits");
        std::process::exit(1);
    }
    if sweep.registry_hits == 0 {
        eprintln!("FATAL: the registry leg recorded zero lookup hits — keyed sharing is broken");
        std::process::exit(1);
    }
    let ec = &sweep.evict_cache;
    if ec.cache_peak_bytes > sweep.evict_budget_bytes as u64 {
        eprintln!(
            "FATAL: the evicting sweep exceeded its byte budget ({} > {})",
            ec.cache_peak_bytes, sweep.evict_budget_bytes
        );
        std::process::exit(1);
    }
    if total_evictions(ec) + total_rejected(ec) == 0 {
        eprintln!("FATAL: the evicting sweep never exercised the budget — eviction is untested");
        std::process::exit(1);
    }
    if !sweep.snapshot_equal {
        eprintln!("FATAL: a condensation served from a loaded snapshot diverged from cold compute");
        std::process::exit(1);
    }
    if sweep.snapshot_load_hits == 0 {
        eprintln!("FATAL: the snapshot leg never loaded from disk — warm-start is broken");
        std::process::exit(1);
    }
    if sweep.corrupt_rejections == 0 {
        eprintln!("FATAL: the corruption probe was not rejected — snapshot validation is broken");
        std::process::exit(1);
    }
    if !sweep.corrupt_equal {
        eprintln!("FATAL: output after a rejected snapshot diverged from cold compute");
        std::process::exit(1);
    }
    // SpMVᵀ must never lose to serial by more than a small measurement
    // margin: either the gates keep it serial (ratio ~1) or the binned
    // path genuinely wins.
    if let Some(row) = rows.iter().find(|r| r.name.starts_with("spmv_t/")) {
        if row.speedup() < 0.9 {
            eprintln!(
                "FATAL: {} parallel path lost to serial ({:.2}x < 0.9x) — the size/core gates \
                 are letting an unprofitable partition through",
                row.name,
                row.speedup()
            );
            std::process::exit(1);
        }
    }
    if !delta.bitwise_equal {
        eprintln!("FATAL: a delta-seeded condensation diverged from the cold rebuild");
        std::process::exit(1);
    }
    if delta.reused_entries == 0 || delta.snapshot_reused_entries == 0 {
        eprintln!(
            "FATAL: the delta leg reused no cache entries (in-process {}, snapshot {}) — \
             selective invalidation is not selecting",
            delta.reused_entries, delta.snapshot_reused_entries
        );
        std::process::exit(1);
    }
    if delta.snapshot_loads == 0 {
        eprintln!("FATAL: the delta leg never loaded the old fingerprint's snapshot");
        std::process::exit(1);
    }
    if delta.warm_ms >= delta.cold_ms {
        eprintln!(
            "FATAL: the in-process delta update did not beat the cold rebuild \
             (cold {:.3} ms, warm {:.3} ms)",
            delta.cold_ms, delta.warm_ms
        );
        std::process::exit(1);
    }
    // At --quick scale the precompute is a few hundred µs, below the
    // fixed cost of reading and decoding the snapshot file, so the
    // disk-seeded timing bound is only meaningful at full scale.
    if !quick && delta.snapshot_ms >= delta.cold_ms {
        eprintln!(
            "FATAL: the snapshot-seeded delta update did not beat the cold rebuild \
             (cold {:.3} ms, snapshot {:.3} ms)",
            delta.cold_ms, delta.snapshot_ms
        );
        std::process::exit(1);
    }
    if !chaos.bitwise_equal || !chaos.served_after_faults {
        eprintln!("FATAL: a chaos-leg response diverged from the fault-free reference");
        std::process::exit(1);
    }
    if chaos.duplicate_computes != 0 {
        eprintln!(
            "FATAL: the chaos leg recorded {} duplicate cold computes — single-flight is broken",
            chaos.duplicate_computes
        );
        std::process::exit(1);
    }
    if chaos.tmp_files_swept == 0 {
        eprintln!("FATAL: the chaos leg swept no orphaned temp files — the startup sweep is dead");
        std::process::exit(1);
    }
    // Only meaningful when fault injection is compiled in: the drill
    // must actually have injected faults and recovered from panics.
    if chaos.failpoints_compiled && (chaos.faults_injected == 0 || chaos.panics_recovered == 0) {
        eprintln!(
            "FATAL: chaos ran with failpoints compiled but injected {} faults and recovered {} \
             panics — the drill exercised nothing",
            chaos.faults_injected, chaos.panics_recovered
        );
        std::process::exit(1);
    }
    // PR-8 kernel-rework gates. Bitwise first: a fast kernel with the
    // wrong bits is not a kernel.
    if let Some(r) = micro.rows.iter().find(|r| !r.bitwise_equal) {
        eprintln!(
            "FATAL: micro/{} diverged bitwise from its canonical oracle",
            r.name
        );
        std::process::exit(1);
    }
    // Throughput floors for the two headline reworks (the sub-threshold
    // re-measurement escape already ran inside measure_micro).
    for (prefix, bound) in [("spgemm/", 1.5f64), ("spmm_dense/", 1.2)] {
        if let Some(r) = micro.rows.iter().find(|r| r.name.starts_with(prefix)) {
            if r.speedup() < bound {
                eprintln!(
                    "FATAL: micro/{} reworked kernel only {:.2}x over {} (bound {bound}x) — \
                     the rework lost its throughput win",
                    r.name,
                    r.speedup(),
                    r.baseline
                );
                std::process::exit(1);
            }
        }
    }
    // Zero-allocation steady state: warmed pools must serve every take.
    for (name, s) in [
        ("spgemm", &micro.spgemm_steady),
        ("ppr_push", &micro.ppr_steady),
    ] {
        if s.takes == 0 {
            eprintln!("FATAL: micro steady-state {name} loop never touched the workspace pools");
            std::process::exit(1);
        }
        if s.fresh_allocs != 0 || s.alloc_bytes != 0 {
            eprintln!(
                "FATAL: micro steady-state {name} loop allocated ({} fresh, {} bytes) — the \
                 zero-alloc workspace contract is broken",
                s.fresh_allocs, s.alloc_bytes
            );
            std::process::exit(1);
        }
    }
    // PR-9 memory-governance gates. Bitwise first, as always.
    if !memory.bitwise_equal {
        eprintln!("FATAL: the budgeted memory-leg workload diverged from the unbounded run");
        std::process::exit(1);
    }
    if memory.peak_bytes > memory.budget_bytes as u64 {
        eprintln!(
            "FATAL: the memory leg exceeded its unified byte budget ({} > {})",
            memory.peak_bytes, memory.budget_bytes
        );
        std::process::exit(1);
    }
    if memory.propagated_evictions == 0 {
        eprintln!(
            "FATAL: the memory leg evicted no propagated blocks — the cheapest-per-byte family \
             is not absorbing pressure first"
        );
        std::process::exit(1);
    }
    if memory.snapshot_file_bytes > memory.snapshot_cap_bytes as u64 {
        eprintln!(
            "FATAL: the capped snapshot overflowed its disk ceiling ({} > {})",
            memory.snapshot_file_bytes, memory.snapshot_cap_bytes
        );
        std::process::exit(1);
    }
    if memory.snapshot_dropped_sections == 0 || memory.capped_installed == 0 {
        eprintln!(
            "FATAL: the capped snapshot dropped {} sections and installed {} entries — the \
             tiered layout is not trading disk for recompute",
            memory.snapshot_dropped_sections, memory.capped_installed
        );
        std::process::exit(1);
    }
    if !memory.capped_equal {
        eprintln!("FATAL: a workload served from the capped snapshot diverged from the reference");
        std::process::exit(1);
    }
    // PR-10 serving gates. Bitwise first, as always.
    if !serve.bitwise_equal {
        eprintln!("FATAL: a served condensation diverged bitwise from direct condense_shared");
        std::process::exit(1);
    }
    if serve.duplicate_computes != 0 {
        eprintln!(
            "FATAL: the serve leg recorded {} duplicate cold computes — request coalescing is \
             broken",
            serve.duplicate_computes
        );
        std::process::exit(1);
    }
    if serve.coalesce_coalesced != serve.coalesce_clients as u64 - 1 {
        eprintln!(
            "FATAL: the coalesce probe merged {} of {} identical in-flight requests — \
             single-flight serving is broken",
            serve.coalesce_coalesced,
            serve.coalesce_clients - 1
        );
        std::process::exit(1);
    }
    if serve.overload_replies == 0 || !serve.overload_recovered {
        eprintln!(
            "FATAL: the overload probe got {} typed backpressure replies (recovered: {}) — a \
             full queue must bounce with Overloaded and then serve identical bits",
            serve.overload_replies, serve.overload_recovered
        );
        std::process::exit(1);
    }
    if serve.fast_path_hits == 0 {
        eprintln!("FATAL: the warm serve pass never hit the registry fast path");
        std::process::exit(1);
    }
    if serve.warm_p95_ms >= serve.cold_p95_ms {
        eprintln!(
            "FATAL: warm serving p95 did not beat cold p95 ({:.3} ms >= {:.3} ms) — the \
             fast-path peek is not skipping the pool",
            serve.warm_p95_ms, serve.cold_p95_ms
        );
        std::process::exit(1);
    }
    if !serve.tcp_equal {
        eprintln!("FATAL: the TCP transport returned different bytes than the in-process path");
        std::process::exit(1);
    }
}
