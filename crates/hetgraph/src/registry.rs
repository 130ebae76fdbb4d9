//! Cross-request context sharing: a keyed registry of warm
//! [`CondenseContext`]s.
//!
//! One [`CondenseContext`] already lets a single owner amortize the
//! per-graph precompute across methods, ratios, seeds and threads — but
//! it is process-local state that every caller must construct and thread
//! around. A serving process handling concurrent requests on the same
//! dataset wants the stronger form: *any* request that names a graph
//! gets the one warm context for it. [`ContextRegistry`] provides that:
//! contexts are keyed by a content [`GraphFingerprint`] alone (every
//! context composes under the one constant fill-in cap,
//! [`MAX_ROW_NNZ`](crate::condense::MAX_ROW_NNZ)), stored as
//! `Arc<CondenseContext<'static>>` (the context co-owns its graph via
//! [`CondenseContext::shared`]), and handed out under the context's
//! existing thread-safety contract — sharing is transparent, so a
//! registry-resolved condensation is bitwise-identical to a fresh one.
//!
//! Fingerprinting hashes the *entire* graph content (schema, adjacency
//! structure and weights, features, labels, split) into 128 bits, so two
//! `HeteroGraph` values with equal content share one context even when
//! they are distinct allocations — e.g. two requests that each loaded
//! the same dataset. The hash is one linear pass over the graph data,
//! memoized on the graph (and invalidated by its mutating setters), so
//! per-call resolution — `Condenser::condense_shared` in a sweep —
//! hashes each graph value once. Fingerprint hits are cross-checked
//! against structural invariants of the stored graph, so a hash
//! collision panics instead of silently serving the wrong precompute.
//!
//! # Failure model
//!
//! The registry is the cache tier a serving front end will sit on, so
//! it must survive the faults a long-lived process meets:
//!
//! * **Single-flight resolution.** Concurrent misses on one key
//!   coalesce onto a single leader build through the shared
//!   [`freehgc_parallel::SingleFlight`] primitive; waiters block on the
//!   leader's call and are counted as coalesced hits. No duplicate cold
//!   computes, no thundering herd on a cold dataset. Finished contexts
//!   live in the registry's own map: a leader installs its context there
//!   *before* it retires the call, and a newly elected leader re-checks
//!   the map before it builds, so a key is never built twice.
//! * **Panic isolation.** The leader's build runs under `catch_unwind`;
//!   a panicking build (or an injected
//!   [`failpoints`] fault) never installs a partial
//!   context — the half-built value is dropped, the call is finished as
//!   failed, and the build is retried a bounded number of times (by the
//!   leader, or by exactly one of the woken waiters — whichever re-joins
//!   first). [`ContextRegistry::run_isolated`] extends the same
//!   contract to condensation work (`Condenser::condense_shared`).
//! * **Poison recovery.** Every mutex access recovers from poisoning
//!   (see [`freehgc_parallel::relock`]): all mutations under the
//!   registry's locks are single map operations on complete values, so
//!   a poisoned lock guards perfectly consistent data and refusing to
//!   serve it would turn one panic into a process-wide death spiral.
//! * **Crash-safe snapshot I/O.** Loads retry transient read errors
//!   with backoff before falling back to a counted cold miss; saves
//!   fsync before their atomic rename and retry transient failures; the
//!   first touch of a snapshot directory sweeps leftover per-call temp
//!   files from crashed writers. See [`crate::snapshot`].
//!
//! Every recovery is counted ([`ContextRegistry::stats`]), and
//! none of them changes a single output bit: a fault degrades to a
//! retry or a cold recompute of the same pure function.
//!
//! # Memory lifecycle
//!
//! A registered context lives (with its graph `Arc`) until
//! [`ContextRegistry::evict`], [`ContextRegistry::clear`] or
//! [`ContextRegistry::evict_idle`] drops it. A context never evicts its
//! own entries; it only records their resident bytes in one byte
//! ledger ([`CondenseContext::cache_bytes`]). The registry rolls those
//! ledgers up: [`ContextRegistry::resident_bytes`] is the cross-context
//! total, and [`ContextRegistry::evict_idle`] sheds whole
//! least-recently-resolved contexts until that total fits a deployment
//! ceiling. This is the one memory bound; the serving layer drives it
//! from `ServeConfig::resident_budget`. Dropping a context only costs a
//! recompute of pure functions, never an output bit.

use crate::condense::CondenseSpec;
use crate::context::{CondenseContext, SeedReport};
use crate::failpoints;
use crate::graph::{GraphDelta, HeteroGraph};
use crate::snapshot::{load_canonical, DiskLoad, SnapshotError};
use freehgc_parallel::singleflight::Role;
use freehgc_parallel::{relock, SingleFlight};
use freehgc_sparse::fx::FxHasher;
use freehgc_sparse::{FxHashMap, FxHashSet};
use std::hash::Hasher;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A 128-bit content hash of a [`HeteroGraph`] — the registry key.
///
/// Two graphs with identical content always produce identical
/// fingerprints. Distinct contents are extremely unlikely to collide,
/// but the two salted Fx passes are fast rather than cryptographic and
/// share one mixing function, so the registry does **not** rely on
/// collision-freedom: every fingerprint hit is cross-checked against
/// cheap structural invariants of the stored graph and a mismatch
/// panics loudly instead of silently serving the wrong precompute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphFingerprint(pub u64, pub u64);

impl std::fmt::Display for GraphFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// One salted pass over every field the graph's identity depends on.
fn hash_graph(g: &HeteroGraph, salt: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(salt);
    let schema = g.schema();
    h.write_usize(schema.num_node_types());
    for t in schema.node_type_ids() {
        let name = schema.node_type_name(t);
        h.write_usize(name.len());
        h.write(name.as_bytes());
        // Role as a stable discriminant (None / Target / Father / Leaf).
        h.write_u32(match schema.role(t) {
            None => 0,
            Some(crate::schema::Role::Target) => 1,
            Some(crate::schema::Role::Father) => 2,
            Some(crate::schema::Role::Leaf) => 3,
        });
        h.write_usize(g.num_nodes(t));
        let f = g.features(t);
        h.write_usize(f.num_rows());
        h.write_usize(f.dim());
        for &v in f.data() {
            h.write_u32(v.to_bits());
        }
    }
    h.write_u32(schema.target().0 as u32);
    h.write_usize(schema.num_edge_types());
    for e in schema.edge_type_ids() {
        let name = schema.edge_type_name(e);
        h.write_usize(name.len());
        h.write(name.as_bytes());
        let (src, dst) = schema.edge_endpoints(e);
        h.write_u32(src.0 as u32);
        h.write_u32(dst.0 as u32);
        let a = g.adjacency(e);
        h.write_usize(a.nrows());
        h.write_usize(a.ncols());
        for &p in a.indptr() {
            h.write_usize(p);
        }
        for &c in a.indices() {
            h.write_u32(c);
        }
        for &v in a.values() {
            h.write_u32(v.to_bits());
        }
    }
    h.write_usize(g.num_classes());
    for &y in g.labels() {
        h.write_u32(y);
    }
    let split = g.split();
    for part in [&split.train, &split.val, &split.test] {
        h.write_usize(part.len());
        for &v in part.iter() {
            h.write_u32(v);
        }
    }
    h.finish()
}

impl HeteroGraph {
    /// Content fingerprint of this graph — see [`GraphFingerprint`].
    /// Computed lazily (one linear pass over all stored data) and then
    /// memoized on the graph, so repeated registry resolutions — the
    /// per-call path of `Condenser::condense_shared` — hash once per
    /// graph value. The mutating setters (`set_features`, `set_split`)
    /// reset the memo, so a stale hash is never served.
    pub fn fingerprint(&self) -> GraphFingerprint {
        *self.fingerprint_cache.get_or_init(|| {
            GraphFingerprint(
                hash_graph(self, 0x9e37_79b9_7f4a_7c15),
                hash_graph(self, 0xc2b2_ae3d_27d4_eb4f),
            )
        })
    }
}

/// Cheap structural comparison backing the registry's collision check:
/// per-type node counts and per-edge-type nnz. Two *different* graphs
/// that collide on the 128-bit fingerprint are astronomically unlikely
/// to also agree on every one of these counts, and the check is O(#node
/// types + #edge types) per lookup — nothing against the precompute it
/// guards.
fn same_shape(a: &HeteroGraph, b: &HeteroGraph) -> bool {
    let (sa, sb) = (a.schema(), b.schema());
    sa.num_node_types() == sb.num_node_types()
        && sa.num_edge_types() == sb.num_edge_types()
        && sa.node_type_ids().all(|t| a.num_nodes(t) == b.num_nodes(t))
        && sa
            .edge_type_ids()
            .all(|e| a.adjacency(e).nnz() == b.adjacency(e).nnz())
}

/// A registered context with the logical timestamp of its most recent
/// resolution (a tick of the registry's `touch_clock`), which orders
/// [`ContextRegistry::evict_idle`]'s least-recently-resolved-first
/// eviction.
struct Resident {
    ctx: Arc<CondenseContext<'static>>,
    touch: u64,
}

/// How many times one caller will (re)try a failing cold build — its
/// own leader attempts and leader failures it observes as a waiter
/// combined — before giving up. The final failure propagates with the
/// original panic payload.
const MAX_BUILD_ATTEMPTS: usize = 4;

/// Total attempts [`ContextRegistry::run_isolated`] gives a panicking
/// computation; the last one runs unprotected so a persistent fault
/// surfaces with its original payload.
const MAX_COMPUTE_ATTEMPTS: usize = 3;

/// Registry counters — see [`ContextRegistry::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Registry lookups served without a cold build (not the contexts'
    /// inner caches — read those off each context's `stats()`). A
    /// resolution that coalesced onto another caller's in-flight build
    /// counts as a hit: it received warm shared state without computing.
    pub hits: u64,
    /// Registry lookups that led a cold build.
    pub misses: u64,
    /// Cold resolutions that started warm from an on-disk snapshot.
    pub snapshot_loads: u64,
    /// Snapshot files found but rejected (corruption, version or
    /// fingerprint mismatch, unreadable) — each one fell back to a clean
    /// cold miss.
    pub snapshot_rejections: u64,
    /// Panics caught and retried: failed single-flight leader builds
    /// plus computations isolated by [`ContextRegistry::run_isolated`].
    pub panics_recovered: u64,
    /// Resolutions that blocked on another caller's in-flight build
    /// instead of computing their own.
    pub singleflight_coalesced: u64,
    /// Transient snapshot I/O errors absorbed by a retry. Process-wide
    /// (the snapshot layer's saves retry too, without a registry in
    /// hand), not per-registry.
    pub io_retries: u64,
    /// Leftover per-call snapshot temp files garbage-collected by this
    /// registry's startup sweeps.
    pub tmp_files_swept: u64,
    /// Completed cold builds thrown away because another resolver's
    /// context was already registered. Single-flight exists to hold
    /// this at zero; nonzero means the coalescing broke.
    pub duplicate_computes: u64,
}

/// Keyed registry of shared condensation contexts: graph fingerprint →
/// `Arc<CondenseContext>`. See the module docs.
#[derive(Default)]
pub struct ContextRegistry {
    /// Finished contexts only; builds in the air live in `flights`.
    entries: Mutex<FxHashMap<GraphFingerprint, Resident>>,
    /// Cold builds in the air. A failed build finishes its call with
    /// `Err(())`; the leader keeps the panic payload.
    flights: SingleFlight<GraphFingerprint, Arc<CondenseContext<'static>>, ()>,
    /// Snapshot directories already swept for leftover temp files; the
    /// sweep runs once per directory per registry (the "startup" of
    /// this registry's use of that directory).
    swept_dirs: Mutex<FxHashSet<PathBuf>>,
    hits: AtomicU64,
    misses: AtomicU64,
    snapshot_loads: AtomicU64,
    snapshot_rejections: AtomicU64,
    panics_recovered: AtomicU64,
    singleflight_coalesced: AtomicU64,
    tmp_files_swept: AtomicU64,
    duplicate_computes: AtomicU64,
    /// Logical clock stamping each resolution; orders
    /// [`ContextRegistry::evict_idle`]'s LRU scan. Monotonic, never
    /// wall-clock — determinism survives.
    touch_clock: AtomicU64,
}

impl ContextRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry, for callers without a natural owner
    /// for one (examples, ad-hoc tools). Long-running services should
    /// prefer owning a registry so they control its lifetime and can
    /// [`ContextRegistry::clear`] it on dataset reloads.
    pub fn global() -> &'static ContextRegistry {
        static GLOBAL: OnceLock<ContextRegistry> = OnceLock::new();
        GLOBAL.get_or_init(ContextRegistry::new)
    }

    /// Resolves the shared context for `graph`, creating and registering
    /// it on first sight. The fingerprint is computed here — hold the
    /// returned `Arc` rather than re-resolving per call on a hot path.
    /// No field of the spec shapes the context; the parameter stays for
    /// existing callers.
    pub fn context_for(
        &self,
        graph: &Arc<HeteroGraph>,
        _spec: &CondenseSpec,
    ) -> Arc<CondenseContext<'static>> {
        self.resolve(graph, None, None).0
    }

    /// Next tick of the resolution clock.
    fn tick(&self) -> u64 {
        self.touch_clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The finished context registered under `key`, with its recency
    /// refreshed. Callers collision-check the hit.
    fn ready(&self, key: &GraphFingerprint) -> Option<Arc<CondenseContext<'static>>> {
        let mut entries = relock(&self.entries);
        let resident = entries.get_mut(key)?;
        resident.touch = self.tick();
        Some(Arc::clone(&resident.ctx))
    }

    /// Warm-only lookup: returns the registered context for `graph` if —
    /// and only if — a finished build is already resident.
    /// Never builds, never blocks on an in-flight build (one reports
    /// `None`), and counts in neither lookup bucket of
    /// [`ContextRegistry::stats`]; it does refresh the entry's recency
    /// for [`ContextRegistry::evict_idle`]. This is the serving fast
    /// path: answer a warm request without ever touching a worker pool,
    /// fall through to the queued [`ContextRegistry::context_for`] path
    /// on `None`.
    pub fn peek(&self, graph: &Arc<HeteroGraph>) -> Option<Arc<CondenseContext<'static>>> {
        let key = graph.fingerprint();
        let ctx = self.ready(&key)?;
        self.check_collision(graph, &ctx, &key);
        Some(ctx)
    }

    /// Resident cache bytes across *every* registered context: the sum
    /// of each ready context's byte ledger
    /// ([`CondenseContext::cache_bytes`] — composed + influence +
    /// diversity + propagated). This rollup is the number a multi-graph
    /// deployment watches, and the input [`ContextRegistry::evict_idle`]
    /// shrinks. In-flight builds contribute nothing (their caches are
    /// empty until published).
    pub fn resident_bytes(&self) -> u64 {
        relock(&self.entries)
            .values()
            .map(|r| r.ctx.cache_bytes() as u64)
            .fold(0u64, u64::saturating_add)
    }

    /// Drops whole least-recently-resolved contexts until the rollup
    /// ([`ContextRegistry::resident_bytes`]) is ≤ `keep_bytes`. Returns
    /// how many contexts were dropped.
    ///
    /// Eviction is per *context*, not per cache entry: a serving
    /// process sheds whole idle datasets, and each surviving context
    /// keeps all of its entries. Recency is
    /// the registry's logical resolution clock (every
    /// `context_for`/`peek` hit refreshes it), so the order is
    /// deterministic for a deterministic request history. In-flight
    /// builds are never dropped (their leaders insert on completion
    /// anyway), and outstanding `Arc`s keep their contexts alive —
    /// eviction here only forgets them, exactly like
    /// [`ContextRegistry::evict`].
    ///
    /// Before that, every call forgets each context that caches nothing
    /// and that only the registry holds, whatever `keep_bytes` is: such
    /// a context (one whose requests all ran a method that fills no
    /// cache, such as Random-HG) counts 0 bytes against any budget, yet
    /// keeps its graph alive.
    pub fn evict_idle(&self, keep_bytes: u64) -> usize {
        let mut entries = relock(&self.entries);
        let registered = entries.len();
        entries.retain(|_, r| r.ctx.cache_bytes() > 0 || Arc::strong_count(&r.ctx) > 1);
        let mut dropped = registered - entries.len();
        let mut ready: Vec<(GraphFingerprint, u64, u64)> = entries
            .iter()
            .map(|(key, r)| (*key, r.touch, r.ctx.cache_bytes() as u64))
            .collect();
        let mut resident = ready
            .iter()
            .map(|&(_, _, bytes)| bytes)
            .fold(0u64, u64::saturating_add);
        if resident <= keep_bytes {
            return dropped;
        }
        ready.sort_by_key(|&(_, touch, _)| touch);
        for (key, _, bytes) in ready {
            if resident <= keep_bytes {
                break;
            }
            entries.remove(&key);
            resident = resident.saturating_sub(bytes);
            dropped += 1;
        }
        dropped
    }

    /// [`ContextRegistry::context_for`] with every warm-start source a
    /// cold build may draw on, returning the context plus a report of
    /// the entries the build inherited (empty on a hit — the context is
    /// already warm).
    ///
    /// * `delta = Some((old_fp, delta))` resolves a *mutated* graph:
    ///   `old_fp` is the fingerprint of the graph before
    ///   [`HeteroGraph::apply_delta`] ran (capture it with
    ///   [`HeteroGraph::fingerprint`] first), `graph` the mutated graph
    ///   and `delta` the exact delta applied. If the old fingerprint is
    ///   registered, the fresh context is seeded via
    ///   [`CondenseContext::seed_from`]: every entry the delta provably
    ///   does not touch is inherited, the rest recompute lazily —
    ///   bitwise-identical to a cold rebuild.
    /// * `dir` names a snapshot directory. With no live old context to
    ///   seed from, a cold build first tries the canonical snapshot file
    ///   ([`snapshot_file_name`](crate::snapshot::snapshot_file_name)) of
    ///   `graph` itself, then — with a delta — the *old* fingerprint's
    ///   file filtered through the same invalidation rules, so a delta
    ///   update beats a cold rebuild even across restarts. *Any* problem
    ///   with a file — absent, truncated, corrupted, wrong version,
    ///   wrong checksum, wrong fingerprint — falls back to plain cold
    ///   compute; a snapshot can save work, never change bits and never
    ///   turn into an error. Transient read errors are retried with
    ///   backoff first. Loads and rejections are counted in
    ///   [`ContextRegistry::stats`].
    pub fn resolve(
        &self,
        graph: &Arc<HeteroGraph>,
        dir: Option<&Path>,
        delta: Option<(GraphFingerprint, &GraphDelta)>,
    ) -> (Arc<CondenseContext<'static>>, SeedReport) {
        if let Some(dir) = dir {
            self.sweep_once(dir);
        }
        let key = graph.fingerprint();
        self.resolve_single_flight(key, graph, |ctx| self.warm_start(ctx, dir, delta))
    }

    /// Panic-checks a fingerprint hit: serving another graph's warm
    /// precompute would be silently wrong output, so a (vanishingly
    /// unlikely) hash collision is loudly rejected instead of absorbed.
    fn check_collision(
        &self,
        graph: &Arc<HeteroGraph>,
        ctx: &Arc<CondenseContext<'static>>,
        key: &GraphFingerprint,
    ) {
        assert!(
            ctx.shared_graph().is_some_and(|g| Arc::ptr_eq(graph, g))
                || same_shape(graph, ctx.graph()),
            "GraphFingerprint collision: two structurally different graphs hashed to \
             {} — refusing to share a context",
            key
        );
    }

    /// The single-flight core every resolution funnels through.
    ///
    /// Exactly one caller per key runs `build` (on a fresh context,
    /// outside any lock); concurrent resolvers of the same key follow the
    /// leader's call and share its result. `build` returns the
    /// snapshot-load outcome plus a per-resolution report; waiters and
    /// plain hits get an empty report — the report describes work only
    /// its owner performed.
    ///
    /// The leader installs its context in `entries` before it finishes
    /// the call, and a newly elected leader re-checks `entries` before it
    /// builds — so a resolver that missed `entries` just as the previous
    /// call retired finds the context instead of building it again.
    ///
    /// A panicking build never publishes: the partial context is
    /// dropped, the call is finished as failed, and the build is retried
    /// — by this caller or by exactly one woken waiter, whichever
    /// re-joins first — up to [`MAX_BUILD_ATTEMPTS`] observed failures
    /// per caller.
    fn resolve_single_flight(
        &self,
        key: GraphFingerprint,
        graph: &Arc<HeteroGraph>,
        build: impl Fn(&CondenseContext<'static>) -> (DiskLoad, SeedReport),
    ) -> (Arc<CondenseContext<'static>>, SeedReport) {
        let mut failures = 0usize;
        loop {
            if let Some(ctx) = self.ready(&key) {
                self.check_collision(graph, &ctx, &key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (ctx, SeedReport::default());
            }
            let call = match self.flights.join(&key) {
                Role::Leader(call) => call,
                Role::Follower(call) => {
                    self.singleflight_coalesced.fetch_add(1, Ordering::Relaxed);
                    if let Ok(ctx) = call.wait() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (ctx, SeedReport::default());
                    }
                    failures += 1;
                    assert!(
                        failures < MAX_BUILD_ATTEMPTS,
                        "registry build for {key} failed {failures} times; giving up"
                    );
                    continue;
                }
            };
            if let Some(ctx) = self.ready(&key) {
                // The previous leader published between our miss and
                // our election: hand its context to our followers.
                self.flights.finish(&key, &call, Ok(Arc::clone(&ctx)));
                self.check_collision(graph, &ctx, &key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (ctx, SeedReport::default());
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            // Construction is cheap (empty caches) and the optional disk
            // load is pure pre-warming, so the whole build runs outside
            // any lock. Unwind safety holds because a failed build's
            // context is dropped whole — nothing partial can escape.
            let built = catch_unwind(AssertUnwindSafe(|| {
                failpoints::fire_panic(failpoints::REGISTRY_BUILD_PANIC);
                failpoints::fire_delay(failpoints::REGISTRY_BUILD_DELAY);
                let ctx = Arc::new(CondenseContext::shared(Arc::clone(graph)));
                let (load_outcome, report) = build(&ctx);
                (ctx, load_outcome, report)
            }));
            match built {
                Ok((ctx, load_outcome, report)) => {
                    match load_outcome {
                        DiskLoad::Loaded(_) => {
                            self.snapshot_loads.fetch_add(1, Ordering::Relaxed);
                        }
                        DiskLoad::Rejected => {
                            self.snapshot_rejections.fetch_add(1, Ordering::Relaxed);
                        }
                        DiskLoad::Absent => {}
                    }
                    let installed = Resident {
                        ctx: Arc::clone(&ctx),
                        touch: self.tick(),
                    };
                    if relock(&self.entries).insert(key, installed).is_some() {
                        // Unreachable while single-flight holds: our
                        // call kept every other resolver following.
                        self.duplicate_computes.fetch_add(1, Ordering::Relaxed);
                    }
                    self.flights.finish(&key, &call, Ok(Arc::clone(&ctx)));
                    return (ctx, report);
                }
                Err(payload) => {
                    self.flights.finish(&key, &call, Err(()));
                    self.panics_recovered.fetch_add(1, Ordering::Relaxed);
                    failures += 1;
                    if failures >= MAX_BUILD_ATTEMPTS {
                        resume_unwind(payload);
                    }
                }
            }
        }
    }

    /// Pre-warms the fresh context a cold build publishes: from
    /// the old fingerprint's live context when a delta names one, else
    /// from disk (see [`ContextRegistry::resolve`]).
    fn warm_start(
        &self,
        ctx: &CondenseContext<'static>,
        dir: Option<&Path>,
        delta: Option<(GraphFingerprint, &GraphDelta)>,
    ) -> (DiskLoad, SeedReport) {
        if let Some((old_fp, delta)) = delta {
            // A live old context is the cheapest seed source: inherit
            // its surviving entries in-memory. Clone the Arc out of the
            // lock so seeding (which walks every cache) runs unlocked.
            // An old entry still *building* counts as absent — waiting
            // on it from inside our own build could deadlock two deltas
            // chasing each other.
            let old_ctx = relock(&self.entries)
                .get(&old_fp)
                .map(|r| Arc::clone(&r.ctx));
            if let Some(old_ctx) = old_ctx {
                return (DiskLoad::Absent, ctx.seed_from(&old_ctx, delta));
            }
        }
        let Some(dir) = dir else {
            return (DiskLoad::Absent, SeedReport::default());
        };
        // An exact snapshot of this graph (if a previous process already
        // paid for it) beats a delta-filtered load of the old one.
        let mut load = load_canonical(ctx, dir, None);
        if let (Some(delta), false) = (delta, matches!(load, DiskLoad::Loaded(_))) {
            match load_canonical(ctx, dir, Some(delta)) {
                DiskLoad::Absent => {}
                filtered => load = filtered,
            }
        }
        let report = match &load {
            DiskLoad::Loaded(r) => *r,
            _ => SeedReport::default(),
        };
        (load, report)
    }

    /// Runs `f` with panic isolation: a panicking run is counted in
    /// [`ContextRegistry::stats`] and retried, up to
    /// `MAX_COMPUTE_ATTEMPTS` total attempts; the final attempt runs
    /// unprotected so a persistent fault propagates with its original
    /// payload. `Condenser::condense_shared` routes its condensation
    /// through here, so one request hitting a bug (or an injected
    /// fault) degrades to a retry instead of taking the process down
    /// with a poisoned lock.
    ///
    /// Safe to retry because everything `f` may have touched — the
    /// context caches — only ever publishes complete entries; an
    /// unwound compute leaves warm state exactly as consistent as
    /// before it started.
    pub fn run_isolated<T>(&self, mut f: impl FnMut() -> T) -> T {
        for _ in 1..MAX_COMPUTE_ATTEMPTS {
            match catch_unwind(AssertUnwindSafe(&mut f)) {
                Ok(v) => return v,
                Err(_) => {
                    self.panics_recovered.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        f()
    }

    /// Garbage-collects leftover per-call snapshot temp files the first
    /// time this registry touches `dir` — the startup sweep that cleans
    /// up after crashed writers (see
    /// [`sweep_tmp_files`](crate::snapshot::sweep_tmp_files)).
    fn sweep_once(&self, dir: &Path) {
        let mut swept = relock(&self.swept_dirs);
        if swept.insert(dir.to_path_buf()) {
            if let Ok(n) = crate::snapshot::sweep_tmp_files(dir) {
                self.tmp_files_swept.fetch_add(n as u64, Ordering::Relaxed);
            }
        }
    }

    /// Writes the registered context for `graph` to its
    /// canonical snapshot file under `dir` (creating the directory),
    /// registering the context first if needed. Returns the path a later
    /// [`ContextRegistry::resolve`] with this `dir` will find it at.
    ///
    /// The write *merges* (see [`CondenseContext::persist_snapshot`]):
    /// valid entries already in the file that this context lacks are
    /// kept, so persisting from a process that did less work than a
    /// previous one never shrinks the artifact.
    pub fn persist(&self, dir: &Path, graph: &Arc<HeteroGraph>) -> Result<PathBuf, SnapshotError> {
        let ctx = self.resolve(graph, None, None).0;
        std::fs::create_dir_all(dir)?;
        self.sweep_once(dir);
        ctx.persist_snapshot(dir)
    }

    /// Number of registered contexts (including in-flight builds).
    pub fn len(&self) -> usize {
        let building = self.flights.keys();
        let entries = relock(&self.entries);
        let unpublished = building.iter().filter(|k| !entries.contains_key(k));
        entries.len() + unpublished.count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time registry counters: lookups, snapshot loads and
    /// rejections, and the fault recoveries (see [`RegistryStats`]).
    pub fn stats(&self) -> RegistryStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RegistryStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            snapshot_loads: load(&self.snapshot_loads),
            snapshot_rejections: load(&self.snapshot_rejections),
            panics_recovered: load(&self.panics_recovered),
            singleflight_coalesced: load(&self.singleflight_coalesced),
            io_retries: crate::snapshot::io_retries(),
            tmp_files_swept: load(&self.tmp_files_swept),
            duplicate_computes: load(&self.duplicate_computes),
        }
    }

    /// Drops the context registered for `fingerprint`. Outstanding
    /// `Arc`s keep it alive; subsequent resolutions start cold. An
    /// in-flight build is left to finish (its leader inserts on
    /// completion). Returns how many ready entries were dropped (0 or 1).
    pub fn evict(&self, fingerprint: GraphFingerprint) -> usize {
        usize::from(relock(&self.entries).remove(&fingerprint).is_some())
    }

    /// Drops every registered (ready) context. In-flight builds are
    /// untouched, so waiters still receive their leader's context.
    pub fn clear(&self) {
        relock(&self.entries).clear();
    }
}

impl std::fmt::Debug for ContextRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ContextRegistry")
            .field("len", &self.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CacheFamily;
    use crate::features::FeatureMatrix;
    use crate::graph::HeteroGraphBuilder;
    use crate::schema::Schema;

    fn lookups(reg: &ContextRegistry) -> (u64, u64) {
        let s = reg.stats();
        (s.hits, s.misses)
    }

    fn disk_loads(reg: &ContextRegistry) -> (u64, u64) {
        let s = reg.stats();
        (s.snapshot_loads, s.snapshot_rejections)
    }

    fn graph(seed_weight: f32) -> HeteroGraph {
        let mut s = Schema::new();
        let p = s.add_node_type("paper");
        let a = s.add_node_type("author");
        let pa = s.add_edge_type("pa", p, a);
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![3, 2]);
        for (pp, aa) in [(0, 0), (1, 0), (1, 1), (2, 1)] {
            b.add_weighted_edge(pa, pp, aa, seed_weight);
        }
        b.set_features(p, FeatureMatrix::zeros(3, 1));
        b.set_features(a, FeatureMatrix::zeros(2, 1));
        b.set_labels(vec![0, 1, 0], 2);
        b.build()
    }

    #[test]
    fn fingerprint_is_content_based() {
        let a = graph(1.0);
        let b = graph(1.0);
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal content");
        let c = graph(2.0);
        assert_ne!(a.fingerprint(), c.fingerprint(), "different edge weight");
        let mut d = graph(1.0);
        assert_eq!(a.fingerprint(), d.fingerprint(), "memo populated equal");
        d.set_features(
            d.schema().target(),
            FeatureMatrix::from_rows(1, vec![7.0, 0.0, 0.0]),
        );
        assert_ne!(
            a.fingerprint(),
            d.fingerprint(),
            "mutating setters must invalidate the memoized fingerprint"
        );
    }

    #[test]
    fn registry_shares_one_context_per_graph() {
        let reg = ContextRegistry::new();
        let g1 = Arc::new(graph(1.0));
        let g2 = Arc::new(graph(1.0)); // same content, different allocation
        let spec = CondenseSpec::new(0.5);
        let a = reg.context_for(&g1, &spec);
        let b = reg.context_for(&g2, &spec);
        assert!(Arc::ptr_eq(&a, &b), "equal graphs must share a context");
        assert_eq!(reg.len(), 1);
        assert_eq!(lookups(&reg), (1, 1));
    }

    #[test]
    fn registry_discriminates_graphs_and_knobs() {
        let reg = ContextRegistry::new();
        let g1 = Arc::new(graph(1.0));
        let g2 = Arc::new(graph(3.0));
        let spec = CondenseSpec::new(0.5);
        let a = reg.context_for(&g1, &spec);
        let b = reg.context_for(&g2, &spec);
        assert!(!Arc::ptr_eq(&a, &b), "different graphs, different contexts");
        // No spec field shapes the context: the key is the graph alone.
        let c = reg.context_for(&g1, &CondenseSpec::new(0.1).with_max_paths(3));
        assert!(Arc::ptr_eq(&a, &c), "same graph, any spec, one context");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn evict_and_clear_release_entries() {
        let reg = ContextRegistry::new();
        let g1 = Arc::new(graph(1.0));
        let g2 = Arc::new(graph(2.0));
        let spec = CondenseSpec::new(0.5);
        let a = reg.context_for(&g1, &spec);
        reg.context_for(&g2, &spec);
        assert_eq!(reg.evict(g1.fingerprint()), 1);
        assert_eq!(reg.len(), 1);
        // The outstanding Arc stays alive; a re-resolution starts fresh.
        let a2 = reg.context_for(&g1, &spec);
        assert!(!Arc::ptr_eq(&a, &a2));
        reg.clear();
        assert!(reg.is_empty());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fhgc-registry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resolve_with_a_snapshot_dir_round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let g = Arc::new(graph(1.0));
        let spec = CondenseSpec::new(0.5);
        let root = g.schema().target();

        // Warm a context in "process one" and persist it.
        let reg = ContextRegistry::new();
        let ctx = reg.context_for(&g, &spec);
        for p in ctx.metapaths(root, 2, 100).iter() {
            ctx.adjacency(p);
        }
        let path = reg.persist(&dir, &g).unwrap();
        assert!(path.exists());

        // "Process two": a fresh registry resolves warm from the file.
        let reg2 = ContextRegistry::new();
        let ctx2 = reg2.resolve(&g, Some(&dir), None).0;
        assert_eq!(disk_loads(&reg2), (1, 0));
        let before = ctx2.stats();
        for p in ctx2.metapaths(root, 2, 100).iter() {
            assert_eq!(*ctx2.adjacency(p), *ctx.adjacency(p), "loaded bits");
        }
        assert_eq!(
            ctx2.stats()[CacheFamily::Composed].misses,
            before[CacheFamily::Composed].misses,
            "warm-from-disk context must not re-miss on compositions"
        );

        // Re-resolving is an in-memory hit: no second disk load.
        let ctx3 = reg2.resolve(&g, Some(&dir), None).0;
        assert!(Arc::ptr_eq(&ctx2, &ctx3));
        assert_eq!(disk_loads(&reg2), (1, 0));
        assert_eq!(lookups(&reg2), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_a_plain_cold_miss() {
        let dir = temp_dir("missing");
        let g = Arc::new(graph(1.0));
        let reg = ContextRegistry::new();
        let ctx = reg.resolve(&g, Some(&dir), None).0;
        assert_eq!(
            disk_loads(&reg),
            (0, 0),
            "no file is neither a load nor a rejection"
        );
        assert_eq!(ctx.composed_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_snapshots_fall_back_to_cold_compute() {
        let dir = temp_dir("reject");
        let g = Arc::new(graph(1.0));
        let spec = CondenseSpec::new(0.5);
        let root = g.schema().target();
        let reg = ContextRegistry::new();
        let ctx = reg.context_for(&g, &spec);
        for p in ctx.metapaths(root, 2, 100).iter() {
            ctx.adjacency(p);
        }
        let path = reg.persist(&dir, &g).unwrap();

        // Corrupt the file in place: the loader must reject it, count
        // the rejection, and serve correct bits from cold compute.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let reg2 = ContextRegistry::new();
        let cold = reg2.resolve(&g, Some(&dir), None).0;
        assert_eq!(disk_loads(&reg2), (0, 1));
        assert_eq!(cold.composed_len(), 0, "nothing installed from corruption");
        for p in cold.metapaths(root, 2, 100).iter() {
            assert_eq!(*cold.adjacency(p), *ctx.adjacency(p), "cold recompute");
        }

        // A *valid* snapshot of a different graph placed under this
        // graph's canonical name: fingerprint check rejects it.
        let g2 = Arc::new(graph(2.0));
        let reg3 = ContextRegistry::new();
        let ctx_b = reg3.context_for(&g2, &spec);
        for p in ctx_b.metapaths(root, 2, 100).iter() {
            ctx_b.adjacency(p);
        }
        let other_path = reg3.persist(&dir, &g2).unwrap();
        std::fs::copy(&other_path, &path).unwrap();
        let reg4 = ContextRegistry::new();
        let ctx4 = reg4.resolve(&g, Some(&dir), None).0;
        assert_eq!(disk_loads(&reg4), (0, 1), "wrong fingerprint rejected");
        assert_eq!(ctx4.composed_len(), 0);

        // g2's valid file with g's fingerprint written over its own: the
        // checksum covers the fingerprint (bytes 20..36), so the splice
        // is rejected too rather than serving g2's bits as g's.
        let fp = g.fingerprint();
        let mut bytes = std::fs::read(&other_path).unwrap();
        bytes[20..28].copy_from_slice(&fp.0.to_le_bytes());
        bytes[28..36].copy_from_slice(&fp.1.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let reg5 = ContextRegistry::new();
        let ctx5 = reg5.resolve(&g, Some(&dir), None).0;
        assert_eq!(disk_loads(&reg5), (0, 1), "spliced fingerprint rejected");
        assert_eq!(ctx5.composed_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn global_registry_is_a_singleton() {
        assert!(std::ptr::eq(
            ContextRegistry::global(),
            ContextRegistry::global()
        ));
    }

    #[test]
    fn poisoned_entries_lock_recovers() {
        let reg = ContextRegistry::new();
        let g = Arc::new(graph(1.0));
        let spec = CondenseSpec::new(0.5);
        reg.context_for(&g, &spec);
        // Poison the map mutex the way a panicking lock holder would.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = reg.entries.lock().unwrap();
            panic!("poison the registry mutex");
        }));
        assert!(reg.entries.lock().is_err(), "mutex must be poisoned");
        // Every public entry point must keep serving regardless.
        assert_eq!(reg.len(), 1);
        let warm = reg.context_for(&g, &spec);
        assert_eq!(lookups(&reg), (1, 1), "post-poison hit");
        let g2 = Arc::new(graph(2.0));
        let cold = reg.context_for(&g2, &spec);
        assert!(!Arc::ptr_eq(&warm, &cold));
        assert_eq!(reg.evict(g2.fingerprint()), 1);
        reg.clear();
        assert!(reg.is_empty());
    }

    #[test]
    fn run_isolated_retries_and_counts_panics() {
        let reg = ContextRegistry::new();
        let mut calls = 0;
        let out = reg.run_isolated(|| {
            calls += 1;
            if calls == 1 {
                panic!("first attempt fails");
            }
            calls
        });
        assert_eq!(out, 2, "second attempt's value is returned");
        assert_eq!(reg.stats().panics_recovered, 1);
    }

    #[test]
    fn run_isolated_propagates_a_persistent_panic() {
        let reg = ContextRegistry::new();
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            reg.run_isolated(|| -> () { panic!("always fails") })
        }));
        let payload = res.expect_err("persistent fault must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("always fails"),
            "the original payload must survive the retries"
        );
        assert_eq!(
            reg.stats().panics_recovered as usize,
            MAX_COMPUTE_ATTEMPTS - 1,
            "every protected attempt is counted"
        );
    }

    #[test]
    fn peek_is_warm_only_and_refreshes_recency() {
        let reg = ContextRegistry::new();
        let g = Arc::new(graph(1.0));
        let spec = CondenseSpec::new(0.5);
        assert!(reg.peek(&g).is_none(), "cold peek must not build");
        assert!(reg.is_empty(), "peek must not register anything");
        assert_eq!(lookups(&reg), (0, 0), "peek is not a lookup");
        let ctx = reg.context_for(&g, &spec);
        let peeked = reg.peek(&g).expect("warm peek");
        assert!(Arc::ptr_eq(&ctx, &peeked));
        assert_eq!(lookups(&reg), (0, 1), "peek hits stay uncounted");
    }

    #[test]
    fn resident_bytes_rolls_up_context_ledgers() {
        let reg = ContextRegistry::new();
        let g = Arc::new(graph(1.0));
        let spec = CondenseSpec::new(0.5);
        assert_eq!(reg.resident_bytes(), 0);
        let ctx = reg.context_for(&g, &spec);
        let root = g.schema().target();
        for p in ctx.metapaths(root, 2, 100).iter() {
            ctx.adjacency(p);
        }
        let one = reg.resident_bytes();
        assert_eq!(one, ctx.cache_bytes() as u64, "one context, its ledger");
        assert!(one > 0, "warming must grow the rollup");
        let g2 = Arc::new(graph(2.0));
        let ctx2 = reg.context_for(&g2, &spec);
        for p in ctx2.metapaths(root, 2, 100).iter() {
            ctx2.adjacency(p);
        }
        assert_eq!(
            reg.resident_bytes(),
            (ctx.cache_bytes() + ctx2.cache_bytes()) as u64,
            "two contexts sum"
        );
    }

    #[test]
    fn evict_idle_drops_least_recently_resolved_first() {
        let reg = ContextRegistry::new();
        let ga = Arc::new(graph(1.0));
        let gb = Arc::new(graph(2.0));
        let spec = CondenseSpec::new(0.5);
        let root = ga.schema().target();
        for g in [&ga, &gb] {
            let ctx = reg.context_for(g, &spec);
            for p in ctx.metapaths(root, 2, 100).iter() {
                ctx.adjacency(p);
            }
        }
        // Touch A after B so B is the least recently resolved.
        reg.context_for(&ga, &spec);
        assert_eq!(reg.evict_idle(reg.resident_bytes()), 0, "already fits");
        let a_bytes = reg.peek(&ga).unwrap().cache_bytes() as u64;
        assert_eq!(reg.evict_idle(a_bytes), 1, "dropping B alone suffices");
        assert!(reg.peek(&ga).is_some(), "recently-touched A survives");
        assert!(reg.peek(&gb).is_none(), "idle B was dropped");
        assert_eq!(reg.evict_idle(0), 1, "zero ceiling clears the rest");
        assert!(reg.is_empty());
    }

    #[test]
    fn evict_idle_forgets_unheld_contexts_that_cache_nothing() {
        let reg = ContextRegistry::new();
        let (ga, gb) = (Arc::new(graph(1.0)), Arc::new(graph(2.0)));
        let spec = CondenseSpec::new(0.5);
        assert_eq!(reg.context_for(&ga, &spec).cache_bytes(), 0);
        let held = reg.context_for(&gb, &spec);
        assert_eq!(held.cache_bytes(), 0);
        assert_eq!(reg.evict_idle(u64::MAX), 1, "under any budget");
        assert!(reg.peek(&ga).is_none(), "the unheld empty context is gone");
        assert!(reg.peek(&gb).is_some(), "an outstanding Arc keeps B");
        drop(held);
        assert_eq!(reg.evict_idle(u64::MAX), 1);
        assert!(reg.is_empty());
    }

    #[test]
    fn concurrent_cold_resolutions_single_flight() {
        let reg = ContextRegistry::new();
        let g = Arc::new(graph(1.0));
        let spec = CondenseSpec::new(0.5);
        let n = 8;
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
        // Exactly one cold build; every other resolution was a hit
        // (served from the map or coalesced onto the in-flight build).
        assert_eq!(lookups(&reg), (n as u64 - 1, 1));
        assert_eq!(reg.stats().duplicate_computes, 0);
        assert_eq!(reg.len(), 1);
    }
}
