//! The shared condensation context: one precompute, many condensers.
//!
//! FreeHGC is training-free, so the cost of condensing a graph is
//! dominated by *reusable* pre-processing: meta-path enumeration over the
//! schema, SpGEMM composition of the per-path adjacencies (Eq. 1), PPR
//! influence scoring (Eq. 10–13), the per-path Jaccard diversity bonus of
//! Algorithm 1 (Eq. 5–7), and meta-path feature propagation. None of that
//! work depends on the condensation ratio, the variant, or the seed —
//! only on the full graph — so rebuilding it per layer and per call
//! would pay for the same compositions up to three times in one run and
//! recompute everything on an unchanged graph in every sweep.
//!
//! [`CondenseContext`] owns that precompute once per full graph, behind
//! interior mutability so it can be shared immutably (`&CondenseContext`)
//! across methods, ratios, seeds, and threads. It caches seven families
//! ([`CacheFamily`]):
//!
//! * the enumerated meta-path sets, keyed by `(root, max_hops, max_paths)`;
//! * the meta-path engine's single-step *factors* and composed *prefix*
//!   products (the Eq. 1 adjacencies), keyed by the step sequence;
//! * oriented per-relation adjacencies (`from → to`, transposing stored
//!   reverse relations), used by the leaf synthesis — including the
//!   *negative* answer when the schema has no relation between two types;
//! * aggregated influence-score vectors, keyed by [`InfluenceKey`]
//!   (father type, hop/path caps, the importance backend's bit-exact
//!   parameters, the seed-target set, and the RNG seed);
//! * the per-path diversity bonuses `1 − Ĵ_v(ϕ)` of Algorithm 1, keyed by
//!   [`DiversityKey`] — they depend only on the composed adjacencies and
//!   the sibling-path grouping, never on the ratio or seed, so a ratio or
//!   seed sweep computes each one exactly once;
//! * propagated-feature blocks ([`PropagatedFeatures`]), keyed by
//!   `(max_hops, max_paths)` and filled through
//!   [`propagate_ctx`](crate::propagation::propagate_ctx).
//!
//! Every cached value is the output of a deterministic pure function of
//! the graph and the key, so caching is *transparent*: a condenser run
//! through a warm context is bitwise-identical to a fresh run — the same
//! contract the parallel kernels keep across thread counts. Hit/miss
//! counters ([`CondenseContext::stats`]) make reuse observable; the
//! registry and context equivalence suites assert on them.
//!
//! # The byte ledger
//!
//! All seven families share one map, keyed by one key type, that records
//! the resident bytes of composed adjacencies, influence vectors,
//! diversity bonuses and — dominating everything — dense propagated
//! blocks, in total ([`CondenseContext::cache_bytes`]) and per family
//! ([`FamilyCounters::bytes`]). Paths, factors and oriented adjacencies
//! are charged 0 bytes: paths and oriented adjacencies are schema-sized,
//! and the factor buffers are pinned by the meta-path engine regardless
//! (single-step paths are served by the factor family, never charged as
//! compositions). The ledger bounds nothing itself: the one memory bound
//! is whole-context eviction in the registry
//! ([`ContextRegistry::evict_idle`](crate::registry::ContextRegistry::evict_idle)),
//! which reads these totals.
//!
//! The context borrows its graph by default ([`CondenseContext::new`]);
//! [`CondenseContext::shared`] instead takes `Arc<HeteroGraph>` ownership
//! so a `'static` context can live in the cross-request
//! [`ContextRegistry`](crate::registry::ContextRegistry).

use crate::condense::MAX_ROW_NNZ;
use crate::graph::{GraphDelta, HeteroGraph};
use crate::metapath::{enumerate_metapaths, metapaths_to, MetaPath, MetaPathStep};
use crate::propagation::PropagatedFeatures;
use crate::schema::{NodeTypeId, Schema};
use freehgc_parallel::relock;
use freehgc_sparse::{CsrMatrix, FxHashMap};
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The seven cache families of a context, in install order. The
/// discriminant indexes every per-family array — [`CacheCounters`],
/// [`SeedReport`] and the byte ledger — and the variants of
/// the crate's one cache key follow the same order, so entries sorted
/// by key are sorted by family first. Adding a family means one variant
/// here plus its match arms (keep `Propagated` last, or move the
/// family count to the new last variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheFamily {
    /// Meta-path enumerations.
    Paths,
    /// Single-step row-normalized factors.
    Factors,
    /// Composed meta-path adjacencies (the SpGEMM products).
    Composed,
    /// Oriented per-relation adjacencies.
    Oriented,
    /// Aggregated influence-score vectors.
    Influence,
    /// Per-path diversity bonuses (Eq. 5–7).
    Diversity,
    /// Propagated-feature blocks.
    Propagated,
}

/// Number of cache families (the last variant is propagated).
const NUM_FAMILIES: usize = CacheFamily::Propagated as usize + 1;

/// One hit/miss pair, updated with relaxed atomics (counters are
/// diagnostics, never control flow).
#[derive(Debug, Default)]
struct Counter {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Counter {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// One cache family's counters. Only the four byte-counted families
/// (composed, influence, diversity, propagated) ever hold bytes;
/// paths, factors and oriented adjacencies count hits and misses
/// alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FamilyCounters {
    pub hits: u64,
    pub misses: u64,
    /// Resident bytes right now.
    pub bytes: u64,
}

/// A point-in-time snapshot of every cache family's counters, plus the
/// total of the byte ledger. Index it by family:
/// `stats[CacheFamily::Composed].hits`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Per-family counters, in [`CacheFamily`] order.
    pub families: [FamilyCounters; NUM_FAMILIES],
    /// Resident bytes across all four byte-counted families right now.
    /// Always equals [`CacheCounters::resident_bytes_total`] (a debug
    /// assertion in [`CondenseContext::stats`] cross-checks the two on
    /// every call).
    pub cache_bytes: u64,
}

impl Index<CacheFamily> for CacheCounters {
    type Output = FamilyCounters;

    fn index(&self, family: CacheFamily) -> &FamilyCounters {
        &self.families[family as usize]
    }
}

impl CacheCounters {
    /// Saturating sum of one statistic over every family: a counter
    /// total is a diagnostic, and a long-lived serving context must
    /// never panic (or wrap to a small number in release) just because
    /// its counters grew past `u64::MAX` combined.
    fn total(&self, stat: impl Fn(&FamilyCounters) -> u64) -> u64 {
        self.families
            .iter()
            .fold(0u64, |acc, f| acc.saturating_add(stat(f)))
    }

    /// Total hits across every cache (saturating).
    pub fn total_hits(&self) -> u64 {
        self.total(|f| f.hits)
    }

    /// Total misses across every cache (saturating).
    pub fn total_misses(&self) -> u64 {
        self.total(|f| f.misses)
    }

    /// Sum of the per-family resident bytes — by construction the same
    /// quantity as [`CacheCounters::cache_bytes`], recomputed from the
    /// per-family breakdown so the two ledgers can be cross-checked
    /// (saturating).
    pub fn resident_bytes_total(&self) -> u64 {
        self.total(|f| f.bytes)
    }
}

/// What warm-starting a context installed, per cache family — from a
/// live predecessor ([`CondenseContext::seed_from`]) or from a snapshot
/// file (`decode_snapshot_into`, which never carries paths or oriented
/// adjacencies) — plus what a delta dropped. Index it by family:
/// `report[CacheFamily::Composed]`. The delta-equivalence suite asserts
/// on these — nonzero reuse is what makes a delta update cheaper than a
/// cold rebuild.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeedReport {
    /// Entries installed, in [`CacheFamily`] order.
    pub installed: [usize; NUM_FAMILIES],
    /// Entries a delta invalidated (across all families); always 0
    /// without a delta.
    pub dropped: usize,
}

impl Index<CacheFamily> for SeedReport {
    type Output = usize;

    fn index(&self, family: CacheFamily) -> &usize {
        &self.installed[family as usize]
    }
}

impl SeedReport {
    /// Total entries inherited across every cache family.
    pub fn reused(&self) -> usize {
        self.installed.iter().sum()
    }
}

/// The survival rule of selective invalidation, shared by in-memory
/// delta seeding ([`CondenseContext::seed_from`]) and the snapshot
/// delta loader (`decode_snapshot_into` with a delta) so the two can
/// never disagree about which entries a delta kills. Path families are
/// pure functions of the schema (which a delta never changes), so
/// family lookups are memoized per `(root, max_hops, max_paths)`.
pub(crate) struct InvalidationRules<'s> {
    schema: &'s Schema,
    target: NodeTypeId,
    edge_dirty: Vec<bool>,
    feat_dirty: Vec<bool>,
    fam_memo: FxHashMap<PathKey, Arc<Vec<MetaPath>>>,
    influence_memo: FxHashMap<PathKey, bool>,
}

impl<'s> InvalidationRules<'s> {
    pub(crate) fn new(schema: &'s Schema, delta: &GraphDelta) -> Self {
        let mut edge_dirty = vec![false; schema.num_edge_types()];
        for e in delta.touched_edges() {
            edge_dirty[e.0 as usize] = true;
        }
        let mut feat_dirty = vec![false; schema.num_node_types()];
        for t in delta.touched_features() {
            feat_dirty[t.0 as usize] = true;
        }
        Self {
            schema,
            target: schema.target(),
            edge_dirty,
            feat_dirty,
            fam_memo: FxHashMap::default(),
            influence_memo: FxHashMap::default(),
        }
    }

    fn family(&mut self, root: NodeTypeId, mh: usize, mp: usize) -> Arc<Vec<MetaPath>> {
        Arc::clone(
            self.fam_memo
                .entry((root, mh, mp))
                .or_insert_with(|| Arc::new(enumerate_metapaths(self.schema, root, mh, mp))),
        )
    }

    fn steps_clean(&self, steps: &[MetaPathStep]) -> bool {
        steps.iter().all(|s| !self.edge_dirty[s.edge.0 as usize])
    }

    /// Whether the delta leaves the cached computation behind `key`
    /// untouched — i.e. whether its exact dependency set avoids every
    /// touched relation and feature table:
    ///
    /// * **paths** — enumeration reads only the schema; always survives.
    /// * **factors** — the factor of step `s` reads relation `s.edge`
    ///   alone.
    /// * **composed** — a product reads its steps' factors.
    /// * **oriented** — `(from, to)` resolves one schema relation; the
    ///   cached negative (no relation) is schema-only and always
    ///   survives.
    /// * **influence** — scores aggregate the composed adjacencies of
    ///   the family `Φ_L(target → father)` and never read features.
    /// * **diversity** — the bonus of path `i` reads the composed
    ///   adjacencies of `i` and its same-source-type siblings.
    /// * **propagated** — block 0 is the raw target features and block
    ///   `i` is `Â_i · X_source(i)`, so every family path's steps and
    ///   source features, plus the target's features, must be clean.
    pub(crate) fn survives(&mut self, key: &CacheKey) -> bool {
        match key {
            CacheKey::Paths(_) => true,
            CacheKey::Factors(step) => self.steps_clean(std::slice::from_ref(step)),
            CacheKey::Composed(steps) => self.steps_clean(steps),
            CacheKey::Oriented((from, to)) => match self.schema.edge_between(*from, *to) {
                None => true,
                Some((e, _)) => !self.edge_dirty[e.0 as usize],
            },
            CacheKey::Influence(k) => {
                let (schema, target) = (self.schema, self.target);
                let edge_dirty = &self.edge_dirty;
                *self
                    .influence_memo
                    .entry((k.father, k.max_hops, k.max_paths))
                    .or_insert_with(|| {
                        metapaths_to(schema, target, k.father, k.max_hops, k.max_paths)
                            .iter()
                            .all(|p| p.steps.iter().all(|s| !edge_dirty[s.edge.0 as usize]))
                    })
            }
            &CacheKey::Diversity((root, mh, mp, pi)) => {
                let fam = self.family(root, mh, mp);
                pi < fam.len() && {
                    let src = fam[pi].source();
                    fam.iter()
                        .filter(|p| p.source() == src)
                        .all(|p| self.steps_clean(&p.steps))
                }
            }
            &CacheKey::Propagated((mh, mp)) => {
                let target = self.target;
                let fam = self.family(target, mh, mp);
                !self.feat_dirty[target.0 as usize]
                    && fam.iter().all(|p| {
                        self.steps_clean(&p.steps) && !self.feat_dirty[p.source().0 as usize]
                    })
            }
        }
    }
}

/// Cache key for an aggregated influence-score vector (Eq. 12–13).
///
/// The key must capture *every* input the computation depends on, or a
/// cache hit could silently return scores for a different query; the
/// importance backend is encoded as a caller-defined discriminant plus
/// its bit-exact `f32`/count parameters (e.g. PPR's alpha, epsilon and
/// iteration cap as raw bits) so distinct configurations never collide.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InfluenceKey {
    /// The scored (father) node type.
    pub father: NodeTypeId,
    /// Meta-path hop bound of the query.
    pub max_hops: usize,
    /// Meta-path cap of the query.
    pub max_paths: usize,
    /// Backend discriminant plus bit-exact parameters.
    pub method: (u8, [u32; 4]),
    /// The seed-target subset (`None` = all targets).
    pub seed_targets: Option<Vec<u32>>,
    /// RNG seed (sampled backends such as closeness depend on it).
    pub seed: u64,
}

/// Cache key for one path's diversity bonus `1 − Ĵ_v(ϕ)` (Eq. 6–7):
/// `(root, max_hops, max_paths, path index)`. The enumerated path family
/// and its sibling grouping are deterministic functions of the first
/// three components (and the graph), and the composed adjacencies the
/// bonus reads are fixed by the constant fill-in cap, so the quadruple
/// pins the value exactly — the ratio and seed play no part in it.
pub type DiversityKey = (NodeTypeId, usize, usize, usize);

type PathKey = (NodeTypeId, usize, usize);

/// The graph a context precomputes for: borrowed for single-owner use,
/// `Arc`-shared for registry-resident `'static` contexts.
enum GraphHandle<'g> {
    Borrowed(&'g HeteroGraph),
    Shared(Arc<HeteroGraph>),
}

impl GraphHandle<'_> {
    fn get(&self) -> &HeteroGraph {
        match self {
            GraphHandle::Borrowed(g) => g,
            GraphHandle::Shared(g) => g,
        }
    }
}

/// One key across every cache family; the variant order matches
/// [`CacheFamily`]. Derives `Ord` so dumps sort family-first, in an
/// order that never depends on hash-map iteration order.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum CacheKey {
    Paths(PathKey),
    Factors(MetaPathStep),
    Composed(Vec<MetaPathStep>),
    Oriented((NodeTypeId, NodeTypeId)),
    Influence(InfluenceKey),
    Diversity(DiversityKey),
    Propagated((usize, usize)),
}

impl CacheKey {
    pub(crate) fn family(&self) -> CacheFamily {
        match self {
            CacheKey::Paths(_) => CacheFamily::Paths,
            CacheKey::Factors(_) => CacheFamily::Factors,
            CacheKey::Composed(_) => CacheFamily::Composed,
            CacheKey::Oriented(_) => CacheFamily::Oriented,
            CacheKey::Influence(_) => CacheFamily::Influence,
            CacheKey::Diversity(_) => CacheFamily::Diversity,
            CacheKey::Propagated(_) => CacheFamily::Propagated,
        }
    }
}

/// The value behind a [`CacheKey`]. Factors and composed products share
/// `Matrix`, influence and diversity share `Vector`; an oriented value
/// of `None` is the cached *negative* answer for a type pair the schema
/// has no relation between. The variant always matches the key's family
/// (values are only built next to their keys).
#[derive(Clone)]
pub(crate) enum CacheValue {
    Paths(Arc<Vec<MetaPath>>),
    Matrix(Arc<CsrMatrix>),
    Oriented(Option<Arc<CsrMatrix>>),
    Vector(Arc<Vec<f64>>),
    Propagated(Arc<PropagatedFeatures>),
}

impl CacheValue {
    fn into_paths(self) -> Arc<Vec<MetaPath>> {
        match self {
            CacheValue::Paths(p) => p,
            _ => unreachable!("path key holds a path value"),
        }
    }

    fn into_matrix(self) -> Arc<CsrMatrix> {
        match self {
            CacheValue::Matrix(m) => m,
            _ => unreachable!("matrix key holds a matrix value"),
        }
    }

    fn into_oriented(self) -> Option<Arc<CsrMatrix>> {
        match self {
            CacheValue::Oriented(a) => a,
            _ => unreachable!("oriented key holds an oriented value"),
        }
    }

    fn into_vector(self) -> Arc<Vec<f64>> {
        match self {
            CacheValue::Vector(v) => v,
            _ => unreachable!("vector key holds a vector value"),
        }
    }

    fn into_propagated(self) -> Arc<PropagatedFeatures> {
        match self {
            CacheValue::Propagated(p) => p,
            _ => unreachable!("propagated key holds a propagated value"),
        }
    }
}

/// One cache entry as [`CondenseContext::entries`] hands it out and
/// [`CondenseContext::install`] takes it — the single currency of delta
/// seeding and snapshots.
pub(crate) struct CacheEntry {
    pub(crate) key: CacheKey,
    pub(crate) value: CacheValue,
}

/// Resident bytes the byte ledger charges for `value` under `key`:
/// composed products, influence and diversity vectors and propagated
/// blocks are charged their buffers; paths, factors and oriented
/// adjacencies are charged nothing (see the module docs).
fn charged_bytes(key: &CacheKey, value: &CacheValue) -> usize {
    match (key, value) {
        (CacheKey::Composed(_), CacheValue::Matrix(m)) => m.storage_bytes(),
        (_, CacheValue::Vector(v)) => v.len() * std::mem::size_of::<f64>(),
        (_, CacheValue::Propagated(p)) => p.resident_bytes(),
        _ => 0,
    }
}

/// The one cache map: every family's entries under one key type, plus
/// their charged bytes in total and per [`CacheFamily`]. Lives behind
/// the context's mutex; the per-family ledger always sums to the total
/// — [`CondenseContext::stats`] debug-asserts it.
#[derive(Default)]
struct ByteLedger {
    map: FxHashMap<CacheKey, CacheValue>,
    bytes: usize,
    family_bytes: [usize; NUM_FAMILIES],
}

impl ByteLedger {
    /// Inserts `value` and charges its bytes. Returns the resident value
    /// (the already-cached one if a concurrent compute of the same key
    /// landed first — identical bits either way, so whichever wins is
    /// correct).
    fn insert(&mut self, key: CacheKey, value: CacheValue) -> CacheValue {
        if let Some(v) = self.map.get(&key) {
            return v.clone();
        }
        let bytes = charged_bytes(&key, &value);
        self.bytes += bytes;
        self.family_bytes[key.family() as usize] += bytes;
        self.map.insert(key, value.clone());
        value
    }

    fn family_len(&self, fam: CacheFamily) -> usize {
        self.map.keys().filter(|k| k.family() == fam).count()
    }
}

/// Whether any row of `m` holds more than `k` entries — the per-row
/// fill-in contract [`MAX_ROW_NNZ`] promises.
fn any_row_exceeds(m: &CsrMatrix, k: usize) -> bool {
    (0..m.nrows()).any(|r| m.row_nnz(r) > k)
}

/// Shared, thread-safe precompute for one full graph. See the module
/// docs for what is cached; construction is cheap (all caches start
/// empty), so a context costs nothing until work flows through it.
pub struct CondenseContext<'g> {
    graph: GraphHandle<'g>,
    /// Every family's entries, in the one byte-ledger map.
    ledger: Mutex<ByteLedger>,
    /// Hit/miss counters, indexed by [`CacheFamily`].
    counters: [Counter; NUM_FAMILIES],
}

impl<'g> CondenseContext<'g> {
    fn with_handle(graph: GraphHandle<'g>) -> Self {
        Self {
            graph,
            ledger: Mutex::default(),
            counters: Default::default(),
        }
    }

    /// A context that borrows its graph. Every context composes under
    /// the one per-row fill-in cap ([`MAX_ROW_NNZ`]), so condensation and
    /// propagation layers always share composed bits.
    pub fn new(graph: &'g HeteroGraph) -> Self {
        Self::with_handle(GraphHandle::Borrowed(graph))
    }
}

impl CondenseContext<'static> {
    /// A context that co-owns its graph, so it has no borrow to outlive —
    /// the form the [`ContextRegistry`](crate::registry::ContextRegistry)
    /// stores and hands to concurrent requests.
    pub fn shared(graph: Arc<HeteroGraph>) -> Self {
        Self::with_handle(GraphHandle::Shared(graph))
    }
}

impl CondenseContext<'_> {
    /// The full graph this context precomputes for.
    pub fn graph(&self) -> &HeteroGraph {
        self.graph.get()
    }

    /// The co-owned graph `Arc`, when this context was built with
    /// [`CondenseContext::shared`] (registry-resident contexts always
    /// are). `None` for borrowed contexts.
    pub(crate) fn shared_graph(&self) -> Option<&Arc<HeteroGraph>> {
        match &self.graph {
            GraphHandle::Shared(a) => Some(a),
            GraphHandle::Borrowed(_) => None,
        }
    }

    /// Resident bytes across all four byte-counted families right now
    /// — the quantity [`ContextRegistry::resident_bytes`] sums.
    ///
    /// [`ContextRegistry::resident_bytes`]: crate::registry::ContextRegistry::resident_bytes
    pub fn cache_bytes(&self) -> usize {
        relock(&self.ledger).bytes
    }

    /// A point-in-time snapshot of all cache counters, read under one
    /// ledger lock so the per-family byte fields and the total are
    /// mutually consistent. In debug builds the call cross-checks the
    /// three views of resident bytes against each other — the map's
    /// entry sum, the running total, and the per-family breakdown the
    /// counters expose — so any bookkeeping drift fails loudly in
    /// tests rather than silently misreporting.
    pub fn stats(&self) -> CacheCounters {
        let ledger = relock(&self.ledger);
        debug_assert_eq!(
            ledger
                .map
                .iter()
                .map(|(k, v)| charged_bytes(k, v))
                .sum::<usize>(),
            ledger.bytes,
            "ledger entry bytes must sum to the running total"
        );
        let counters = CacheCounters {
            families: std::array::from_fn(|f| FamilyCounters {
                hits: self.counters[f].hits.load(Ordering::Relaxed),
                misses: self.counters[f].misses.load(Ordering::Relaxed),
                bytes: ledger.family_bytes[f] as u64,
            }),
            cache_bytes: ledger.bytes as u64,
        };
        debug_assert_eq!(
            counters.resident_bytes_total(),
            counters.cache_bytes,
            "per-family bytes must sum to the ledger total"
        );
        counters
    }

    /// Number of cached composed adjacencies (for tests/benches).
    pub fn composed_len(&self) -> usize {
        relock(&self.ledger).family_len(CacheFamily::Composed)
    }

    /// Lookup-or-compute through the one cache map, counted against
    /// the key's family. `compute` runs outside the lock (compositions
    /// recurse into their prefixes and run SpGEMMs that must not
    /// serialize other cache users); concurrent computes of one key
    /// produce identical bits, so the insert is safe whichever thread
    /// lands first.
    fn cached(&self, key: CacheKey, compute: impl FnOnce() -> CacheValue) -> CacheValue {
        let counter = &self.counters[key.family() as usize];
        if let Some(v) = relock(&self.ledger).map.get(&key) {
            counter.hit();
            return v.clone();
        }
        counter.miss();
        let value = compute();
        relock(&self.ledger).insert(key, value)
    }

    /// Cached [`enumerate_metapaths`]: every proper meta-path rooted at
    /// `root` with 1..=`max_hops` hops, capped at `max_paths`.
    pub fn metapaths(
        &self,
        root: NodeTypeId,
        max_hops: usize,
        max_paths: usize,
    ) -> Arc<Vec<MetaPath>> {
        self.cached(CacheKey::Paths((root, max_hops, max_paths)), || {
            CacheValue::Paths(Arc::new(enumerate_metapaths(
                self.graph().schema(),
                root,
                max_hops,
                max_paths,
            )))
        })
        .into_paths()
    }

    /// The paths from `root` that end at `source` (the path family
    /// `Φ_L`), with exactly the semantics of
    /// [`crate::metapath::metapaths_to`]: filtered during breadth-first
    /// expansion so no valid path is lost to an enumeration cap and the
    /// full enumeration is never materialized (let alone cached — its
    /// size is exponential in `max_hops`). Deliberately uncached: the
    /// only hot consumer is influence scoring, whose *result* vectors
    /// the [`CondenseContext::influence`] cache already memoizes.
    pub fn metapaths_to(
        &self,
        root: NodeTypeId,
        source: NodeTypeId,
        max_hops: usize,
        max_paths: usize,
    ) -> Vec<MetaPath> {
        crate::metapath::metapaths_to(self.graph().schema(), root, source, max_hops, max_paths)
    }

    /// The composed, row-normalized adjacency `Â` of `path` (Eq. 1),
    /// shared across every caller of this context.
    pub fn adjacency(&self, path: &MetaPath) -> Arc<CsrMatrix> {
        assert!(!path.steps.is_empty(), "meta-path must have ≥ 1 hop");
        self.compose(&path.steps)
    }

    fn factor(&self, step: MetaPathStep) -> Arc<CsrMatrix> {
        self.cached(CacheKey::Factors(step), || {
            let a = self.graph().adjacency(step.edge);
            CacheValue::Matrix(Arc::new(if step.forward {
                a.row_normalized()
            } else {
                a.transpose().row_normalized()
            }))
        })
        .into_matrix()
    }

    fn compose(&self, steps: &[MetaPathStep]) -> Arc<CsrMatrix> {
        // Single-step "compositions" ARE factors: they are served by
        // (and counted against) the factor cache alone. Inserting them
        // into the composed cache would charge the byte ledger for
        // buffers the factor cache pins anyway.
        if steps.len() == 1 {
            return self.factor(steps[0]);
        }
        self.cached(CacheKey::Composed(steps.to_vec()), || {
            let prefix = self.compose(&steps[..steps.len() - 1]);
            let last = self.factor(steps[steps.len() - 1]);
            let mut prod = prefix.spgemm(&last);
            // The cap is a *per-row* contract: apply it whenever any row
            // exceeds it, not only when the aggregate density does (a
            // skewed product can hide an over-full row behind many empty
            // ones).
            if any_row_exceeds(&prod, MAX_ROW_NNZ) {
                prod = prod.top_k_per_row(MAX_ROW_NNZ);
            }
            CacheValue::Matrix(Arc::new(prod))
        })
        .into_matrix()
    }

    /// Cached [`HeteroGraph::adjacency_between`]: the `from → to`
    /// per-relation adjacency, transposing a stored reverse relation when
    /// needed. `None` when the schema has no relation between the types —
    /// a negative answer that is cached (and counted) like any other, so
    /// repeated misses on an absent relation neither recompute nor
    /// under-report.
    pub fn adjacency_between(&self, from: NodeTypeId, to: NodeTypeId) -> Option<Arc<CsrMatrix>> {
        self.cached(CacheKey::Oriented((from, to)), || {
            CacheValue::Oriented(self.graph().adjacency_between(from, to).map(Arc::new))
        })
        .into_oriented()
    }

    /// Returns the cached influence vector for `key`, computing it with
    /// `compute` on a miss. `compute` runs outside the cache lock.
    pub fn influence(
        &self,
        key: InfluenceKey,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        self.vector(CacheKey::Influence(key), compute)
    }

    /// Returns the cached diversity-bonus vector for `key` (one entry per
    /// target node), computing it with `compute` on a miss. `compute`
    /// runs outside the cache lock. The caller guarantees `compute` is
    /// the deterministic Eq. 6–7 bonus for `key`'s path family — see
    /// [`DiversityKey`] for why the quadruple pins it.
    pub fn diversity(
        &self,
        key: DiversityKey,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        self.vector(CacheKey::Diversity(key), compute)
    }

    fn vector(&self, key: CacheKey, compute: impl FnOnce() -> Vec<f64>) -> Arc<Vec<f64>> {
        self.cached(key, || CacheValue::Vector(Arc::new(compute())))
            .into_vector()
    }

    /// Returns the cached propagated blocks for `key = (max_hops,
    /// max_paths)`, computing them with `compute` on a miss (outside the
    /// cache lock). The one caller is
    /// [`propagate_ctx`](crate::propagation::propagate_ctx), which owns
    /// the computation.
    pub(crate) fn propagated(
        &self,
        key: (usize, usize),
        compute: impl FnOnce() -> PropagatedFeatures,
    ) -> Arc<PropagatedFeatures> {
        self.cached(CacheKey::Propagated(key), || {
            CacheValue::Propagated(Arc::new(compute()))
        })
        .into_propagated()
    }

    // ---- delta seeding and snapshots ----------------------------------

    /// Every cached entry, sorted by family and then key, so snapshot
    /// bytes are deterministic for identical cache contents.
    pub(crate) fn entries(&self) -> Vec<CacheEntry> {
        let mut out: Vec<CacheEntry> = relock(&self.ledger)
            .map
            .iter()
            .map(|(key, value)| CacheEntry {
                key: key.clone(),
                value: value.clone(),
            })
            .collect();
        out.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Pre-warms the cache with `entry` without touching the hit/miss
    /// counters — an inherited or loaded entry was neither requested
    /// nor computed here — and never overwrites an entry a live caller
    /// already produced. The entry is charged to the byte ledger exactly
    /// like a computed one.
    pub(crate) fn install(&self, entry: CacheEntry) {
        relock(&self.ledger).insert(entry.key, entry.value);
    }

    /// Seeds this (typically cold) context from `old`'s caches, keeping
    /// exactly the entries a [`GraphDelta`] provably leaves unchanged
    /// (see `InvalidationRules::survives` for the per-family rules).
    /// The caller guarantees `self.graph()` equals `old.graph()` with
    /// `delta` applied — same schema, same per-type node counts, the
    /// named relations/feature tables rewired and nothing else.
    ///
    /// Surviving entries are installed verbatim (`Arc` clones — no
    /// recompute, no hit/miss counter noise), so a seeded context is
    /// bitwise-identical to a cold rebuild everywhere: warm entries are
    /// pure functions the delta did not perturb, and everything else
    /// recomputes against the mutated graph on demand.
    ///
    /// # Panics
    /// Panics when the graphs' shapes differ (a delta never resizes).
    pub fn seed_from(&self, old: &CondenseContext<'_>, delta: &GraphDelta) -> SeedReport {
        let schema = self.graph().schema();
        let old_schema = old.graph().schema();
        assert_eq!(
            schema.num_edge_types(),
            old_schema.num_edge_types(),
            "delta seeding requires an unchanged schema"
        );
        assert!(
            schema
                .node_type_ids()
                .all(|t| self.graph().num_nodes(t) == old.graph().num_nodes(t)),
            "delta seeding requires unchanged node counts"
        );

        let mut rules = InvalidationRules::new(schema, delta);
        let mut report = SeedReport::default();
        for entry in old.entries() {
            if rules.survives(&entry.key) {
                report.installed[entry.key.family() as usize] += 1;
                self.install(entry);
            } else {
                report.dropped += 1;
            }
        }
        report
    }
}

impl std::fmt::Debug for CondenseContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CondenseContext")
            .field("composed_len", &self.composed_len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureMatrix;
    use crate::graph::HeteroGraphBuilder;
    use crate::metapath::metapaths_to;
    use crate::schema::Schema;

    fn fixture() -> HeteroGraph {
        let mut s = Schema::new();
        let p = s.add_node_type("paper");
        let a = s.add_node_type("author");
        let f = s.add_node_type("field");
        let pa = s.add_edge_type("pa", p, a);
        let pf = s.add_edge_type("pf", p, f);
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![3, 2, 2]);
        for (pp, aa) in [(0, 0), (1, 0), (1, 1), (2, 1)] {
            b.add_edge(pa, pp, aa);
        }
        for (pp, ff) in [(0, 0), (1, 1), (2, 1)] {
            b.add_edge(pf, pp, ff);
        }
        b.set_features(p, FeatureMatrix::zeros(3, 1));
        b.set_features(a, FeatureMatrix::zeros(2, 1));
        b.set_features(f, FeatureMatrix::zeros(2, 1));
        b.set_labels(vec![0, 1, 0], 2);
        b.build()
    }

    /// Papers sharing a hub author — wider than [`MAX_ROW_NNZ`] — among
    /// papers with no author at all.
    const HUB_PAPERS: usize = MAX_ROW_NNZ + 44;
    const ALL_PAPERS: usize = MAX_ROW_NNZ + 144;

    /// The P-A-P product has `HUB_PAPERS` rows of `HUB_PAPERS` entries
    /// each, yet `HUB_PAPERS²` nnz stays below `MAX_ROW_NNZ · ALL_PAPERS`:
    /// an aggregate gate `nnz > k·nrows` would stay silent while every hub
    /// row violates the per-row cap.
    fn skewed_fixture() -> HeteroGraph {
        let mut s = Schema::new();
        let p = s.add_node_type("paper");
        let a = s.add_node_type("author");
        let pa = s.add_edge_type("pa", p, a);
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![ALL_PAPERS, 2]);
        for pp in 0..HUB_PAPERS as u32 {
            b.add_edge(pa, pp, 0);
        }
        b.add_edge(pa, HUB_PAPERS as u32, 1);
        b.set_features(p, FeatureMatrix::zeros(ALL_PAPERS, 1));
        b.set_features(a, FeatureMatrix::zeros(2, 1));
        b.set_labels((0..ALL_PAPERS as u32).map(|i| i % 2).collect(), 2);
        b.build()
    }

    fn hits_misses(ctx: &CondenseContext<'_>, family: CacheFamily) -> (u64, u64) {
        let c = ctx.stats()[family];
        (c.hits, c.misses)
    }

    #[test]
    fn repeated_queries_share_one_computation() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        let paths = ctx.metapaths(root, 2, 100);
        let two_hop = paths.iter().find(|p| p.hops() == 2).unwrap();
        let a = ctx.adjacency(two_hop);
        let b = ctx.adjacency(two_hop);
        assert!(Arc::ptr_eq(&a, &b), "second query must return the cache");
        let st = ctx.stats();
        assert_eq!(st[CacheFamily::Composed].hits, 1, "one composed hit");
        assert_eq!(st[CacheFamily::Composed].misses, 1, "one composed miss");
        assert!(Arc::ptr_eq(&paths, &ctx.metapaths(root, 2, 100)));
        // A single-step path is a factor, not a composed product: it
        // must never touch the composed cache or its byte ledger.
        let one_hop = paths.iter().find(|p| p.hops() == 1).unwrap();
        let f1 = ctx.adjacency(one_hop);
        let f2 = ctx.adjacency(one_hop);
        assert!(Arc::ptr_eq(&f1, &f2));
        assert_eq!(
            ctx.stats()[CacheFamily::Composed],
            st[CacheFamily::Composed],
            "composed untouched"
        );
        assert!(
            ctx.stats()[CacheFamily::Factors].hits >= 1,
            "served by the factor cache"
        );
    }

    #[test]
    fn context_matches_fresh_engine_bitwise() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let fresh = CondenseContext::new(&g);
        let root = g.schema().target();
        for p in ctx.metapaths(root, 2, 100).iter() {
            assert_eq!(*ctx.adjacency(p), *fresh.adjacency(p), "{:?}", p.steps);
        }
    }

    #[test]
    fn per_row_cap_holds_on_skewed_products() {
        let g = skewed_fixture();
        const { assert!(HUB_PAPERS * HUB_PAPERS <= MAX_ROW_NNZ * ALL_PAPERS) };
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        let pap = ctx
            .metapaths(root, 2, 100)
            .iter()
            .find(|p| p.hops() == 2)
            .cloned()
            .expect("P-A-P exists");
        let m = ctx.adjacency(&pap);
        // No row exceeds the cap, and every hub row is cut to exactly it.
        for r in 0..m.nrows() {
            assert!(m.row_nnz(r) <= MAX_ROW_NNZ, "row {r} exceeds the cap");
        }
        assert!((0..HUB_PAPERS).all(|r| m.row_nnz(r) == MAX_ROW_NNZ));
    }

    #[test]
    fn metapaths_to_matches_uncached_function() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        let author = g.schema().node_type_by_name("author").unwrap();
        assert_eq!(
            ctx.metapaths_to(root, author, 2, 16),
            metapaths_to(g.schema(), root, author, 2, 16)
        );
    }

    #[test]
    fn metapaths_to_survives_wide_schemas() {
        // Nine edge types out of the root; the path to `late` enumerates
        // after 8 others, so the old `max_paths * 8` over-enumeration
        // (with max_paths = 1) truncated before the filter could see it.
        let mut s = Schema::new();
        let root = s.add_node_type("root");
        for i in 0..8 {
            let t = s.add_node_type(&format!("t{i}"));
            s.add_edge_type(&format!("e{i}"), root, t);
        }
        let late = s.add_node_type("late");
        s.add_edge_type("elate", root, late);
        s.set_target(root);
        let n_types = s.num_node_types();
        let mut b = HeteroGraphBuilder::new(s, vec![1; n_types]);
        for t in 0..n_types {
            b.set_features(
                crate::schema::NodeTypeId(t as u16),
                FeatureMatrix::zeros(1, 1),
            );
        }
        b.set_labels(vec![0], 1);
        let g = b.build();

        let found = metapaths_to(g.schema(), root, late, 1, 1);
        assert_eq!(found.len(), 1, "the 1-hop root→late path must be found");
        let ctx = CondenseContext::new(&g);
        assert_eq!(
            ctx.metapaths_to(root, late, 1, 1),
            found,
            "cached and uncached Φ_L must agree"
        );
    }

    #[test]
    fn adjacency_between_matches_graph_and_caches() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let p = g.schema().target();
        let a = g.schema().node_type_by_name("author").unwrap();
        let fwd = ctx.adjacency_between(p, a).unwrap();
        assert_eq!(*fwd, g.adjacency_between(p, a).unwrap());
        let rev = ctx.adjacency_between(a, p).unwrap();
        assert_eq!(*rev, g.adjacency_between(a, p).unwrap());
        assert!(Arc::ptr_eq(&fwd, &ctx.adjacency_between(p, a).unwrap()));
        assert_eq!(hits_misses(&ctx, CacheFamily::Oriented), (1, 2));
    }

    #[test]
    fn absent_relations_are_cached_and_counted() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let a = g.schema().node_type_by_name("author").unwrap();
        let f = g.schema().node_type_by_name("field").unwrap();
        assert!(g.schema().edge_between(a, f).is_none());
        assert!(ctx.adjacency_between(a, f).is_none());
        assert_eq!(
            hits_misses(&ctx, CacheFamily::Oriented),
            (0, 1),
            "first ask is a miss"
        );
        assert!(ctx.adjacency_between(a, f).is_none());
        assert!(ctx.adjacency_between(a, f).is_none());
        assert_eq!(
            hits_misses(&ctx, CacheFamily::Oriented),
            (2, 1),
            "repeat asks hit the cached negative answer"
        );
    }

    #[test]
    fn influence_cache_keys_discriminate() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let f = g.schema().node_type_by_name("field").unwrap();
        let key = |alpha: f32| InfluenceKey {
            father: f,
            max_hops: 2,
            max_paths: 8,
            method: (0, [alpha.to_bits(), 0, 0, 0]),
            seed_targets: None,
            seed: 0,
        };
        let a = ctx.influence(key(0.15), || vec![1.0]);
        let b = ctx.influence(key(0.15), || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let c = ctx.influence(key(0.5), || vec![2.0]);
        assert_eq!(*c, vec![2.0], "different alpha must not collide");
    }

    #[test]
    fn diversity_cache_hits_and_discriminates() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        let a = ctx.diversity((root, 2, 24, 0), || vec![0.5, 1.0, 0.0]);
        let b = ctx.diversity((root, 2, 24, 0), || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let c = ctx.diversity((root, 2, 24, 1), || vec![0.25]);
        assert_eq!(*c, vec![0.25], "different path index must not collide");
        assert_eq!(hits_misses(&ctx, CacheFamily::Diversity), (1, 2));
    }

    /// A 3-element raw block named "raw": 12 block bytes + 3 name bytes.
    fn small_blocks() -> PropagatedFeatures {
        PropagatedFeatures {
            blocks: vec![freehgc_autograd::Matrix::from_vec(
                3,
                1,
                vec![1.0, 2.0, 3.0],
            )],
            path_names: vec!["raw".to_string()],
        }
    }

    #[test]
    fn propagated_cache_round_trips_any_type() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let a = ctx.propagated((2, 12), small_blocks);
        let b = ctx.propagated((2, 12), || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.stats()[CacheFamily::Propagated].bytes, 15);
        assert_eq!(hits_misses(&ctx, CacheFamily::Propagated), (1, 1));
        let c = ctx.propagated((1, 12), || PropagatedFeatures {
            blocks: vec![],
            path_names: vec![],
        });
        assert!(c.blocks.is_empty(), "a different key must not collide");
    }

    #[test]
    fn owned_context_serves_the_same_graph() {
        let g = Arc::new(fixture());
        let ctx = CondenseContext::shared(Arc::clone(&g));
        let root = g.schema().target();
        let borrowed = CondenseContext::new(&g);
        for p in ctx.metapaths(root, 2, 100).iter() {
            assert_eq!(*ctx.adjacency(p), *borrowed.adjacency(p));
        }
    }

    #[test]
    fn cache_counter_totals_saturate_instead_of_overflowing() {
        let counts = |hits, misses| FamilyCounters {
            hits,
            misses,
            ..Default::default()
        };
        let mut c = CacheCounters::default();
        c.families[CacheFamily::Paths as usize] = counts(u64::MAX, u64::MAX);
        c.families[CacheFamily::Factors as usize] = counts(5, 7);
        c.families[CacheFamily::Diversity as usize] = counts(u64::MAX, 0);
        // A wrapping sum would panic in debug builds (and wrap to a
        // small number in release); totals must clamp instead.
        assert_eq!(c.total_hits(), u64::MAX);
        assert_eq!(c.total_misses(), u64::MAX);
        let mut small = CacheCounters::default();
        small.families[CacheFamily::Paths as usize] = counts(2, 3);
        small.families[CacheFamily::Factors as usize] = counts(5, 7);
        assert_eq!(small.total_hits(), 7, "un-saturated totals still exact");
        assert_eq!(small.total_misses(), 10);
    }

    #[test]
    fn every_family_charges_the_byte_ledger_and_ledgers_agree() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        // Populate all seven families.
        let paths = ctx.metapaths(root, 3, 100);
        for p in paths.iter() {
            ctx.adjacency(p);
        }
        let f = g.schema().node_type_by_name("field").unwrap();
        ctx.adjacency_between(root, f);
        ctx.influence(
            InfluenceKey {
                father: f,
                max_hops: 2,
                max_paths: 8,
                method: (0, [0, 0, 0, 0]),
                seed_targets: None,
                seed: 0,
            },
            || vec![1.0; 32],
        );
        ctx.diversity((root, 2, 24, 0), || vec![0.5; 32]);
        ctx.propagated((2, 12), small_blocks);
        let st = ctx.stats();
        assert!(st[CacheFamily::Composed].bytes > 0);
        assert_eq!(st[CacheFamily::Influence].bytes, 32 * 8);
        assert_eq!(st[CacheFamily::Diversity].bytes, 32 * 8);
        assert_eq!(st[CacheFamily::Propagated].bytes, 15);
        // The schema-sized families share the map but are never charged.
        for fam in [
            CacheFamily::Paths,
            CacheFamily::Factors,
            CacheFamily::Oriented,
        ] {
            assert!(st[fam].misses > 0, "{fam:?} populated");
            assert_eq!(st[fam].bytes, 0, "{fam:?} is charged nothing");
        }
        assert_eq!(st.cache_bytes, st.resident_bytes_total());
        assert_eq!(st.cache_bytes as usize, ctx.cache_bytes());
    }
}
