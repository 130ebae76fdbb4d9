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
//! across methods, ratios, seeds, and threads:
//!
//! * the enumerated meta-path sets, keyed by `(root, max_hops, max_paths)`;
//! * the meta-path engine's single-step *factor* and composed *prefix*
//!   caches (the Eq. 1 products), keyed by the step sequence — the
//!   composed products live in the byte-budgeted accountant (see below);
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
//! * propagated-feature blocks, keyed by `(max_hops, max_paths)` and
//!   stored type-erased so the `hgnn` layer (which this crate cannot
//!   depend on) can cache its `PropagatedFeatures` here.
//!
//! Every cached value is the output of a deterministic pure function of
//! the graph and the key, so caching is *transparent*: a condenser run
//! through a warm context is bitwise-identical to a fresh run — the same
//! contract the parallel kernels keep across thread counts. Hit/miss
//! counters ([`CondenseContext::stats`]) make reuse observable; the
//! registry and context equivalence suites assert on them.
//!
//! # The cache accountant (one byte ceiling across four families)
//!
//! Large schemas at high hop counts accumulate many composed
//! adjacencies, influence vectors, diversity bonuses and — dominating
//! everything — dense propagated-feature blocks; a serving process
//! cannot keep them all. All four families live in one cost-aware
//! [`CacheAccountant`] under a single byte budget
//! ([`CondenseContext::with_cache_budget`], surfaced as
//! `CondenseSpec::context_cache_bytes`). When inserting would exceed the
//! budget, the accountant evicts the entries that are *cheapest to
//! recompute per resident byte* first: each entry carries a
//! deterministic recompute-cost estimate in one shared currency —
//! scalar flops (the SpGEMM multiply-add count for composed products,
//! iteration-proportional estimates for the vector families, the
//! owning layer's reported flops for propagated blocks) — and the
//! victim is the minimum cost/byte density, ties broken toward the
//! least recently used, then by key order. Propagated blocks have the
//! lowest density (dense `f32` payloads, one SpMM to rebuild), so they
//! evict first in practice; expensive deep compositions stay resident.
//! Single-step paths never occupy budget at all — they are served by
//! the unbounded factor cache, whose buffers would stay pinned
//! regardless. An entry larger than the whole budget is never
//! admitted, so the accountant's resident bytes *never* exceed the
//! budget. Eviction only ever forces a recompute of a pure function, so
//! a budgeted context remains bitwise-identical to an unbounded one.
//!
//! The context borrows its graph by default ([`CondenseContext::new`]);
//! [`CondenseContext::shared`] instead takes `Arc<HeteroGraph>` ownership
//! so a `'static` context can live in the cross-request
//! [`ContextRegistry`](crate::registry::ContextRegistry).

use crate::condense::{CondenseSpec, DEFAULT_MAX_ROW_NNZ};
use crate::graph::{GraphDelta, HeteroGraph};
use crate::metapath::{enumerate_metapaths, metapaths_to, MetaPath, MetaPathStep};
use crate::schema::{NodeTypeId, Schema};
use freehgc_parallel::relock;
use freehgc_sparse::{CsrMatrix, FxHashMap};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

    fn snapshot(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// A point-in-time snapshot of every cache's hit/miss counts, plus the
/// accountant's byte and eviction ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Meta-path enumerations.
    pub paths: (u64, u64),
    /// Single-step row-normalized factors.
    pub factors: (u64, u64),
    /// Composed meta-path adjacencies (the SpGEMM products).
    pub composed: (u64, u64),
    /// Oriented per-relation adjacencies.
    pub oriented: (u64, u64),
    /// Aggregated influence-score vectors.
    pub influence: (u64, u64),
    /// Per-path diversity bonuses (Eq. 5–7).
    pub diversity: (u64, u64),
    /// Propagated-feature blocks.
    pub propagated: (u64, u64),
    /// Composed entries evicted to stay within the byte budget.
    pub composed_evictions: u64,
    /// Composed entries never admitted (larger than the whole budget,
    /// or rejected by an injected pressure spike).
    pub composed_rejected: u64,
    /// Resident bytes of the composed family right now.
    pub composed_bytes: u64,
    /// High-water mark of resident composed bytes since the budget was
    /// last applied (≤ budget when one is set — the invariant
    /// `tests/registry_equivalence.rs` asserts; budgeting a warm context
    /// restarts the mark at its post-eviction resident size).
    pub composed_peak_bytes: u64,
    /// Resident payload bytes of the influence family (the `f64` score
    /// vectors).
    pub influence_bytes: u64,
    /// Resident payload bytes of the diversity family (the `f64` bonus
    /// vectors).
    pub diversity_bytes: u64,
    /// Resident bytes of the propagated family, as reported by the
    /// layer that owns the concrete block type (via
    /// [`CondenseContext::propagated_sized`] or a snapshot codec's
    /// `resident_bytes`); 0 for entries whose owner reports none.
    pub propagated_bytes: u64,
    /// Influence entries evicted to stay within the byte budget.
    pub influence_evictions: u64,
    /// Diversity entries evicted to stay within the byte budget.
    pub diversity_evictions: u64,
    /// Propagated block sets evicted to stay within the byte budget
    /// (under pressure these go first — lowest recompute cost per byte).
    pub propagated_evictions: u64,
    /// Influence entries never admitted.
    pub influence_rejected: u64,
    /// Diversity entries never admitted.
    pub diversity_rejected: u64,
    /// Propagated block sets never admitted.
    pub propagated_rejected: u64,
    /// Resident bytes across all four accountant families right now —
    /// the unified ledger the byte budget bounds. Always equals
    /// [`CacheCounters::resident_bytes_total`] (a debug assertion in
    /// [`CondenseContext::stats`] cross-checks the two on every call).
    pub cache_bytes: u64,
    /// High-water mark of the unified resident bytes since the budget
    /// was last applied (≤ budget when one is set; re-budgeting a warm
    /// context restarts the mark, for `Some` and `None` alike).
    pub cache_peak_bytes: u64,
}

impl CacheCounters {
    fn caches(&self) -> [(u64, u64); 7] {
        [
            self.paths,
            self.factors,
            self.composed,
            self.oriented,
            self.influence,
            self.diversity,
            self.propagated,
        ]
    }

    /// Total hits across every cache. Saturating: a counter total is a
    /// diagnostic, and a long-lived serving context must never panic (or
    /// wrap to a small number in release) just because its hit counters
    /// grew past `u64::MAX` combined.
    pub fn total_hits(&self) -> u64 {
        self.caches()
            .iter()
            .fold(0u64, |acc, &(h, _)| acc.saturating_add(h))
    }

    /// Total misses across every cache (saturating, like
    /// [`CacheCounters::total_hits`]).
    pub fn total_misses(&self) -> u64 {
        self.caches()
            .iter()
            .fold(0u64, |acc, &(_, m)| acc.saturating_add(m))
    }

    /// Sum of the four per-family resident-byte fields — by
    /// construction the same quantity as [`CacheCounters::cache_bytes`],
    /// recomputed from the per-family breakdown so the two ledgers can
    /// be cross-checked (saturating, like the totals).
    pub fn resident_bytes_total(&self) -> u64 {
        self.composed_bytes
            .saturating_add(self.influence_bytes)
            .saturating_add(self.diversity_bytes)
            .saturating_add(self.propagated_bytes)
    }
}

/// Per-family counts of cache entries a delta-seeded context inherited
/// from its predecessor ([`CondenseContext::seed_from`]), plus how many
/// the delta invalidated. The delta-equivalence suite asserts on these
/// — nonzero reuse is what makes a delta update cheaper than a cold
/// rebuild, the floor `bench_report` times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaSeedReport {
    /// Enumerated meta-path sets (schema-only; survive every delta).
    pub paths: usize,
    /// Single-step factors kept.
    pub factors: usize,
    /// Composed adjacencies kept.
    pub composed: usize,
    /// Oriented per-relation adjacencies kept.
    pub oriented: usize,
    /// Influence vectors kept.
    pub influence: usize,
    /// Diversity-bonus vectors kept.
    pub diversity: usize,
    /// Propagated block sets kept.
    pub propagated: usize,
    /// Entries the delta invalidated (across all families).
    pub dropped: usize,
}

impl DeltaSeedReport {
    /// Total entries inherited across every cache family.
    pub fn reused(&self) -> usize {
        self.paths
            + self.factors
            + self.composed
            + self.oriented
            + self.influence
            + self.diversity
            + self.propagated
    }
}

/// The per-family survival rules of selective invalidation, shared by
/// in-memory delta seeding ([`CondenseContext::seed_from`]) and the
/// snapshot delta loader (`decode_snapshot_into` with a delta) so the two can
/// never disagree about which entries a delta kills. Each `*_clean`
/// method answers: is this cache entry's exact dependency set untouched
/// by the delta? Path families are pure functions of the schema (which
/// a delta never changes), so family cleanliness is memoized per
/// `(root, max_hops, max_paths)`.
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

    /// The factor of `step` reads relation `step.edge` alone.
    pub(crate) fn factor_clean(&self, step: MetaPathStep) -> bool {
        !self.edge_dirty[step.edge.0 as usize]
    }

    /// A composed product reads its steps' factors.
    pub(crate) fn steps_clean(&self, steps: &[MetaPathStep]) -> bool {
        steps.iter().all(|s| self.factor_clean(*s))
    }

    /// `(from, to)` resolves one schema relation; the cached negative
    /// (no relation) depends only on the schema and always survives.
    pub(crate) fn oriented_clean(&self, from: NodeTypeId, to: NodeTypeId) -> bool {
        match self.schema.edge_between(from, to) {
            None => true,
            Some((e, _)) => !self.edge_dirty[e.0 as usize],
        }
    }

    /// Influence scores aggregate the composed adjacencies of the family
    /// `Φ_L(target → father)` and never read features.
    pub(crate) fn influence_clean(&mut self, father: NodeTypeId, mh: usize, mp: usize) -> bool {
        let (schema, target) = (self.schema, self.target);
        let edge_dirty = &self.edge_dirty;
        *self
            .influence_memo
            .entry((father, mh, mp))
            .or_insert_with(|| {
                metapaths_to(schema, target, father, mh, mp)
                    .iter()
                    .all(|p| p.steps.iter().all(|s| !edge_dirty[s.edge.0 as usize]))
            })
    }

    /// The diversity bonus of path `pi` reads the composed adjacencies
    /// of `pi` and its same-source-type siblings within the family.
    pub(crate) fn diversity_clean(
        &mut self,
        root: NodeTypeId,
        mh: usize,
        mp: usize,
        pi: usize,
    ) -> bool {
        let fam = self.family(root, mh, mp);
        pi < fam.len() && {
            let src = fam[pi].source();
            fam.iter()
                .filter(|p| p.source() == src)
                .all(|p| self.steps_clean(&p.steps))
        }
    }

    /// Propagated blocks read the raw target features plus, per family
    /// path, the path's composed adjacency and its source type's
    /// features.
    pub(crate) fn propagated_clean(&mut self, mh: usize, mp: usize) -> bool {
        let target = self.target;
        let fam = self.family(target, mh, mp);
        !self.feat_dirty[target.0 as usize]
            && fam
                .iter()
                .all(|p| self.steps_clean(&p.steps) && !self.feat_dirty[p.source().0 as usize])
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
/// bonus reads are fixed by the context's fill-in cap, so the quadruple
/// pins the value exactly — the ratio and seed play no part in it.
pub type DiversityKey = (NodeTypeId, usize, usize, usize);

type PathKey = (NodeTypeId, usize, usize);
/// The type-erased value the propagated cache stores (shared with the
/// snapshot layer, which round-trips these through a caller-supplied
/// codec).
pub(crate) type AnyArc = Arc<dyn Any + Send + Sync>;
/// Oriented-adjacency cache: `None` is the cached *negative* answer for
/// a type pair the schema has no relation between.
type OrientedMap = FxHashMap<(NodeTypeId, NodeTypeId), Option<Arc<CsrMatrix>>>;
/// One dumped oriented-cache entry (key, cached positive-or-negative
/// answer), as handed between contexts by the delta seeding path.
pub(crate) type OrientedEntry = ((NodeTypeId, NodeTypeId), Option<Arc<CsrMatrix>>);

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

/// The four budget-governed cache families, in reporting order. The
/// discriminant doubles as the index into the accountant's per-family
/// ledgers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Family {
    Composed = 0,
    Influence = 1,
    Diversity = 2,
    Propagated = 3,
}

const NUM_FAMILIES: usize = 4;

/// One key across every accountant family. Derives `Ord` so the
/// eviction tiebreak has a total order that never depends on hash-map
/// iteration order; the variant order matches [`Family`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum FamilyKey {
    Composed(Vec<MetaPathStep>),
    Influence(InfluenceKey),
    Diversity(DiversityKey),
    Propagated((usize, usize)),
}

impl FamilyKey {
    fn family(&self) -> Family {
        match self {
            FamilyKey::Composed(_) => Family::Composed,
            FamilyKey::Influence(_) => Family::Influence,
            FamilyKey::Diversity(_) => Family::Diversity,
            FamilyKey::Propagated(_) => Family::Propagated,
        }
    }
}

/// The value behind a [`FamilyKey`]; the variant always matches the
/// key's (the accountant's API is only reachable through typed context
/// methods).
#[derive(Clone)]
enum FamilyValue {
    Composed(Arc<CsrMatrix>),
    Influence(Arc<Vec<f64>>),
    Diversity(Arc<Vec<f64>>),
    Propagated(AnyArc),
}

impl FamilyValue {
    fn into_composed(self) -> Arc<CsrMatrix> {
        match self {
            FamilyValue::Composed(m) => m,
            _ => unreachable!("composed key holds a composed value"),
        }
    }

    fn into_vector(self) -> Arc<Vec<f64>> {
        match self {
            FamilyValue::Influence(v) | FamilyValue::Diversity(v) => v,
            _ => unreachable!("vector key holds a vector value"),
        }
    }

    fn into_propagated(self) -> AnyArc {
        match self {
            FamilyValue::Propagated(v) => v,
            _ => unreachable!("propagated key holds a propagated value"),
        }
    }
}

/// Deterministic recompute-cost estimate for an influence vector, in
/// the accountant's shared flop currency: aggregating Eq. 10–13 scores
/// runs a truncated PPR series over every family path, a few dozen
/// passes over the output length.
fn influence_cost(len: usize) -> u64 {
    (len as u64).saturating_mul(64).max(1)
}

/// Deterministic recompute-cost estimate for a diversity-bonus vector:
/// the Eq. 5–7 Jaccard pass over the sibling paths' composed rows —
/// cheaper per element than influence, dearer than a propagated SpMM.
fn diversity_cost(len: usize) -> u64 {
    (len as u64).saturating_mul(16).max(1)
}

/// One resident cache entry plus the bookkeeping eviction needs.
struct AccountedEntry {
    value: FamilyValue,
    bytes: usize,
    /// Deterministic recompute-cost estimate in scalar flops (SpGEMM
    /// multiply-adds for composed products; see the per-family cost
    /// functions). Entries with the cheapest cost *per byte* evict
    /// first.
    cost: u64,
    /// Logical insert/touch time; breaks density ties toward the least
    /// recently used entry.
    touch: u64,
}

/// The unified memory accountant: one map over all four budget-governed
/// cache families (composed, influence, diversity, propagated), one
/// byte ceiling, one eviction policy. Lives behind the context's mutex.
/// The per-family ledgers (`family_bytes`, `family_peak`, `evictions`,
/// `rejected`) are indexed by [`Family`] and always sum to the unified
/// ones — [`CondenseContext::stats`] debug-asserts it.
#[derive(Default)]
struct CacheAccountant {
    map: FxHashMap<FamilyKey, AccountedEntry>,
    budget: Option<usize>,
    bytes: usize,
    peak_bytes: usize,
    clock: u64,
    family_bytes: [usize; NUM_FAMILIES],
    family_peak: [usize; NUM_FAMILIES],
    evictions: [u64; NUM_FAMILIES],
    rejected: [u64; NUM_FAMILIES],
}

impl CacheAccountant {
    fn get(&mut self, key: &FamilyKey) -> Option<FamilyValue> {
        self.clock += 1;
        let now = self.clock;
        self.map.get_mut(key).map(|e| {
            e.touch = now;
            e.value.clone()
        })
    }

    /// Admits `value` under the budget, evicting cheapest-per-byte
    /// first until it fits. Returns the resident value (the
    /// already-cached one if a concurrent compute of the same key
    /// landed first — identical bits either way, so whichever wins is
    /// correct).
    fn insert(
        &mut self,
        key: FamilyKey,
        value: FamilyValue,
        bytes: usize,
        cost: u64,
    ) -> FamilyValue {
        if let Some(e) = self.map.get(&key) {
            return e.value.clone();
        }
        let fam = key.family() as usize;
        // Injected budget-pressure spikes: behave exactly like an entry
        // that exceeds the whole budget — a counted rejection, the
        // caller keeps its freshly computed (bit-identical) value, and
        // resident bytes never move. `accountant.pressure` covers every
        // family; `composed.pressure` is retained for the composed
        // family alone (the pre-accountant drill).
        if crate::failpoints::should_fire(crate::failpoints::ACCOUNTANT_PRESSURE)
            || (key.family() == Family::Composed
                && crate::failpoints::should_fire(crate::failpoints::COMPOSED_PRESSURE))
        {
            self.rejected[fam] += 1;
            return value;
        }
        if let Some(budget) = self.budget {
            if bytes > budget {
                // Never admitted: resident bytes must not exceed the
                // budget even transiently. The caller still gets its
                // freshly computed value.
                self.rejected[fam] += 1;
                return value;
            }
            while self.bytes + bytes > budget && self.evict_one() {}
        }
        self.clock += 1;
        self.bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.family_bytes[fam] += bytes;
        self.family_peak[fam] = self.family_peak[fam].max(self.family_bytes[fam]);
        self.map.insert(
            key,
            AccountedEntry {
                value: value.clone(),
                bytes,
                cost,
                touch: self.clock,
            },
        );
        value
    }

    /// Evicts the entry that is cheapest to recompute per resident byte
    /// (ties broken toward the least recently touched, then by key
    /// order). Returns false when the accountant is empty.
    ///
    /// The victim choice must be a pure function of the cache
    /// *contents*, never of hash-map iteration order: eviction decides
    /// which entries get recomputed, and while recomputes are
    /// bitwise-transparent, the equivalence suites pin eviction
    /// *counters* too — a map-order-dependent victim would make those
    /// nondeterministic. Density is compared exactly by
    /// `u128` cross-multiplication (no float rounding); zero-byte
    /// entries are clamped to one byte so they still order by cost. The
    /// `(density, touch)` pair is unique under normal operation (the
    /// logical clock ticks per touch), so the key-order tiebreak only
    /// matters for states reconstructed wholesale (e.g. a snapshot
    /// load, where every installed entry shares one batch) — exactly
    /// where determinism must still hold.
    fn evict_one(&mut self) -> bool {
        let victim = self
            .map
            .iter()
            .min_by(|(ka, ea), (kb, eb)| {
                let da = ea.cost as u128 * eb.bytes.max(1) as u128;
                let db = eb.cost as u128 * ea.bytes.max(1) as u128;
                da.cmp(&db)
                    .then_with(|| ea.touch.cmp(&eb.touch))
                    .then_with(|| ka.cmp(kb))
            })
            .map(|(k, _)| k.clone());
        match victim {
            Some(k) => {
                let e = self.map.remove(&k).expect("victim key just observed");
                self.bytes -= e.bytes;
                self.family_bytes[k.family() as usize] -= e.bytes;
                self.evictions[k.family() as usize] += 1;
                true
            }
            None => false,
        }
    }

    /// Applies a new budget: evicts until resident bytes fit, then
    /// restarts the unified and per-family high-water marks at the
    /// resident sizes — for `Some` and `None` alike — so `bytes ≤ peak`
    /// and `peak ≤ budget` hold from this point on.
    fn set_budget(&mut self, bytes: Option<usize>) {
        self.budget = bytes;
        if let Some(b) = bytes {
            while self.bytes > b && self.evict_one() {}
        }
        self.peak_bytes = self.bytes;
        self.family_peak = self.family_bytes;
    }

    fn family_len(&self, fam: Family) -> usize {
        self.map.keys().filter(|k| k.family() == fam).count()
    }
}

/// Deterministic SpGEMM work estimate for `prefix · last`: the number of
/// scalar multiply-adds, `Σ_{(i,k) ∈ prefix} nnz(last_k)`. This is the
/// actual recompute cost of a composed entry (given resident inputs), so
/// ordering evictions by it keeps the expensive deep products resident.
fn spgemm_cost(prefix: &CsrMatrix, last: &CsrMatrix) -> u64 {
    prefix
        .indices()
        .iter()
        .map(|&k| last.row_nnz(k as usize) as u64)
        .sum::<u64>()
        .max(1)
}

/// Whether any row of `m` holds more than `k` entries — the per-row
/// fill-in contract `max_row_nnz` promises.
fn any_row_exceeds(m: &CsrMatrix, k: usize) -> bool {
    (0..m.nrows()).any(|r| m.row_nnz(r) > k)
}

/// Shared, thread-safe precompute for one full graph. See the module
/// docs for what is cached; construction is cheap (all caches start
/// empty), so a context costs nothing until work flows through it.
pub struct CondenseContext<'g> {
    graph: GraphHandle<'g>,
    max_row_nnz: Option<usize>,
    paths: Mutex<FxHashMap<PathKey, Arc<Vec<MetaPath>>>>,
    factors: Mutex<FxHashMap<MetaPathStep, Arc<CsrMatrix>>>,
    oriented: Mutex<OrientedMap>,
    /// The four budget-governed families — composed, influence,
    /// diversity, propagated — live together here under one byte
    /// ceiling; paths/factors/oriented stay in their own unbounded
    /// maps (schema-sized, and the factor buffers are pinned by the
    /// engine regardless).
    accountant: Mutex<CacheAccountant>,
    paths_stats: Counter,
    factors_stats: Counter,
    composed_stats: Counter,
    oriented_stats: Counter,
    influence_stats: Counter,
    diversity_stats: Counter,
    propagated_stats: Counter,
}

impl<'g> CondenseContext<'g> {
    fn with_handle(graph: GraphHandle<'g>) -> Self {
        Self {
            graph,
            max_row_nnz: Some(DEFAULT_MAX_ROW_NNZ),
            paths: Mutex::default(),
            factors: Mutex::default(),
            oriented: Mutex::default(),
            accountant: Mutex::default(),
            paths_stats: Counter::default(),
            factors_stats: Counter::default(),
            composed_stats: Counter::default(),
            oriented_stats: Counter::default(),
            influence_stats: Counter::default(),
            diversity_stats: Counter::default(),
            propagated_stats: Counter::default(),
        }
    }

    /// A context with the workspace-default per-row fill-in cap
    /// ([`DEFAULT_MAX_ROW_NNZ`]) — the setting every condensation and
    /// propagation layer shares.
    pub fn new(graph: &'g HeteroGraph) -> Self {
        Self::with_handle(GraphHandle::Borrowed(graph))
    }

    /// A context whose fill-in cap and unified cache budget come from
    /// the spec — the knobs both condensation and propagation obey
    /// (there is deliberately no per-call cap anywhere downstream).
    pub fn for_spec(graph: &'g HeteroGraph, spec: &CondenseSpec) -> Self {
        Self::new(graph)
            .with_max_row_nnz(spec.max_row_nnz)
            .with_cache_budget(spec.cache_budget())
    }

    /// Overrides the per-row fill-in cap of composed adjacencies.
    ///
    /// Must be set before any composition is cached: the cap changes the
    /// composed matrices, so flipping it on a warm context would mix
    /// incompatible entries.
    pub fn with_max_row_nnz(mut self, k: Option<usize>) -> Self {
        assert!(
            self.accountant
                .get_mut()
                .unwrap()
                .family_len(Family::Composed)
                == 0,
            "cannot change max_row_nnz on a context with cached compositions"
        );
        self.max_row_nnz = k;
        self
    }

    /// Sets the unified byte budget over all four accountant families
    /// (`None` = unbounded, the default). Unlike the fill-in cap this
    /// never changes any output — eviction only forces pure recomputes —
    /// so it may be set on a warm context; resident entries are evicted
    /// immediately to fit, and the `cache_peak_bytes` high-water mark
    /// (with its per-family breakdown) restarts at the resident size —
    /// for `Some` and `None` alike — so the pair stays mutually
    /// consistent (`bytes ≤ peak`, and `peak ≤ budget` when one is set)
    /// from this point on: pre-budget history would trivially exceed any
    /// new budget, and a stale mark after *removing* a budget would
    /// misreport the unbudgeted era.
    pub fn with_cache_budget(mut self, bytes: Option<usize>) -> Self {
        self.accountant.get_mut().unwrap().set_budget(bytes);
        self
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

    /// The per-row fill-in cap applied to composed adjacencies.
    pub fn max_row_nnz(&self) -> Option<usize> {
        self.max_row_nnz
    }

    /// The unified accountant byte budget (`None` = unbounded).
    pub fn cache_budget(&self) -> Option<usize> {
        relock(&self.accountant).budget
    }

    /// Resident bytes across all four accountant families right now —
    /// the quantity the budget bounds.
    pub fn cache_bytes(&self) -> usize {
        relock(&self.accountant).bytes
    }

    /// Resident bytes of the composed family alone right now.
    pub fn composed_bytes(&self) -> usize {
        relock(&self.accountant).family_bytes[Family::Composed as usize]
    }

    /// Asserts that condensing `spec` through this context cannot
    /// diverge from a fresh `CondenseContext::for_spec` run: the spec's
    /// fill-in cap must match the context's, since the cap changes the
    /// composed matrices and a silent mismatch would break the
    /// bitwise-transparency contract of `Condenser::condense_in`.
    /// Context-aware condensers call this before touching the caches.
    /// (The cache budget is deliberately *not* checked: it affects
    /// memory, never outputs.)
    pub fn check_spec(&self, spec: &CondenseSpec) {
        assert_eq!(
            spec.max_row_nnz, self.max_row_nnz,
            "CondenseSpec.max_row_nnz disagrees with the context's cap; \
             build the context with CondenseContext::for_spec (or align \
             the spec) so cached compositions match the spec"
        );
    }

    /// A point-in-time snapshot of all cache counters, read under one
    /// accountant lock so the per-family byte fields, the unified
    /// ledger, and the eviction/rejection counters are mutually
    /// consistent. In debug builds the call cross-checks the three
    /// views of resident bytes against each other — the map's entry
    /// sum, the accountant's running total, and the per-family
    /// breakdown the counters expose — so any bookkeeping drift fails
    /// loudly in tests rather than silently mis-budgeting.
    pub fn stats(&self) -> CacheCounters {
        let acct = relock(&self.accountant);
        debug_assert_eq!(
            acct.map.values().map(|e| e.bytes).sum::<usize>(),
            acct.bytes,
            "accountant entry bytes must sum to the running total"
        );
        debug_assert_eq!(
            acct.family_bytes.iter().sum::<usize>(),
            acct.bytes,
            "per-family bytes must sum to the unified ledger"
        );
        let counters = CacheCounters {
            paths: self.paths_stats.snapshot(),
            factors: self.factors_stats.snapshot(),
            composed: self.composed_stats.snapshot(),
            oriented: self.oriented_stats.snapshot(),
            influence: self.influence_stats.snapshot(),
            diversity: self.diversity_stats.snapshot(),
            propagated: self.propagated_stats.snapshot(),
            composed_evictions: acct.evictions[Family::Composed as usize],
            composed_rejected: acct.rejected[Family::Composed as usize],
            composed_bytes: acct.family_bytes[Family::Composed as usize] as u64,
            composed_peak_bytes: acct.family_peak[Family::Composed as usize] as u64,
            influence_bytes: acct.family_bytes[Family::Influence as usize] as u64,
            diversity_bytes: acct.family_bytes[Family::Diversity as usize] as u64,
            propagated_bytes: acct.family_bytes[Family::Propagated as usize] as u64,
            influence_evictions: acct.evictions[Family::Influence as usize],
            diversity_evictions: acct.evictions[Family::Diversity as usize],
            propagated_evictions: acct.evictions[Family::Propagated as usize],
            influence_rejected: acct.rejected[Family::Influence as usize],
            diversity_rejected: acct.rejected[Family::Diversity as usize],
            propagated_rejected: acct.rejected[Family::Propagated as usize],
            cache_bytes: acct.bytes as u64,
            cache_peak_bytes: acct.peak_bytes as u64,
        };
        debug_assert_eq!(
            counters.resident_bytes_total(),
            counters.cache_bytes,
            "per-family counter sum must equal the accountant's ledger"
        );
        counters
    }

    /// Number of cached composed adjacencies (for tests/benches).
    pub fn composed_len(&self) -> usize {
        relock(&self.accountant).family_len(Family::Composed)
    }

    /// Cached [`enumerate_metapaths`]: every proper meta-path rooted at
    /// `root` with 1..=`max_hops` hops, capped at `max_paths`.
    pub fn metapaths(
        &self,
        root: NodeTypeId,
        max_hops: usize,
        max_paths: usize,
    ) -> Arc<Vec<MetaPath>> {
        let key = (root, max_hops, max_paths);
        if let Some(p) = relock(&self.paths).get(&key) {
            self.paths_stats.hit();
            return Arc::clone(p);
        }
        self.paths_stats.miss();
        let paths = Arc::new(enumerate_metapaths(
            self.graph().schema(),
            root,
            max_hops,
            max_paths,
        ));
        Arc::clone(relock(&self.paths).entry(key).or_insert(paths))
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
        if let Some(f) = relock(&self.factors).get(&step) {
            self.factors_stats.hit();
            return Arc::clone(f);
        }
        self.factors_stats.miss();
        let a = self.graph().adjacency(step.edge);
        let m = if step.forward {
            a.row_normalized()
        } else {
            a.transpose().row_normalized()
        };
        Arc::clone(
            self.factors
                .lock()
                .unwrap()
                .entry(step)
                .or_insert(Arc::new(m)),
        )
    }

    fn compose(&self, steps: &[MetaPathStep]) -> Arc<CsrMatrix> {
        // Single-step "compositions" ARE factors: they are served by
        // (and counted against) the unbounded factor cache alone.
        // Inserting them into the byte-budgeted composed cache would
        // charge budget for buffers the factor cache pins anyway, and
        // their admission could evict a real SpGEMM product without
        // freeing a byte of process memory.
        if steps.len() == 1 {
            return self.factor(steps[0]);
        }
        let key = FamilyKey::Composed(steps.to_vec());
        if let Some(m) = relock(&self.accountant).get(&key) {
            self.composed_stats.hit();
            return m.into_composed();
        }
        self.composed_stats.miss();
        // Compute outside the lock: compositions recurse into their
        // prefixes and run SpGEMMs that must not serialize other cache
        // users. Concurrent computes of the same key produce identical
        // bits (pure function of graph + steps), so the insert below is
        // safe whichever thread lands first.
        let prefix = self.compose(&steps[..steps.len() - 1]);
        let last = self.factor(steps[steps.len() - 1]);
        let cost = spgemm_cost(&prefix, &last);
        let mut prod = prefix.spgemm(&last);
        if let Some(k) = self.max_row_nnz {
            // The cap is a *per-row* contract: apply it whenever any
            // row exceeds k, not only when the aggregate density
            // does (a skewed product can hide an over-full row
            // behind many empty ones).
            if any_row_exceeds(&prod, k) {
                prod = prod.top_k_per_row(k);
            }
        }
        let bytes = prod.storage_bytes();
        relock(&self.accountant)
            .insert(key, FamilyValue::Composed(Arc::new(prod)), bytes, cost)
            .into_composed()
    }

    /// Cached [`HeteroGraph::adjacency_between`]: the `from → to`
    /// per-relation adjacency, transposing a stored reverse relation when
    /// needed. `None` when the schema has no relation between the types —
    /// a negative answer that is cached (and counted) like any other, so
    /// repeated misses on an absent relation neither recompute nor
    /// under-report.
    pub fn adjacency_between(&self, from: NodeTypeId, to: NodeTypeId) -> Option<Arc<CsrMatrix>> {
        let key = (from, to);
        if let Some(a) = relock(&self.oriented).get(&key) {
            self.oriented_stats.hit();
            return a.as_ref().map(Arc::clone);
        }
        self.oriented_stats.miss();
        let a = self.graph().adjacency_between(from, to).map(Arc::new);
        self.oriented
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(a)
            .as_ref()
            .map(Arc::clone)
    }

    /// Returns the cached influence vector for `key`, computing it with
    /// `compute` on a miss. `compute` runs outside the cache lock.
    pub fn influence(
        &self,
        key: InfluenceKey,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        let fkey = FamilyKey::Influence(key);
        if let Some(v) = relock(&self.accountant).get(&fkey) {
            self.influence_stats.hit();
            return v.into_vector();
        }
        self.influence_stats.miss();
        let v = Arc::new(compute());
        let bytes = v.len() * std::mem::size_of::<f64>();
        let cost = influence_cost(v.len());
        relock(&self.accountant)
            .insert(fkey, FamilyValue::Influence(v), bytes, cost)
            .into_vector()
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
        let fkey = FamilyKey::Diversity(key);
        if let Some(v) = relock(&self.accountant).get(&fkey) {
            self.diversity_stats.hit();
            return v.into_vector();
        }
        self.diversity_stats.miss();
        let v = Arc::new(compute());
        let bytes = v.len() * std::mem::size_of::<f64>();
        let cost = diversity_cost(v.len());
        relock(&self.accountant)
            .insert(fkey, FamilyValue::Diversity(v), bytes, cost)
            .into_vector()
    }

    // ---- delta seeding ----------------------------------------------

    /// Seeds this (typically cold) context from `old`'s caches, keeping
    /// exactly the entries a [`GraphDelta`] provably leaves unchanged.
    /// The caller guarantees `self.graph()` equals `old.graph()` with
    /// `delta` applied — same schema, same per-type node counts, the
    /// named relations/feature tables rewired and nothing else.
    ///
    /// Survival rules, one per family (each is the exact dependency set
    /// of the cached computation):
    ///
    /// * **paths** — enumeration reads only the schema; always survives.
    /// * **factors** — the factor of step `s` reads relation `s.edge`
    ///   alone; killed iff the delta touches it.
    /// * **composed** — a product reads its steps' factors; killed iff
    ///   any step's edge is touched.
    /// * **oriented** — `(from, to)` resolves one schema relation; the
    ///   cached negative (`None`) is schema-only and always survives, a
    ///   positive is killed iff its relation is touched.
    /// * **influence** — scores aggregate the composed adjacencies of
    ///   the family `Φ_L(target → father)` and never read features;
    ///   killed iff any family path traverses a touched edge.
    /// * **diversity** — the bonus of path `i` reads the composed
    ///   adjacencies of `i` and its same-source-type siblings; killed
    ///   iff any path in that group traverses a touched edge.
    /// * **propagated** — block 0 is the raw target features and block
    ///   `i` is `Â_i · X_source(i)`; killed iff any family path
    ///   traverses a touched edge, or the delta rewrites the target's
    ///   or any family source type's features.
    ///
    /// Surviving entries are installed verbatim (`Arc` clones — no
    /// recompute, no hit/miss counter noise), so a seeded context is
    /// bitwise-identical to a cold rebuild everywhere: warm entries are
    /// pure functions the delta did not perturb, and everything else
    /// recomputes against the mutated graph on demand.
    ///
    /// # Panics
    /// Panics when the fill-in caps disagree (cap changes composed
    /// bits) or the graphs' shapes differ (a delta never resizes).
    pub fn seed_from(&self, old: &CondenseContext<'_>, delta: &GraphDelta) -> DeltaSeedReport {
        assert_eq!(
            self.max_row_nnz, old.max_row_nnz,
            "delta seeding requires equal fill-in caps: the cap changes \
             composed bits, so inherited entries would be wrong"
        );
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
        let mut report = DeltaSeedReport::default();

        for (key, v) in old.dump_paths() {
            self.install_paths(key, v);
            report.paths += 1;
        }

        for (step, m) in old.dump_factors() {
            if rules.factor_clean(step) {
                self.install_factor(step, m);
                report.factors += 1;
            } else {
                report.dropped += 1;
            }
        }

        for (steps, m, cost) in old.dump_composed() {
            if rules.steps_clean(&steps) {
                self.install_composed(steps, m, cost);
                report.composed += 1;
            } else {
                report.dropped += 1;
            }
        }

        for (key, a) in old.dump_oriented() {
            if rules.oriented_clean(key.0, key.1) {
                self.install_oriented(key, a);
                report.oriented += 1;
            } else {
                report.dropped += 1;
            }
        }

        for (key, v) in old.dump_influence() {
            if rules.influence_clean(key.father, key.max_hops, key.max_paths) {
                self.install_influence(key, v);
                report.influence += 1;
            } else {
                report.dropped += 1;
            }
        }

        for (key, v) in old.dump_diversity() {
            let (root, mh, mp, pi) = key;
            if rules.diversity_clean(root, mh, mp, pi) {
                self.install_diversity(key, v);
                report.diversity += 1;
            } else {
                report.dropped += 1;
            }
        }

        for (key, v, bytes, cost) in old.dump_propagated() {
            if rules.propagated_clean(key.0, key.1) {
                self.install_propagated(key, v, bytes, cost);
                report.propagated += 1;
            } else {
                report.dropped += 1;
            }
        }

        report
    }

    // ---- snapshot support -------------------------------------------
    //
    // The dump methods hand the snapshot encoder a *sorted* copy of each
    // cache (deterministic file bytes for identical cache contents); the
    // install methods pre-warm a cache from a decoded snapshot without
    // touching the hit/miss counters — a loaded entry was neither
    // requested nor computed, and installs never overwrite entries a
    // live caller already produced.

    pub(crate) fn dump_factors(&self) -> Vec<(MetaPathStep, Arc<CsrMatrix>)> {
        let mut v: Vec<_> = self
            .factors
            .lock()
            .unwrap()
            .iter()
            .map(|(k, m)| (*k, Arc::clone(m)))
            .collect();
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }

    pub(crate) fn dump_composed(&self) -> Vec<(Vec<MetaPathStep>, Arc<CsrMatrix>, u64)> {
        let acct = relock(&self.accountant);
        let mut v: Vec<_> = acct
            .map
            .iter()
            .filter_map(|(k, e)| match (k, &e.value) {
                (FamilyKey::Composed(steps), FamilyValue::Composed(m)) => {
                    Some((steps.clone(), Arc::clone(m), e.cost))
                }
                _ => None,
            })
            .collect();
        drop(acct);
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        v
    }

    pub(crate) fn dump_influence(&self) -> Vec<(InfluenceKey, Arc<Vec<f64>>)> {
        let acct = relock(&self.accountant);
        let mut v: Vec<_> = acct
            .map
            .iter()
            .filter_map(|(k, e)| match (k, &e.value) {
                (FamilyKey::Influence(key), FamilyValue::Influence(x)) => {
                    Some((key.clone(), Arc::clone(x)))
                }
                _ => None,
            })
            .collect();
        drop(acct);
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        v
    }

    pub(crate) fn dump_diversity(&self) -> Vec<(DiversityKey, Arc<Vec<f64>>)> {
        let acct = relock(&self.accountant);
        let mut v: Vec<_> = acct
            .map
            .iter()
            .filter_map(|(k, e)| match (k, &e.value) {
                (FamilyKey::Diversity(key), FamilyValue::Diversity(x)) => {
                    Some((*key, Arc::clone(x)))
                }
                _ => None,
            })
            .collect();
        drop(acct);
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }

    pub(crate) fn dump_propagated(&self) -> Vec<((usize, usize), AnyArc, usize, u64)> {
        let acct = relock(&self.accountant);
        let mut v: Vec<_> = acct
            .map
            .iter()
            .filter_map(|(k, e)| match (k, &e.value) {
                (FamilyKey::Propagated(key), FamilyValue::Propagated(x)) => {
                    Some((*key, Arc::clone(x), e.bytes, e.cost))
                }
                _ => None,
            })
            .collect();
        drop(acct);
        v.sort_unstable_by_key(|(k, _, _, _)| *k);
        v
    }

    pub(crate) fn dump_paths(&self) -> Vec<(PathKey, Arc<Vec<MetaPath>>)> {
        let mut v: Vec<_> = self
            .paths
            .lock()
            .unwrap()
            .iter()
            .map(|(k, p)| (*k, Arc::clone(p)))
            .collect();
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }

    pub(crate) fn dump_oriented(&self) -> Vec<OrientedEntry> {
        let mut v: Vec<_> = self
            .oriented
            .lock()
            .unwrap()
            .iter()
            .map(|(k, a)| (*k, a.as_ref().map(Arc::clone)))
            .collect();
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }

    pub(crate) fn install_factor(&self, step: MetaPathStep, m: Arc<CsrMatrix>) {
        relock(&self.factors).entry(step).or_insert(m);
    }

    /// Installs a composed adjacency through the accountant's normal
    /// admission path, so the byte budget (and its eviction policy)
    /// applies to loaded entries exactly as to computed ones. The same
    /// holds for every install below: a budget set before a snapshot
    /// load bounds the load too.
    pub(crate) fn install_composed(&self, steps: Vec<MetaPathStep>, m: Arc<CsrMatrix>, cost: u64) {
        let bytes = m.storage_bytes();
        relock(&self.accountant).insert(
            FamilyKey::Composed(steps),
            FamilyValue::Composed(m),
            bytes,
            cost,
        );
    }

    pub(crate) fn install_influence(&self, key: InfluenceKey, v: Arc<Vec<f64>>) {
        let bytes = v.len() * std::mem::size_of::<f64>();
        let cost = influence_cost(v.len());
        relock(&self.accountant).insert(
            FamilyKey::Influence(key),
            FamilyValue::Influence(v),
            bytes,
            cost,
        );
    }

    pub(crate) fn install_diversity(&self, key: DiversityKey, v: Arc<Vec<f64>>) {
        let bytes = v.len() * std::mem::size_of::<f64>();
        let cost = diversity_cost(v.len());
        relock(&self.accountant).insert(
            FamilyKey::Diversity(key),
            FamilyValue::Diversity(v),
            bytes,
            cost,
        );
    }

    pub(crate) fn install_propagated(
        &self,
        key: (usize, usize),
        v: AnyArc,
        bytes: usize,
        cost: u64,
    ) {
        relock(&self.accountant).insert(
            FamilyKey::Propagated(key),
            FamilyValue::Propagated(v),
            bytes,
            cost,
        );
    }

    pub(crate) fn install_paths(&self, key: PathKey, v: Arc<Vec<MetaPath>>) {
        relock(&self.paths).entry(key).or_insert(v);
    }

    pub(crate) fn install_oriented(
        &self,
        key: (NodeTypeId, NodeTypeId),
        v: Option<Arc<CsrMatrix>>,
    ) {
        relock(&self.oriented).entry(key).or_insert(v);
    }

    /// Returns the cached propagated-feature value for `key`, computing
    /// it with `compute` on a miss. The value is stored type-erased so
    /// higher layers can cache their own block types here; `T` must be
    /// the same type for every use of a given context (guaranteed in
    /// practice — one layer owns this cache).
    pub fn propagated<T: Any + Send + Sync>(
        &self,
        key: (usize, usize),
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        self.propagated_sized(key, compute, |_| 0)
    }

    /// [`CondenseContext::propagated`] whose caller also reports the
    /// value's resident heap bytes, surfaced through
    /// [`CacheCounters::propagated_bytes`] and charged against the
    /// budget. `bytes_of` runs once, only on the miss that actually
    /// computes the value.
    pub fn propagated_sized<T: Any + Send + Sync>(
        &self,
        key: (usize, usize),
        compute: impl FnOnce() -> T,
        bytes_of: impl FnOnce(&T) -> usize,
    ) -> Arc<T> {
        self.propagated_costed(key, compute, bytes_of, |_| 0)
    }

    /// [`CondenseContext::propagated_sized`] whose caller also reports
    /// the value's recompute-cost estimate in the accountant's shared
    /// flop currency, so cross-family eviction can weigh a propagated
    /// block against a composed product. An unreported cost (the
    /// `propagated`/`propagated_sized` default of 0) makes the block
    /// the accountant's first victim — safe, since eviction only forces
    /// a pure recompute. Both closures run once, only on the miss that
    /// actually computes the value.
    pub fn propagated_costed<T: Any + Send + Sync>(
        &self,
        key: (usize, usize),
        compute: impl FnOnce() -> T,
        bytes_of: impl FnOnce(&T) -> usize,
        cost_of: impl FnOnce(&T) -> u64,
    ) -> Arc<T> {
        let fkey = FamilyKey::Propagated(key);
        if let Some(v) = relock(&self.accountant).get(&fkey) {
            self.propagated_stats.hit();
            return v
                .into_propagated()
                .downcast::<T>()
                .expect("propagated cache holds one concrete type per context");
        }
        self.propagated_stats.miss();
        let v = Arc::new(compute());
        let bytes = bytes_of(&v);
        let cost = cost_of(&v);
        let any: AnyArc = v;
        relock(&self.accountant)
            .insert(fkey, FamilyValue::Propagated(any), bytes, cost)
            .into_propagated()
            .downcast::<T>()
            .expect("propagated cache holds one concrete type per context")
    }
}

impl std::fmt::Debug for CondenseContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CondenseContext")
            .field("max_row_nnz", &self.max_row_nnz)
            .field("cache_budget", &self.cache_budget())
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

    /// Six papers, one hub author shared by papers 0–2: the P-A-P product
    /// has three rows with 3 entries each (9 nnz over 6 rows), so the old
    /// aggregate gate `nnz > k·nrows` stays silent at k = 2 while three
    /// rows violate the per-row cap.
    fn skewed_fixture() -> HeteroGraph {
        let mut s = Schema::new();
        let p = s.add_node_type("paper");
        let a = s.add_node_type("author");
        let pa = s.add_edge_type("pa", p, a);
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![6, 2]);
        for pp in 0..3 {
            b.add_edge(pa, pp, 0);
        }
        b.add_edge(pa, 4, 1);
        b.set_features(p, FeatureMatrix::zeros(6, 1));
        b.set_features(a, FeatureMatrix::zeros(2, 1));
        b.set_labels(vec![0, 1, 0, 1, 0, 1], 2);
        b.build()
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
        assert_eq!(st.composed.0, 1, "one composed hit");
        assert_eq!(st.composed.1, 1, "one composed miss");
        assert!(Arc::ptr_eq(&paths, &ctx.metapaths(root, 2, 100)));
        // A single-step path is a factor, not a composed product: it
        // must never touch the composed cache or its budget.
        let one_hop = paths.iter().find(|p| p.hops() == 1).unwrap();
        let f1 = ctx.adjacency(one_hop);
        let f2 = ctx.adjacency(one_hop);
        assert!(Arc::ptr_eq(&f1, &f2));
        assert_eq!(ctx.stats().composed, st.composed, "composed untouched");
        assert!(ctx.stats().factors.0 >= 1, "served by the factor cache");
    }

    #[test]
    fn context_matches_fresh_engine_bitwise() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let fresh = CondenseContext::new(&g).with_max_row_nnz(Some(DEFAULT_MAX_ROW_NNZ));
        let root = g.schema().target();
        for p in ctx.metapaths(root, 2, 100).iter() {
            assert_eq!(*ctx.adjacency(p), *fresh.adjacency(p), "{:?}", p.steps);
        }
    }

    #[test]
    fn per_row_cap_holds_on_skewed_products() {
        let g = skewed_fixture();
        let ctx = CondenseContext::new(&g).with_max_row_nnz(Some(2));
        let root = g.schema().target();
        let pap = ctx
            .metapaths(root, 2, 100)
            .iter()
            .find(|p| p.hops() == 2)
            .cloned()
            .expect("P-A-P exists");
        let m = ctx.adjacency(&pap);
        // Aggregate density is below the old gate (9 nnz ≤ 2 × 6 rows
        // before capping), yet every cached row must obey the contract.
        for r in 0..m.nrows() {
            assert!(
                m.row_nnz(r) <= 2,
                "row {r} has {} entries, cap is 2",
                m.row_nnz(r)
            );
        }
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
        assert_eq!(ctx.stats().oriented, (1, 2));
    }

    #[test]
    fn absent_relations_are_cached_and_counted() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let a = g.schema().node_type_by_name("author").unwrap();
        let f = g.schema().node_type_by_name("field").unwrap();
        assert!(g.schema().edge_between(a, f).is_none());
        assert!(ctx.adjacency_between(a, f).is_none());
        assert_eq!(ctx.stats().oriented, (0, 1), "first ask is a miss");
        assert!(ctx.adjacency_between(a, f).is_none());
        assert!(ctx.adjacency_between(a, f).is_none());
        assert_eq!(
            ctx.stats().oriented,
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
        assert_eq!(ctx.stats().diversity, (1, 2));
    }

    #[test]
    fn propagated_cache_round_trips_any_type() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let a = ctx.propagated((2, 12), || vec![1u32, 2, 3]);
        let b = ctx.propagated((2, 12), || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.stats().propagated, (1, 1));
    }

    #[test]
    #[should_panic(expected = "disagrees with the context's cap")]
    fn check_spec_rejects_mismatched_fill_in_cap() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        ctx.check_spec(&CondenseSpec::new(0.5).with_max_row_nnz(None));
    }

    #[test]
    fn check_spec_accepts_matching_cap() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        ctx.check_spec(&CondenseSpec::new(0.5));
        let uncapped = CondenseContext::new(&g).with_max_row_nnz(None);
        uncapped.check_spec(&CondenseSpec::new(0.5).with_max_row_nnz(None));
    }

    #[test]
    #[should_panic(expected = "cached compositions")]
    fn rejects_cap_change_on_warm_context() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        // A multi-hop composition is what the cap applies to (factors
        // are cap-independent, so a factors-only context may re-cap).
        let paths = ctx.metapaths(root, 2, 100);
        ctx.adjacency(paths.iter().find(|p| p.hops() == 2).unwrap());
        let _ = ctx.with_max_row_nnz(None);
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
    fn budgeted_cache_never_exceeds_budget_and_stays_bitwise_identical() {
        let g = fixture();
        let unbounded = CondenseContext::new(&g);
        let root = g.schema().target();
        let paths = unbounded.metapaths(root, 3, 100);
        for p in paths.iter() {
            unbounded.adjacency(p);
        }
        let full_bytes = unbounded.composed_bytes();
        assert!(full_bytes > 0);

        // A budget of roughly half the unbounded footprint forces
        // evictions while still admitting every individual entry.
        let budget = (full_bytes / 2).max(64);
        let evicting = CondenseContext::new(&g).with_cache_budget(Some(budget));
        // Two sweeps: the second re-fetches entries the first evicted.
        for _ in 0..2 {
            for p in paths.iter() {
                assert_eq!(
                    *evicting.adjacency(p),
                    *unbounded.adjacency(p),
                    "eviction must never change a composed adjacency"
                );
            }
        }
        let st = evicting.stats();
        assert!(st.composed_evictions > 0, "budget must force evictions");
        assert!(
            st.composed_peak_bytes <= budget as u64,
            "peak {} exceeded budget {budget}",
            st.composed_peak_bytes
        );
        assert!(st.composed_bytes <= budget as u64);
    }

    #[test]
    fn budgeting_a_warm_context_evicts_and_restarts_the_peak() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        let paths = ctx.metapaths(root, 3, 100);
        for p in paths.iter() {
            ctx.adjacency(p);
        }
        // Shrink to just below the full footprint: something must go,
        // and the high-water mark restarts so the peak ≤ budget
        // invariant holds from this point on.
        let multi_hop = paths.iter().filter(|p| p.hops() >= 2).count();
        let budget = ctx.composed_bytes().saturating_sub(1);
        let ctx = ctx.with_cache_budget(Some(budget));
        let st = ctx.stats();
        assert!(st.composed_evictions >= 1);
        assert!(ctx.composed_len() < multi_hop);
        assert!(
            st.composed_peak_bytes <= budget as u64,
            "peak {} must restart under the new budget {budget}",
            st.composed_peak_bytes
        );
        // Evicted entries recompute to identical bits.
        let fresh = CondenseContext::new(&g);
        for p in paths.iter() {
            assert_eq!(*ctx.adjacency(p), *fresh.adjacency(p));
        }
    }

    #[test]
    fn eviction_removes_cheapest_entries_first() {
        // Deterministic policy check straight on the accountant: cost
        // per byte ascending decides the victim (equal sizes here, so
        // cost order), logical touch time breaks ties.
        let step = |e: u16| MetaPathStep {
            edge: crate::schema::EdgeTypeId(e),
            forward: true,
        };
        let key = |e: u16| FamilyKey::Composed(vec![step(0), step(e)]);
        let m = |seed: u32| {
            FamilyValue::Composed(Arc::new(CsrMatrix::from_edges(
                2,
                2,
                &[(0, seed % 2), (1, 1)],
            )))
        };
        let bytes_each = CsrMatrix::from_edges(2, 2, &[(0, 0), (1, 1)]).storage_bytes();
        let mut cache = CacheAccountant {
            budget: Some(bytes_each * 3),
            ..Default::default()
        };
        cache.insert(key(1), m(0), bytes_each, 10); // cheap
        cache.insert(key(2), m(1), bytes_each, 10); // cheap, same cost
        cache.insert(key(3), m(0), bytes_each, 50); // expensive
        assert_eq!(cache.evictions[Family::Composed as usize], 0);
        // Touch the first cheap entry so the second becomes the
        // least-recently-used one of the cheapest tier.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(4), m(1), bytes_each, 30);
        assert_eq!(cache.evictions[Family::Composed as usize], 1);
        assert!(
            cache.map.contains_key(&key(1)),
            "recently touched equal-cost entry must survive"
        );
        assert!(
            !cache.map.contains_key(&key(2)),
            "the untouched cheapest entry is the victim"
        );
        assert!(cache.map.contains_key(&key(3)));
        // Across cost tiers, cheapest-first beats recency: the freshly
        // touched cost-10 entry still goes before cost-30/50 ones.
        cache.insert(key(5), m(0), bytes_each, 40);
        assert_eq!(cache.evictions[Family::Composed as usize], 2);
        assert!(!cache.map.contains_key(&key(1)));
        assert!(cache.map.contains_key(&key(3)));
        assert!(cache.bytes <= bytes_each * 3);
    }

    #[test]
    fn cross_family_eviction_prefers_the_lowest_cost_density() {
        // Four families resident, equal byte sizes, costs chosen so the
        // densities order propagated < diversity < influence < composed.
        // Pressure must evict in exactly that order, regardless of
        // insertion or touch order.
        let step = |e: u16| MetaPathStep {
            edge: crate::schema::EdgeTypeId(e),
            forward: true,
        };
        let ikey = InfluenceKey {
            father: crate::schema::NodeTypeId(1),
            max_hops: 2,
            max_paths: 8,
            method: (0, [0, 0, 0, 0]),
            seed_targets: None,
            seed: 0,
        };
        let bytes = 64usize;
        let mut cache = CacheAccountant {
            budget: Some(bytes * 4),
            ..Default::default()
        };
        let vec_val = |fam: Family| {
            let v = Arc::new(vec![0.0f64; 8]);
            match fam {
                Family::Influence => FamilyValue::Influence(v),
                Family::Diversity => FamilyValue::Diversity(v),
                _ => unreachable!(),
            }
        };
        let prop: AnyArc = Arc::new(vec![0u8; bytes]);
        cache.insert(
            FamilyKey::Composed(vec![step(0), step(1)]),
            FamilyValue::Composed(Arc::new(CsrMatrix::from_edges(2, 2, &[(0, 0)]))),
            bytes,
            4096,
        );
        cache.insert(
            FamilyKey::Influence(ikey),
            vec_val(Family::Influence),
            bytes,
            influence_cost(8), // 512 → density 8
        );
        cache.insert(
            FamilyKey::Diversity((crate::schema::NodeTypeId(0), 2, 8, 0)),
            vec_val(Family::Diversity),
            bytes,
            diversity_cost(8), // 128 → density 2
        );
        cache.insert(
            FamilyKey::Propagated((2, 8)),
            FamilyValue::Propagated(prop),
            bytes,
            32, // density 0.5 — the cheapest to rebuild per byte
        );
        assert_eq!(cache.bytes, bytes * 4);
        let order: Vec<Family> = std::iter::from_fn(|| {
            let before: Vec<FamilyKey> = cache.map.keys().cloned().collect();
            if !cache.evict_one() {
                return None;
            }
            before
                .into_iter()
                .find(|k| !cache.map.contains_key(k))
                .map(|k| k.family())
        })
        .collect();
        assert_eq!(
            order,
            vec![
                Family::Propagated,
                Family::Diversity,
                Family::Influence,
                Family::Composed
            ],
            "eviction must walk the cost-per-byte ladder from the bottom"
        );
        assert_eq!(cache.bytes, 0);
        assert_eq!(cache.family_bytes, [0; NUM_FAMILIES]);
        assert_eq!(cache.evictions, [1, 1, 1, 1]);
    }

    #[test]
    fn cache_counter_totals_saturate_instead_of_overflowing() {
        let c = CacheCounters {
            paths: (u64::MAX, u64::MAX),
            factors: (5, 7),
            diversity: (u64::MAX, 0),
            ..Default::default()
        };
        // A wrapping sum would panic in debug builds (and wrap to a
        // small number in release); totals must clamp instead.
        assert_eq!(c.total_hits(), u64::MAX);
        assert_eq!(c.total_misses(), u64::MAX);
        let small = CacheCounters {
            paths: (2, 3),
            factors: (5, 7),
            ..Default::default()
        };
        assert_eq!(small.total_hits(), 7, "un-saturated totals still exact");
        assert_eq!(small.total_misses(), 10);
    }

    #[test]
    fn rebudgeting_a_warm_context_keeps_bytes_and_peak_consistent() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        let paths = ctx.metapaths(root, 3, 100);
        for p in paths.iter() {
            ctx.adjacency(p);
        }
        let full = ctx.composed_bytes();
        assert!(full > 0);

        // Budget a warm context: resident shrinks to fit and the mark
        // restarts at the resident size.
        let budget = (full / 2).max(1);
        let ctx = ctx.with_cache_budget(Some(budget));
        let st = ctx.stats();
        assert!(st.composed_bytes <= budget as u64);
        assert_eq!(st.composed_peak_bytes, st.composed_bytes);

        // Remove the budget from the (still warm) context: nothing is
        // evicted, and the mark restarts at the resident size instead of
        // carrying the budgeted era's history.
        let ctx = ctx.with_cache_budget(None);
        let st = ctx.stats();
        assert_eq!(st.composed_peak_bytes, st.composed_bytes);

        // New inserts grow both again, keeping bytes ≤ peak.
        for p in paths.iter() {
            ctx.adjacency(p);
        }
        let st = ctx.stats();
        assert_eq!(st.composed_bytes, full as u64, "unbudgeted refill");
        assert!(st.composed_peak_bytes >= st.composed_bytes);
    }

    #[test]
    fn eviction_tiebreak_falls_back_to_key_order() {
        // Force the degenerate state the (cost, touch) pair cannot
        // order: every entry with identical cost AND identical logical
        // touch time (as a wholesale-reconstructed cache could hold).
        // The victim must then be decided by key order — never by hash
        // map iteration order.
        let step = |e: u16| MetaPathStep {
            edge: crate::schema::EdgeTypeId(e),
            forward: true,
        };
        let m = || FamilyValue::Composed(Arc::new(CsrMatrix::from_edges(2, 2, &[(0, 0), (1, 1)])));
        let bytes = CsrMatrix::from_edges(2, 2, &[(0, 0), (1, 1)]).storage_bytes();
        for order in [[3u16, 1, 2], [1, 2, 3], [2, 3, 1]] {
            let mut cache = CacheAccountant::default();
            for e in order {
                cache.insert(FamilyKey::Composed(vec![step(0), step(e)]), m(), bytes, 10);
            }
            for entry in cache.map.values_mut() {
                entry.touch = 7; // erase the per-insert clock
            }
            assert!(cache.evict_one());
            assert!(
                !cache
                    .map
                    .contains_key(&FamilyKey::Composed(vec![step(0), step(1)])),
                "the smallest key must be the victim regardless of \
                 insertion order {order:?}"
            );
            assert_eq!(cache.map.len(), 2);
        }
    }

    #[test]
    fn rejected_oversized_entries_leave_the_cache_empty() {
        let g = fixture();
        let ctx = CondenseContext::new(&g).with_cache_budget(Some(1));
        let root = g.schema().target();
        let paths = ctx.metapaths(root, 2, 100);
        let two_hop = paths.iter().find(|p| p.hops() == 2).unwrap();
        let a = ctx.adjacency(two_hop);
        let b = ctx.adjacency(two_hop);
        assert_eq!(*a, *b, "uncached recompute is still correct");
        let st = ctx.stats();
        assert_eq!(st.composed_bytes, 0, "nothing fits a 1-byte budget");
        assert!(st.composed_rejected >= 2);
        assert_eq!(st.composed_peak_bytes, 0);
    }

    #[test]
    fn unified_budget_governs_every_family_and_ledgers_agree() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        // Populate all four families.
        let paths = ctx.metapaths(root, 3, 100);
        for p in paths.iter() {
            ctx.adjacency(p);
        }
        let f = g.schema().node_type_by_name("field").unwrap();
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
        ctx.propagated_costed((2, 12), || vec![0u64; 64], |v| v.len() * 8, |_| 8);
        let st = ctx.stats();
        assert!(st.composed_bytes > 0);
        assert_eq!(st.influence_bytes, 32 * 8);
        assert_eq!(st.diversity_bytes, 32 * 8);
        assert_eq!(st.propagated_bytes, 64 * 8);
        assert_eq!(st.cache_bytes, st.resident_bytes_total());
        assert_eq!(st.cache_bytes as usize, ctx.cache_bytes());
        assert!(st.cache_peak_bytes >= st.cache_bytes);

        // Shrink the unified budget below the current footprint: the
        // propagated block (lowest cost/byte) must be the first victim,
        // resident bytes must fit, and the unified peak restarts.
        let budget = ctx.cache_bytes() - 1;
        let ctx = ctx.with_cache_budget(Some(budget));
        let st = ctx.stats();
        assert!(st.propagated_evictions >= 1, "propagated evicts first");
        assert!(st.cache_bytes <= budget as u64);
        assert_eq!(st.cache_peak_bytes, st.cache_bytes, "peak restarts");
        assert_eq!(st.cache_bytes, st.resident_bytes_total());

        // Removing the budget restarts the unified peak too.
        let ctx = ctx.with_cache_budget(None);
        let st = ctx.stats();
        assert_eq!(st.cache_peak_bytes, st.cache_bytes);
    }
}
