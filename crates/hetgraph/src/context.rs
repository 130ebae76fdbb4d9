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
//! `CacheAccountant` under a single byte budget
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
use std::hash::Hash;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The seven cache families of a context, in install order. The
/// discriminant indexes every per-family array — [`CacheCounters`],
/// [`SeedReport`] and the accountant's ledgers — and the variants of
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

/// One cache family's counters. Only the four budget-governed families
/// (composed, influence, diversity, propagated) ever hold bytes,
/// evictions or rejections; paths, factors and oriented adjacencies
/// count hits and misses alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FamilyCounters {
    pub hits: u64,
    pub misses: u64,
    /// Resident bytes right now. Propagated blocks are sized by the
    /// layer that owns their concrete type (the `bytes_of` of
    /// [`CondenseContext::propagated`] or a snapshot codec's
    /// `resident_bytes`).
    pub bytes: u64,
    /// High-water mark of resident bytes since the budget was last
    /// applied (≤ budget when one is set; budgeting a warm context
    /// restarts the mark at its post-eviction resident size).
    pub peak_bytes: u64,
    /// Entries evicted to stay within the byte budget (under pressure
    /// propagated blocks go first — lowest recompute cost per byte).
    pub evictions: u64,
    /// Entries never admitted (larger than the whole budget, or
    /// rejected by an injected pressure spike).
    pub rejected: u64,
}

/// A point-in-time snapshot of every cache family's counters, plus the
/// accountant's unified byte ledger. Index it by family:
/// `stats[CacheFamily::Composed].evictions`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Per-family counters, in [`CacheFamily`] order.
    pub families: [FamilyCounters; NUM_FAMILIES],
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
/// adjacencies) — plus what it left behind. Index it by family:
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
    /// Propagated entries present in a snapshot but skipped because the
    /// loader supplied no [`PropagatedCodec`](crate::PropagatedCodec).
    pub skipped: usize,
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
/// [`CacheFamily`]. Derives `Ord` so dumps sort family-first and the
/// eviction tiebreak has a total order that never depends on hash-map
/// iteration order (among the accountant's families: composed <
/// influence < diversity < propagated).
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
/// `Matrix`, influence and diversity share `Vector`; the variant always
/// matches the key's family (values are only built next to their keys).
#[derive(Clone)]
pub(crate) enum CacheValue {
    Paths(Arc<Vec<MetaPath>>),
    Matrix(Arc<CsrMatrix>),
    Oriented(Option<Arc<CsrMatrix>>),
    Vector(Arc<Vec<f64>>),
    Propagated(AnyArc),
}

impl CacheValue {
    fn into_matrix(self) -> Arc<CsrMatrix> {
        match self {
            CacheValue::Matrix(m) => m,
            _ => unreachable!("matrix key holds a matrix value"),
        }
    }

    fn into_vector(self) -> Arc<Vec<f64>> {
        match self {
            CacheValue::Vector(v) => v,
            _ => unreachable!("vector key holds a vector value"),
        }
    }

    fn into_propagated(self) -> AnyArc {
        match self {
            CacheValue::Propagated(v) => v,
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
    /// Resident bytes charged to the budget (0 for the three unbudgeted
    /// families).
    pub(crate) bytes: usize,
    /// Recompute-cost estimate in the accountant's flop currency (0 for
    /// the three unbudgeted families).
    pub(crate) cost: u64,
}

/// Resident bytes and deterministic recompute-cost estimate of a
/// `len`-element vector of `family` (influence or diversity), in the
/// accountant's shared flop currency. Aggregating Eq. 10–13 influence
/// scores runs a truncated PPR series over every family path, a few
/// dozen passes over the output length; the Eq. 5–7 diversity Jaccard
/// pass over the sibling paths' composed rows is cheaper per element
/// than influence, dearer than a propagated SpMM.
pub(crate) fn vector_charge(family: CacheFamily, len: usize) -> (usize, u64) {
    let per_element = if family == CacheFamily::Influence {
        64
    } else {
        16
    };
    (
        len * std::mem::size_of::<f64>(),
        (len as u64).saturating_mul(per_element).max(1),
    )
}

/// One resident cache entry plus the bookkeeping eviction needs.
struct AccountedEntry {
    value: CacheValue,
    bytes: usize,
    /// Deterministic recompute-cost estimate in scalar flops (SpGEMM
    /// multiply-adds for composed products; see [`vector_charge`] for
    /// the vector families). Entries with the cheapest cost *per byte*
    /// evict first.
    cost: u64,
    /// Logical insert/touch time; breaks density ties toward the least
    /// recently used entry.
    touch: u64,
}

/// The unified memory accountant: one map over all four budget-governed
/// cache families (composed, influence, diversity, propagated), one
/// byte ceiling, one eviction policy. Lives behind the context's mutex.
/// The per-family ledgers (`family_bytes`, `family_peak`, `evictions`,
/// `rejected`) are indexed by [`CacheFamily`] and always sum to the
/// unified ones — [`CondenseContext::stats`] debug-asserts it.
#[derive(Default)]
struct CacheAccountant {
    map: FxHashMap<CacheKey, AccountedEntry>,
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
    fn get(&mut self, key: &CacheKey) -> Option<CacheValue> {
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
    fn insert(&mut self, key: CacheKey, value: CacheValue, bytes: usize, cost: u64) -> CacheValue {
        if let Some(e) = self.map.get(&key) {
            return e.value.clone();
        }
        let fam = key.family() as usize;
        // Injected budget-pressure spikes (`accountant.pressure`, every
        // family): behave exactly like an entry that exceeds the whole
        // budget — a counted rejection, the caller keeps its freshly
        // computed (bit-identical) value, and resident bytes never move.
        if crate::failpoints::should_fire(crate::failpoints::ACCOUNTANT_PRESSURE) {
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

    fn family_len(&self, fam: CacheFamily) -> usize {
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
    /// Hit/miss counters, indexed by [`CacheFamily`].
    counters: [Counter; NUM_FAMILIES],
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
            counters: Default::default(),
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
        let acct = self
            .accountant
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(
            acct.family_len(CacheFamily::Composed) == 0,
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
        self.accountant
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .set_budget(bytes);
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
        relock(&self.accountant).family_bytes[CacheFamily::Composed as usize]
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
        let counters = CacheCounters {
            families: std::array::from_fn(|f| FamilyCounters {
                hits: self.counters[f].hits.load(Ordering::Relaxed),
                misses: self.counters[f].misses.load(Ordering::Relaxed),
                bytes: acct.family_bytes[f] as u64,
                peak_bytes: acct.family_peak[f] as u64,
                evictions: acct.evictions[f],
                rejected: acct.rejected[f],
            }),
            cache_bytes: acct.bytes as u64,
            cache_peak_bytes: acct.peak_bytes as u64,
        };
        debug_assert_eq!(
            counters.resident_bytes_total(),
            counters.cache_bytes,
            "per-family bytes must sum to the unified ledger"
        );
        counters
    }

    /// Number of cached composed adjacencies (for tests/benches).
    pub fn composed_len(&self) -> usize {
        relock(&self.accountant).family_len(CacheFamily::Composed)
    }

    /// Lookup-or-compute over one of the three unbudgeted maps, counted
    /// against `family`. `compute` runs outside the lock; concurrent
    /// computes of one key produce identical bits, so whichever insert
    /// lands first is kept.
    fn memo<K: Eq + Hash, V: Clone>(
        &self,
        family: CacheFamily,
        map: &Mutex<FxHashMap<K, V>>,
        key: K,
        compute: impl FnOnce() -> V,
    ) -> V {
        let counter = &self.counters[family as usize];
        if let Some(v) = relock(map).get(&key) {
            counter.hit();
            return v.clone();
        }
        counter.miss();
        let v = compute();
        relock(map).entry(key).or_insert(v).clone()
    }

    /// Lookup-or-compute through the accountant, for the four
    /// budget-governed families. `compute` returns the value with its
    /// resident bytes and recompute cost, and runs outside the lock
    /// (compositions recurse into their prefixes and run SpGEMMs that
    /// must not serialize other cache users); concurrent computes of
    /// one key produce identical bits, so the insert is safe whichever
    /// thread lands first.
    fn accounted(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> (CacheValue, usize, u64),
    ) -> CacheValue {
        let counter = &self.counters[key.family() as usize];
        if let Some(v) = relock(&self.accountant).get(&key) {
            counter.hit();
            return v;
        }
        counter.miss();
        let (value, bytes, cost) = compute();
        relock(&self.accountant).insert(key, value, bytes, cost)
    }

    /// Cached [`enumerate_metapaths`]: every proper meta-path rooted at
    /// `root` with 1..=`max_hops` hops, capped at `max_paths`.
    pub fn metapaths(
        &self,
        root: NodeTypeId,
        max_hops: usize,
        max_paths: usize,
    ) -> Arc<Vec<MetaPath>> {
        self.memo(
            CacheFamily::Paths,
            &self.paths,
            (root, max_hops, max_paths),
            || {
                Arc::new(enumerate_metapaths(
                    self.graph().schema(),
                    root,
                    max_hops,
                    max_paths,
                ))
            },
        )
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
        self.memo(CacheFamily::Factors, &self.factors, step, || {
            let a = self.graph().adjacency(step.edge);
            Arc::new(if step.forward {
                a.row_normalized()
            } else {
                a.transpose().row_normalized()
            })
        })
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
        self.accounted(CacheKey::Composed(steps.to_vec()), || {
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
            (CacheValue::Matrix(Arc::new(prod)), bytes, cost)
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
        self.memo(CacheFamily::Oriented, &self.oriented, (from, to), || {
            self.graph().adjacency_between(from, to).map(Arc::new)
        })
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
        let family = key.family();
        self.accounted(key, || {
            let v = compute();
            let (bytes, cost) = vector_charge(family, v.len());
            (CacheValue::Vector(Arc::new(v)), bytes, cost)
        })
        .into_vector()
    }

    /// Returns the cached propagated-feature value for `key`, computing
    /// it with `compute` on a miss. The value is stored type-erased so
    /// higher layers can cache their own block types here; `T` must be
    /// the same type for every use of a given context (guaranteed in
    /// practice — one layer owns this cache). The caller also reports
    /// the value's resident heap bytes (surfaced through the propagated
    /// family's [`FamilyCounters::bytes`] and charged against the
    /// budget) and its recompute-cost estimate in the accountant's
    /// shared flop currency, so cross-family eviction can weigh a
    /// propagated block against a composed product. All three closures
    /// run once, only on the miss that actually computes the value.
    pub fn propagated<T: Any + Send + Sync>(
        &self,
        key: (usize, usize),
        compute: impl FnOnce() -> T,
        bytes_of: impl FnOnce(&T) -> usize,
        cost_of: impl FnOnce(&T) -> u64,
    ) -> Arc<T> {
        self.accounted(CacheKey::Propagated(key), || {
            let v = compute();
            let (bytes, cost) = (bytes_of(&v), cost_of(&v));
            (CacheValue::Propagated(Arc::new(v)), bytes, cost)
        })
        .into_propagated()
        .downcast::<T>()
        .expect("propagated cache holds one concrete type per context")
    }

    // ---- delta seeding and snapshots ----------------------------------

    /// Every cached entry, sorted by family and then key, so snapshot
    /// bytes are deterministic for identical cache contents and
    /// [`CondenseContext::install`] replays budget admissions in one
    /// fixed order.
    pub(crate) fn entries(&self) -> Vec<CacheEntry> {
        fn plain(key: CacheKey, value: CacheValue) -> CacheEntry {
            CacheEntry {
                key,
                value,
                bytes: 0,
                cost: 0,
            }
        }
        let mut out: Vec<CacheEntry> = relock(&self.paths)
            .iter()
            .map(|(k, v)| plain(CacheKey::Paths(*k), CacheValue::Paths(Arc::clone(v))))
            .collect();
        out.extend(
            relock(&self.factors)
                .iter()
                .map(|(k, m)| plain(CacheKey::Factors(*k), CacheValue::Matrix(Arc::clone(m)))),
        );
        out.extend(
            relock(&self.oriented)
                .iter()
                .map(|(k, a)| plain(CacheKey::Oriented(*k), CacheValue::Oriented(a.clone()))),
        );
        out.extend(
            relock(&self.accountant)
                .map
                .iter()
                .map(|(k, e)| CacheEntry {
                    key: k.clone(),
                    value: e.value.clone(),
                    bytes: e.bytes,
                    cost: e.cost,
                }),
        );
        out.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Pre-warms one cache with `entry` without touching the hit/miss
    /// counters — an inherited or loaded entry was neither requested
    /// nor computed here — and never overwrites an entry a live caller
    /// already produced. Budgeted families go through the accountant's
    /// normal admission, so a budget set before a seed or snapshot load
    /// bounds it exactly as it bounds computed entries.
    pub(crate) fn install(&self, entry: CacheEntry) {
        match (entry.key, entry.value) {
            (CacheKey::Paths(k), CacheValue::Paths(v)) => {
                relock(&self.paths).entry(k).or_insert(v);
            }
            (CacheKey::Factors(k), CacheValue::Matrix(m)) => {
                relock(&self.factors).entry(k).or_insert(m);
            }
            (CacheKey::Oriented(k), CacheValue::Oriented(a)) => {
                relock(&self.oriented).entry(k).or_insert(a);
            }
            (key, value) => {
                relock(&self.accountant).insert(key, value, entry.bytes, entry.cost);
            }
        }
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
    /// Panics when the fill-in caps disagree (cap changes composed
    /// bits) or the graphs' shapes differ (a delta never resizes).
    pub fn seed_from(&self, old: &CondenseContext<'_>, delta: &GraphDelta) -> SeedReport {
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
        // must never touch the composed cache or its budget.
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

    #[test]
    fn propagated_cache_round_trips_any_type() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let a = ctx.propagated((2, 12), || vec![1u32, 2, 3], |v| v.len() * 4, |_| 3);
        let b = ctx.propagated(
            (2, 12),
            || unreachable!("must hit"),
            |_: &Vec<u32>| unreachable!("sized once, on the computing miss"),
            |_| unreachable!("costed once, on the computing miss"),
        );
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.stats()[CacheFamily::Propagated].bytes, 12);
        assert_eq!(hits_misses(&ctx, CacheFamily::Propagated), (1, 1));
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
        assert!(
            st[CacheFamily::Composed].evictions > 0,
            "budget must force evictions"
        );
        assert!(
            st[CacheFamily::Composed].peak_bytes <= budget as u64,
            "peak {} exceeded budget {budget}",
            st[CacheFamily::Composed].peak_bytes
        );
        assert!(st[CacheFamily::Composed].bytes <= budget as u64);
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
        assert!(st[CacheFamily::Composed].evictions >= 1);
        assert!(ctx.composed_len() < multi_hop);
        assert!(
            st[CacheFamily::Composed].peak_bytes <= budget as u64,
            "peak {} must restart under the new budget {budget}",
            st[CacheFamily::Composed].peak_bytes
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
        let key = |e: u16| CacheKey::Composed(vec![step(0), step(e)]);
        let m = |seed: u32| {
            CacheValue::Matrix(Arc::new(CsrMatrix::from_edges(
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
        assert_eq!(cache.evictions[CacheFamily::Composed as usize], 0);
        // Touch the first cheap entry so the second becomes the
        // least-recently-used one of the cheapest tier.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(4), m(1), bytes_each, 30);
        assert_eq!(cache.evictions[CacheFamily::Composed as usize], 1);
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
        assert_eq!(cache.evictions[CacheFamily::Composed as usize], 2);
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
        let vec_val = |fam: CacheFamily| {
            let v = Arc::new(vec![0.0f64; 8]);
            match fam {
                CacheFamily::Influence => CacheValue::Vector(v),
                CacheFamily::Diversity => CacheValue::Vector(v),
                _ => unreachable!(),
            }
        };
        let prop: AnyArc = Arc::new(vec![0u8; bytes]);
        cache.insert(
            CacheKey::Composed(vec![step(0), step(1)]),
            CacheValue::Matrix(Arc::new(CsrMatrix::from_edges(2, 2, &[(0, 0)]))),
            bytes,
            4096,
        );
        cache.insert(
            CacheKey::Influence(ikey),
            vec_val(CacheFamily::Influence),
            bytes,
            vector_charge(CacheFamily::Influence, 8).1, // 512 → density 8
        );
        cache.insert(
            CacheKey::Diversity((crate::schema::NodeTypeId(0), 2, 8, 0)),
            vec_val(CacheFamily::Diversity),
            bytes,
            vector_charge(CacheFamily::Diversity, 8).1, // 128 → density 2
        );
        cache.insert(
            CacheKey::Propagated((2, 8)),
            CacheValue::Propagated(prop),
            bytes,
            32, // density 0.5 — the cheapest to rebuild per byte
        );
        assert_eq!(cache.bytes, bytes * 4);
        let order: Vec<CacheFamily> = std::iter::from_fn(|| {
            let before: Vec<CacheKey> = cache.map.keys().cloned().collect();
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
                CacheFamily::Propagated,
                CacheFamily::Diversity,
                CacheFamily::Influence,
                CacheFamily::Composed
            ],
            "eviction must walk the cost-per-byte ladder from the bottom"
        );
        assert_eq!(cache.bytes, 0);
        assert_eq!(cache.family_bytes, [0; NUM_FAMILIES]);
        assert_eq!(cache.evictions, [0, 0, 1, 0, 1, 1, 1]);
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
        assert!(st[CacheFamily::Composed].bytes <= budget as u64);
        assert_eq!(
            st[CacheFamily::Composed].peak_bytes,
            st[CacheFamily::Composed].bytes
        );

        // Remove the budget from the (still warm) context: nothing is
        // evicted, and the mark restarts at the resident size instead of
        // carrying the budgeted era's history.
        let ctx = ctx.with_cache_budget(None);
        let st = ctx.stats();
        assert_eq!(
            st[CacheFamily::Composed].peak_bytes,
            st[CacheFamily::Composed].bytes
        );

        // New inserts grow both again, keeping bytes ≤ peak.
        for p in paths.iter() {
            ctx.adjacency(p);
        }
        let st = ctx.stats();
        assert_eq!(
            st[CacheFamily::Composed].bytes,
            full as u64,
            "unbudgeted refill"
        );
        assert!(st[CacheFamily::Composed].peak_bytes >= st[CacheFamily::Composed].bytes);
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
        let m = || CacheValue::Matrix(Arc::new(CsrMatrix::from_edges(2, 2, &[(0, 0), (1, 1)])));
        let bytes = CsrMatrix::from_edges(2, 2, &[(0, 0), (1, 1)]).storage_bytes();
        for order in [[3u16, 1, 2], [1, 2, 3], [2, 3, 1]] {
            let mut cache = CacheAccountant::default();
            for e in order {
                cache.insert(CacheKey::Composed(vec![step(0), step(e)]), m(), bytes, 10);
            }
            for entry in cache.map.values_mut() {
                entry.touch = 7; // erase the per-insert clock
            }
            assert!(cache.evict_one());
            assert!(
                !cache
                    .map
                    .contains_key(&CacheKey::Composed(vec![step(0), step(1)])),
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
        assert_eq!(
            st[CacheFamily::Composed].bytes,
            0,
            "nothing fits a 1-byte budget"
        );
        assert!(st[CacheFamily::Composed].rejected >= 2);
        assert_eq!(st[CacheFamily::Composed].peak_bytes, 0);
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
        ctx.propagated((2, 12), || vec![0u64; 64], |v| v.len() * 8, |_| 8);
        let st = ctx.stats();
        assert!(st[CacheFamily::Composed].bytes > 0);
        assert_eq!(st[CacheFamily::Influence].bytes, 32 * 8);
        assert_eq!(st[CacheFamily::Diversity].bytes, 32 * 8);
        assert_eq!(st[CacheFamily::Propagated].bytes, 64 * 8);
        assert_eq!(st.cache_bytes, st.resident_bytes_total());
        assert_eq!(st.cache_bytes as usize, ctx.cache_bytes());
        assert!(st.cache_peak_bytes >= st.cache_bytes);

        // Shrink the unified budget below the current footprint: the
        // propagated block (lowest cost/byte) must be the first victim,
        // resident bytes must fit, and the unified peak restarts.
        let budget = ctx.cache_bytes() - 1;
        let ctx = ctx.with_cache_budget(Some(budget));
        let st = ctx.stats();
        assert!(
            st[CacheFamily::Propagated].evictions >= 1,
            "propagated evicts first"
        );
        assert!(st.cache_bytes <= budget as u64);
        assert_eq!(st.cache_peak_bytes, st.cache_bytes, "peak restarts");
        assert_eq!(st.cache_bytes, st.resident_bytes_total());

        // Removing the budget restarts the unified peak too.
        let ctx = ctx.with_cache_budget(None);
        let st = ctx.stats();
        assert_eq!(st.cache_peak_bytes, st.cache_bytes);
    }
}
