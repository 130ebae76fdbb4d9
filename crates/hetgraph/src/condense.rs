//! The common condensation interface and budget accounting.
//!
//! Every graph-reduction method in this workspace — FreeHGC itself and all
//! five baselines — implements [`Condenser`]: given a full [`HeteroGraph`]
//! and a [`CondenseSpec`] (the condensation ratio `r` etc.), produce a
//! smaller graph. Budgets follow the paper's §V-B protocol: every node type
//! is condensed to `B = r · N_type` nodes, and target-type budgets are
//! apportioned class-by-class proportionally to the original class
//! distribution.

use crate::context::CondenseContext;
use crate::graph::HeteroGraph;

/// Per-row fill-in cap for composed meta-path adjacencies — the
/// scalability lever that keeps intermediate SpGEMM products sparse
/// (mirroring approximate propagation in NARS/SeHGNN). A constant, not a
/// setting: every [`CondenseContext`] applies it, so selection, father
/// influence, the baselines' relay and the evaluator's propagation all
/// read the same composed bits.
pub const MAX_ROW_NNZ: usize = 256;

/// Default cap on the number of enumerated meta-paths per task.
pub const DEFAULT_MAX_PATHS: usize = 24;

/// Parameters shared by all condensation methods.
#[derive(Clone, Debug)]
pub struct CondenseSpec {
    /// Condensation ratio `r ∈ (0, 1)`: each node type keeps `r · N_type`
    /// nodes.
    pub ratio: f64,
    /// Maximum meta-path hop count `K` (paper §V-B sets K per dataset).
    pub max_hops: usize,
    /// Cap on the number of enumerated meta-paths. Threaded through both
    /// condensation and feature propagation so the two layers work from
    /// the same path family.
    pub max_paths: usize,
    /// RNG seed for stochastic components (tie-breaking, sampling).
    pub seed: u64,
}

impl CondenseSpec {
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        Self {
            ratio,
            max_hops: 2,
            max_paths: DEFAULT_MAX_PATHS,
            seed: 0,
        }
    }

    pub fn with_max_hops(mut self, k: usize) -> Self {
        self.max_hops = k;
        self
    }

    pub fn with_max_paths(mut self, n: usize) -> Self {
        self.max_paths = n;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Budget for one node type: `max(1, round(r · n))`, capped at `n`.
    pub fn budget_for(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (((n as f64) * self.ratio).round() as usize).clamp(1, n)
    }

    /// Per-type budgets for a whole graph.
    pub fn budgets(&self, g: &HeteroGraph) -> Vec<usize> {
        g.schema()
            .node_type_ids()
            .map(|t| self.budget_for(g.num_nodes(t)))
            .collect()
    }
}

/// Largest-remainder proportional allocation of `budget` items over groups
/// with the given `counts`; every non-empty group receives at least one
/// item when the budget allows, and no group exceeds its count.
pub fn proportional_allocation(counts: &[usize], budget: usize) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    let mut alloc = vec![0usize; counts.len()];
    if total == 0 || budget == 0 {
        return alloc;
    }
    let budget = budget.min(total);
    let nonempty: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
    if budget < nonempty.len() {
        // Too small a budget for a minimum everywhere: favor the largest
        // groups (deterministic tie-break by index).
        let mut order = nonempty;
        order.sort_by_key(|&i| (std::cmp::Reverse(counts[i]), i));
        for &i in order.iter().take(budget) {
            alloc[i] = 1;
        }
        return alloc;
    }
    // Minimum of one per non-empty group, then distribute the residual
    // proportionally by the largest-remainder method, respecting caps.
    let mut used = 0usize;
    for &i in &nonempty {
        alloc[i] = 1;
        used += 1;
    }
    let residual = budget - used;
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(nonempty.len());
    for &i in &nonempty {
        let share = residual as f64 * counts[i] as f64 / total as f64;
        let add = (share.floor() as usize).min(counts[i] - alloc[i]);
        alloc[i] += add;
        used += add;
        remainders.push((i, share - share.floor()));
    }
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut k = 0usize;
    while used < budget {
        let (i, _) = remainders[k % remainders.len()];
        if alloc[i] < counts[i] {
            alloc[i] += 1;
            used += 1;
        }
        k += 1;
        if k > remainders.len() * (budget + 2) {
            break; // all groups saturated
        }
    }
    alloc
}

/// The output of a condensation method: a smaller graph plus provenance.
#[derive(Clone, Debug)]
pub struct CondensedGraph {
    /// The condensed heterogeneous graph (same schema as the input).
    pub graph: HeteroGraph,
    /// For each node type: the original node ids each condensed node maps
    /// to, or `None` when the type's nodes are *synthesized* (leaf types
    /// under information-loss minimization have no 1:1 original id).
    pub orig_ids: Vec<Option<Vec<u32>>>,
}

impl CondensedGraph {
    /// Original ids of the kept target-type nodes.
    pub fn target_ids(&self) -> &[u32] {
        let t = self.graph.schema().target();
        self.orig_ids[t.0 as usize]
            .as_deref()
            .expect("target type is always selected, never synthesized")
    }

    /// Achieved overall node ratio (condensed / original total).
    pub fn achieved_ratio(&self, original: &HeteroGraph) -> f64 {
        self.graph.total_nodes() as f64 / original.total_nodes() as f64
    }

    /// Checks structural consistency against the source graph.
    pub fn validate(&self, original: &HeteroGraph) {
        assert_eq!(
            self.orig_ids.len(),
            original.schema().num_node_types(),
            "one provenance entry per node type"
        );
        for t in original.schema().node_type_ids() {
            let n = self.graph.num_nodes(t);
            if let Some(ids) = &self.orig_ids[t.0 as usize] {
                assert_eq!(ids.len(), n, "provenance length mismatch for type {t:?}");
                assert!(
                    ids.iter().all(|&i| (i as usize) < original.num_nodes(t)),
                    "provenance id out of range for type {t:?}"
                );
            }
        }
        assert_eq!(
            self.graph.labels().len(),
            self.graph.num_nodes(original.schema().target())
        );
    }
}

/// A graph-reduction method (FreeHGC or a baseline).
pub trait Condenser {
    /// Short method name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Condenses the context's graph according to `spec`, reusing the
    /// context's precompute (meta-path compositions, influence scores,
    /// propagated blocks). The contract is strict transparency: a
    /// context only memoizes, never alters, so the result is
    /// bitwise-identical whether the context is fresh, shared or warm.
    fn condense_in(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> CondensedGraph;

    /// Condenses `g` according to `spec` through a fresh single-use
    /// context.
    fn condense(&self, g: &HeteroGraph, spec: &CondenseSpec) -> CondensedGraph {
        self.condense_in(&CondenseContext::new(g), spec)
    }

    /// Condenses `graph` through `registry`: the context is looked up by
    /// the graph's fingerprint, so concurrent requests on the same
    /// dataset — across condensers, ratios and seeds — share one warm
    /// precompute. Same transparency
    /// contract as [`Condenser::condense_in`]: bitwise-identical to a
    /// fresh-context run.
    ///
    /// The condensation runs under the registry's panic isolation
    /// ([`ContextRegistry::run_isolated`](crate::registry::ContextRegistry::run_isolated)):
    /// a panicking compute is counted and retried a bounded number of
    /// times before it propagates, and because the context only ever
    /// publishes complete cache entries, a failed attempt leaves the
    /// shared state untouched — the retry (and every concurrent
    /// request) still gets bit-identical output.
    fn condense_shared(
        &self,
        registry: &crate::registry::ContextRegistry,
        graph: &std::sync::Arc<HeteroGraph>,
        spec: &CondenseSpec,
    ) -> CondensedGraph {
        let ctx = registry.context_for(graph, spec);
        registry.run_isolated(|| {
            crate::failpoints::fire_panic(crate::failpoints::CONDENSE_PANIC);
            self.condense_in(&ctx, spec)
        })
    }
}

/// A synthesized node type: hyper-nodes with provenance to the original
/// nodes they aggregate.
#[derive(Clone, Debug)]
pub struct SynthesizedNodes {
    /// Original node ids aggregated into each hyper-node; one original may
    /// appear in several hyper-nodes.
    pub members: Vec<Vec<u32>>,
    /// One feature row per hyper-node.
    pub features: crate::features::FeatureMatrix,
}

impl SynthesizedNodes {
    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The condensation outcome for one node type.
pub enum TypePlan {
    /// Keep these original nodes (sorted ids).
    Selected(Vec<u32>),
    /// Replace the type's nodes with synthesized hyper-nodes.
    Synthesized(SynthesizedNodes),
}

impl TypePlan {
    pub fn len(&self) -> usize {
        match self {
            TypePlan::Selected(ids) => ids.len(),
            TypePlan::Synthesized(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds a condensed graph from per-type plans with the *membership
/// rule*: condensed node `ka` connects to condensed node `kb` under edge
/// type `e` iff some original member of `ka` had an `e`-edge to some
/// member of `kb`. For selected×selected pairs this is exactly the induced
/// subgraph; for hyper-nodes it realizes both the owner edges and the
/// reverse edges of FreeHGC's information-loss minimization (Eq. 14–15).
pub fn assemble(g: &HeteroGraph, plans: &[TypePlan]) -> CondensedGraph {
    use crate::graph::HeteroGraphBuilder;
    use crate::split::Split;

    let schema = g.schema();
    assert_eq!(plans.len(), schema.num_node_types(), "one plan per type");
    let target = schema.target();
    assert!(
        matches!(plans[target.0 as usize], TypePlan::Selected(_)),
        "the target type is always selected, never synthesized"
    );

    // Reverse maps: original node id -> condensed ids containing it.
    let revmaps: Vec<Vec<Vec<u32>>> = schema
        .node_type_ids()
        .map(|t| {
            let n = g.num_nodes(t);
            let mut rm: Vec<Vec<u32>> = vec![Vec::new(); n];
            match &plans[t.0 as usize] {
                TypePlan::Selected(ids) => {
                    for (new, &old) in ids.iter().enumerate() {
                        rm[old as usize].push(new as u32);
                    }
                }
                TypePlan::Synthesized(s) => {
                    for (k, mem) in s.members.iter().enumerate() {
                        for &m in mem {
                            rm[m as usize].push(k as u32);
                        }
                    }
                }
            }
            rm
        })
        .collect();

    let counts: Vec<usize> = plans.iter().map(TypePlan::len).collect();
    let mut b = HeteroGraphBuilder::new(schema.clone(), counts);

    for e in schema.edge_type_ids() {
        let (ta, tb) = schema.edge_endpoints(e);
        let adj = g.adjacency(e);
        let rm_b = &revmaps[tb.0 as usize];
        let mut visit = |ka: u32, mem: &[u32]| {
            for &m in mem {
                let (cols, vals) = adj.row(m as usize);
                for (&dst, &w) in cols.iter().zip(vals) {
                    for &kb in &rm_b[dst as usize] {
                        if ta == tb && ka == kb {
                            continue; // no condensed self-loops
                        }
                        b.add_weighted_edge(e, ka, kb, w);
                    }
                }
            }
        };
        match &plans[ta.0 as usize] {
            TypePlan::Selected(ids) => {
                for (ka, &old) in ids.iter().enumerate() {
                    visit(ka as u32, &[old]);
                }
            }
            TypePlan::Synthesized(s) => {
                for (ka, mem) in s.members.iter().enumerate() {
                    visit(ka as u32, mem);
                }
            }
        }
    }

    for t in schema.node_type_ids() {
        match &plans[t.0 as usize] {
            TypePlan::Selected(ids) => b.set_features(t, g.features(t).gather(ids)),
            TypePlan::Synthesized(s) => b.set_features(t, s.features.clone()),
        }
    }

    let TypePlan::Selected(tgt_ids) = &plans[target.0 as usize] else {
        unreachable!("target plan checked above")
    };
    let labels: Vec<u32> = tgt_ids.iter().map(|&i| g.labels()[i as usize]).collect();
    let num_labels = labels.len();
    b.set_labels(labels, g.num_classes());
    b.set_split(Split {
        train: (0..num_labels as u32).collect(),
        val: Vec::new(),
        test: Vec::new(),
    });

    let graph = b.build();
    let orig_ids = plans
        .iter()
        .map(|p| match p {
            TypePlan::Selected(ids) => Some(ids.clone()),
            TypePlan::Synthesized(_) => None,
        })
        .collect();
    CondensedGraph { graph, orig_ids }
}

/// Helper shared by selection-style condensers: build a [`CondensedGraph`]
/// by inducing on per-type kept id lists.
pub fn induce_selection(g: &HeteroGraph, keep: Vec<Vec<u32>>) -> CondensedGraph {
    let graph = g.induced(&keep);
    CondensedGraph {
        graph,
        orig_ids: keep.into_iter().map(Some).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_rounding() {
        let spec = CondenseSpec::new(0.1);
        assert_eq!(spec.budget_for(100), 10);
        assert_eq!(spec.budget_for(4), 1); // max(1, 0.4)
        assert_eq!(spec.budget_for(0), 0);
        assert_eq!(CondenseSpec::new(1.0).budget_for(7), 7);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn rejects_bad_ratio() {
        CondenseSpec::new(0.0);
    }

    #[test]
    fn spec_defaults_use_the_shared_knobs() {
        let spec = CondenseSpec::new(0.5);
        assert_eq!(spec.max_paths, DEFAULT_MAX_PATHS);
        assert_eq!(spec.with_max_paths(7).max_paths, 7);
    }

    #[test]
    fn proportional_allocation_sums_to_budget() {
        let counts = [50, 30, 20];
        let alloc = proportional_allocation(&counts, 10);
        assert_eq!(alloc.iter().sum::<usize>(), 10);
        assert_eq!(alloc, vec![5, 3, 2]);
    }

    #[test]
    fn proportional_allocation_gives_every_class_one() {
        let counts = [97, 1, 1, 1];
        let alloc = proportional_allocation(&counts, 6);
        assert!(alloc[1] >= 1 && alloc[2] >= 1 && alloc[3] >= 1);
        assert_eq!(alloc.iter().sum::<usize>(), 6);
    }

    #[test]
    fn proportional_allocation_respects_caps() {
        let counts = [2, 100];
        let alloc = proportional_allocation(&counts, 50);
        assert!(alloc[0] <= 2);
        assert_eq!(alloc.iter().sum::<usize>(), 50);
    }

    #[test]
    fn proportional_allocation_budget_exceeding_total() {
        let counts = [3, 4];
        let alloc = proportional_allocation(&counts, 100);
        assert_eq!(alloc, vec![3, 4]);
    }

    #[test]
    fn proportional_allocation_empty_groups() {
        let counts = [0, 10, 0];
        let alloc = proportional_allocation(&counts, 5);
        assert_eq!(alloc, vec![0, 5, 0]);
    }
}
