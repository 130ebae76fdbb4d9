//! Coarsening-HG: a variation-neighborhoods-style coarsening baseline
//! (paper §V-A, adapted from Huang et al., KDD'21).
//!
//! Variation-neighborhoods coarsening contracts nodes whose neighborhoods
//! are nearly interchangeable. We approximate the contraction sets
//! cheaply: nodes of each type are ordered by a neighborhood signature
//! (degree, then smallest neighbor ids) so that structurally similar nodes
//! are adjacent in the order, then consecutive runs are contracted into
//! super-nodes whose features are member means. The target type keeps one
//! *representative* node per (class-pure) group — labels must remain
//! well-defined — while unlabeled types become true super-nodes.

use freehgc_hetgraph::condense::{assemble, SynthesizedNodes, TypePlan};
use freehgc_hetgraph::{
    proportional_allocation, CondenseContext, CondenseSpec, CondensedGraph, Condenser, HeteroGraph,
    NodeTypeId,
};

/// Neighborhood signature used to order nodes before contraction:
/// (degree over all relations, first three neighbor ids of the first
/// incident relation).
fn signature(g: &HeteroGraph, t: NodeTypeId, v: u32) -> (usize, [u32; 3]) {
    let schema = g.schema();
    let mut deg = 0usize;
    let mut first3 = [u32::MAX; 3];
    let mut filled = 0usize;
    for (e, forward) in schema.incident_edges(t) {
        let adj = g.adjacency(e);
        let row: Vec<u32> = if forward {
            adj.row_indices(v as usize).to_vec()
        } else {
            // Reverse orientation: scan is too costly; use the transpose
            // lazily per edge type via in-degree only.
            Vec::new()
        };
        deg += if forward { adj.row_nnz(v as usize) } else { 0 };
        for &n in &row {
            if filled < 3 {
                first3[filled] = n;
                filled += 1;
            }
        }
    }
    (deg, first3)
}

/// Groups `pool` into at most `groups` contraction sets of consecutive
/// signature-ordered nodes.
fn contract(g: &HeteroGraph, t: NodeTypeId, pool: &[u32], groups: usize) -> Vec<Vec<u32>> {
    if pool.is_empty() || groups == 0 {
        return Vec::new();
    }
    let mut order: Vec<u32> = pool.to_vec();
    order.sort_by_key(|&v| (signature(g, t, v), v));
    let groups = groups.min(order.len());
    let per = order.len().div_ceil(groups);
    order.chunks(per).map(|c| c.to_vec()).collect()
}

/// The coarsening baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoarseningHg;

impl Condenser for CoarseningHg {
    fn name(&self) -> &'static str {
        "Coarsening-HG"
    }

    fn condense_in(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> CondensedGraph {
        let g = ctx.graph();
        let schema = g.schema();
        let target = schema.target();
        let labels = g.labels();
        let mut plans: Vec<TypePlan> = Vec::with_capacity(schema.num_node_types());
        for t in schema.node_type_ids() {
            let budget = spec.budget_for(g.num_nodes(t));
            if t == target {
                // Class-pure groups; keep the medoid-ish representative
                // (first of each contraction set) so labels stay exact.
                let mut pools: Vec<Vec<u32>> = vec![Vec::new(); g.num_classes()];
                for &v in &g.split().train {
                    pools[labels[v as usize] as usize].push(v);
                }
                let counts: Vec<usize> = pools.iter().map(|p| p.len()).collect();
                let alloc = proportional_allocation(&counts, budget);
                let mut reps = Vec::with_capacity(budget);
                for (pool, &b) in pools.iter().zip(&alloc) {
                    for group in contract(g, t, pool, b) {
                        reps.push(group[0]);
                    }
                }
                reps.sort_unstable();
                plans.push(TypePlan::Selected(reps));
            } else {
                let all: Vec<u32> = (0..g.num_nodes(t) as u32).collect();
                let groups = contract(g, t, &all, budget);
                let features = g.features(t).means_of(&groups);
                plans.push(TypePlan::Synthesized(SynthesizedNodes {
                    members: groups,
                    features,
                }));
            }
        }
        assemble(g, &plans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;
    use freehgc_hetgraph::Role;

    #[test]
    fn coarsening_respects_budgets_and_synthesizes_others() {
        let g = tiny(0);
        let spec = CondenseSpec::new(0.2).with_max_hops(2);
        let cg = CoarseningHg.condense(&g, &spec);
        cg.validate(&g);
        for t in g.schema().node_type_ids() {
            assert!(cg.graph.num_nodes(t) <= spec.budget_for(g.num_nodes(t)));
            if t != g.schema().target() {
                assert!(cg.orig_ids[t.0 as usize].is_none(), "type {t:?} selected");
            }
        }
        assert!(cg.graph.total_edges() > 0);
    }

    #[test]
    fn contraction_covers_every_node() {
        let g = tiny(1);
        let t = g.schema().types_with_role(Role::Father)[0];
        let all: Vec<u32> = (0..g.num_nodes(t) as u32).collect();
        let groups = contract(&g, t, &all, 5);
        assert!(groups.len() <= 5);
        let mut covered: Vec<u32> = groups.into_iter().flatten().collect();
        covered.sort_unstable();
        assert_eq!(covered, all);
    }

    #[test]
    fn target_labels_remain_exact() {
        let g = tiny(2);
        let spec = CondenseSpec::new(0.3).with_max_hops(2);
        let cg = CoarseningHg.condense(&g, &spec);
        for (k, &orig) in cg.target_ids().iter().enumerate() {
            assert_eq!(cg.graph.labels()[k], g.labels()[orig as usize]);
        }
    }
}
