//! Condensing leaf-type nodes: information-loss minimization
//! (paper §IV-C, Eq. 14–16, Fig. 6).
//!
//! For every (selected) parent node `i`, its leaf-type neighbors `N_i` are
//! aggregated into one synthetic hyper-node with feature `σ(X_j, j ∈ N_i)`
//! (mean aggregator, Eq. 14) and an edge back to `i`. Reverse edges to the
//! *other* parents adjacent to the absorbed leaves (Eq. 15) preserve 2-hop
//! parent↔parent structure; they materialize during condensed-graph
//! assembly through the membership rule (a parent connects to a hyper-node
//! iff it was adjacent to any of its members). Hyper-nodes beyond the
//! budget are merged lowest-degree-first (Eq. 16).

use freehgc_hetgraph::condense::SynthesizedNodes;
use freehgc_hetgraph::{CondenseContext, FeatureMatrix, NodeTypeId};
use freehgc_sparse::FxHashSet;

/// A synthesized (leaf) node type: hyper-nodes whose `members` record the
/// original leaf ids aggregated into each hyper-node. A leaf adjacent to
/// several parents appears in several hyper-nodes, exactly as in Fig. 6
/// (node `a2`).
pub type SynthesizedType = SynthesizedNodes;

/// Synthesizes hyper-nodes for `leaf` around the selected nodes of its
/// `parent` type, merging down to `budget` hyper-nodes. The oriented
/// parent↔leaf adjacencies (including the transpose used by the Eq. 16
/// merge) come from the context's caches.
pub fn synthesize_leaf(
    ctx: &CondenseContext<'_>,
    leaf: NodeTypeId,
    parent: NodeTypeId,
    parent_selected: &[u32],
    budget: usize,
) -> SynthesizedType {
    let g = ctx.graph();
    let leaf_feat = g.features(leaf);
    let adj = ctx.adjacency_between(parent, leaf).unwrap_or_else(|| {
        panic!(
            "no relation between parent {:?} and leaf {:?}",
            g.schema().node_type_name(parent),
            g.schema().node_type_name(leaf)
        )
    });

    // Eq. 14: one hyper-node per selected parent with ≥1 leaf neighbor.
    let mut members: Vec<Vec<u32>> = Vec::new();
    for &p in parent_selected {
        let nbrs = adj.row_indices(p as usize);
        if !nbrs.is_empty() {
            members.push(nbrs.to_vec());
        }
    }

    // Eq. 16: merge lowest-degree hyper-nodes until within budget. Degree
    // here is the number of selected parents adjacent to the member set —
    // the hyper-node's connectivity in the condensed graph.
    if members.len() > budget.max(1) {
        let parent_adj = ctx
            .adjacency_between(leaf, parent)
            .expect("reverse relation exists whenever the forward one does");
        let selected_set: FxHashSet<u32> = parent_selected.iter().copied().collect();
        let degree = |mem: &[u32]| -> usize {
            let mut parents: FxHashSet<u32> = FxHashSet::default();
            for &m in mem {
                for &p in parent_adj.row_indices(m as usize) {
                    if selected_set.contains(&p) {
                        parents.insert(p);
                    }
                }
            }
            parents.len()
        };
        let mut degs: Vec<usize> = members.iter().map(|m| degree(m)).collect();
        while members.len() > budget.max(1) {
            // Find the two lowest-degree hyper-nodes and merge them.
            let mut lo = 0usize;
            for i in 1..members.len() {
                if degs[i] < degs[lo] {
                    lo = i;
                }
            }
            let mut lo2 = usize::MAX;
            for i in 0..members.len() {
                if i != lo && (lo2 == usize::MAX || degs[i] < degs[lo2]) {
                    lo2 = i;
                }
            }
            let absorbed = members.swap_remove(lo2);
            degs.swap_remove(lo2);
            let tgt = if lo == members.len() { lo2 } else { lo };
            members[tgt].extend(absorbed);
            members[tgt].sort_unstable();
            members[tgt].dedup();
            degs[tgt] = degree(&members[tgt]);
        }
    }

    // σ(·): mean-aggregate member features (Eq. 14).
    let mut features = FeatureMatrix::zeros(0, leaf_feat.dim());
    for mem in &members {
        features.push_row(&leaf_feat.mean_of(mem));
    }
    SynthesizedType { members, features }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;
    use freehgc_hetgraph::{HeteroGraph, Role};

    fn leaf_and_parent(g: &HeteroGraph) -> (NodeTypeId, NodeTypeId) {
        let leaf = g.schema().types_with_role(Role::Leaf)[0];
        let parent = g.schema().parent_of(leaf).unwrap();
        (leaf, parent)
    }

    #[test]
    fn one_hyper_node_per_connected_parent_when_budget_allows() {
        let g = tiny(0);
        let (leaf, parent) = leaf_and_parent(&g);
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let adj = g.adjacency_between(parent, leaf).unwrap();
        let connected = parents
            .iter()
            .filter(|&&p| adj.row_nnz(p as usize) > 0)
            .count();
        let syn = synthesize_leaf(
            &CondenseContext::new(&g),
            leaf,
            parent,
            &parents,
            usize::MAX >> 1,
        );
        assert_eq!(syn.len(), connected);
    }

    #[test]
    fn features_are_member_means() {
        let g = tiny(1);
        let (leaf, parent) = leaf_and_parent(&g);
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let syn = synthesize_leaf(
            &CondenseContext::new(&g),
            leaf,
            parent,
            &parents,
            usize::MAX >> 1,
        );
        let lf = g.features(leaf);
        for (k, mem) in syn.members.iter().enumerate() {
            let expect = lf.mean_of(mem);
            assert_eq!(syn.features.row(k), expect.as_slice(), "hyper {k}");
        }
    }

    #[test]
    fn budget_is_enforced_by_merging() {
        let g = tiny(2);
        let (leaf, parent) = leaf_and_parent(&g);
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let budget = 3;
        let syn = synthesize_leaf(&CondenseContext::new(&g), leaf, parent, &parents, budget);
        assert!(syn.len() <= budget);
        assert!(!syn.is_empty());
        // Members stay sorted & deduplicated after merging.
        for mem in &syn.members {
            for w in mem.windows(2) {
                assert!(w[0] < w[1], "members must be sorted/unique");
            }
        }
    }

    #[test]
    fn merging_preserves_total_membership() {
        let g = tiny(3);
        let (leaf, parent) = leaf_and_parent(&g);
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let all = synthesize_leaf(
            &CondenseContext::new(&g),
            leaf,
            parent,
            &parents,
            usize::MAX >> 1,
        );
        let merged = synthesize_leaf(&CondenseContext::new(&g), leaf, parent, &parents, 2);
        let count_distinct = |s: &SynthesizedType| {
            let mut ids: Vec<u32> = s.members.iter().flatten().copied().collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        assert_eq!(count_distinct(&all), count_distinct(&merged));
    }

    #[test]
    fn empty_parent_selection_yields_no_hypernodes() {
        let g = tiny(4);
        let (leaf, parent) = leaf_and_parent(&g);
        let syn = synthesize_leaf(&CondenseContext::new(&g), leaf, parent, &[], 5);
        assert!(syn.is_empty());
        assert_eq!(syn.features.num_rows(), 0);
    }
}
