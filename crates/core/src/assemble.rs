//! Condensed-graph assembly (re-exported from `freehgc-hetgraph`).
//!
//! The membership-rule assembly — condensed node `ka` connects to `kb`
//! under edge type `e` iff some original member of `ka` had an `e`-edge to
//! some member of `kb` — lives in [`freehgc_hetgraph::condense`] so the
//! baselines (coarsening, HGCond hyper-nodes) can share it. For FreeHGC it
//! realizes Algorithm 2 line 11 (`G′ = S_target ∪ S_father ∪ S_leaf`),
//! including the Eq. 15 reverse edges of the leaf synthesis.

pub use freehgc_hetgraph::condense::{assemble, SynthesizedNodes, TypePlan};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::synthesize_leaf;
    use freehgc_datasets::tiny;
    use freehgc_hetgraph::{CondenseContext, Role};

    /// Selected-only plans reproduce `HeteroGraph::induced`.
    #[test]
    fn selected_only_matches_induced() {
        let g = tiny(0);
        let keep: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..(g.num_nodes(t) as u32 / 2).max(1)).collect())
            .collect();
        let plans: Vec<TypePlan> = keep.iter().cloned().map(TypePlan::Selected).collect();
        let assembled = assemble(&g, &plans);
        let induced = g.induced(&keep);
        for e in g.schema().edge_type_ids() {
            assert_eq!(
                assembled.graph.adjacency(e).nnz(),
                induced.adjacency(e).nnz(),
                "edge type {e:?}"
            );
        }
        assert_eq!(assembled.graph.labels(), induced.labels());
    }

    #[test]
    fn synthesized_leaf_gets_membership_edges() {
        let g = tiny(1);
        let schema = g.schema();
        let target = schema.target();
        let leaf = schema.types_with_role(Role::Leaf)[0];
        let parent = schema.parent_of(leaf).unwrap();

        // Select all parents/targets, synthesize the leaf type.
        let mut plans: Vec<TypePlan> = schema
            .node_type_ids()
            .map(|t| TypePlan::Selected((0..g.num_nodes(t) as u32).collect()))
            .collect();
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let syn = synthesize_leaf(&CondenseContext::new(&g), leaf, parent, &parents, 4);
        let expected_hypers = syn.len();
        plans[leaf.0 as usize] = TypePlan::Synthesized(syn);

        let cg = assemble(&g, plans.as_slice());
        assert_eq!(cg.graph.num_nodes(leaf), expected_hypers);
        // The parent-leaf relation must carry edges into hyper-nodes.
        let (e, _) = schema.edge_between(parent, leaf).unwrap();
        assert!(cg.graph.adjacency(e).nnz() > 0);
        // Provenance: synthesized type has no orig ids.
        assert!(cg.orig_ids[leaf.0 as usize].is_none());
        assert!(cg.orig_ids[target.0 as usize].is_some());
        cg.validate(&g);
    }

    #[test]
    fn labels_and_split_follow_selection() {
        let g = tiny(2);
        let schema = g.schema();
        let tgt = schema.target();
        let mut plans: Vec<TypePlan> = schema
            .node_type_ids()
            .map(|t| TypePlan::Selected((0..g.num_nodes(t) as u32).collect()))
            .collect();
        plans[tgt.0 as usize] = TypePlan::Selected(vec![1, 3, 5]);
        let cg = assemble(&g, &plans);
        assert_eq!(cg.graph.labels().len(), 3);
        assert_eq!(cg.graph.labels()[0], g.labels()[1]);
        assert_eq!(cg.graph.split().train.len(), 3);
        assert_eq!(cg.target_ids(), &[1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "never synthesized")]
    fn rejects_synthesized_target() {
        let g = tiny(3);
        let schema = g.schema();
        let tgt = schema.target();
        let mut plans: Vec<TypePlan> = schema
            .node_type_ids()
            .map(|t| TypePlan::Selected((0..g.num_nodes(t) as u32).collect()))
            .collect();
        plans[tgt.0 as usize] = TypePlan::Synthesized(SynthesizedNodes {
            members: vec![],
            features: freehgc_hetgraph::FeatureMatrix::zeros(0, 1),
        });
        assemble(&g, &plans);
    }

    /// The reverse-edge property of Eq. 15: a hyper-node absorbing a leaf
    /// shared by two parents must connect to both parents.
    #[test]
    fn reverse_edges_preserve_two_hop_structure() {
        let g = tiny(5);
        let schema = g.schema();
        let leaf = schema.types_with_role(Role::Leaf)[0];
        let parent = schema.parent_of(leaf).unwrap();
        let adj = g.adjacency_between(parent, leaf).unwrap();
        let adj_t = adj.transpose();

        // Find a leaf with ≥ 2 parents.
        let Some(shared_leaf) = (0..adj_t.nrows()).find(|&l| adj_t.row_nnz(l) >= 2) else {
            return; // dataset draw without shared leaves; nothing to check
        };
        let its_parents: Vec<u32> = adj_t.row_indices(shared_leaf).to_vec();

        let mut plans: Vec<TypePlan> = schema
            .node_type_ids()
            .map(|t| TypePlan::Selected((0..g.num_nodes(t) as u32).collect()))
            .collect();
        let parents_all: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let syn = synthesize_leaf(
            &CondenseContext::new(&g),
            leaf,
            parent,
            &parents_all,
            usize::MAX >> 1,
        );
        // Locate a hyper-node containing the shared leaf.
        let k = syn
            .members
            .iter()
            .position(|mem| mem.contains(&(shared_leaf as u32)))
            .expect("shared leaf must be absorbed somewhere");
        plans[leaf.0 as usize] = TypePlan::Synthesized(syn);
        let cg = assemble(&g, &plans);

        let (e, fwd) = schema.edge_between(parent, leaf).unwrap();
        let ca = cg.graph.adjacency(e);
        for &p in &its_parents {
            let connected = if fwd {
                ca.get(p as usize, k as u32) > 0.0
            } else {
                ca.get(k, p) > 0.0
            };
            assert!(connected, "parent {p} lost its 2-hop link to hyper {k}");
        }
    }
}
