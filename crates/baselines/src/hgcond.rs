//! HGCond (Gao et al., TKDE'24) — the state-of-the-art heterogeneous
//! graph condensation baseline the paper compares against.
//!
//! Structure (paper §II-C, §III): k-means clustering initializes
//! hyper-nodes for every unlabeled node type ("clustering information
//! instead of label information"), a sparse connection scheme links
//! hyper-nodes whose members were connected (our membership-rule
//! assembly), and a bi-level loop with **orthogonal parameter sequences**
//! (OPS) optimizes the synthetic target features by gradient matching
//! against a HeteroSGC relay. The relay model is pluggable
//! ([`HGCondBaseline::with_relay`]) to reproduce the Fig. 2a study where
//! stronger relays (HGT / HGB / SeHGNN) fail to improve condensation.

use crate::cluster::{kmeans, medoid};
use crate::relay::{gradient_matching_refine, GradMatchConfig, GradMatchStats, RelayKind};
use freehgc_hetgraph::condense::{assemble, SynthesizedNodes, TypePlan};
use freehgc_hetgraph::{
    proportional_allocation, CondenseContext, CondenseSpec, CondensedGraph, Condenser,
};

/// The HGCond baseline.
#[derive(Clone, Debug)]
pub struct HGCondBaseline {
    pub cfg: GradMatchConfig,
    /// Lloyd iterations for the hyper-node initialization.
    pub kmeans_iters: usize,
}

impl Default for HGCondBaseline {
    fn default() -> Self {
        Self {
            cfg: GradMatchConfig {
                relay: RelayKind::Hsgc,
                ops: true,
                relay_samples: 4,
                outer: 30,
                inner: 5,
                ..Default::default()
            },
            kmeans_iters: 8,
        }
    }
}

impl HGCondBaseline {
    /// Uses a different relay architecture (the HGC-HGT / HGC-HGB /
    /// HGC-SeH variants of Fig. 2a).
    pub fn with_relay(mut self, relay: RelayKind) -> Self {
        self.cfg.relay = relay;
        self
    }

    /// Condenses and returns the bi-level statistics (for Fig. 2b / 8
    /// time accounting). The real-side propagated blocks come from the
    /// context's cache.
    pub fn condense_with_stats(
        &self,
        ctx: &CondenseContext<'_>,
        spec: &CondenseSpec,
    ) -> (CondensedGraph, GradMatchStats) {
        let g = ctx.graph();
        let schema = g.schema();
        let target = schema.target();

        // Hyper-node initialization by clustering (class-pure k-means for
        // the labeled target type; plain k-means elsewhere).
        let mut plans: Vec<TypePlan> = Vec::with_capacity(schema.num_node_types());
        for t in schema.node_type_ids() {
            let budget = spec.budget_for(g.num_nodes(t));
            if t == target {
                let labels = g.labels();
                let mut pools: Vec<Vec<u32>> = vec![Vec::new(); g.num_classes()];
                for &v in &g.split().train {
                    pools[labels[v as usize] as usize].push(v);
                }
                let counts: Vec<usize> = pools.iter().map(|p| p.len()).collect();
                let alloc = proportional_allocation(&counts, budget);
                let mut reps = Vec::with_capacity(budget);
                for (c, (pool, &b)) in pools.iter().zip(&alloc).enumerate() {
                    if pool.is_empty() || b == 0 {
                        continue;
                    }
                    for group in kmeans(
                        g.features(t),
                        pool,
                        b,
                        self.kmeans_iters,
                        spec.seed.wrapping_add(c as u64),
                    ) {
                        reps.push(medoid(g.features(t), &group));
                    }
                }
                reps.sort_unstable();
                reps.dedup();
                plans.push(TypePlan::Selected(reps));
            } else {
                let all: Vec<u32> = (0..g.num_nodes(t) as u32).collect();
                let groups = kmeans(
                    g.features(t),
                    &all,
                    budget,
                    self.kmeans_iters,
                    spec.seed ^ (t.0 as u64) << 8,
                );
                let features = g.features(t).means_of(&groups);
                plans.push(TypePlan::Synthesized(SynthesizedNodes {
                    members: groups,
                    features,
                }));
            }
        }

        // Sparse connection scheme = membership-rule assembly.
        let mut cond = assemble(g, &plans);

        // Bi-level OPS gradient matching on the target features.
        let stats = gradient_matching_refine(ctx, &mut cond, spec, &self.cfg);
        (cond, stats)
    }
}

impl Condenser for HGCondBaseline {
    fn name(&self) -> &'static str {
        "HGCond"
    }

    fn condense_in(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> CondensedGraph {
        self.condense_with_stats(ctx, spec).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;
    use freehgc_hetgraph::Role;

    fn quick() -> HGCondBaseline {
        HGCondBaseline {
            cfg: GradMatchConfig {
                outer: 3,
                inner: 2,
                relay_samples: 2,
                ops: true,
                ..Default::default()
            },
            kmeans_iters: 3,
        }
    }

    #[test]
    fn hgcond_builds_valid_condensed_graph() {
        let g = tiny(0);
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(3);
        let (cg, stats) = quick().condense_with_stats(&CondenseContext::new(&g), &spec);
        cg.validate(&g);
        assert!(stats.final_loss.is_finite());
        // Non-target types become cluster hyper-nodes.
        for t in g.schema().node_type_ids() {
            if t != g.schema().target() {
                assert!(cg.orig_ids[t.0 as usize].is_none(), "{t:?}");
            }
            assert!(cg.graph.num_nodes(t) <= spec.budget_for(g.num_nodes(t)));
        }
    }

    #[test]
    fn hgcond_keeps_class_purity_of_target() {
        let g = tiny(1);
        let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(4);
        let (cg, _) = quick().condense_with_stats(&CondenseContext::new(&g), &spec);
        for (k, &orig) in cg.target_ids().iter().enumerate() {
            assert_eq!(cg.graph.labels()[k], g.labels()[orig as usize]);
        }
    }

    #[test]
    fn relay_variants_produce_different_features() {
        let g = tiny(2);
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(5);
        let a = quick()
            .condense_with_stats(&CondenseContext::new(&g), &spec)
            .0;
        let b = quick()
            .with_relay(RelayKind::Hgt)
            .condense_with_stats(&CondenseContext::new(&g), &spec)
            .0;
        let t = g.schema().target();
        assert_ne!(a.graph.features(t).data(), b.graph.features(t).data());
    }

    #[test]
    fn leaf_types_keep_edges_through_hypernodes() {
        let g = tiny(3);
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(6);
        let (cg, _) = quick().condense_with_stats(&CondenseContext::new(&g), &spec);
        let leaf = g.schema().types_with_role(Role::Leaf)[0];
        let parent = g.schema().parent_of(leaf).unwrap();
        let (e, _) = g.schema().edge_between(parent, leaf).unwrap();
        assert!(cg.graph.adjacency(e).nnz() > 0);
    }
}
