//! FreeHGC — training-free heterogeneous graph condensation via data
//! selection (ICDE 2025).
//!
//! The method condenses a heterogeneous graph in the pre-processing stage,
//! with no relay-model training (Fig. 1 of the paper):
//!
//! 1. **Target-type nodes** ([`selection`], Algorithm 1) are chosen by a
//!    unified submodular criterion `F(S) = R(S)/|R̂| + (1 − J(S))`
//!    combining receptive-field maximization over every generated
//!    meta-path with meta-path similarity minimization.
//! 2. **Father-type nodes** ([`father`], Eq. 10–13) are ranked by
//!    personalized-PageRank neighbor influence over target→father
//!    meta-paths.
//! 3. **Leaf-type nodes** ([`leaf`], Eq. 14–16) are *synthesized* into
//!    hyper-nodes that mean-aggregate each parent's leaf neighbors,
//!    with reverse edges preserving 2-hop structure.
//! 4. The pieces are wired into the condensed graph by [`assemble()`].
//!
//! [`FreeHgc`] packages the full pipeline behind the common
//! [`Condenser`] trait; [`FreeHgcConfig`] exposes every ablation switch of
//! Table VIII ([`variant_config`]).

pub mod assemble;
pub mod father;
pub mod herding;
pub mod leaf;
pub mod selection;

pub use assemble::{assemble, TypePlan};
pub use father::{condense_father, influence_scores, top_k_by_score, ImportanceMethod};
pub use herding::{herding_select, herding_select_stratified};
pub use leaf::{synthesize_leaf, SynthesizedType};
pub use selection::{condense_target, SelectionConfig, TargetSelection};

use freehgc_hetgraph::{
    CondenseContext, CondenseSpec, CondensedGraph, Condenser, NodeTypeId, Role,
};

/// How target-type nodes are condensed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TargetStrategy {
    /// The paper's unified criterion (Eq. 8); the two flags correspond to
    /// ablation Variants #1 (no receptive field) and #2 (no similarity).
    Criterion { use_rf: bool, use_jaccard: bool },
    /// Class-stratified herding on raw features (Variant #3).
    Herding,
}

/// How a non-target node type is condensed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OtherStrategy {
    /// Neighbor influence maximization (select important originals).
    Nim,
    /// Information-loss minimization (synthesize hyper-nodes).
    Ilm,
    /// Herding on raw features (ablation replacement).
    Herding,
}

/// Full FreeHGC configuration.
///
/// The meta-path caps (`max_hops`, `max_paths`) live on
/// [`CondenseSpec`], not here: they parameterize *every* layer of a run
/// (selection, father influence, propagation), so keeping them on the
/// spec is what guarantees condensation and evaluation enumerate the
/// same path family.
#[derive(Clone, Debug)]
pub struct FreeHgcConfig {
    pub target: TargetStrategy,
    /// Strategy for types with [`Role::Father`].
    pub father: OtherStrategy,
    /// Strategy for types with [`Role::Leaf`].
    pub leaf: OtherStrategy,
    /// Importance backend for NIM.
    pub importance: ImportanceMethod,
}

impl Default for FreeHgcConfig {
    fn default() -> Self {
        Self {
            target: TargetStrategy::Criterion {
                use_rf: true,
                use_jaccard: true,
            },
            father: OtherStrategy::Nim,
            leaf: OtherStrategy::Ilm,
            importance: ImportanceMethod::default(),
        }
    }
}

/// The ablation variants of Table VIII. `0` is the full method; `1..=3`
/// ablate the target-type criterion; `4..=6` ablate the other-type
/// strategies.
pub fn variant_config(variant: u8) -> FreeHgcConfig {
    let mut cfg = FreeHgcConfig::default();
    match variant {
        0 => {}
        1 => {
            cfg.target = TargetStrategy::Criterion {
                use_rf: false,
                use_jaccard: true,
            }
        }
        2 => {
            cfg.target = TargetStrategy::Criterion {
                use_rf: true,
                use_jaccard: false,
            }
        }
        3 => cfg.target = TargetStrategy::Herding,
        4 => cfg.leaf = OtherStrategy::Herding,
        5 => {
            cfg.father = OtherStrategy::Ilm;
            cfg.leaf = OtherStrategy::Herding;
        }
        6 => {
            cfg.father = OtherStrategy::Herding;
            cfg.leaf = OtherStrategy::Herding;
        }
        _ => panic!("unknown ablation variant {variant} (0..=6)"),
    }
    cfg
}

/// The FreeHGC condenser.
#[derive(Clone, Debug, Default)]
pub struct FreeHgc {
    pub config: FreeHgcConfig,
}

impl FreeHgc {
    pub fn new(config: FreeHgcConfig) -> Self {
        Self { config }
    }

    fn plan_target(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> Vec<u32> {
        let g = ctx.graph();
        let tgt = g.schema().target();
        let budget = spec.budget_for(g.num_nodes(tgt));
        match self.config.target {
            TargetStrategy::Criterion {
                use_rf,
                use_jaccard,
            } => {
                condense_target(
                    ctx,
                    budget,
                    &SelectionConfig {
                        max_hops: spec.max_hops,
                        max_paths: spec.max_paths,
                        use_rf,
                        use_jaccard,
                    },
                )
                .selected
            }
            TargetStrategy::Herding => herding_select_stratified(
                g.features(tgt),
                &g.split().train,
                g.labels(),
                g.num_classes(),
                budget,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn plan_other(
        &self,
        ctx: &CondenseContext<'_>,
        t: NodeTypeId,
        strategy: OtherStrategy,
        spec: &CondenseSpec,
        parent_selected: &[u32],
        parent_type: NodeTypeId,
        seed_targets: &[u32],
    ) -> TypePlan {
        let g = ctx.graph();
        let budget = spec.budget_for(g.num_nodes(t));
        match strategy {
            OtherStrategy::Nim => TypePlan::Selected(condense_father(
                ctx,
                t,
                Some(seed_targets),
                budget,
                spec.max_hops,
                spec.max_paths,
                self.config.importance,
                spec.seed,
            )),
            OtherStrategy::Herding => {
                let all: Vec<u32> = (0..g.num_nodes(t) as u32).collect();
                TypePlan::Selected(herding_select(g.features(t), &all, budget))
            }
            OtherStrategy::Ilm => TypePlan::Synthesized(synthesize_leaf(
                ctx,
                t,
                parent_type,
                parent_selected,
                budget,
            )),
        }
    }
}

impl Condenser for FreeHgc {
    fn name(&self) -> &'static str {
        "FreeHGC"
    }

    fn condense_in(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> CondensedGraph {
        let g = ctx.graph();
        let schema = g.schema().clone();
        let target = schema.target();
        let n_types = schema.num_node_types();

        // Stage 1: target-type selection (Algorithm 1).
        let target_sel = self.plan_target(ctx, spec);

        let mut plans: Vec<Option<TypePlan>> = (0..n_types).map(|_| None).collect();
        plans[target.0 as usize] = Some(TypePlan::Selected(target_sel.clone()));

        // Stage 2: father types (Algorithm 2, lines 2–5). ILM-for-father
        // (Variant #5) synthesizes around the selected target nodes.
        for t in schema.types_with_role(Role::Father) {
            let plan = self.plan_other(
                ctx,
                t,
                self.config.father,
                spec,
                &target_sel,
                target,
                &target_sel,
            );
            plans[t.0 as usize] = Some(plan);
        }

        // Stage 3: leaf types (Algorithm 2, lines 7–10). ILM needs the
        // parent's *selected* ids: the target selection if the parent is
        // the target, else the father's selection.
        for t in schema.types_with_role(Role::Leaf) {
            let parent = schema.parent_of(t).unwrap_or(target);
            let (parent_type, parent_ids): (NodeTypeId, Vec<u32>) = if parent == target {
                (target, target_sel.clone())
            } else {
                match plans[parent.0 as usize].as_ref() {
                    Some(TypePlan::Selected(ids)) => (parent, ids.clone()),
                    // Parent synthesized or not planned yet (leaf chains):
                    // fall back to aggregating around the target selection,
                    // which always exists and is connected by meta-paths.
                    _ => (target, target_sel.clone()),
                }
            };
            let strategy = if self.config.leaf == OtherStrategy::Ilm
                && g.schema().edge_between(parent_type, t).is_none()
            {
                // No direct relation to aggregate over: degrade to NIM.
                OtherStrategy::Nim
            } else {
                self.config.leaf
            };
            let plan = self.plan_other(
                ctx,
                t,
                strategy,
                spec,
                &parent_ids,
                parent_type,
                &target_sel,
            );
            plans[t.0 as usize] = Some(plan);
        }

        let plans: Vec<TypePlan> = plans
            .into_iter()
            .map(|p| p.expect("every node type planned"))
            .collect();
        assemble(g, &plans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::{generate, tiny, DatasetKind};

    #[test]
    fn condense_produces_budgeted_graph() {
        let g = tiny(0);
        let spec = CondenseSpec::new(0.3).with_max_hops(2);
        let cg = FreeHgc::default().condense(&g, &spec);
        cg.validate(&g);
        // Every type is within (generously) its budget.
        for t in g.schema().node_type_ids() {
            let budget = spec.budget_for(g.num_nodes(t));
            assert!(
                cg.graph.num_nodes(t) <= budget,
                "type {t:?}: {} > budget {budget}",
                cg.graph.num_nodes(t)
            );
        }
        let ratio = cg.achieved_ratio(&g);
        assert!(ratio < 0.5, "achieved ratio {ratio}");
        assert!(
            cg.graph.total_edges() > 0,
            "condensed graph must keep edges"
        );
    }

    #[test]
    fn condensed_storage_shrinks() {
        let g = tiny(1);
        let spec = CondenseSpec::new(0.2).with_max_hops(2);
        let cg = FreeHgc::default().condense(&g, &spec);
        assert!(cg.graph.storage_bytes() < g.storage_bytes() / 2);
    }

    #[test]
    fn class_distribution_is_roughly_preserved() {
        let g = generate(DatasetKind::Acm, 0.2, 0);
        let spec = CondenseSpec::new(0.2).with_max_hops(2);
        let cg = FreeHgc::default().condense(&g, &spec);
        let orig = g.class_histogram();
        let cond = cg.graph.class_histogram();
        let n_orig: usize = orig.iter().sum();
        let n_cond: usize = cond.iter().sum();
        for c in 0..g.num_classes() {
            let po = orig[c] as f64 / n_orig as f64;
            let pc = cond[c] as f64 / n_cond as f64;
            assert!(
                (po - pc).abs() < 0.15,
                "class {c}: original {po:.3} vs condensed {pc:.3}"
            );
        }
    }

    #[test]
    fn all_variants_run_and_differ() {
        let g = tiny(2);
        let spec = CondenseSpec::new(0.25).with_max_hops(2);
        let mut signatures = Vec::new();
        for v in 0..=6u8 {
            let cg = FreeHgc::new(variant_config(v)).condense(&g, &spec);
            cg.validate(&g);
            signatures.push((
                cg.target_ids().to_vec(),
                cg.graph.total_edges(),
                cg.graph.total_nodes(),
            ));
        }
        // The full method and at least half the variants must differ.
        let distinct: std::collections::HashSet<_> = signatures
            .iter()
            .map(|(ids, e, n)| (ids.clone(), *e, *n))
            .collect();
        assert!(
            distinct.len() >= 3,
            "variants too similar: {}",
            distinct.len()
        );
    }

    #[test]
    fn condense_on_structure_2_dataset() {
        let g = generate(DatasetKind::Dblp, 0.1, 3);
        let spec = CondenseSpec::new(0.2).with_max_hops(2);
        let cg = FreeHgc::default().condense(&g, &spec);
        cg.validate(&g);
        let schema = g.schema();
        // Leaf types must be synthesized (no provenance).
        for t in schema.types_with_role(Role::Leaf) {
            assert!(
                cg.orig_ids[t.0 as usize].is_none(),
                "leaf {t:?} not synthesized"
            );
        }
        for t in schema.types_with_role(Role::Father) {
            assert!(
                cg.orig_ids[t.0 as usize].is_some(),
                "father {t:?} not selected"
            );
        }
    }

    #[test]
    fn condense_on_kg_dataset_without_fathers() {
        let g = generate(DatasetKind::Mutag, 0.05, 4);
        let spec = CondenseSpec::new(0.1).with_max_hops(1);
        let cg = FreeHgc::default().condense(&g, &spec);
        cg.validate(&g);
        assert!(cg.graph.total_edges() > 0);
    }

    #[test]
    fn determinism_across_runs() {
        let g = tiny(5);
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(9);
        let a = FreeHgc::default().condense(&g, &spec);
        let b = FreeHgc::default().condense(&g, &spec);
        assert_eq!(a.target_ids(), b.target_ids());
        assert_eq!(a.graph.total_edges(), b.graph.total_edges());
    }

    #[test]
    fn higher_ratio_keeps_more_structure() {
        let g = tiny(6);
        let lo = FreeHgc::default().condense(&g, &CondenseSpec::new(0.1).with_max_hops(2));
        let hi = FreeHgc::default().condense(&g, &CondenseSpec::new(0.5).with_max_hops(2));
        assert!(hi.graph.total_nodes() > lo.graph.total_nodes());
        assert!(hi.graph.total_edges() >= lo.graph.total_edges());
    }
}
