//! Coreset baselines: Random-HG, Herding-HG and K-Center-HG (paper §V-A).
//!
//! The paper adapts three homogeneous coreset methods to heterogeneous
//! graphs: the target type is selected from the training pool using
//! HGNN-style *intermediate embeddings* (we use the SeHGNN pre-propagated
//! meta-path blocks, concatenated), while unlabeled types are selected on
//! their raw features. Selection is class-stratified for the target type,
//! matching the class-proportional budget protocol of §V-B.

use freehgc_core::herding::herding_select;
use freehgc_hetgraph::{
    induce_selection, proportional_allocation, CondenseContext, CondenseSpec, CondensedGraph,
    Condenser, FeatureMatrix, HeteroGraph,
};
use freehgc_hgnn::propagate_ctx;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Concatenated meta-path propagated embeddings of the target type — the
/// "intermediate embeddings from SeHGNN" the paper feeds the coreset
/// methods. The propagated blocks come from the context's
/// `(max_hops, max_paths)` cache, so herding and k-center selection at
/// several ratios (or after an eval pass over the same graph) pay for
/// propagation once.
pub fn target_embeddings(
    ctx: &CondenseContext<'_>,
    max_hops: usize,
    max_paths: usize,
) -> FeatureMatrix {
    let pf = propagate_ctx(ctx, max_hops, max_paths);
    let dim: usize = pf.blocks.iter().map(|b| b.cols).sum();
    let n = pf.num_rows();
    let mut data = Vec::with_capacity(n * dim);
    for r in 0..n {
        for b in &pf.blocks {
            data.extend_from_slice(b.row(r));
        }
    }
    FeatureMatrix::from_rows(dim, data)
}

/// Per-class training pools and proportional budgets.
fn class_pools(g: &HeteroGraph, budget: usize) -> (Vec<Vec<u32>>, Vec<usize>) {
    let labels = g.labels();
    let mut pools: Vec<Vec<u32>> = vec![Vec::new(); g.num_classes()];
    for &v in &g.split().train {
        pools[labels[v as usize] as usize].push(v);
    }
    let counts: Vec<usize> = pools.iter().map(|p| p.len()).collect();
    let total: usize = counts.iter().sum();
    let alloc = proportional_allocation(&counts, budget.min(total));
    (pools, alloc)
}

/// Shared scaffold: pick target ids with `select_target`, other-type ids
/// with `select_other`, then induce.
fn condense_with<FT, FO>(
    g: &HeteroGraph,
    spec: &CondenseSpec,
    mut select_target: FT,
    mut select_other: FO,
) -> CondensedGraph
where
    FT: FnMut(&HeteroGraph, usize) -> Vec<u32>,
    FO: FnMut(&HeteroGraph, freehgc_hetgraph::NodeTypeId, usize) -> Vec<u32>,
{
    let schema = g.schema();
    let target = schema.target();
    let mut keep: Vec<Vec<u32>> = Vec::with_capacity(schema.num_node_types());
    for t in schema.node_type_ids() {
        let budget = spec.budget_for(g.num_nodes(t));
        let ids = if t == target {
            let mut ids = select_target(g, budget);
            ids.sort_unstable();
            ids
        } else {
            let mut ids = select_other(g, t, budget);
            ids.sort_unstable();
            ids
        };
        keep.push(ids);
    }
    induce_selection(g, keep)
}

/// Uniform random selection (class-stratified on the target type).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomHg;

impl Condenser for RandomHg {
    fn name(&self) -> &'static str {
        "Random-HG"
    }

    fn condense_in(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> CondensedGraph {
        // Separate deterministic streams so the closures don't contend for
        // one generator.
        let mut rng_t = StdRng::seed_from_u64(spec.seed ^ 0x5eed);
        let mut rng_o = StdRng::seed_from_u64(spec.seed ^ 0x07e4);
        condense_with(
            ctx.graph(),
            spec,
            |g, budget| {
                let (pools, alloc) = class_pools(g, budget);
                let mut sel = Vec::with_capacity(budget);
                for (pool, &b) in pools.iter().zip(&alloc) {
                    let mut p = pool.clone();
                    p.shuffle(&mut rng_t);
                    sel.extend(p.into_iter().take(b));
                }
                sel
            },
            |g, t, budget| {
                let mut all: Vec<u32> = (0..g.num_nodes(t) as u32).collect();
                all.shuffle(&mut rng_o);
                all.truncate(budget);
                all
            },
        )
    }
}

/// Herding on intermediate embeddings (target) / raw features (others).
#[derive(Clone, Copy, Debug, Default)]
pub struct HerdingHg;

impl Condenser for HerdingHg {
    fn name(&self) -> &'static str {
        "Herding-HG"
    }

    fn condense_in(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> CondensedGraph {
        let emb = target_embeddings(ctx, spec.max_hops, spec.max_paths);
        condense_with(
            ctx.graph(),
            spec,
            |g, budget| {
                let (pools, alloc) = class_pools(g, budget);
                let mut sel = Vec::with_capacity(budget);
                for (pool, &b) in pools.iter().zip(&alloc) {
                    sel.extend(herding_select(&emb, pool, b));
                }
                sel
            },
            |g, t, budget| {
                let all: Vec<u32> = (0..g.num_nodes(t) as u32).collect();
                herding_select(g.features(t), &all, budget)
            },
        )
    }
}

/// Greedy k-center (max-min distance) selection.
pub fn kcenter_select(feat: &FeatureMatrix, pool: &[u32], budget: usize) -> Vec<u32> {
    let budget = budget.min(pool.len());
    if budget == 0 {
        return Vec::new();
    }
    // Seed with the node closest to the pool mean (deterministic).
    let mut mu = vec![0f64; feat.dim()];
    for &p in pool {
        for (a, &v) in mu.iter_mut().zip(feat.row(p as usize)) {
            *a += v as f64;
        }
    }
    for a in mu.iter_mut() {
        *a /= pool.len() as f64;
    }
    let dist_to_mu = |p: u32| -> f64 {
        feat.row(p as usize)
            .iter()
            .zip(&mu)
            .map(|(&x, m)| (x as f64 - m) * (x as f64 - m))
            .sum()
    };
    let first = *pool
        .iter()
        .min_by(|&&a, &&b| dist_to_mu(a).partial_cmp(&dist_to_mu(b)).unwrap())
        .unwrap();
    let mut selected = vec![first];
    // min-distance of each pool node to the selected set
    let mut mind: Vec<f32> = pool
        .iter()
        .map(|&p| feat.dist2(p as usize, first as usize))
        .collect();
    while selected.len() < budget {
        let (bi, _) = mind
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let chosen = pool[bi];
        selected.push(chosen);
        for (d, &p) in mind.iter_mut().zip(pool) {
            let nd = feat.dist2(p as usize, chosen as usize);
            if nd < *d {
                *d = nd;
            }
        }
    }
    selected.sort_unstable();
    selected
}

/// K-Center on intermediate embeddings (target) / raw features (others).
#[derive(Clone, Copy, Debug, Default)]
pub struct KCenterHg;

impl Condenser for KCenterHg {
    fn name(&self) -> &'static str {
        "K-Center-HG"
    }

    fn condense_in(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> CondensedGraph {
        let emb = target_embeddings(ctx, spec.max_hops, spec.max_paths);
        condense_with(
            ctx.graph(),
            spec,
            |g, budget| {
                let (pools, alloc) = class_pools(g, budget);
                let mut sel = Vec::with_capacity(budget);
                for (pool, &b) in pools.iter().zip(&alloc) {
                    sel.extend(kcenter_select(&emb, pool, b));
                }
                sel
            },
            |g, t, budget| {
                let all: Vec<u32> = (0..g.num_nodes(t) as u32).collect();
                kcenter_select(g.features(t), &all, budget)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;

    #[test]
    fn all_coresets_respect_budgets() {
        let g = tiny(0);
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(1);
        for c in [&RandomHg as &dyn Condenser, &HerdingHg, &KCenterHg] {
            let cg = c.condense(&g, &spec);
            cg.validate(&g);
            for t in g.schema().node_type_ids() {
                assert!(
                    cg.graph.num_nodes(t) <= spec.budget_for(g.num_nodes(t)),
                    "{} type {t:?}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn target_selection_stays_in_train_pool() {
        let g = tiny(1);
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(2);
        for c in [&RandomHg as &dyn Condenser, &HerdingHg, &KCenterHg] {
            let cg = c.condense(&g, &spec);
            for id in cg.target_ids() {
                assert!(g.split().train.contains(id), "{}: {id}", c.name());
            }
        }
    }

    #[test]
    fn kcenter_spreads_selection() {
        // Two far clusters: k-center with k=2 must take one from each.
        let rows = vec![0.0, 0.0, 0.1, 0.0, 100.0, 100.0, 100.1, 100.0];
        let f = FeatureMatrix::from_rows(2, rows);
        let sel = kcenter_select(&f, &[0, 1, 2, 3], 2);
        let left = sel.iter().filter(|&&s| s < 2).count();
        let right = sel.len() - left;
        assert_eq!((left, right), (1, 1), "{sel:?}");
    }

    #[test]
    fn random_is_seed_deterministic() {
        let g = tiny(3);
        let spec = CondenseSpec::new(0.15).with_max_hops(1).with_seed(7);
        let a = RandomHg.condense(&g, &spec);
        let b = RandomHg.condense(&g, &spec);
        assert_eq!(a.target_ids(), b.target_ids());
        let spec2 = spec.clone().with_seed(8);
        let c = RandomHg.condense(&g, &spec2);
        assert_ne!(a.target_ids(), c.target_ids());
    }

    #[test]
    fn embeddings_have_expected_shape() {
        let g = tiny(4);
        let emb = target_embeddings(&CondenseContext::new(&g), 2, 16);
        assert_eq!(emb.num_rows(), g.num_nodes(g.schema().target()));
        assert!(emb.dim() > g.features(g.schema().target()).dim());
    }
}
