//! GCond (Jin et al., ICLR'22) adapted to heterogeneous graphs exactly as
//! the paper's §III-B does for its baseline comparison: "for unlabeled
//! node types, we initialize the hyper-nodes with random sampling from the
//! original nodes".
//!
//! GCond's synthetic-graph machinery works with *dense* buffers (it
//! parameterizes a dense synthetic adjacency and differentiates through
//! full-graph propagation), which is why the paper reports out-of-memory
//! failures on AMiner for r ≥ 0.2% (Table VI, Fig. 8). We reproduce that
//! behaviour with a simulated device-memory budget scaled to our reduced
//! dataset sizes: the dense working set `total_nodes × total_budget × 4`
//! bytes is actually allocated, and condensation fails with
//! [`OutOfMemory`] when it exceeds the budget.

use crate::relay::{gradient_matching_refine, GradMatchConfig, GradMatchStats, RelayKind};
use freehgc_hetgraph::{
    induce_selection, proportional_allocation, CondenseContext, CondenseSpec, CondensedGraph,
    Condenser,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Simulated device-memory exhaustion (the "OOM" cells of Table VI).
#[derive(Clone, Copy, Debug)]
pub struct OutOfMemory {
    pub required_bytes: usize,
    pub limit_bytes: usize,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GCond OOM: dense working set needs {} bytes > {} byte budget",
            self.required_bytes, self.limit_bytes
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Default simulated memory budget. The paper's runs use a 24 GB TITAN
/// RTX on graphs 20–135× larger than our scaled ones; 32 MB for the dense
/// synthetic working set preserves which (dataset, ratio) cells of
/// Tables V/VI and Figs. 2b/8 fit and which go OOM.
pub const DEFAULT_MEMORY_LIMIT: usize = 32 << 20;

/// The GCond baseline.
#[derive(Clone, Debug)]
pub struct GCondBaseline {
    pub cfg: GradMatchConfig,
    pub memory_limit_bytes: usize,
}

impl Default for GCondBaseline {
    fn default() -> Self {
        Self {
            cfg: GradMatchConfig {
                relay: RelayKind::Hsgc,
                ops: false,
                relay_samples: 2,
                ..Default::default()
            },
            memory_limit_bytes: DEFAULT_MEMORY_LIMIT,
        }
    }
}

impl GCondBaseline {
    /// Runs GCond, reporting [`OutOfMemory`] when the dense working set
    /// exceeds the simulated device budget. The real-side propagated
    /// blocks come from the context's cache.
    pub fn try_condense(
        &self,
        ctx: &CondenseContext<'_>,
        spec: &CondenseSpec,
    ) -> Result<(CondensedGraph, GradMatchStats), OutOfMemory> {
        let g = ctx.graph();
        let total_budget: usize = spec.budgets(g).iter().sum();
        let required = g.total_nodes() * total_budget * std::mem::size_of::<f32>();
        if required > self.memory_limit_bytes {
            return Err(OutOfMemory {
                required_bytes: required,
                limit_bytes: self.memory_limit_bytes,
            });
        }
        // GCond's dense synthetic-graph working set (assignment /
        // adjacency buffers); materialized for honest memory behaviour.
        let mut dense = vec![0f32; g.total_nodes() * total_budget];
        // Touch the buffer so the allocation is not optimized away.
        dense[0] = 1.0;
        let _keepalive = &dense;

        // Skeleton: random stratified target + random other types.
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x6c0d);
        let schema = g.schema();
        let target = schema.target();
        let mut keep: Vec<Vec<u32>> = Vec::with_capacity(schema.num_node_types());
        for t in schema.node_type_ids() {
            let budget = spec.budget_for(g.num_nodes(t));
            let mut ids = if t == target {
                let labels = g.labels();
                let mut pools: Vec<Vec<u32>> = vec![Vec::new(); g.num_classes()];
                for &v in &g.split().train {
                    pools[labels[v as usize] as usize].push(v);
                }
                let counts: Vec<usize> = pools.iter().map(|p| p.len()).collect();
                let alloc = proportional_allocation(&counts, budget);
                let mut sel = Vec::with_capacity(budget);
                for (pool, &b) in pools.iter_mut().zip(&alloc) {
                    pool.shuffle(&mut rng);
                    sel.extend(pool.iter().copied().take(b));
                }
                sel
            } else {
                let mut all: Vec<u32> = (0..g.num_nodes(t) as u32).collect();
                all.shuffle(&mut rng);
                all.truncate(budget);
                all
            };
            ids.sort_unstable();
            keep.push(ids);
        }
        let mut cond = induce_selection(g, keep);

        // Bi-level gradient matching on the synthetic target features.
        let stats = gradient_matching_refine(ctx, &mut cond, spec, &self.cfg);
        Ok((cond, stats))
    }
}

impl Condenser for GCondBaseline {
    fn name(&self) -> &'static str {
        "GCond"
    }

    /// # Panics
    /// Panics on simulated OOM; use [`GCondBaseline::try_condense`] where
    /// OOM is an expected outcome (Table VI).
    fn condense_in(&self, ctx: &CondenseContext<'_>, spec: &CondenseSpec) -> CondensedGraph {
        match self.try_condense(ctx, spec) {
            Ok((cg, _)) => cg,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;

    fn quick_cfg() -> GradMatchConfig {
        GradMatchConfig {
            outer: 3,
            inner: 2,
            relay_samples: 2,
            ..Default::default()
        }
    }

    #[test]
    fn gcond_produces_valid_condensed_graph() {
        let g = tiny(0);
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(1);
        let gc = GCondBaseline {
            cfg: quick_cfg(),
            ..Default::default()
        };
        let (cg, stats) = gc.try_condense(&CondenseContext::new(&g), &spec).unwrap();
        cg.validate(&g);
        assert_eq!(stats.outer_steps, 3);
        assert!(stats.inner_steps >= 6);
        assert!(stats.final_loss.is_finite());
    }

    #[test]
    fn gcond_refines_target_features() {
        let g = tiny(1);
        let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(2);
        let gc = GCondBaseline {
            cfg: quick_cfg(),
            ..Default::default()
        };
        let (cg, _) = gc.try_condense(&CondenseContext::new(&g), &spec).unwrap();
        // Refined features must differ from the raw gathered originals.
        let t = g.schema().target();
        let ids = cg.target_ids();
        let orig = g.features(t).gather(ids);
        assert_ne!(cg.graph.features(t).data(), orig.data());
    }

    #[test]
    fn oom_when_working_set_exceeds_budget() {
        let g = tiny(2);
        let spec = CondenseSpec::new(0.5).with_max_hops(1);
        let gc = GCondBaseline {
            cfg: quick_cfg(),
            memory_limit_bytes: 64, // tiny budget forces OOM
        };
        let err = gc
            .try_condense(&CondenseContext::new(&g), &spec)
            .unwrap_err();
        assert!(err.required_bytes > err.limit_bytes);
        assert!(err.to_string().contains("OOM"));
    }

    #[test]
    fn oom_depends_on_ratio() {
        let g = tiny(3);
        let total = g.total_nodes();
        // Budget that admits r=0.05 but not r=0.5.
        let lo_budget: usize = CondenseSpec::new(0.05).budgets(&g).iter().sum();
        let limit = total * lo_budget * 4 + 1024;
        let gc = GCondBaseline {
            cfg: quick_cfg(),
            memory_limit_bytes: limit,
        };
        let run = |ratio: f64| {
            let spec = CondenseSpec::new(ratio).with_max_hops(1);
            gc.try_condense(&CondenseContext::new(&g), &spec)
        };
        assert!(run(0.05).is_ok());
        assert!(run(0.5).is_err());
    }
}
