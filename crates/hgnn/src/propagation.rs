//! Meta-path feature propagation (the pre-processing stage of NARS /
//! SeHGNN-style scalable HGNNs): for every meta-path within `max_hops`,
//! one block `Â_path · X_source` of mean-aggregated features per target
//! node, after the raw target features in block 0.
//!
//! The blocks are a cache family of the shared
//! [`CondenseContext`](freehgc_hetgraph::CondenseContext), so they and
//! their computation live in [`freehgc_hetgraph::propagation`]; this
//! module re-exports them for the model layer.

pub use freehgc_hetgraph::propagation::{propagate, propagate_ctx, PropagatedFeatures};

/// Default cap on the number of enumerated meta-paths (re-exported from
/// `freehgc_hetgraph`, where [`freehgc_hetgraph::CondenseSpec`] uses it
/// as its default too — one knob for both layers).
pub use freehgc_hetgraph::DEFAULT_MAX_PATHS;

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;
    use freehgc_hetgraph::CondenseContext;
    use std::sync::Arc;

    #[test]
    fn block_zero_is_raw_features() {
        let g = tiny(0);
        let pf = propagate(&g, 2, 16);
        let t = g.schema().target();
        assert_eq!(pf.blocks[0].rows, g.num_nodes(t));
        assert_eq!(pf.blocks[0].cols, g.features(t).dim());
        assert_eq!(pf.blocks[0].data, g.features(t).data());
        assert_eq!(pf.path_names[0], "raw");
    }

    #[test]
    fn every_block_has_target_rows() {
        let g = tiny(1);
        let pf = propagate(&g, 2, 16);
        let n = g.num_nodes(g.schema().target());
        assert!(pf.blocks.len() > 1, "should enumerate at least one path");
        for b in &pf.blocks {
            assert_eq!(b.rows, n);
        }
        assert_eq!(pf.blocks.len(), pf.path_names.len());
    }

    #[test]
    fn condensed_and_full_blocks_align() {
        let g = tiny(2);
        // Induce a sub-graph (simple selection) and check the block layout
        // matches the full graph's: same count, same dims, same names.
        let keep: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..g.num_nodes(t) as u32 / 2).collect())
            .collect();
        let sub = g.induced(&keep);
        let pf_full = propagate(&g, 2, 16);
        let pf_sub = propagate(&sub, 2, 16);
        assert_eq!(pf_full.path_names, pf_sub.path_names);
        assert_eq!(pf_full.dims(), pf_sub.dims());
    }

    #[test]
    fn gather_selects_rows() {
        let g = tiny(3);
        let pf = propagate(&g, 1, 8);
        let rows = vec![0u32, 2, 4];
        let gathered = pf.gather(&rows);
        assert_eq!(gathered[0].rows, 3);
        assert_eq!(gathered[0].row(1), pf.blocks[0].row(2));
    }

    #[test]
    fn context_propagation_matches_fresh_and_is_cached() {
        let g = tiny(5);
        let ctx = CondenseContext::new(&g);
        let fresh = propagate(&g, 2, 16);
        let a = propagate_ctx(&ctx, 2, 16);
        assert_eq!(a.path_names, fresh.path_names);
        for (ab, fb) in a.blocks.iter().zip(&fresh.blocks) {
            assert_eq!(ab.data, fb.data, "context block must match fresh");
        }
        let b = propagate_ctx(&ctx, 2, 16);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        // A different key is a different computation.
        let c = propagate_ctx(&ctx, 1, 16);
        assert!(c.blocks.len() < a.blocks.len());
    }

    #[test]
    fn propagation_mixes_neighbor_features() {
        let g = tiny(4);
        let pf = propagate(&g, 1, 8);
        // A 1-hop block should not be all zeros (graph has edges) and not
        // equal the raw block.
        let nonzero = pf.blocks[1].data.iter().filter(|&&v| v != 0.0).count();
        assert!(nonzero > 0);
    }
}
