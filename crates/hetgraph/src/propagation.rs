//! Meta-path feature propagation (the pre-processing stage of NARS /
//! SeHGNN-style scalable HGNNs).
//!
//! For every meta-path `ot ← … ← os` within `max_hops`, the propagated
//! block is `Â_path · X_os` — the mean-aggregated features of the path's
//! endpoints, one row per target node. The raw target features are block 0.
//!
//! Crucially, path enumeration depends only on the *schema*, so a graph
//! condensed by any method yields blocks aligned with the full graph's
//! blocks (same order, same dimensions) — this is what lets a head trained
//! on the condensed graph be evaluated on the full graph.
//!
//! The blocks are the seventh cache family of [`CondenseContext`]: they
//! live in its byte ledger beside the composed adjacencies they are built
//! from, travel in every snapshot, and are reachable from
//! any layer that holds a context — the HGNN trainers and target
//! selection alike.

use crate::context::CondenseContext;
use crate::graph::HeteroGraph;
use freehgc_autograd::Matrix;
use std::sync::Arc;

/// Per-meta-path propagated feature blocks for the target type.
#[derive(Clone, Debug)]
pub struct PropagatedFeatures {
    /// `blocks[0]` is the raw target feature matrix; `blocks[i]` (i ≥ 1)
    /// is the propagation along `path_names[i]`.
    pub blocks: Vec<Matrix>,
    /// Human-readable block names (`"raw"`, then meta-path names).
    pub path_names: Vec<String>,
}

impl PropagatedFeatures {
    /// Column dimension of each block.
    pub fn dims(&self) -> Vec<usize> {
        self.blocks.iter().map(|b| b.cols).collect()
    }

    /// Number of target rows.
    pub fn num_rows(&self) -> usize {
        self.blocks[0].rows
    }

    /// Gathers the given target rows from every block (for train/val/test
    /// subsets).
    pub fn gather(&self, rows: &[u32]) -> Vec<Matrix> {
        self.blocks.iter().map(|b| b.gather_rows(rows)).collect()
    }

    /// Resident heap bytes of the block data — what this value costs to
    /// keep cached. Reported through the propagated family's
    /// [`FamilyCounters::bytes`](crate::FamilyCounters).
    pub fn resident_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.data.len() * std::mem::size_of::<f32>())
            .sum::<usize>()
            + self.path_names.iter().map(|n| n.len()).sum::<usize>()
    }
}

/// Computes propagated blocks for the target type of `g`.
///
/// Builds a fresh single-use [`CondenseContext`]; use [`propagate_ctx`]
/// to share the compositions and the finished blocks across callers.
pub fn propagate(g: &HeteroGraph, max_hops: usize, max_paths: usize) -> PropagatedFeatures {
    propagate_uncached(&CondenseContext::new(g), max_hops, max_paths)
}

/// [`propagate`] against a shared [`CondenseContext`]: the *finished
/// block set* is memoized under `(max_hops, max_paths)` — a warm context
/// returns the same `Arc` without recomputing anything — and on a miss
/// the adjacency compositions come from (and warm) the context's caches.
/// Bitwise-identical to the fresh-context path.
pub fn propagate_ctx(
    ctx: &CondenseContext<'_>,
    max_hops: usize,
    max_paths: usize,
) -> Arc<PropagatedFeatures> {
    ctx.propagated((max_hops, max_paths), || {
        propagate_uncached(ctx, max_hops, max_paths)
    })
}

/// Adjacency composition runs first (the prefix cache is inherently
/// sequential, but the SpGEMMs inside are row-parallel); the per-path
/// `Â·X` products are then computed block-parallel, one worker per
/// path, with results kept in path order so block layout is unchanged.
fn propagate_uncached(
    ctx: &CondenseContext<'_>,
    max_hops: usize,
    max_paths: usize,
) -> PropagatedFeatures {
    let g = ctx.graph();
    let schema = g.schema();
    let target = schema.target();
    let paths = ctx.metapaths(target, max_hops, max_paths);
    let adjacencies: Vec<_> = paths.iter().map(|p| ctx.adjacency(p)).collect();

    let n = g.num_nodes(target);
    let raw = g.features(target);
    let mut blocks = Vec::with_capacity(paths.len() + 1);
    let mut path_names = Vec::with_capacity(paths.len() + 1);
    blocks.push(Matrix::from_vec(n, raw.dim(), raw.data().to_vec()));
    path_names.push("raw".to_string());

    let propagated = freehgc_parallel::scoped_map(
        paths.iter().zip(adjacencies).collect::<Vec<_>>(),
        |_, (p, adj)| {
            let src_feat = g.features(p.source());
            // spmm_dense_into writes straight into the block's own
            // buffer — no intermediate Vec to hand off.
            let mut block = Matrix::zeros(n, src_feat.dim());
            adj.spmm_dense_into(src_feat.data(), src_feat.dim(), &mut block.data);
            block
        },
    );
    blocks.extend(propagated);
    path_names.extend(paths.iter().map(|p| p.name(schema)));
    PropagatedFeatures { blocks, path_names }
}
