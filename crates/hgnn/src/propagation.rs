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

use freehgc_autograd::Matrix;
use freehgc_hetgraph::snapshot::{ByteReader, ByteWriter, PropagatedCodec};
use freehgc_hetgraph::{CondenseContext, HeteroGraph};
use std::any::Any;
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
    /// [`FamilyCounters::bytes`](freehgc_hetgraph::FamilyCounters).
    pub fn resident_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.data.len() * std::mem::size_of::<f32>())
            .sum::<usize>()
            + self.path_names.iter().map(|n| n.len()).sum::<usize>()
    }
}

/// The [`PropagatedCodec`] for this crate's [`PropagatedFeatures`]: the
/// `hetgraph` snapshot layer stores propagated blocks type-erased, so
/// the layer that owns the concrete type supplies the byte codec. Pass
/// `Some(&PropagatedFeaturesCodec)` as the codec of
/// `CondenseContext::save_snapshot` / `ContextRegistry::resolve` to
/// round-trip the blocks; without it the snapshot still carries
/// everything else and propagation recomputes.
///
/// Encoding is bit-exact (`f32` bits), so a propagation served from a
/// loaded snapshot equals a fresh one bitwise — the same contract every
/// other cache layer keeps.
pub struct PropagatedFeaturesCodec;

impl PropagatedCodec for PropagatedFeaturesCodec {
    fn encode(&self, value: &dyn Any) -> Option<Vec<u8>> {
        let pf = value.downcast_ref::<PropagatedFeatures>()?;
        debug_assert_eq!(pf.blocks.len(), pf.path_names.len());
        let mut w = ByteWriter::new();
        w.put_usize(pf.blocks.len());
        for (b, name) in pf.blocks.iter().zip(&pf.path_names) {
            w.put_str(name);
            w.put_usize(b.rows);
            w.put_usize(b.cols);
            w.put_f32_slice(&b.data);
        }
        Some(w.into_bytes())
    }

    fn decode(&self, bytes: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
        let mut r = ByteReader::new(bytes);
        let n = r.seq_len(1).ok()?;
        let mut blocks = Vec::with_capacity(n);
        let mut path_names = Vec::with_capacity(n);
        for _ in 0..n {
            path_names.push(r.str().ok()?);
            let rows = r.usize().ok()?;
            let cols = r.usize().ok()?;
            let len = rows.checked_mul(cols)?;
            // f32_vec bounds-checks len * 4 against the remaining input,
            // so a corrupted dimension pair fails here instead of
            // driving a huge allocation.
            let data = r.f32_vec(len).ok()?;
            blocks.push(Matrix::from_vec(rows, cols, data));
        }
        if !r.is_empty() {
            return None;
        }
        Some(Arc::new(PropagatedFeatures { blocks, path_names }))
    }

    /// Every block carries one row per target node — a crafted or
    /// checksum-colliding file with short blocks would otherwise pass
    /// decode and panic in a later `gather`.
    fn validate(&self, value: &dyn Any, graph: &HeteroGraph) -> bool {
        let Some(pf) = value.downcast_ref::<PropagatedFeatures>() else {
            return false;
        };
        let n = graph.num_nodes(graph.schema().target());
        !pf.blocks.is_empty()
            && pf.blocks.len() == pf.path_names.len()
            && pf.blocks.iter().all(|b| b.rows == n)
    }

    /// Sizes a snapshot-loaded block set so
    /// the propagated family's
    /// [`FamilyCounters::bytes`](freehgc_hetgraph::FamilyCounters) stays
    /// accurate for warm-from-disk contexts too.
    fn resident_bytes(&self, value: &dyn Any) -> usize {
        value
            .downcast_ref::<PropagatedFeatures>()
            .map_or(0, PropagatedFeatures::resident_bytes)
    }
}

/// Default cap on the number of enumerated meta-paths (re-exported from
/// `freehgc_hetgraph`, where [`freehgc_hetgraph::CondenseSpec`] uses it
/// as its default too — one knob for both layers).
pub use freehgc_hetgraph::DEFAULT_MAX_PATHS;

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
    ctx.propagated(
        (max_hops, max_paths),
        || propagate_uncached(ctx, max_hops, max_paths),
        PropagatedFeatures::resident_bytes,
    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;

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
    fn codec_round_trips_propagated_blocks_bitwise() {
        let g = tiny(6);
        let pf = propagate(&g, 2, 16);
        let codec = PropagatedFeaturesCodec;
        let bytes = codec.encode(&pf as &dyn Any).expect("own type encodes");
        let decoded = codec.decode(&bytes).expect("round trip");
        let back = decoded
            .downcast::<PropagatedFeatures>()
            .expect("decodes to the concrete type");
        assert_eq!(back.path_names, pf.path_names);
        assert_eq!(back.blocks.len(), pf.blocks.len());
        for (a, b) in back.blocks.iter().zip(&pf.blocks) {
            assert_eq!((a.rows, a.cols), (b.rows, b.cols));
            assert_eq!(a.data, b.data, "block bits must survive the codec");
        }
        // A foreign type is politely declined, and garbage bytes decode
        // to None instead of panicking.
        assert!(codec.encode(&42u32 as &dyn Any).is_none());
        assert!(codec.decode(&bytes[..bytes.len() / 2]).is_none());
        assert!(codec.decode(&[0xFF; 9]).is_none());
        // Shape validation: the blocks fit their own graph, not one
        // with a different target count.
        assert!(codec.validate(&pf as &dyn Any, &g));
        let keep: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..g.num_nodes(t) as u32 / 2).collect())
            .collect();
        let smaller = g.induced(&keep);
        assert!(
            !codec.validate(&pf as &dyn Any, &smaller),
            "row-count mismatch must be rejected"
        );
        assert!(!codec.validate(&42u32 as &dyn Any, &g));
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
