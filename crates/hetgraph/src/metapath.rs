//! Meta-path enumeration and adjacency composition (paper §IV-A).
//!
//! FreeHGC replaces expert-defined meta-paths with a *general meta-paths
//! generation model*: all proper meta-paths up to a maximum hop count `K`
//! are enumerated over the schema graph, and each path's graph-structure
//! information is the product of row-normalized per-relation adjacencies
//! (Eq. 1):
//!
//! ```text
//! Â(ot,…,os) = Â(ot,o1) · Â(o1,o2) · … · Â(ok−1,os)
//! ```
//!
//! [`CondenseContext::adjacency`](crate::context::CondenseContext::adjacency)
//! computes these products with prefix caching so that sibling paths
//! (e.g. `PAP` and `PAPA`) share work, and caps per-row fill-in at
//! [`MAX_ROW_NNZ`](crate::condense::MAX_ROW_NNZ) for large graphs; its
//! caches are shared across condensers, ratios and seeds. A one-shot
//! composition is `CondenseContext::new(g)` plus `adjacency`.

use crate::schema::{EdgeTypeId, NodeTypeId, Schema};

/// Largest meta-path hop bound `K` accepted from untrusted input (wire
/// requests, snapshot keys). Generous against anything the paper grid
/// uses; the bound stops a hostile value from provoking a combinatorial
/// enumeration.
pub const MAX_HOPS: usize = 8;
/// Largest meta-path cap accepted from untrusted input, for the same
/// reason as [`MAX_HOPS`].
pub const MAX_PATHS: usize = 4096;

/// One hop of a meta-path: an edge type and the direction it is traversed
/// (`forward == true` means from the stored source type to the stored
/// destination type). `Ord` gives step sequences a total order, used as
/// the final eviction tiebreak and to serialize snapshot entries in a
/// deterministic order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetaPathStep {
    pub edge: EdgeTypeId,
    pub forward: bool,
}

/// A meta-path `ot ← o1 ← … ← os` rooted at the target type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MetaPath {
    /// Visited node types; `node_types[0]` is the root (target) type.
    pub node_types: Vec<NodeTypeId>,
    /// Traversed steps; `steps.len() == node_types.len() - 1`.
    pub steps: Vec<MetaPathStep>,
}

impl MetaPath {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.steps.len()
    }

    /// The source (endpoint) node type `os`.
    pub fn source(&self) -> NodeTypeId {
        *self.node_types.last().expect("meta-path has endpoints")
    }

    /// The root node type `ot`.
    pub fn root(&self) -> NodeTypeId {
        self.node_types[0]
    }

    /// Human-readable name from node-type initials, e.g. `P-A-P`.
    pub fn name(&self, schema: &Schema) -> String {
        self.node_types
            .iter()
            .map(|&t| {
                schema
                    .node_type_name(t)
                    .chars()
                    .next()
                    .unwrap_or('?')
                    .to_ascii_uppercase()
                    .to_string()
            })
            .collect::<Vec<_>>()
            .join("-")
    }
}

/// The one breadth-first walk both enumeration entry points share:
/// expands proper meta-paths from `root` up to `max_hops`, emitting the
/// ones whose endpoint matches `filter` (`None` = every path) until
/// `max_emitted` have been collected. Paths are emitted as they are
/// generated (no full next-hop frontier built first), and expansion
/// stops the moment the cap is reached. With a filter, branches whose
/// current type cannot reach the filtered type within the remaining
/// hops are pruned via the schema-distance bound — pruned branches can
/// never emit, so the emitted sequence is exactly the filtered full
/// enumeration, but an unreachable or distant endpoint costs nothing
/// instead of an exponential walk.
fn bfs_metapaths(
    schema: &Schema,
    root: NodeTypeId,
    max_hops: usize,
    filter: Option<NodeTypeId>,
    max_emitted: usize,
) -> Vec<MetaPath> {
    // Undirected schema distances lower-bound the hops a path needs to
    // end at the filter type (meta-path traversal follows
    // `incident_edges` in both directions).
    let dist = filter.map(|f| schema.distances_from(f));
    let mut out: Vec<MetaPath> = Vec::new();
    let mut frontier: Vec<MetaPath> = vec![MetaPath {
        node_types: vec![root],
        steps: Vec::new(),
    }];
    for hop in 0..max_hops {
        if out.len() >= max_emitted {
            break;
        }
        // Hops still available after taking one step from this level.
        let left_after_step = max_hops - hop - 1;
        let mut next: Vec<MetaPath> = Vec::new();
        'expand: for path in &frontier {
            let cur = path.source();
            for (edge, leaves_as_src) in schema.incident_edges(cur) {
                if out.len() >= max_emitted {
                    break 'expand;
                }
                let (s, d) = schema.edge_endpoints(edge);
                let nxt = if leaves_as_src { d } else { s };
                if let Some(dist) = &dist {
                    let dd = dist[nxt.0 as usize];
                    if dd == usize::MAX || dd > left_after_step {
                        continue; // no descendant can end at the filter type
                    }
                }
                let mut np = path.clone();
                np.node_types.push(nxt);
                np.steps.push(MetaPathStep {
                    edge,
                    forward: leaves_as_src,
                });
                if filter.is_none_or(|f| nxt == f) {
                    out.push(np.clone());
                }
                next.push(np);
            }
        }
        frontier = next;
    }
    out
}

/// Enumerates every proper meta-path rooted at `root` with 1..=`max_hops`
/// hops, in breadth-first (shortest-first) order, capped at `max_paths`
/// paths. Immediate back-tracking (returning over the same edge type) is
/// allowed — `P-A-P` is the canonical co-author path.
pub fn enumerate_metapaths(
    schema: &Schema,
    root: NodeTypeId,
    max_hops: usize,
    max_paths: usize,
) -> Vec<MetaPath> {
    bfs_metapaths(schema, root, max_hops, None, max_paths)
}

/// Enumerates the meta-paths from `root` that *end at* source type `os`
/// within `max_hops` hops — the path family `Φ_L` of Eq. (5) and Eq. (10).
///
/// The filter is applied *during* the breadth-first expansion (same
/// visit order as [`enumerate_metapaths`], stopping once `max_paths`
/// matching paths exist, with reach-pruning on branches that cannot end
/// at `source`), so the result equals filtering the complete
/// enumeration — without materializing it. A truncated over-enumeration
/// (the historical `max_paths × 8` pre-cap) could exhaust itself on
/// paths to other types before ever seeing a valid `Φ_L` member on wide
/// schemas, silently dropping paths the paper's Eq. (10) sum is
/// entitled to.
pub fn metapaths_to(
    schema: &Schema,
    root: NodeTypeId,
    source: NodeTypeId,
    max_hops: usize,
    max_paths: usize,
) -> Vec<MetaPath> {
    bfs_metapaths(schema, root, max_hops, Some(source), max_paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condense::MAX_ROW_NNZ;
    use crate::context::CondenseContext;
    use crate::features::FeatureMatrix;
    use crate::graph::{HeteroGraph, HeteroGraphBuilder};

    /// paper — author, paper — subject; 3 papers, 2 authors, 2 subjects.
    fn fixture() -> HeteroGraph {
        let mut s = Schema::new();
        let p = s.add_node_type("paper");
        let a = s.add_node_type("author");
        let f = s.add_node_type("field");
        let pa = s.add_edge_type("pa", p, a);
        let pf = s.add_edge_type("pf", p, f);
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![3, 2, 2]);
        for (pp, aa) in [(0, 0), (1, 0), (1, 1), (2, 1)] {
            b.add_edge(pa, pp, aa);
        }
        for (pp, ff) in [(0, 0), (1, 1), (2, 1)] {
            b.add_edge(pf, pp, ff);
        }
        b.set_features(p, FeatureMatrix::zeros(3, 1));
        b.set_features(a, FeatureMatrix::zeros(2, 1));
        b.set_features(f, FeatureMatrix::zeros(2, 1));
        b.set_labels(vec![0, 1, 0], 2);
        b.build()
    }

    #[test]
    fn enumeration_counts_paths() {
        let g = fixture();
        let root = g.schema().target();
        let paths = enumerate_metapaths(g.schema(), root, 2, 1000);
        // hop1: P-A, P-F. hop2: P-A-P, P-F-P. (author/field have only the
        // reverse edge back to paper)
        assert_eq!(paths.len(), 4);
        assert_eq!(paths.iter().filter(|p| p.hops() == 1).count(), 2);
        let names: Vec<String> = paths.iter().map(|p| p.name(g.schema())).collect();
        assert!(names.contains(&"P-A-P".to_string()));
        assert!(names.contains(&"P-F-P".to_string()));
    }

    #[test]
    fn enumeration_respects_cap() {
        let g = fixture();
        let root = g.schema().target();
        let paths = enumerate_metapaths(g.schema(), root, 4, 3);
        assert_eq!(paths.len(), 3);
        // shortest-first order: 1-hop paths come before 2-hop.
        assert!(paths[0].hops() <= paths[2].hops());
    }

    #[test]
    fn capped_enumeration_is_a_prefix_of_the_uncapped_one() {
        let g = fixture();
        let root = g.schema().target();
        let full = enumerate_metapaths(g.schema(), root, 3, 1000);
        for cap in 0..full.len() {
            let capped = enumerate_metapaths(g.schema(), root, 3, cap);
            assert_eq!(capped.as_slice(), &full[..cap], "cap={cap}");
        }
    }

    #[test]
    fn metapaths_to_equals_filtering_the_full_enumeration() {
        let g = fixture();
        let root = g.schema().target();
        for src_name in ["paper", "author", "field"] {
            let src = g.schema().node_type_by_name(src_name).unwrap();
            for hops in 1..=3 {
                let full: Vec<MetaPath> = enumerate_metapaths(g.schema(), root, hops, usize::MAX)
                    .into_iter()
                    .filter(|p| p.source() == src)
                    .collect();
                for cap in 0..=full.len() + 1 {
                    let got = metapaths_to(g.schema(), root, src, hops, cap);
                    let want = &full[..cap.min(full.len())];
                    assert_eq!(got.as_slice(), want, "{src_name} hops={hops} cap={cap}");
                }
            }
        }
    }

    #[test]
    fn metapaths_to_filters_by_source() {
        let g = fixture();
        let root = g.schema().target();
        let author = g.schema().node_type_by_name("author").unwrap();
        let paths = metapaths_to(g.schema(), root, author, 2, 100);
        assert!(!paths.is_empty());
        assert!(paths.iter().all(|p| p.source() == author));
    }

    #[test]
    fn composed_adjacency_matches_manual_product() {
        let g = fixture();
        let root = g.schema().target();
        let eng = CondenseContext::new(&g);
        let pap = enumerate_metapaths(g.schema(), root, 2, 100)
            .into_iter()
            .find(|p| p.name(g.schema()) == "P-A-P")
            .unwrap();
        let m = eng.adjacency(&pap);
        assert_eq!((m.nrows(), m.ncols()), (3, 3));
        // paper1 shares author0 with paper0 and author1 with paper2:
        // row 1 support = {0,1,2}.
        assert_eq!(m.row_indices(1), &[0, 1, 2]);
        // Row-normalized factors: rows of the product sum to 1.
        for r in 0..3 {
            let s: f32 = m.row(r).1.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn prefix_cache_is_shared() {
        let g = fixture();
        let root = g.schema().target();
        let eng = CondenseContext::new(&g);
        let paths = enumerate_metapaths(g.schema(), root, 2, 100);
        for p in &paths {
            eng.adjacency(p);
        }
        // 2 two-hop compositions; the 2 one-hop prefixes live in the
        // factor cache, not the composed cache.
        assert_eq!(eng.composed_len(), 2);
    }

    #[test]
    fn row_fill_in_cap_bounds_density() {
        // Every paper shares the one author, so the uncapped P-A-P
        // product is dense: `n` entries in each of `n > MAX_ROW_NNZ` rows.
        let n = MAX_ROW_NNZ + 44;
        let mut s = Schema::new();
        let p = s.add_node_type("paper");
        let a = s.add_node_type("author");
        let pa = s.add_edge_type("pa", p, a);
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![n, 1]);
        for pp in 0..n as u32 {
            b.add_edge(pa, pp, 0);
        }
        b.set_features(p, FeatureMatrix::zeros(n, 1));
        b.set_features(a, FeatureMatrix::zeros(1, 1));
        b.set_labels(vec![0; n], 1);
        let g = b.build();

        let pa_norm = g.adjacency(pa).row_normalized();
        let uncapped = pa_norm.spgemm(&g.adjacency(pa).transpose().row_normalized());
        assert_eq!(uncapped.nnz(), n * n, "the fixture is wider than the cap");

        let eng = CondenseContext::new(&g);
        let pap = enumerate_metapaths(g.schema(), p, 2, 100)
            .into_iter()
            .find(|path| path.name(g.schema()) == "P-A-P")
            .unwrap();
        let m = eng.adjacency(&pap);
        assert_eq!(m.nnz(), n * MAX_ROW_NNZ);
        assert!((0..n).all(|r| m.row_nnz(r) == MAX_ROW_NNZ));
    }
}
