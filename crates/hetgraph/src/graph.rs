//! The heterogeneous graph container and its builder.

use crate::features::FeatureMatrix;
use crate::registry::GraphFingerprint;
use crate::schema::{EdgeTypeId, NodeTypeId, Schema};
use crate::split::Split;
use freehgc_sparse::{CooMatrix, CsrMatrix, FxHashSet};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A typed, relation-level description of a graph mutation: edge adds and
/// removes per edge type, plus whole-row feature updates per node type.
///
/// Deltas exist so the cache stack can invalidate *selectively*: a delta
/// names exactly which relations and feature tables it touches
/// ([`GraphDelta::touched_edges`] / [`GraphDelta::touched_features`]),
/// and [`CondenseContext::seed_from`](crate::CondenseContext::seed_from)
/// keeps every cached entry whose inputs a delta provably leaves alone.
/// Node counts and the schema are fixed — a delta rewires and re-weights,
/// it does not grow the graph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphDelta {
    edge_adds: BTreeMap<EdgeTypeId, Vec<(u32, u32, f32)>>,
    edge_removes: BTreeMap<EdgeTypeId, Vec<(u32, u32)>>,
    feature_updates: BTreeMap<NodeTypeId, Vec<(u32, Vec<f32>)>>,
}

impl GraphDelta {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a unit-weight edge `src → dst` of type `e`. Duplicate adds
    /// (or an add on top of a surviving stored edge) accumulate, matching
    /// [`HeteroGraphBuilder::add_edge`] semantics.
    pub fn add_edge(&mut self, e: EdgeTypeId, src: u32, dst: u32) -> &mut Self {
        self.add_weighted_edge(e, src, dst, 1.0)
    }

    /// Queues a weighted edge `src → dst` of type `e`.
    pub fn add_weighted_edge(&mut self, e: EdgeTypeId, src: u32, dst: u32, w: f32) -> &mut Self {
        self.edge_adds.entry(e).or_default().push((src, dst, w));
        self
    }

    /// Queues removal of the stored entry at `(src, dst)` of type `e`,
    /// whatever its accumulated weight. Removing a pair the graph does
    /// not store is a no-op (but still marks `e` as touched). Removes are
    /// applied before adds, so a remove+add pair replaces the weight.
    pub fn remove_edge(&mut self, e: EdgeTypeId, src: u32, dst: u32) -> &mut Self {
        self.edge_removes.entry(e).or_default().push((src, dst));
        self
    }

    /// Queues a whole-row feature overwrite for node `row` of type `t`.
    /// Later updates to the same row win.
    pub fn update_feature_row(&mut self, t: NodeTypeId, row: u32, values: Vec<f32>) -> &mut Self {
        self.feature_updates
            .entry(t)
            .or_default()
            .push((row, values));
        self
    }

    /// True when the delta queues nothing at all.
    pub fn is_empty(&self) -> bool {
        self.edge_adds.is_empty() && self.edge_removes.is_empty() && self.feature_updates.is_empty()
    }

    /// The edge types this delta rewires, sorted and duplicate-free.
    pub fn touched_edges(&self) -> Vec<EdgeTypeId> {
        let mut out: Vec<EdgeTypeId> = self
            .edge_adds
            .keys()
            .chain(self.edge_removes.keys())
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The node types whose features this delta rewrites, sorted.
    pub fn touched_features(&self) -> Vec<NodeTypeId> {
        self.feature_updates.keys().copied().collect()
    }

    /// Queued edge adds, keyed by edge type in sorted order. Ops within
    /// a type keep insertion order — replaying them through
    /// [`GraphDelta::add_weighted_edge`] reconstructs an equivalent
    /// delta, which is what the serving wire codec does.
    pub fn edge_add_ops(&self) -> impl Iterator<Item = (EdgeTypeId, &[(u32, u32, f32)])> {
        self.edge_adds.iter().map(|(e, v)| (*e, v.as_slice()))
    }

    /// Queued edge removes, keyed by edge type in sorted order.
    pub fn edge_remove_ops(&self) -> impl Iterator<Item = (EdgeTypeId, &[(u32, u32)])> {
        self.edge_removes.iter().map(|(e, v)| (*e, v.as_slice()))
    }

    /// Queued whole-row feature overwrites, keyed by node type in sorted
    /// order. Within a type, later rows win on replay — preserved order
    /// keeps that semantics.
    pub fn feature_update_ops(&self) -> impl Iterator<Item = (NodeTypeId, &[(u32, Vec<f32>)])> {
        self.feature_updates.iter().map(|(t, v)| (*t, v.as_slice()))
    }
}

/// A heterogeneous graph dataset `G = {A, X, Y}` (paper §II-A): one CSR
/// adjacency per edge type, one feature matrix per node type, labels over
/// the target type, and a train/val/test split.
#[derive(Clone, Debug)]
pub struct HeteroGraph {
    schema: Schema,
    num_nodes: Vec<usize>,
    adjacency: Vec<CsrMatrix>,
    features: Vec<FeatureMatrix>,
    labels: Vec<u32>,
    num_classes: usize,
    split: Split,
    /// Lazily computed content fingerprint (see `registry`); reset by
    /// the mutating setters so a stale hash can never be served.
    pub(crate) fingerprint_cache: OnceLock<GraphFingerprint>,
}

impl HeteroGraph {
    /// Drops the memoized content fingerprint. Every `&mut self` path
    /// that can change graph *content* must call this before returning —
    /// the registry (and the on-disk snapshot loader) key warm precompute
    /// by the fingerprint, so a stale memo would serve another graph's
    /// caches as this one's.
    fn invalidate_fingerprint(&mut self) {
        self.fingerprint_cache = OnceLock::new();
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes of type `t`.
    pub fn num_nodes(&self, t: NodeTypeId) -> usize {
        self.num_nodes[t.0 as usize]
    }

    /// Total node count across all types.
    pub fn total_nodes(&self) -> usize {
        self.num_nodes.iter().sum()
    }

    /// Total stored (directed) edge count across all edge types.
    pub fn total_edges(&self) -> usize {
        self.adjacency.iter().map(|a| a.nnz()).sum()
    }

    /// The `|src| × |dst|` adjacency of edge type `e`.
    pub fn adjacency(&self, e: EdgeTypeId) -> &CsrMatrix {
        &self.adjacency[e.0 as usize]
    }

    /// Adjacency between two node types oriented `from → to`, transposing a
    /// stored reverse edge type when needed. Returns the first schema match.
    pub fn adjacency_between(&self, from: NodeTypeId, to: NodeTypeId) -> Option<CsrMatrix> {
        let (e, fwd) = self.schema.edge_between(from, to)?;
        let a = &self.adjacency[e.0 as usize];
        Some(if fwd { a.clone() } else { a.transpose() })
    }

    /// Features of node type `t`.
    pub fn features(&self, t: NodeTypeId) -> &FeatureMatrix {
        &self.features[t.0 as usize]
    }

    /// Replaces the features of node type `t` (same shape required).
    /// Used by gradient-matching condensers that refine synthetic features
    /// after the graph structure is fixed.
    pub fn set_features(&mut self, t: NodeTypeId, f: FeatureMatrix) {
        let old = &self.features[t.0 as usize];
        assert_eq!(f.num_rows(), old.num_rows(), "feature row count must match");
        assert_eq!(f.dim(), old.dim(), "feature dimension must match");
        self.features[t.0 as usize] = f;
        self.invalidate_fingerprint();
    }

    /// Class labels of the target type, one per target node.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Replaces the target-type labels (one per target node, all within
    /// `num_classes`). Invalidates the memoized fingerprint.
    pub fn set_labels(&mut self, labels: Vec<u32>, num_classes: usize) {
        assert_eq!(
            labels.len(),
            self.num_nodes(self.schema.target()),
            "one label per target node"
        );
        assert!(
            labels.iter().all(|&y| (y as usize) < num_classes),
            "label out of range for num_classes"
        );
        self.labels = labels;
        self.num_classes = num_classes;
        self.invalidate_fingerprint();
    }

    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    pub fn split(&self) -> &Split {
        &self.split
    }

    pub fn set_split(&mut self, split: Split) {
        assert!(
            split.len() <= self.num_nodes(self.schema.target()),
            "split references more nodes than the target type has"
        );
        self.split = split;
        self.invalidate_fingerprint();
    }

    /// Per-class node counts over the whole target type.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &y in &self.labels {
            h[y as usize] += 1;
        }
        h
    }

    /// Heap bytes of adjacency + features + labels — the "Storage" rows of
    /// Table VII.
    pub fn storage_bytes(&self) -> usize {
        self.adjacency
            .iter()
            .map(|a| a.storage_bytes())
            .sum::<usize>()
            + self
                .features
                .iter()
                .map(|f| f.storage_bytes())
                .sum::<usize>()
            + self.labels.len() * std::mem::size_of::<u32>()
    }

    /// Induces the subgraph on the given per-type node-id lists (original
    /// ids, duplicate-free). Adjacency is restricted and re-indexed,
    /// features gathered, labels sliced for the target type; the split is
    /// re-derived as "all kept target nodes are training nodes", which is
    /// how condensed graphs are consumed (the full-graph split is used for
    /// evaluation).
    pub fn induced(&self, keep: &[Vec<u32>]) -> HeteroGraph {
        assert_eq!(
            keep.len(),
            self.schema.num_node_types(),
            "per-type keep lists"
        );
        let num_nodes: Vec<usize> = keep.iter().map(|k| k.len()).collect();
        let adjacency: Vec<CsrMatrix> = self
            .schema
            .edge_type_ids()
            .map(|e| {
                let (src, dst) = self.schema.edge_endpoints(e);
                self.adjacency(e)
                    .submatrix(&keep[src.0 as usize], &keep[dst.0 as usize])
            })
            .collect();
        let features: Vec<FeatureMatrix> = self
            .schema
            .node_type_ids()
            .map(|t| self.features(t).gather(&keep[t.0 as usize]))
            .collect();
        let tgt = self.schema.target();
        let labels: Vec<u32> = keep[tgt.0 as usize]
            .iter()
            .map(|&i| self.labels[i as usize])
            .collect();
        let split = Split {
            train: (0..labels.len() as u32).collect(),
            val: Vec::new(),
            test: Vec::new(),
        };
        HeteroGraph {
            schema: self.schema.clone(),
            num_nodes,
            adjacency,
            features,
            labels,
            num_classes: self.num_classes,
            split,
            fingerprint_cache: OnceLock::new(),
        }
    }

    /// Applies a typed [`GraphDelta`] in place.
    ///
    /// Per touched edge type the relation is rebuilt from its surviving
    /// stored entries (minus the queued removes) plus the queued adds,
    /// through the same COO → CSR path the builder uses — so weights
    /// accumulate, entries stay `(row, col)`-sorted, and the result is
    /// bitwise-identical to building the mutated graph from scratch.
    /// Feature updates overwrite whole rows. An empty delta returns
    /// without touching anything, preserving the memoized fingerprint; a
    /// non-empty delta invalidates it exactly once.
    ///
    /// # Panics
    /// Panics when an edge endpoint or feature row is out of range, a
    /// feature row has the wrong dimension, or an edge weight or feature
    /// value is NaN or infinite. Validation is all-or-nothing:
    /// every add and feature update is checked *before* any mutation, so
    /// a rejected delta leaves the graph bitwise unchanged — it never
    /// panics out of a half-applied state.
    pub fn apply_delta(&mut self, delta: &GraphDelta) {
        if delta.is_empty() {
            return;
        }
        static EMPTY_ADDS: Vec<(u32, u32, f32)> = Vec::new();
        static EMPTY_REMOVES: Vec<(u32, u32)> = Vec::new();
        for e in delta.touched_edges() {
            let adds = delta.edge_adds.get(&e).unwrap_or(&EMPTY_ADDS);
            let old = &self.adjacency[e.0 as usize];
            let (nrows, ncols) = (old.nrows(), old.ncols());
            for &(src, dst, w) in adds {
                assert!(
                    (src as usize) < nrows && (dst as usize) < ncols,
                    "delta edge ({src}, {dst}) out of range for {nrows}x{ncols} relation {}",
                    self.schema.edge_type_name(e)
                );
                assert!(
                    w.is_finite(),
                    "delta edge ({src}, {dst}) of relation {} has non-finite weight {w}",
                    self.schema.edge_type_name(e)
                );
            }
        }
        for (&t, rows) in &delta.feature_updates {
            let f = &self.features[t.0 as usize];
            for (row, values) in rows {
                assert!(
                    (*row as usize) < f.num_rows(),
                    "delta feature row {row} out of range for node type {}",
                    self.schema.node_type_name(t)
                );
                assert_eq!(
                    values.len(),
                    f.dim(),
                    "delta feature row must match the feature dimension"
                );
                assert!(
                    values.iter().all(|v| v.is_finite()),
                    "delta feature row {row} of node type {} has a non-finite value",
                    self.schema.node_type_name(t)
                );
            }
        }
        for e in delta.touched_edges() {
            let adds = delta.edge_adds.get(&e).unwrap_or(&EMPTY_ADDS);
            let removes = delta.edge_removes.get(&e).unwrap_or(&EMPTY_REMOVES);
            let old = &self.adjacency[e.0 as usize];
            let (nrows, ncols) = (old.nrows(), old.ncols());
            let gone: FxHashSet<(u32, u32)> = removes.iter().copied().collect();
            let mut coo = CooMatrix::with_capacity(nrows, ncols, old.nnz() + adds.len());
            for r in 0..nrows {
                let (cols, vals) = old.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    if !gone.contains(&(r as u32, c)) {
                        coo.push(r as u32, c, v);
                    }
                }
            }
            for &(src, dst, w) in adds {
                coo.push(src, dst, w);
            }
            self.adjacency[e.0 as usize] = coo.to_csr();
        }
        for (&t, rows) in &delta.feature_updates {
            let f = &mut self.features[t.0 as usize];
            for (row, values) in rows {
                f.row_mut(*row as usize).copy_from_slice(values);
            }
        }
        self.invalidate_fingerprint();
    }
}

/// Incremental builder for [`HeteroGraph`]; validates shape invariants on
/// [`HeteroGraphBuilder::build`].
pub struct HeteroGraphBuilder {
    schema: Schema,
    num_nodes: Vec<usize>,
    edges: Vec<CooMatrix>,
    features: Vec<Option<FeatureMatrix>>,
    labels: Vec<u32>,
    num_classes: usize,
    split: Split,
}

impl HeteroGraphBuilder {
    /// Starts a builder; `num_nodes` is indexed by node-type id.
    pub fn new(schema: Schema, num_nodes: Vec<usize>) -> Self {
        assert_eq!(
            num_nodes.len(),
            schema.num_node_types(),
            "one node count per node type"
        );
        let edges = schema
            .edge_type_ids()
            .map(|e| {
                let (src, dst) = schema.edge_endpoints(e);
                CooMatrix::new(num_nodes[src.0 as usize], num_nodes[dst.0 as usize])
            })
            .collect();
        let features = vec![None; schema.num_node_types()];
        Self {
            schema,
            num_nodes,
            edges,
            features,
            labels: Vec::new(),
            num_classes: 0,
            split: Split::default(),
        }
    }

    /// Adds a directed edge of type `e` from `src` to `dst` (type-local ids).
    pub fn add_edge(&mut self, e: EdgeTypeId, src: u32, dst: u32) {
        self.edges[e.0 as usize].push(src, dst, 1.0);
    }

    /// Adds a weighted edge.
    pub fn add_weighted_edge(&mut self, e: EdgeTypeId, src: u32, dst: u32, w: f32) {
        self.edges[e.0 as usize].push(src, dst, w);
    }

    /// Per-edge-type (out-degree per source node, in-degree per destination
    /// node) of the edges pushed so far.
    pub fn edge_counts(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        self.edges.iter().map(|c| c.degree_counts()).collect()
    }

    /// Sets the feature matrix of node type `t`.
    pub fn set_features(&mut self, t: NodeTypeId, f: FeatureMatrix) {
        assert_eq!(
            f.num_rows(),
            self.num_nodes[t.0 as usize],
            "feature rows must match node count of type {}",
            self.schema.node_type_name(t)
        );
        self.features[t.0 as usize] = Some(f);
    }

    /// Sets target-type labels.
    pub fn set_labels(&mut self, labels: Vec<u32>, num_classes: usize) {
        let tgt = self.schema.target();
        assert_eq!(
            labels.len(),
            self.num_nodes[tgt.0 as usize],
            "one label per target node"
        );
        assert!(labels.iter().all(|&y| (y as usize) < num_classes));
        self.labels = labels;
        self.num_classes = num_classes;
    }

    pub fn set_split(&mut self, split: Split) {
        self.split = split;
    }

    /// Finalizes the graph.
    ///
    /// # Panics
    /// Panics if labels were not set, or any node type lacks features.
    pub fn build(self) -> HeteroGraph {
        assert!(self.num_classes > 0, "labels must be set before build");
        let features: Vec<FeatureMatrix> = self
            .features
            .into_iter()
            .enumerate()
            .map(|(t, f)| {
                f.unwrap_or_else(|| {
                    panic!(
                        "missing features for node type {}",
                        self.schema.node_type_name(NodeTypeId(t as u16))
                    )
                })
            })
            .collect();
        let adjacency: Vec<CsrMatrix> = self.edges.into_iter().map(CooMatrix::to_csr).collect();
        HeteroGraph {
            schema: self.schema,
            num_nodes: self.num_nodes,
            adjacency,
            features,
            labels: self.labels,
            num_classes: self.num_classes,
            split: self.split,
            fingerprint_cache: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Role;

    /// Tiny ACM-like graph: 4 papers (target, 2 classes), 3 authors,
    /// 2 subjects.
    pub(crate) fn tiny_acm() -> HeteroGraph {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let subject = s.add_node_type("subject");
        let pa = s.add_edge_type("pa", paper, author);
        let ps = s.add_edge_type("ps", paper, subject);
        s.set_target(paper);
        s.set_role(author, Role::Father);
        s.set_role(subject, Role::Leaf);

        let mut b = HeteroGraphBuilder::new(s, vec![4, 3, 2]);
        for (p, a) in [(0, 0), (0, 1), (1, 1), (2, 2), (3, 0), (3, 2)] {
            b.add_edge(pa, p, a);
        }
        for (p, sj) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            b.add_edge(ps, p, sj);
        }
        b.set_features(paper, FeatureMatrix::from_rows(2, vec![1.0; 8]));
        b.set_features(author, FeatureMatrix::from_rows(3, vec![2.0; 9]));
        b.set_features(subject, FeatureMatrix::from_rows(1, vec![3.0; 2]));
        b.set_labels(vec![0, 0, 1, 1], 2);
        b.set_split(Split {
            train: vec![0, 2],
            val: vec![1],
            test: vec![3],
        });
        b.build()
    }

    #[test]
    fn builder_roundtrip() {
        let g = tiny_acm();
        let s = g.schema();
        let paper = s.node_type_by_name("paper").unwrap();
        let author = s.node_type_by_name("author").unwrap();
        assert_eq!(g.num_nodes(paper), 4);
        assert_eq!(g.total_nodes(), 9);
        assert_eq!(g.total_edges(), 10);
        assert_eq!(g.features(author).dim(), 3);
        assert_eq!(g.labels(), &[0, 0, 1, 1]);
        assert_eq!(g.num_classes(), 2);
        assert_eq!(g.class_histogram(), vec![2, 2]);
    }

    #[test]
    fn adjacency_between_orients_correctly() {
        let g = tiny_acm();
        let s = g.schema();
        let paper = s.node_type_by_name("paper").unwrap();
        let author = s.node_type_by_name("author").unwrap();
        let p2a = g.adjacency_between(paper, author).unwrap();
        assert_eq!((p2a.nrows(), p2a.ncols()), (4, 3));
        let a2p = g.adjacency_between(author, paper).unwrap();
        assert_eq!((a2p.nrows(), a2p.ncols()), (3, 4));
        assert_eq!(a2p.get(1, 0), 1.0); // author 1 wrote paper 0
    }

    #[test]
    fn induced_subgraph_restricts_everything() {
        let g = tiny_acm();
        // Keep papers {0, 3}, authors {0, 2}, subjects {1}.
        let sub = g.induced(&[vec![0, 3], vec![0, 2], vec![1]]);
        let s = sub.schema();
        let paper = s.node_type_by_name("paper").unwrap();
        assert_eq!(sub.num_nodes(paper), 2);
        assert_eq!(sub.labels(), &[0, 1]);
        let pa = s.edge_type_by_name("pa").unwrap();
        // Edges kept: (0,0) and (3,0),(3,2) -> new ids (0,0),(1,0),(1,1)
        assert_eq!(sub.adjacency(pa).nnz(), 3);
        let ps = s.edge_type_by_name("ps").unwrap();
        // Subject 1 kept: edges (2,1),(3,1) -> only paper 3 kept -> 1 edge
        assert_eq!(sub.adjacency(ps).nnz(), 1);
        assert_eq!(sub.split().train.len(), 2);
        assert!(sub.split().test.is_empty());
    }

    /// Every `&mut` path that can change graph content must invalidate
    /// the memoized fingerprint — the registry and the snapshot loader
    /// key warm precompute by it, so one stale memo would serve another
    /// graph's caches (or on-disk snapshot) as this one's.
    #[test]
    fn every_content_mutator_invalidates_the_fingerprint() {
        let mut g = tiny_acm();
        let s = g.schema().clone();
        let paper = s.node_type_by_name("paper").unwrap();

        let mut last = g.fingerprint();
        let mut step = |g: &HeteroGraph, what: &str| {
            let fp = g.fingerprint();
            assert_ne!(fp, last, "{what} must change the fingerprint");
            last = fp;
        };

        g.set_features(paper, FeatureMatrix::from_rows(2, vec![9.0; 8]));
        step(&g, "set_features");

        g.set_labels(vec![1, 1, 0, 0], 2);
        step(&g, "set_labels");

        g.set_split(Split {
            train: vec![0, 1],
            val: vec![2],
            test: vec![3],
        });
        step(&g, "set_split");

        // And the memo itself still works: a second read with no
        // intervening mutation returns the same value.
        assert_eq!(g.fingerprint(), last);
    }

    #[test]
    fn storage_decreases_under_induction() {
        let g = tiny_acm();
        let sub = g.induced(&[vec![0], vec![0], vec![0]]);
        assert!(sub.storage_bytes() < g.storage_bytes());
    }

    #[test]
    #[should_panic(expected = "one label per target node")]
    fn builder_rejects_wrong_label_count() {
        let mut s = Schema::new();
        let p = s.add_node_type("p");
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![3]);
        b.set_labels(vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "missing features")]
    fn builder_rejects_missing_features() {
        let mut s = Schema::new();
        let p = s.add_node_type("p");
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![1]);
        b.set_labels(vec![0], 1);
        b.build();
    }

    #[test]
    fn weighted_edges_accumulate() {
        let mut s = Schema::new();
        let p = s.add_node_type("p");
        let e = s.add_edge_type("pp", p, p);
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![2]);
        b.add_weighted_edge(e, 0, 1, 0.5);
        b.add_weighted_edge(e, 0, 1, 0.25);
        b.set_features(p, FeatureMatrix::zeros(2, 1));
        b.set_labels(vec![0, 0], 1);
        let g = b.build();
        assert_eq!(g.adjacency(e).get(0, 1), 0.75);
    }

    /// An applied delta must equal rebuilding the mutated graph from
    /// scratch — the property the whole incremental-invalidation stack
    /// leans on.
    #[test]
    fn apply_delta_matches_a_from_scratch_build() {
        let mut g = tiny_acm();
        let s = g.schema().clone();
        let paper = s.node_type_by_name("paper").unwrap();
        let pa = s.edge_type_by_name("pa").unwrap();

        let mut d = GraphDelta::new();
        d.remove_edge(pa, 0, 1)
            .add_edge(pa, 1, 2)
            .add_weighted_edge(pa, 2, 2, 0.5) // accumulates onto stored (2,2)
            .update_feature_row(paper, 1, vec![7.0, 8.0]);
        assert_eq!(d.touched_edges(), vec![pa]);
        assert_eq!(d.touched_features(), vec![paper]);
        g.apply_delta(&d);

        // From-scratch reference with the same final edge set.
        let mut b = HeteroGraphBuilder::new(s.clone(), vec![4, 3, 2]);
        for (p, a) in [(0, 0), (1, 1), (2, 2), (3, 0), (3, 2), (1, 2)] {
            b.add_edge(pa, p, a);
        }
        b.add_weighted_edge(pa, 2, 2, 0.5);
        let ps = s.edge_type_by_name("ps").unwrap();
        for (p, sj) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            b.add_edge(ps, p, sj);
        }
        let mut pf = vec![1.0; 8];
        pf[2] = 7.0;
        pf[3] = 8.0;
        b.set_features(paper, FeatureMatrix::from_rows(2, pf));
        let author = s.node_type_by_name("author").unwrap();
        let subject = s.node_type_by_name("subject").unwrap();
        b.set_features(author, FeatureMatrix::from_rows(3, vec![2.0; 9]));
        b.set_features(subject, FeatureMatrix::from_rows(1, vec![3.0; 2]));
        b.set_labels(vec![0, 0, 1, 1], 2);
        b.set_split(Split {
            train: vec![0, 2],
            val: vec![1],
            test: vec![3],
        });
        let want = b.build();

        for e in s.edge_type_ids() {
            let (a, b) = (g.adjacency(e), want.adjacency(e));
            assert_eq!(a.indptr(), b.indptr(), "{}", s.edge_type_name(e));
            assert_eq!(a.indices(), b.indices());
            assert_eq!(a.values(), b.values());
        }
        for t in s.node_type_ids() {
            assert_eq!(g.features(t).data(), want.features(t).data());
        }
        assert_eq!(g.fingerprint(), want.fingerprint());
    }

    #[test]
    fn empty_delta_is_a_noop_and_keeps_the_fingerprint_memo() {
        let mut g = tiny_acm();
        let fp = g.fingerprint();
        let d = GraphDelta::new();
        assert!(d.is_empty());
        assert!(d.touched_edges().is_empty());
        assert!(d.touched_features().is_empty());
        g.apply_delta(&d);
        // The memo survives: OnceLock still holds the same value.
        assert_eq!(g.fingerprint_cache.get(), Some(&fp));
    }

    #[test]
    fn nonempty_delta_invalidates_the_fingerprint() {
        let mut g = tiny_acm();
        let fp = g.fingerprint();
        let pa = g.schema().edge_type_by_name("pa").unwrap();
        let mut d = GraphDelta::new();
        d.add_edge(pa, 1, 0);
        g.apply_delta(&d);
        assert_ne!(g.fingerprint(), fp);
    }

    #[test]
    fn removing_a_missing_edge_is_lenient() {
        let mut g = tiny_acm();
        let pa = g.schema().edge_type_by_name("pa").unwrap();
        let before = g.adjacency(pa).clone();
        let mut d = GraphDelta::new();
        d.remove_edge(pa, 3, 1); // not stored
        g.apply_delta(&d);
        assert_eq!(g.adjacency(pa).indptr(), before.indptr());
        assert_eq!(g.adjacency(pa).values(), before.values());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delta_rejects_out_of_range_edges() {
        let mut g = tiny_acm();
        let pa = g.schema().edge_type_by_name("pa").unwrap();
        let mut d = GraphDelta::new();
        d.add_edge(pa, 99, 0);
        g.apply_delta(&d);
    }

    #[test]
    #[should_panic(expected = "feature dimension")]
    fn delta_rejects_wrong_feature_dimension() {
        let mut g = tiny_acm();
        let paper = g.schema().node_type_by_name("paper").unwrap();
        let mut d = GraphDelta::new();
        d.update_feature_row(paper, 0, vec![1.0]);
        g.apply_delta(&d);
    }

    #[test]
    fn rejected_delta_leaves_the_graph_unchanged() {
        // All-or-nothing contract: a delta that mixes valid mutations
        // with one invalid entry must not apply *any* of them — the
        // valid edge add and feature update here would land before the
        // invalid one was reached if validation ran inline.
        let mut g = tiny_acm();
        let pa = g.schema().edge_type_by_name("pa").unwrap();
        let paper = g.schema().node_type_by_name("paper").unwrap();
        let adj_before = g.adjacency(pa).clone();
        let feat_before = g.features(paper).clone();

        let mut d = GraphDelta::new();
        d.add_edge(pa, 1, 0); // valid
        let dim = feat_before.dim();
        d.update_feature_row(paper, 0, vec![9.0; dim]); // valid
        d.add_edge(pa, 99, 0); // out of range — must reject the lot
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.apply_delta(&d)));
        assert!(err.is_err(), "invalid delta must panic");
        assert_eq!(g.adjacency(pa).indptr(), adj_before.indptr());
        assert_eq!(g.adjacency(pa).indices(), adj_before.indices());
        assert_eq!(g.adjacency(pa).values(), adj_before.values());
        assert_eq!(g.features(paper).data(), feat_before.data());

        // Same with the invalid entry on the feature side.
        let mut d = GraphDelta::new();
        d.add_edge(pa, 1, 0); // valid
        d.update_feature_row(paper, 0, vec![1.0]); // wrong dimension
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.apply_delta(&d)));
        assert!(err.is_err(), "invalid delta must panic");
        assert_eq!(g.adjacency(pa).values(), adj_before.values());
        assert_eq!(g.features(paper).data(), feat_before.data());
    }
}
