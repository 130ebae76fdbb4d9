//! Property-based tests for the heterogeneous graph engine.

use freehgc_hetgraph::{
    enumerate_metapaths, CondenseContext, FeatureMatrix, HeteroGraphBuilder, Schema, Split,
};
use proptest::prelude::*;

/// Builds a random bipartite paper—author graph plus a paper self-relation.
fn arb_graph() -> impl Strategy<Value = freehgc_hetgraph::HeteroGraph> {
    (
        prop::collection::vec(((0u32..12), (0u32..8)), 1..60),
        prop::collection::vec(((0u32..12), (0u32..12)), 0..30),
        prop::collection::vec(0u32..3, 12),
    )
        .prop_map(|(pa_edges, pp_edges, labels)| {
            let mut s = Schema::new();
            let p = s.add_node_type("paper");
            let a = s.add_node_type("author");
            let pa = s.add_edge_type("pa", p, a);
            let pp = s.add_edge_type("pp", p, p);
            s.set_target(p);
            s.infer_roles();
            let mut b = HeteroGraphBuilder::new(s, vec![12, 8]);
            for (x, y) in pa_edges {
                b.add_edge(pa, x, y);
            }
            for (x, y) in pp_edges {
                if x != y {
                    b.add_edge(pp, x, y);
                }
            }
            b.set_features(p, FeatureMatrix::zeros(12, 4));
            b.set_features(a, FeatureMatrix::zeros(8, 3));
            b.set_labels(labels, 3);
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Induction on all nodes is the identity (up to equal structure).
    #[test]
    fn induced_on_everything_is_identity(g in arb_graph()) {
        let keep: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..g.num_nodes(t) as u32).collect())
            .collect();
        let sub = g.induced(&keep);
        prop_assert_eq!(sub.total_nodes(), g.total_nodes());
        prop_assert_eq!(sub.total_edges(), g.total_edges());
        prop_assert_eq!(sub.labels(), g.labels());
    }

    /// Induction never increases node or edge counts, and is monotone in
    /// the kept sets.
    #[test]
    fn induced_is_monotone(g in arb_graph(), cut in 1usize..12) {
        let small: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..(g.num_nodes(t).min(cut)) as u32).collect())
            .collect();
        let large: Vec<Vec<u32>> = g
            .schema()
            .node_type_ids()
            .map(|t| (0..g.num_nodes(t) as u32).collect())
            .collect();
        let gs = g.induced(&small);
        let gl = g.induced(&large);
        prop_assert!(gs.total_edges() <= gl.total_edges());
        prop_assert!(gs.total_nodes() <= gl.total_nodes());
        prop_assert!(gs.storage_bytes() <= gl.storage_bytes());
    }

    /// Composed meta-path adjacencies always have target rows and
    /// source-type columns, and rows of row-normalized products never sum
    /// above 1 (+ float tolerance).
    #[test]
    fn metapath_composition_shapes(g in arb_graph()) {
        let root = g.schema().target();
        let paths = enumerate_metapaths(g.schema(), root, 3, 32);
        let engine = CondenseContext::new(&g);
        for p in &paths {
            let m = engine.adjacency(p);
            prop_assert_eq!(m.nrows(), g.num_nodes(root));
            prop_assert_eq!(m.ncols(), g.num_nodes(p.source()));
            for r in 0..m.nrows() {
                let s: f32 = m.row(r).1.iter().sum();
                prop_assert!(s <= 1.0 + 1e-3, "row {r} sums to {s}");
            }
        }
    }

    /// Meta-path enumeration is prefix-closed: every (k−1)-hop prefix of
    /// an enumerated k-hop path is itself enumerated (when the cap is not
    /// hit).
    #[test]
    fn enumeration_is_prefix_closed(g in arb_graph()) {
        let root = g.schema().target();
        let paths = enumerate_metapaths(g.schema(), root, 3, 10_000);
        for p in &paths {
            if p.hops() < 2 {
                continue;
            }
            let prefix_steps = &p.steps[..p.steps.len() - 1];
            prop_assert!(
                paths.iter().any(|q| q.steps == prefix_steps),
                "missing prefix of {:?}",
                p.name(g.schema())
            );
        }
    }

    /// Stratified splits always partition, and per-class train coverage
    /// holds whenever the class exists.
    #[test]
    fn split_partitions(labels in prop::collection::vec(0u32..4, 20..80), seed in 0u64..20) {
        let split = Split::hgb(&labels, 4, seed);
        prop_assert_eq!(split.len(), labels.len());
        let mut seen = vec![false; labels.len()];
        for &v in split.train.iter().chain(&split.val).chain(&split.test) {
            prop_assert!(!seen[v as usize], "node {v} in two splits");
            seen[v as usize] = true;
        }
        for c in 0..4u32 {
            if labels.contains(&c) {
                prop_assert!(
                    split.train.iter().any(|&v| labels[v as usize] == c),
                    "class {c} missing from train"
                );
            }
        }
    }
}
