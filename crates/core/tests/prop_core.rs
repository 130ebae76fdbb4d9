//! Property-based tests for the FreeHGC condensation pipeline.

use freehgc_core::selection::{diversity_bonuses, jaccard_sorted};
use freehgc_core::{variant_config, FreeHgc};
use freehgc_datasets::{generate, DatasetKind};
use freehgc_hetgraph::{CondenseSpec, Condenser};
use freehgc_sparse::CsrMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Test-only oracle for `diversity_bonuses`: the per-path form it
/// replaced, serial. Path `path_idx`'s bonus `1 − Ĵ_v` is the mean
/// sorted-merge Jaccard of its row support against each sibling's, in
/// group order — so every sibling pair is computed twice.
fn diversity_bonus_per_path(
    path_idx: usize,
    group: &[usize],
    adjacencies: &[Arc<CsrMatrix>],
    num_targets: usize,
) -> Vec<f64> {
    let siblings: Vec<usize> = group.iter().copied().filter(|&j| j != path_idx).collect();
    if siblings.is_empty() {
        return vec![1.0; num_targets];
    }
    let a = &adjacencies[path_idx];
    (0..num_targets)
        .map(|v| {
            let ra = a.row_indices(v);
            let mut sim_sum = 0.0f64;
            for &j in &siblings {
                sim_sum += jaccard_sorted(ra, adjacencies[j].row_indices(v));
            }
            1.0 - sim_sum / siblings.len() as f64
        })
        .collect()
}

/// `paths` random sibling adjacencies over `n` targets and one shared
/// source width. Each row is drawn as empty, as a copy of path 0's row,
/// or as a random support; every seventh row is empty in all of them.
fn sibling_adjacencies(paths: usize, n: usize, width: usize, seed: u64) -> Vec<Arc<CsrMatrix>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); paths];
    for v in (0..n as u32).filter(|v| v % 7 != 3) {
        let base: Vec<u32> = (0..rng.gen_range(0..6usize))
            .map(|_| rng.gen_range(0..width as u32))
            .collect();
        for path in edges.iter_mut() {
            let row: Vec<u32> = match rng.gen_range(0..4u32) {
                0 => Vec::new(),
                1 => base.clone(),
                _ => (0..rng.gen_range(1..8usize))
                    .map(|_| rng.gen_range(0..width as u32))
                    .collect(),
            };
            path.extend(row.into_iter().map(|c| (v, c)));
        }
    }
    edges
        .iter()
        .map(|e| Arc::new(CsrMatrix::from_edges(n, width, e)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any ratio and seed, FreeHGC's output validates, respects every
    /// per-type budget, and keeps the class distribution non-degenerate.
    #[test]
    fn condensation_invariants(ratio in 0.05f64..0.5, seed in 0u64..8) {
        let g = generate(DatasetKind::Acm, 0.08, 0);
        let spec = CondenseSpec::new(ratio).with_max_hops(2).with_seed(seed);
        let cond = FreeHgc::default().condense(&g, &spec);
        cond.validate(&g);
        for t in g.schema().node_type_ids() {
            prop_assert!(cond.graph.num_nodes(t) <= spec.budget_for(g.num_nodes(t)));
        }
        let hist = cond.graph.class_histogram();
        prop_assert!(hist.iter().filter(|&&c| c > 0).count() >= 2,
            "condensed graph collapsed to one class: {hist:?}");
        prop_assert!(cond.graph.total_edges() > 0);
    }

    /// Achieved ratio tracks the requested ratio (within rounding slack
    /// from tiny types and the ≥1-per-class floor).
    #[test]
    fn achieved_ratio_tracks_request(ratio in 0.1f64..0.5) {
        let g = generate(DatasetKind::Dblp, 0.08, 1);
        let spec = CondenseSpec::new(ratio).with_max_hops(2);
        let cond = FreeHgc::default().condense(&g, &spec);
        let achieved = cond.achieved_ratio(&g);
        prop_assert!(achieved <= ratio + 0.1, "achieved {achieved} vs requested {ratio}");
    }

    /// Every ablation variant produces a valid graph at any ratio.
    #[test]
    fn all_variants_valid(variant in 0u8..7, ratio in 0.1f64..0.4) {
        let g = generate(DatasetKind::Acm, 0.08, 2);
        let spec = CondenseSpec::new(ratio).with_max_hops(2);
        let cond = FreeHgc::new(variant_config(variant)).condense(&g, &spec);
        cond.validate(&g);
        prop_assert!(cond.graph.total_edges() > 0, "variant {variant} lost all edges");
    }

    /// Selection is stable across seeds (the criterion itself is
    /// deterministic; only RNG-using components may differ, and FreeHGC's
    /// default configuration uses none for the target type).
    #[test]
    fn target_selection_seed_independent(s1 in 0u64..4, s2 in 4u64..8) {
        let g = generate(DatasetKind::Acm, 0.08, 3);
        let a = FreeHgc::default().condense(&g, &CondenseSpec::new(0.2).with_max_hops(2).with_seed(s1));
        let b = FreeHgc::default().condense(&g, &CondenseSpec::new(0.2).with_max_hops(2).with_seed(s2));
        prop_assert_eq!(a.target_ids(), b.target_ids());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One Jaccard per sibling pair gives every path's bonus bit for bit
    /// what the per-path merge oracle computes, serial and chunked (the
    /// larger groups of targets span several 256-node chunks).
    #[test]
    fn diversity_bonuses_match_the_per_path_oracle_bitwise(
        paths in 1usize..6,
        n in 1usize..1100,
        width in 1usize..40,
        seed in 0u64..1000,
    ) {
        // The group is a permutation of a larger path list, so member
        // order and path indices differ.
        let adjs = sibling_adjacencies(paths + 1, n, width, seed);
        let group: Vec<usize> = (1..=paths).rev().collect();
        let oracle: Vec<Vec<u64>> = group
            .iter()
            .map(|&pi| diversity_bonus_per_path(pi, &group, &adjs, n))
            .map(|b| b.iter().map(|x| x.to_bits()).collect())
            .collect();
        for threads in [1, 4] {
            freehgc_parallel::set_thread_override(Some(threads));
            let got: Vec<Vec<u64>> = diversity_bonuses(&group, &adjs, n)
                .iter()
                .map(|b| b.iter().map(|x| x.to_bits()).collect())
                .collect();
            freehgc_parallel::set_thread_override(None);
            prop_assert_eq!(&got, &oracle, "threads = {}", threads);
        }
    }
}
