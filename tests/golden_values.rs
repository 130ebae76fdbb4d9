//! Golden values computed by hand from the paper's equations on
//! hand-sized graphs, so the selection kernels are pinned to the paper
//! and not only to earlier versions of the code.

use freehgc::core::selection::diversity_bonuses;
use freehgc::sparse::ppr::{bipartite_influence, bipartite_influence_seeded, PprConfig};
use freehgc::sparse::CsrMatrix;
use std::sync::Arc;

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-6 * w.abs().max(1.0),
            "{what}[{i}]: got {g}, want {w}"
        );
    }
}

/// Eq. 6–7 on one 3-path group: three meta-paths from 3 target nodes
/// to the same 4-node source type. Their receptive fields per target:
///
/// | target | P0        | P1    | P2     |
/// |--------|-----------|-------|--------|
/// | v0     | {0,1}     | {1,2} | {0,1}  |
/// | v1     | {}        | {}    | {3}    |
/// | v2     | {0,1,2,3} | {2}   | {0,3}  |
///
/// Pairwise Jaccard (Eq. 5, two empty fields count as J = 1):
/// * v0: J01 = 1/3, J02 = 1, J12 = 1/3;
/// * v1: J01 = 1, J02 = 0, J12 = 0;
/// * v2: J01 = 1/4, J02 = 2/4, J12 = 0/3.
///
/// The bonus is `1 − mean over siblings`, e.g. P0 at v2:
/// `1 − (1/4 + 1/2)/2 = 5/8`.
#[test]
fn diversity_bonus_of_a_three_path_group_matches_eq_6_7() {
    let path = |edges: &[(u32, u32)]| Arc::new(CsrMatrix::from_edges(3, 4, edges));
    let adjs = vec![
        path(&[(0, 0), (0, 1), (2, 0), (2, 1), (2, 2), (2, 3)]),
        path(&[(0, 1), (0, 2), (2, 2)]),
        path(&[(0, 0), (0, 1), (1, 3), (2, 0), (2, 3)]),
    ];
    let bonuses = diversity_bonuses(&[0, 1, 2], &adjs, 3);
    assert_eq!(bonuses.len(), 3);
    assert_close(&bonuses[0], &[1.0 / 3.0, 0.5, 5.0 / 8.0], "P0");
    assert_close(&bonuses[1], &[2.0 / 3.0, 0.5, 7.0 / 8.0], "P1");
    assert_close(&bonuses[2], &[1.0 / 3.0, 1.0, 3.0 / 4.0], "P2");
}

/// Eq. 10–11 with α = 1/2 and ε = 0.2, so the series keeps the terms
/// `k = 0..=3` (`⌈ln 0.2 / ln 0.5⌉ = 3`). The meta-path adjacency links
/// 3 papers to 2 authors: p0–{a0,a1}, p1–a0, p2–a1. Symmetric
/// normalization `D_r^-½ A D_c^-½` (row degrees 2, 1, 1; column degrees
/// 2, 2) gives `Â = [[1/2, 1/2], [1/√2, 0], [0, 1/√2]]`.
///
/// Author mass is `α(1−α)·x1 + α(1−α)³·x3` with `x1 = x0ᵀÂ` and
/// `x3 = (Â x1)ᵀ Â`:
/// * seeded at p1: `x1 = [1/√2, 0]`, `Â x1 = [1/(2√2), 1/2, 0]`,
///   `x3 = [3/(4√2), 1/(4√2)]`, so the influence is
///   `[19/(64√2), 1/(64√2)]`;
/// * uniform seed (1/3 each): `x1 = x3 = s·[1, 1]` with
///   `s = (1/2 + 1/√2)/3`, so both authors get `5/16 · s = 5(1+√2)/96`.
#[test]
fn ppr_influence_with_three_terms_matches_eq_10_11() {
    let cfg = PprConfig {
        alpha: 0.5,
        epsilon: 0.2,
        max_iters: 64,
    };
    assert_eq!(cfg.num_terms(), 3);
    let a = CsrMatrix::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 1)]);
    let widen = |v: Vec<f32>| v.into_iter().map(f64::from).collect::<Vec<_>>();
    let r2 = 2f64.sqrt();

    let seeded = widen(bipartite_influence_seeded(&a, Some(&[1]), &cfg));
    assert_close(
        &seeded,
        &[19.0 / (64.0 * r2), 1.0 / (64.0 * r2)],
        "seeded at p1",
    );

    let uniform = widen(bipartite_influence(&a, &cfg));
    let each = 5.0 * (1.0 + r2) / 96.0;
    assert_close(&uniform, &[each, each], "uniform seed");
}
