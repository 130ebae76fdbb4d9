//! Node-importance measures that can replace the PPR-based NIM.
//!
//! Section IV-C of the paper notes that "NIM can be replaced by other node
//! importance evaluation algorithms like degree, betweenness and closeness
//! centrality, hubs and authorities". These drop-in alternatives share the
//! signature "bipartite meta-path adjacency → per-source score" and feed the
//! `nim_alternatives` ablation bench.

use crate::csr::CsrMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Weighted in-degree of each source node: `Σ_targets a[t, s]`.
pub fn degree_influence(a: &CsrMatrix) -> Vec<f32> {
    let mut score = vec![0f32; a.ncols()];
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            score[c as usize] += v;
        }
    }
    score
}

/// HITS on the bipartite target↔source graph: targets act as hubs, sources
/// as authorities; returns the authority vector (Kleinberg, 1999).
pub fn hits_authority(a: &CsrMatrix, iters: usize) -> Vec<f32> {
    let (n, m) = (a.nrows(), a.ncols());
    if n == 0 || m == 0 {
        return vec![0.0; m];
    }
    // Both iterates live in fixed buffers refilled by the `_into`
    // kernels — the power iteration allocates nothing per step.
    let mut hub = vec![1f32; n];
    let mut auth = vec![1f32; m];
    for _ in 0..iters.max(1) {
        // auth = Aᵀ hub
        a.spmv_t_into(&hub, &mut auth);
        normalize_l2(&mut auth);
        // hub = A auth
        a.spmv_into(&auth, &mut hub);
        normalize_l2(&mut hub);
    }
    auth
}

/// Approximate closeness centrality of source nodes on the bipartite graph,
/// estimated with BFS from `samples` random target nodes. Higher is more
/// central (reciprocal of average hop distance; unreachable pairs ignored).
pub fn closeness_influence(a: &CsrMatrix, samples: usize, seed: u64) -> Vec<f32> {
    let (n, m) = (a.nrows(), a.ncols());
    if n == 0 || m == 0 {
        return vec![0.0; m];
    }
    let at = a.transpose();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    order.truncate(samples.max(1).min(n));

    let mut dist_sum = vec![0f64; m];
    let mut reach_cnt = vec![0u32; m];
    // BFS over the bipartite graph: levels alternate target/source sides.
    let mut seen_t = vec![false; n];
    let mut seen_s = vec![false; m];
    for &start in &order {
        seen_t.iter_mut().for_each(|v| *v = false);
        seen_s.iter_mut().for_each(|v| *v = false);
        seen_t[start] = true;
        let mut frontier_t = vec![start as u32];
        let mut frontier_s: Vec<u32> = Vec::new();
        let mut depth = 0usize;
        while !frontier_t.is_empty() || !frontier_s.is_empty() {
            depth += 1;
            if !frontier_t.is_empty() {
                // expand targets -> sources
                frontier_s.clear();
                for &t in &frontier_t {
                    for &s in a.row_indices(t as usize) {
                        if !seen_s[s as usize] {
                            seen_s[s as usize] = true;
                            dist_sum[s as usize] += depth as f64;
                            reach_cnt[s as usize] += 1;
                            frontier_s.push(s);
                        }
                    }
                }
                frontier_t.clear();
            } else {
                // expand sources -> targets
                for &s in &frontier_s {
                    for &t in at.row_indices(s as usize) {
                        if !seen_t[t as usize] {
                            seen_t[t as usize] = true;
                            frontier_t.push(t);
                        }
                    }
                }
                frontier_s.clear();
            }
            if depth > 2 * (n + m) {
                break; // safety net; bipartite BFS must terminate before this
            }
        }
    }
    (0..m)
        .map(|s| {
            if reach_cnt[s] == 0 {
                0.0
            } else {
                (reach_cnt[s] as f64 / dist_sum[s]) as f32
            }
        })
        .collect()
}

fn normalize_l2(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> CsrMatrix {
        // 3 targets all pointing at source 0; source 1 gets one edge.
        CsrMatrix::from_edges(3, 2, &[(0, 0), (1, 0), (2, 0), (2, 1)])
    }

    #[test]
    fn degree_influence_counts_weighted_edges() {
        let d = degree_influence(&star());
        assert_eq!(d, vec![3.0, 1.0]);
    }

    #[test]
    fn hits_authority_ranks_hub_source_first() {
        let auth = hits_authority(&star(), 20);
        assert!(auth[0] > auth[1]);
        let norm: f32 = auth.iter().map(|x| x * x).sum::<f32>();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn hits_on_empty_graph_is_zero() {
        let a = CsrMatrix::zeros(0, 3);
        assert_eq!(hits_authority(&a, 5), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn closeness_prefers_central_source() {
        let c = closeness_influence(&star(), 3, 7);
        assert!(c[0] > c[1], "central source should score higher: {c:?}");
    }

    #[test]
    fn closeness_isolated_source_scores_zero() {
        let a = CsrMatrix::from_edges(2, 3, &[(0, 0), (1, 1)]);
        let c = closeness_influence(&a, 2, 1);
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn centralities_agree_on_ranking_for_star() {
        let a = star();
        let d = degree_influence(&a);
        let h = hits_authority(&a, 30);
        let p = crate::ppr::bipartite_influence(&a, None, &crate::ppr::PprConfig::default());
        for scores in [&d, &h, &p] {
            assert!(scores[0] > scores[1], "ranking disagreement: {scores:?}");
        }
    }
}
