//! Condensing the target-type nodes (paper §IV-B, Algorithm 1).
//!
//! The unified data-selection criterion (Eq. 8) combines:
//!
//! * **Receptive-field maximization** `R(S)` (Eq. 2–3): greedy max-coverage
//!   of the source-type nodes reachable along a meta-path, implemented with
//!   CELF lazy evaluation — valid because coverage is submodular and the
//!   diversity term below is modular, so marginal gains only shrink.
//! * **Meta-path similarity minimization** `1 − J(S)` (Eq. 4–7): per node,
//!   the mean Jaccard similarity between the receptive fields it captures
//!   along different meta-paths sharing the same source type; low
//!   similarity means the node sees *different regions* of the graph per
//!   path (Fig. 4). [`diversity_bonuses`] scores a whole same-source
//!   group at once, computing each sibling pair's Jaccard once per node.
//!
//! Each (meta-path, class) greedy run emits marginal-gain scores; scores
//! are aggregated across meta-paths (Eq. 9) and the per-class top-k nodes
//! are kept, with class budgets proportional to the original distribution.
//! That per-class cut (Line 10), like Variant #1's ranking by bonus, is a
//! selection over the class pool: it partitions around the k-th score and
//! never orders the nodes it drops.

use crate::father::top_k_among;
use freehgc_hetgraph::{proportional_allocation, CondenseContext};
use freehgc_parallel::workspace as ws;
use freehgc_sparse::{Bitset, CsrMatrix};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, OnceLock};

/// Selection configuration.
#[derive(Clone, Debug)]
pub struct SelectionConfig {
    /// Meta-path hop bound `K`.
    pub max_hops: usize,
    /// Cap on the number of enumerated meta-paths.
    pub max_paths: usize,
    /// Use the receptive-field maximization term (Variant#1 disables it).
    pub use_rf: bool,
    /// Use the meta-path similarity term (Variant#2 disables it).
    pub use_jaccard: bool,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self {
            max_hops: 2,
            max_paths: 24,
            use_rf: true,
            use_jaccard: true,
        }
    }
}

/// f64 wrapper ordered for the CELF max-heap.
#[derive(PartialEq)]
struct HeapEntry {
    gain: f64,
    node: u32,
    round: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// CELF lazy-greedy max coverage with a per-node modular bonus.
///
/// Selects up to `budget` nodes from `pool`, maximizing
/// `|cover(S)| / norm + Σ_{v∈S} bonus(v)`; returns `(selected, marginal
/// gains at selection time)`.
pub fn celf_greedy(
    adj: &CsrMatrix,
    pool: &[u32],
    budget: usize,
    norm: f64,
    bonus: &[f64],
) -> (Vec<u32>, Vec<f64>) {
    let mut covered = Bitset::new(adj.ncols());
    let mut heap: BinaryHeap<HeapEntry> = pool
        .iter()
        .map(|&v| HeapEntry {
            gain: adj.row_nnz(v as usize) as f64 / norm + bonus[v as usize],
            node: v,
            round: 0,
        })
        .collect();
    let mut selected = Vec::with_capacity(budget.min(pool.len()));
    let mut gains = Vec::with_capacity(budget.min(pool.len()));
    let mut round = 0usize;
    while selected.len() < budget {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            // Fresh: select it.
            covered.insert_all(adj.row_indices(top.node as usize));
            selected.push(top.node);
            gains.push(top.gain);
            round += 1;
        } else {
            // Stale: recompute the marginal gain and push back.
            let fresh = covered.count_missing(adj.row_indices(top.node as usize)) as f64 / norm
                + bonus[top.node as usize];
            heap.push(HeapEntry {
                gain: fresh,
                node: top.node,
                round,
            });
        }
    }
    (selected, gains)
}

/// Per-node diversity bonuses `1 − Ĵ_v(ϕ)` (Eq. 6–7) of every meta-path
/// in one same-source-type `group` (indices into `adjacencies`),
/// returned in group order: entry `a` is path `group[a]`'s bonus, the
/// mean Jaccard similarity of its row supports against those of its
/// siblings. A group of one duplicates nothing: full diversity.
///
/// The Jaccard index is symmetric, so each unordered sibling pair is
/// computed once per target node: row `a` is stamped into a generation
/// marker, and every later row `b` counts its columns carrying that
/// stamp. Intersection and union are integer counts (`CsrMatrix` rows
/// hold strictly increasing columns), and each path's sibling sum adds
/// in group order, so every bonus is bitwise what a per-path sorted
/// merge against each sibling yields. Chunk-parallel over target nodes
/// (each entry is independent, so any partition yields identical bits).
pub fn diversity_bonuses(
    group: &[usize],
    adjacencies: &[Arc<CsrMatrix>],
    num_targets: usize,
) -> Vec<Vec<f64>> {
    let k = group.len();
    if k == 1 {
        return vec![vec![1.0; num_targets]];
    }
    let adjs: Vec<&CsrMatrix> = group.iter().map(|&i| &*adjacencies[i]).collect();
    let width = adjs.iter().map(|m| m.ncols()).max().unwrap_or(0);
    let mut chunks = freehgc_parallel::par_chunks(num_targets, 256, |range| {
        let mut out = vec![Vec::with_capacity(range.len()); k];
        // sims[a * k + b]: Jaccard of paths a and b at the current node.
        let mut sims = vec![0.0f64; k * k];
        let mut mark = ws::take_u32_zeroed(width);
        let mut stamp = 0u32;
        for v in range {
            for a in 0..k - 1 {
                let ra = adjs[a].row_indices(v);
                if stamp == u32::MAX {
                    mark.fill(0);
                    stamp = 0;
                }
                stamp += 1;
                for &c in ra {
                    mark[c as usize] = stamp;
                }
                for b in a + 1..k {
                    let rb = adjs[b].row_indices(v);
                    // Both supports empty: J = 1 (the convention after Eq. 5).
                    let sim = if ra.is_empty() && rb.is_empty() {
                        1.0
                    } else {
                        let inter = rb.iter().filter(|&&c| mark[c as usize] == stamp).count();
                        inter as f64 / (ra.len() + rb.len() - inter) as f64
                    };
                    sims[a * k + b] = sim;
                    sims[b * k + a] = sim;
                }
            }
            for (a, bonus) in out.iter_mut().enumerate() {
                let mut sim_sum = 0.0f64;
                for b in (0..k).filter(|&b| b != a) {
                    sim_sum += sims[a * k + b];
                }
                bonus.push(1.0 - sim_sum / (k - 1) as f64);
            }
        }
        out
    });
    if chunks.len() == 1 {
        return chunks.pop().expect("one chunk");
    }
    (0..k)
        .map(|a| chunks.iter().flat_map(|c| c[a].iter().copied()).collect())
        .collect()
}

/// Jaccard index of two sorted index slices; 1.0 when both are empty
/// (the convention after Eq. 5).
pub fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Result of target-type condensation.
#[derive(Clone, Debug)]
pub struct TargetSelection {
    /// Selected target node ids, sorted ascending.
    pub selected: Vec<u32>,
    /// Aggregated criterion score per target node (Eq. 9); zero for nodes
    /// never selected by any per-path greedy run. Used by the Fig. 9
    /// interpretability analysis.
    pub scores: Vec<f64>,
}

/// Algorithm 1: condense the target-type nodes.
///
/// `budget` is the number of target nodes to keep; the training pool is
/// the graph's train split (selection only ever picks labeled nodes, as in
/// coreset selection). Meta-path enumeration, the composed adjacencies
/// and the diversity bonuses come from (and warm) the context's caches.
pub fn condense_target(
    ctx: &CondenseContext<'_>,
    budget: usize,
    cfg: &SelectionConfig,
) -> TargetSelection {
    let g = ctx.graph();
    let schema = g.schema();
    let target = schema.target();
    let n = g.num_nodes(target);
    let labels = g.labels();
    let pool = &g.split().train;
    assert!(!pool.is_empty(), "empty training pool");

    // Line 1: M = GeneralMetaPaths(G, K).
    let paths = ctx.metapaths(target, cfg.max_hops, cfg.max_paths);
    let adjacencies: Vec<Arc<CsrMatrix>> = paths.iter().map(|p| ctx.adjacency(p)).collect();

    // Group paths by source type for the Jaccard term (Eq. 5 requires a
    // shared source type).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, p) in paths.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|grp| paths[grp[0]].source() == p.source())
        {
            Some(grp) => grp.push(i),
            None => groups.push(vec![i]),
        }
    }
    // Path i is member `member[i].1` of group `member[i].0`.
    let mut member = vec![(0, 0); paths.len()];
    for (gi, grp) in groups.iter().enumerate() {
        for (pos, &i) in grp.iter().enumerate() {
            member[i] = (gi, pos);
        }
    }
    // One diversity computation per group and call, filled by the first
    // member that misses the context's diversity cache; each member then
    // takes its own vector out.
    let group_bonuses: Vec<OnceLock<Vec<Mutex<Vec<f64>>>>> =
        groups.iter().map(|_| OnceLock::new()).collect();

    // Class pools within the training split.
    let num_classes = g.num_classes();
    let mut class_pools: Vec<Vec<u32>> = vec![Vec::new(); num_classes];
    for &v in pool {
        class_pools[labels[v as usize] as usize].push(v);
    }
    let class_counts: Vec<usize> = class_pools.iter().map(|p| p.len()).collect();
    let class_budgets = proportional_allocation(&class_counts, budget.min(pool.len()));

    // Lines 2–9: per meta-path, per class greedy; aggregate scores
    // (Eq. 9). Paths are independent — "the classes and meta-paths loop
    // can be easily parallelizable" (§IV, time-complexity analysis) — so
    // each path's score vector is computed on its own worker (via
    // `freehgc_parallel`, which honors `FREEHGC_THREADS` and keeps the
    // kernels inside from nesting their own parallelism) and summed
    // deterministically by path index afterwards.
    let per_path_scores: Vec<Vec<f64>> =
        freehgc_parallel::scoped_map((0..adjacencies.len()).collect(), |_, pi: usize| {
            let adj = &adjacencies[pi];
            // The diversity bonus (Eq. 6–7) depends only on the composed
            // adjacencies and the sibling grouping — both pure functions
            // of (root, max_hops, max_paths) under this context — never
            // on the ratio or seed, so it is memoized in the context:
            // repeated runs and ratio/seed sweeps compute it once. Each
            // path keeps its own cache entry, so keys, hit/miss counts
            // and budget admission are per path as before.
            let bonus: Arc<Vec<f64>> = if cfg.use_jaccard {
                ctx.diversity((target, cfg.max_hops, cfg.max_paths, pi), || {
                    let (gi, pos) = member[pi];
                    let all = group_bonuses[gi].get_or_init(|| {
                        diversity_bonuses(&groups[gi], &adjacencies, n)
                            .into_iter()
                            .map(Mutex::new)
                            .collect()
                    });
                    std::mem::take(&mut *freehgc_parallel::relock(&all[pos]))
                })
            } else {
                Arc::new(vec![0.0; n])
            };
            let bonus: &[f64] = &bonus;
            // |R̂| of Eq. 8 — "commonly chosen as the total number
            // of source-type nodes". At the paper's scale (3–5-hop
            // paths over graphs where hub receptive fields approach
            // |os|) that choice makes R(S)/|R̂| comparable to the
            // 1−J(S) term; on our scaled graphs it would degenerate
            // to ~1e-3 and let diversity dominate, so we normalize
            // by the largest receptive field in the pool instead, a
            // deliberate deviation that keeps both terms on one scale.
            let max_rf = class_pools
                .iter()
                .flatten()
                .map(|&v| adj.row_nnz(v as usize))
                .max()
                .unwrap_or(1);
            let norm = max_rf.max(1) as f64;
            let mut scores = vec![0.0f64; n];
            for (c, cpool) in class_pools.iter().enumerate() {
                if cpool.is_empty() || class_budgets[c] == 0 {
                    continue;
                }
                let (sel, gains) = if cfg.use_rf {
                    celf_greedy(adj, cpool, class_budgets[c], norm, bonus)
                } else {
                    // Variant#1: rank purely by the diversity bonus. Each
                    // kept node adds its own bonus once, so the kept set
                    // alone fixes the scores, whatever its order.
                    let kept = top_k_among(cpool.clone(), bonus, class_budgets[c]);
                    let gains = kept.iter().map(|&v| bonus[v as usize]).collect();
                    (kept, gains)
                };
                for (v, gain) in sel.iter().zip(gains) {
                    scores[*v as usize] += gain;
                }
            }
            scores
        });
    let mut scores = vec![0.0f64; n];
    for ps in &per_path_scores {
        for (s, p) in scores.iter_mut().zip(ps) {
            *s += p;
        }
    }

    // Line 10: per-class top-k by aggregated score, a selection over
    // each class pool.
    let mut selected = Vec::with_capacity(budget);
    for (c, cpool) in class_pools.iter().enumerate() {
        selected.extend(top_k_among(cpool.clone(), &scores, class_budgets[c]));
    }
    selected.sort_unstable();
    TargetSelection { selected, scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;
    use freehgc_hetgraph::enumerate_metapaths as hg_enumerate;

    #[test]
    fn jaccard_sorted_basics() {
        assert_eq!(jaccard_sorted(&[], &[]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard_sorted(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn celf_matches_plain_greedy_on_coverage() {
        // Universe {0..5}; node RFs chosen so greedy order is known.
        let adj = CsrMatrix::from_edges(
            4,
            6,
            &[
                (0, 0),
                (0, 1),
                (0, 2), // node 0 covers 3
                (1, 2),
                (1, 3), // node 1 covers 2
                (2, 4), // node 2 covers 1
                (3, 0),
                (3, 1), // node 3 subset of node 0
            ],
        );
        let pool = [0u32, 1, 2, 3];
        let (sel, gains) = celf_greedy(&adj, &pool, 3, 1.0, &[0.0; 4]);
        assert_eq!(sel, vec![0, 1, 2]);
        // Node 1's marginal gain is 1: element 2 is already covered by
        // node 0.
        assert_eq!(gains, vec![3.0, 1.0, 1.0]);
    }

    #[test]
    fn celf_respects_bonus() {
        // Equal coverage, different bonus: bonus must decide the order.
        let adj = CsrMatrix::from_edges(2, 4, &[(0, 0), (0, 1), (1, 2), (1, 3)]);
        let (sel, _) = celf_greedy(&adj, &[0, 1], 1, 1.0, &[0.0, 0.5]);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn celf_gains_are_non_increasing_in_coverage_part() {
        let g = tiny(0);
        let engine = CondenseContext::new(&g);
        let paths = hg_enumerate(g.schema(), g.schema().target(), 2, 8);
        let adj = engine.adjacency(&paths[0]);
        let pool: Vec<u32> = g.split().train.clone();
        let n = g.num_nodes(g.schema().target());
        let (_, gains) = celf_greedy(&adj, &pool, 10, 1.0, &vec![0.0; n]);
        for w in gains.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "greedy marginal gains must be non-increasing: {gains:?}"
            );
        }
    }

    #[test]
    fn celf_exhausts_pool_gracefully() {
        let adj = CsrMatrix::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let (sel, _) = celf_greedy(&adj, &[0, 1], 10, 1.0, &[0.0, 0.0]);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn diversity_bonus_single_path_is_one() {
        let g = tiny(1);
        let engine = CondenseContext::new(&g);
        let paths = hg_enumerate(g.schema(), g.schema().target(), 1, 8);
        let adjs: Vec<_> = paths.iter().map(|p| engine.adjacency(p)).collect();
        let n = g.num_nodes(g.schema().target());
        let b = diversity_bonuses(&[0], &adjs, n);
        assert_eq!(b.len(), 1);
        assert!(b[0].iter().all(|&x| x == 1.0));
    }

    #[test]
    fn diversity_bonus_identical_paths_is_zero() {
        let g = tiny(2);
        let engine = CondenseContext::new(&g);
        let paths = hg_enumerate(g.schema(), g.schema().target(), 1, 8);
        let adj = engine.adjacency(&paths[0]);
        // Two copies of the same adjacency: similarity 1, diversity 0.
        let adjs = vec![Arc::clone(&adj), adj];
        let n = g.num_nodes(g.schema().target());
        let b = diversity_bonuses(&[0, 1], &adjs, n);
        // Rows with empty support have J=1 by convention; all should be 0.
        assert!(b.iter().flatten().all(|&x| x.abs() < 1e-12), "{b:?}");
    }

    #[test]
    fn condense_target_respects_budget_and_class_mix() {
        let g = tiny(3);
        let budget = 12;
        let sel = condense_target(
            &CondenseContext::new(&g),
            budget,
            &SelectionConfig::default(),
        );
        assert!(sel.selected.len() <= budget);
        assert!(!sel.selected.is_empty());
        // Only training nodes may be selected.
        for v in &sel.selected {
            assert!(g.split().train.contains(v), "{v} not in train pool");
        }
        // Every class with enough training nodes should be represented.
        let y = g.labels();
        let mut class_seen = vec![false; g.num_classes()];
        for &v in &sel.selected {
            class_seen[y[v as usize] as usize] = true;
        }
        assert!(class_seen.iter().filter(|&&s| s).count() >= 2);
    }

    #[test]
    fn condense_target_is_deterministic() {
        let g = tiny(4);
        let a = condense_target(&CondenseContext::new(&g), 8, &SelectionConfig::default());
        let b = condense_target(&CondenseContext::new(&g), 8, &SelectionConfig::default());
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn variants_change_the_selection() {
        let g = tiny(5);
        let full = condense_target(&CondenseContext::new(&g), 10, &SelectionConfig::default());
        let no_rf = condense_target(
            &CondenseContext::new(&g),
            10,
            &SelectionConfig {
                use_rf: false,
                ..Default::default()
            },
        );
        let no_j = condense_target(
            &CondenseContext::new(&g),
            10,
            &SelectionConfig {
                use_jaccard: false,
                ..Default::default()
            },
        );
        // At least one variant must differ from the full criterion on a
        // graph with heterogeneous degrees.
        assert!(
            full.selected != no_rf.selected || full.selected != no_j.selected,
            "ablation variants should alter selection"
        );
    }

    #[test]
    fn scores_are_populated_for_selected_nodes() {
        let g = tiny(6);
        let sel = condense_target(&CondenseContext::new(&g), 8, &SelectionConfig::default());
        for &v in &sel.selected {
            assert!(sel.scores[v as usize] > 0.0);
        }
    }
}
