//! Condensing leaf-type nodes: information-loss minimization
//! (paper §IV-C, Eq. 14–16, Fig. 6).
//!
//! For every (selected) parent node `i`, its leaf-type neighbors `N_i` are
//! aggregated into one synthetic hyper-node with feature `σ(X_j, j ∈ N_i)`
//! (mean aggregator, Eq. 14) and an edge back to `i`. Reverse edges to the
//! *other* parents adjacent to the absorbed leaves (Eq. 15) preserve 2-hop
//! parent↔parent structure; they materialize during condensed-graph
//! assembly through the membership rule (a parent connects to a hyper-node
//! iff it was adjacent to any of its members). Hyper-nodes beyond the
//! budget are merged lowest-degree-first (Eq. 16).
//!
//! Cost. Eq. 14 reads each selected parent's leaf row once and gathers
//! each member's feature row once. The Eq. 16 merge costs what it
//! touches: an indexed min-heap keyed by (degree, slot) yields the two
//! lowest-degree hyper-nodes in O(log h), and each hyper-node carries its
//! set of selected parents, so a merge unions two parent sets and two
//! sorted member lists instead of rescanning every hyper-node and
//! rehashing the merged members' parents. The output is bit for bit the
//! scan's, tie-breaks and `swap_remove` slot moves included; the unit
//! tests pin it against that scan. On a 2-core x86_64 host, serially,
//! ACM's leaf synthesis at a 4.8% condense takes ~1.3–2 ms at generator
//! scale 32 and ~14–25 ms at scale 256 (the scan took ~5–9 and ~200–360).

use freehgc_hetgraph::condense::SynthesizedNodes;
use freehgc_hetgraph::{CondenseContext, NodeTypeId};
use freehgc_parallel::workspace as ws;

/// A synthesized (leaf) node type: hyper-nodes whose `members` record the
/// original leaf ids aggregated into each hyper-node. A leaf adjacent to
/// several parents appears in several hyper-nodes, exactly as in Fig. 6
/// (node `a2`).
pub type SynthesizedType = SynthesizedNodes;

/// Synthesizes hyper-nodes for `leaf` around the selected nodes of its
/// `parent` type, merging down to `budget` hyper-nodes. The oriented
/// parent → leaf adjacency comes from the context's cache; the Eq. 16
/// merge needs no leaf → parent transpose of it.
pub fn synthesize_leaf(
    ctx: &CondenseContext<'_>,
    leaf: NodeTypeId,
    parent: NodeTypeId,
    parent_selected: &[u32],
    budget: usize,
) -> SynthesizedType {
    let g = ctx.graph();
    let adj = ctx.adjacency_between(parent, leaf).unwrap_or_else(|| {
        panic!(
            "no relation between parent {:?} and leaf {:?}",
            g.schema().node_type_name(parent),
            g.schema().node_type_name(leaf)
        )
    });

    // Eq. 14: one hyper-node per selected parent with ≥1 leaf neighbor,
    // remembering which parent owns it.
    let mut members: Vec<Vec<u32>> = Vec::new();
    let mut owners: Vec<u32> = Vec::new();
    for &p in parent_selected {
        let nbrs = adj.row_indices(p as usize);
        if !nbrs.is_empty() {
            members.push(nbrs.to_vec());
            owners.push(p);
        }
    }

    if members.len() > budget.max(1) {
        merge_lowest_degree(&mut members, &owners, adj.ncols(), budget.max(1));
    }

    // σ(·): mean-aggregate member features (Eq. 14).
    let features = g.features(leaf).means_of(&members);
    SynthesizedType { members, features }
}

/// Eq. 16: merges the two lowest-degree hyper-nodes until at most
/// `budget` remain. `members[k]` holds leaf ids below `num_leaves`, the
/// whole leaf row of the selected parent `owners[k]`. A hyper-node's
/// degree is the number of selected parents adjacent to any of its
/// members, its connectivity in the condensed graph. A selected parent
/// is adjacent to leaf `m` iff it owns a hyper-node holding `m` (parents
/// without leaves own none and touch no leaf), so the hyper-nodes
/// themselves give each leaf's selected parents.
///
/// Each merge takes the lowest (degree, slot) hyper-node `lo` and the
/// next-lowest `lo2`, `swap_remove`s `lo2` (the last slot moves into its
/// place) and unions it into `lo`, wherever `lo` now sits. An indexed
/// min-heap over slots keyed by (degree, slot) finds both in O(log h)
/// and follows the slot move. Each hyper-node keeps its set of selected
/// parents, so a merge's degree is a linear union of two parent sets,
/// and members union by a linear sorted merge: a merge costs what it
/// touches, never a rescan of every hyper-node.
fn merge_lowest_degree(
    members: &mut Vec<Vec<u32>>,
    owners: &[u32],
    num_leaves: usize,
    budget: usize,
) {
    // Parents are only counted, so each is named by its rank among the
    // distinct owners. `leaf_parents` (a counting sort of the
    // hyper-nodes by member) lists leaf `m`'s selected parents, by rank,
    // in `leaf_parents[start[m]..start[m + 1]]`; a parent selected twice
    // may repeat there, which the stamped unions below absorb.
    let mut ranked = owners.to_vec();
    ranked.sort_unstable();
    ranked.dedup();
    let mut start = ws::take_u32_zeroed(num_leaves + 1);
    for mem in members.iter() {
        for &m in mem {
            start[m as usize] += 1;
        }
    }
    for m in 1..start.len() {
        start[m] += start[m - 1];
    }
    let mut leaf_parents = vec![0u32; start[num_leaves] as usize];
    for (mem, owner) in members.iter().zip(owners) {
        let rank = ranked.binary_search(owner).expect("owners are ranked") as u32;
        for &m in mem {
            start[m as usize] -= 1;
            leaf_parents[start[m as usize] as usize] = rank;
        }
    }

    // Each hyper-node's distinct selected parents, an unordered set:
    // every union below deduplicates against a fresh generation stamp.
    let mut mark = ws::take_u32_zeroed(ranked.len());
    let mut stamp = 0u32;
    let mut next_stamp = |mark: &mut [u32]| {
        if stamp == u32::MAX {
            mark.fill(0);
            stamp = 0;
        }
        stamp += 1;
        stamp
    };
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(members.len());
    for mem in members.iter() {
        let s = next_stamp(&mut mark);
        let mut set = Vec::new();
        for &m in mem {
            let (a, b) = (start[m as usize] as usize, start[m as usize + 1] as usize);
            for &r in &leaf_parents[a..b] {
                if mark[r as usize] != s {
                    mark[r as usize] = s;
                    set.push(r);
                }
            }
        }
        parents.push(set);
    }

    let mut heap = SlotHeap::new(&parents);
    while members.len() > budget {
        let lo = heap.pop(&parents);
        let lo2 = heap.pop(&parents);
        let last = members.len() - 1;
        let absorbed = members.swap_remove(lo2);
        let absorbed_parents = parents.swap_remove(lo2);
        let tgt = if lo == last {
            // `lo` sat in the last slot, which moved into `lo2`.
            lo2
        } else {
            if lo2 != last {
                // The last hyper-node, still queued, now sits in `lo2`.
                heap.relabel(&parents, last, lo2);
            }
            lo
        };
        members[tgt] = sorted_union(&members[tgt], &absorbed);
        let s = next_stamp(&mut mark);
        let set = &mut parents[tgt];
        for &r in set.iter() {
            mark[r as usize] = s;
        }
        set.extend(
            absorbed_parents
                .into_iter()
                .filter(|&r| mark[r as usize] != s),
        );
        heap.push(&parents, tgt);
    }
}

/// Union of two strictly increasing id lists, strictly increasing.
fn sorted_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Indexed binary min-heap of hyper-node slots keyed by (degree, slot),
/// where a slot's degree is the size of its parent set.
struct SlotHeap {
    /// Heap order → slot.
    heap: Vec<usize>,
    /// Slot → position in `heap` (stale for slots not queued).
    pos: Vec<usize>,
}

impl SlotHeap {
    /// Every slot of `parents`, queued.
    fn new(parents: &[Vec<u32>]) -> Self {
        let n = parents.len();
        let mut h = Self {
            heap: (0..n).collect(),
            pos: (0..n).collect(),
        };
        for i in (0..n / 2).rev() {
            h.sift_down(parents, i);
        }
        h
    }

    fn less(parents: &[Vec<u32>], a: usize, b: usize) -> bool {
        (parents[a].len(), a) < (parents[b].len(), b)
    }

    fn place(&mut self, i: usize, slot: usize) {
        self.heap[i] = slot;
        self.pos[slot] = i;
    }

    fn sift_up(&mut self, parents: &[Vec<u32>], mut i: usize) {
        let slot = self.heap[i];
        while i > 0 {
            let up = (i - 1) / 2;
            if !Self::less(parents, slot, self.heap[up]) {
                break;
            }
            self.place(i, self.heap[up]);
            i = up;
        }
        self.place(i, slot);
    }

    fn sift_down(&mut self, parents: &[Vec<u32>], mut i: usize) {
        let slot = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len()
                && Self::less(parents, self.heap[child + 1], self.heap[child])
            {
                child += 1;
            }
            if !Self::less(parents, self.heap[child], slot) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, slot);
    }

    /// Removes and returns the lowest (degree, slot).
    fn pop(&mut self, parents: &[Vec<u32>]) -> usize {
        let top = self.heap[0];
        let tail = self.heap.pop().expect("pop from a non-empty heap");
        if !self.heap.is_empty() {
            self.place(0, tail);
            self.sift_down(parents, 0);
        }
        top
    }

    fn push(&mut self, parents: &[Vec<u32>], slot: usize) {
        self.heap.push(slot);
        self.sift_up(parents, self.heap.len() - 1);
    }

    /// The queued hyper-node at slot `from` moved to the lower slot `to`
    /// (same degree), so its key only shrinks.
    fn relabel(&mut self, parents: &[Vec<u32>], from: usize, to: usize) {
        let i = self.pos[from];
        self.place(i, to);
        self.sift_up(parents, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_datasets::tiny;
    use freehgc_hetgraph::{HeteroGraph, Role};
    use freehgc_sparse::{CsrMatrix, FxHashSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Test-only oracle: the Eq. 16 loop `merge_lowest_degree` replaced.
    /// Two linear scans find the lowest-degree slots and every merge
    /// rehashes the merged members' selected parents.
    fn merge_by_scan(
        members: &mut Vec<Vec<u32>>,
        parent_adj: &CsrMatrix,
        parent_selected: &[u32],
        budget: usize,
    ) {
        let selected_set: FxHashSet<u32> = parent_selected.iter().copied().collect();
        let degree = |mem: &[u32]| -> usize {
            let mut parents: FxHashSet<u32> = FxHashSet::default();
            for &m in mem {
                for &p in parent_adj.row_indices(m as usize) {
                    if selected_set.contains(&p) {
                        parents.insert(p);
                    }
                }
            }
            parents.len()
        };
        let mut degs: Vec<usize> = members.iter().map(|m| degree(m)).collect();
        while members.len() > budget {
            let mut lo = 0usize;
            for i in 1..members.len() {
                if degs[i] < degs[lo] {
                    lo = i;
                }
            }
            let mut lo2 = usize::MAX;
            for i in 0..members.len() {
                if i != lo && (lo2 == usize::MAX || degs[i] < degs[lo2]) {
                    lo2 = i;
                }
            }
            let absorbed = members.swap_remove(lo2);
            degs.swap_remove(lo2);
            let tgt = if lo == members.len() { lo2 } else { lo };
            members[tgt].extend(absorbed);
            members[tgt].sort_unstable();
            members[tgt].dedup();
            degs[tgt] = degree(&members[tgt]);
        }
    }

    /// Eq. 14's hyper-nodes around `selected` (rows of `adj`).
    fn hyper_nodes(adj: &CsrMatrix, selected: &[u32]) -> Vec<Vec<u32>> {
        selected
            .iter()
            .map(|&p| adj.row_indices(p as usize).to_vec())
            .filter(|m| !m.is_empty())
            .collect()
    }

    #[test]
    fn heap_merge_matches_the_scan_on_random_graphs_with_tied_degrees() {
        let mut rng = StdRng::seed_from_u64(0x1eaf);
        for case in 0..120 {
            let parents = rng.gen_range(2..60usize);
            let leaves = rng.gen_range(1..25usize);
            // Few leaves per parent over a small leaf universe: degrees
            // collide constantly, so the slot tie-break decides merges.
            let mut edges = Vec::new();
            for p in 0..parents as u32 {
                for _ in 0..rng.gen_range(0..4usize) {
                    edges.push((p, rng.gen_range(0..leaves as u32)));
                }
            }
            let adj = CsrMatrix::from_edges(parents, leaves, &edges);
            let leaf_parents = adj.transpose();
            let mut selected: Vec<u32> =
                (0..parents as u32).filter(|_| rng.gen_bool(0.7)).collect();
            if rng.gen_bool(0.3) {
                selected.reverse(); // Eq. 14 follows the caller's order.
            }
            if !selected.is_empty() && rng.gen_bool(0.2) {
                selected.push(selected[0]); // a parent selected twice
            }
            let owners: Vec<u32> = selected
                .iter()
                .copied()
                .filter(|&p| adj.row_nnz(p as usize) > 0)
                .collect();
            let h = owners.len();
            for budget in 1..=h {
                let mut want = hyper_nodes(&adj, &selected);
                merge_by_scan(&mut want, &leaf_parents, &selected, budget);
                let mut got = hyper_nodes(&adj, &selected);
                if got.len() > budget {
                    merge_lowest_degree(&mut got, &owners, leaves, budget);
                }
                assert_eq!(got, want, "case {case}, budget {budget} of {h}");
            }
        }
    }

    #[test]
    fn synthesize_leaf_matches_the_scan_bit_for_bit_on_generated_graphs() {
        for seed in 0..4 {
            let g = tiny(seed);
            let ctx = CondenseContext::new(&g);
            for leaf in g.schema().types_with_role(Role::Leaf) {
                let parent = g.schema().parent_of(leaf).unwrap();
                let adj = g.adjacency_between(parent, leaf).unwrap();
                let leaf_parents = g.adjacency_between(leaf, parent).unwrap();
                let selected: Vec<u32> = (0..g.num_nodes(parent) as u32)
                    .filter(|p| p % 3 != 1)
                    .collect();
                let h = hyper_nodes(&adj, &selected).len();
                for budget in 1..=h {
                    let got = synthesize_leaf(&ctx, leaf, parent, &selected, budget);
                    let mut want = hyper_nodes(&adj, &selected);
                    merge_by_scan(&mut want, &leaf_parents, &selected, budget);
                    assert_eq!(got.members, want, "seed {seed}, budget {budget} of {h}");
                    let lf = g.features(leaf);
                    for (k, mem) in want.iter().enumerate() {
                        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got.features.row(k)), bits(&lf.mean_of(mem)));
                    }
                }
            }
        }
    }

    fn leaf_and_parent(g: &HeteroGraph) -> (NodeTypeId, NodeTypeId) {
        let leaf = g.schema().types_with_role(Role::Leaf)[0];
        let parent = g.schema().parent_of(leaf).unwrap();
        (leaf, parent)
    }

    #[test]
    fn one_hyper_node_per_connected_parent_when_budget_allows() {
        let g = tiny(0);
        let (leaf, parent) = leaf_and_parent(&g);
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let adj = g.adjacency_between(parent, leaf).unwrap();
        let connected = parents
            .iter()
            .filter(|&&p| adj.row_nnz(p as usize) > 0)
            .count();
        let syn = synthesize_leaf(
            &CondenseContext::new(&g),
            leaf,
            parent,
            &parents,
            usize::MAX >> 1,
        );
        assert_eq!(syn.len(), connected);
    }

    #[test]
    fn features_are_member_means() {
        let g = tiny(1);
        let (leaf, parent) = leaf_and_parent(&g);
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let syn = synthesize_leaf(
            &CondenseContext::new(&g),
            leaf,
            parent,
            &parents,
            usize::MAX >> 1,
        );
        let lf = g.features(leaf);
        for (k, mem) in syn.members.iter().enumerate() {
            let expect = lf.mean_of(mem);
            assert_eq!(syn.features.row(k), expect.as_slice(), "hyper {k}");
        }
    }

    #[test]
    fn budget_is_enforced_by_merging() {
        let g = tiny(2);
        let (leaf, parent) = leaf_and_parent(&g);
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let budget = 3;
        let syn = synthesize_leaf(&CondenseContext::new(&g), leaf, parent, &parents, budget);
        assert!(syn.len() <= budget);
        assert!(!syn.is_empty());
        // Members stay sorted & deduplicated after merging.
        for mem in &syn.members {
            for w in mem.windows(2) {
                assert!(w[0] < w[1], "members must be sorted/unique");
            }
        }
    }

    #[test]
    fn merging_preserves_total_membership() {
        let g = tiny(3);
        let (leaf, parent) = leaf_and_parent(&g);
        let parents: Vec<u32> = (0..g.num_nodes(parent) as u32).collect();
        let all = synthesize_leaf(
            &CondenseContext::new(&g),
            leaf,
            parent,
            &parents,
            usize::MAX >> 1,
        );
        let merged = synthesize_leaf(&CondenseContext::new(&g), leaf, parent, &parents, 2);
        let count_distinct = |s: &SynthesizedType| {
            let mut ids: Vec<u32> = s.members.iter().flatten().copied().collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        assert_eq!(count_distinct(&all), count_distinct(&merged));
    }

    #[test]
    fn empty_parent_selection_yields_no_hypernodes() {
        let g = tiny(4);
        let (leaf, parent) = leaf_and_parent(&g);
        let syn = synthesize_leaf(&CondenseContext::new(&g), leaf, parent, &[], 5);
        assert!(syn.is_empty());
        assert_eq!(syn.features.num_rows(), 0);
    }
}
