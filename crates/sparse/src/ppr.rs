//! Personalized PageRank kernels.
//!
//! FreeHGC's neighbor-influence-maximization function (Eq. 10-11 of the
//! paper) scores other-type nodes by the PPR resolvent
//! `N = α (I − (1−α) Â_sym)⁻¹` of a meta-path adjacency. For Eq. (13) only
//! *column sums over target rows* of `N` are needed, so we never materialize
//! the dense resolvent: the truncated Neumann series
//! `N ≈ α Σ_{k=0}^{T} (1−α)^k M^k` is applied to a seed vector instead,
//! giving `O(T · nnz)` total work. The dense resolvent is kept (for small
//! `n`) as a test oracle.
//!
//! FreeHGC's influence path is [`bipartite_influence`]. On the
//! bipartite block operator a series term alternates between a
//! target → source scatter and a source → target gather, and the kernel
//! fuses each gather with the following scatter row by row, so `T` terms
//! cost `⌈T/2⌉` passes over the nonzeros instead of `T` — with the same
//! per-element addition order, hence the same bits, as one pass per
//! term. The loop-invariant edge weight `a[r,c]·dc[c]` is folded once
//! per stored entry before the first pass, so the passes read it
//! sequentially instead of recomputing it (and fetching `dc[c]` from a
//! random column) twice per entry per pass. [`ppr_push`] /
//! [`ppr_push_into`] are the square-operator variant, used by the bench
//! and tests.

use crate::csr::CsrMatrix;
use freehgc_parallel::workspace as ws;

/// Configuration for the truncated-series PPR computation.
#[derive(Clone, Copy, Debug)]
pub struct PprConfig {
    /// Teleport (restart) probability α ∈ (0, 1].
    pub alpha: f32,
    /// Error threshold ε: iteration stops when the residual mass
    /// `(1−α)^k` drops below ε.
    pub epsilon: f32,
    /// Hard cap on the number of series terms.
    pub max_iters: usize,
}

impl Default for PprConfig {
    fn default() -> Self {
        Self {
            alpha: 0.15,
            epsilon: 1e-4,
            max_iters: 64,
        }
    }
}

impl PprConfig {
    /// Number of series terms needed for residual mass below ε.
    pub fn num_terms(&self) -> usize {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha must be in (0,1]"
        );
        if self.alpha >= 1.0 {
            return 1;
        }
        let decay = 1.0 - self.alpha;
        let t = (self.epsilon.ln() / decay.ln()).ceil() as usize;
        t.clamp(1, self.max_iters)
    }
}

/// `pᵀ = α Σ_k (1−α)^k seedᵀ Mᵏ` for a *square* operator `M` (given as CSR;
/// the iteration multiplies by `Mᵀ` via [`CsrMatrix::spmv_t`], i.e. seeds
/// diffuse forward along edges).
pub fn ppr_push(m: &CsrMatrix, seed: &[f32], cfg: &PprConfig) -> Vec<f32> {
    let mut acc = vec![0f32; seed.len()];
    ppr_push_into(m, seed, cfg, &mut acc);
    acc
}

/// [`ppr_push`] writing into a caller-provided accumulator (length
/// `m.nrows()`, prior contents ignored). The ping-pong state buffers
/// come from the workspace pool, so a sweep that calls this repeatedly
/// performs zero allocations per call once the pool is warm. Only the
/// bench and tests call it; FreeHGC's father influence goes through
/// [`bipartite_influence`].
pub fn ppr_push_into(m: &CsrMatrix, seed: &[f32], cfg: &PprConfig, acc: &mut [f32]) {
    assert_eq!(m.nrows(), m.ncols(), "ppr_push needs a square operator");
    assert_eq!(seed.len(), m.nrows(), "seed length mismatch");
    assert_eq!(acc.len(), m.nrows(), "accumulator length mismatch");
    let terms = cfg.num_terms();
    // Two ping-pong state buffers instead of one allocation per term,
    // and no advance after the last accumulated term (its result would
    // be discarded — one whole SpMVᵀ saved).
    let mut x = ws::take_f32(seed.len());
    x.copy_from_slice(seed);
    let mut next = ws::take_f32(seed.len()); // overwritten by spmv_t_into
    acc.fill(0.0);
    let mut coeff = cfg.alpha;
    for k in 0..terms {
        for (a, &xi) in acc.iter_mut().zip(x.iter()) {
            *a += coeff * xi;
        }
        if k + 1 < terms {
            m.spmv_t_into(&x, &mut next);
            std::mem::swap(&mut *x, &mut *next);
            coeff *= 1.0 - cfg.alpha;
        }
    }
}

/// Influence of source-type nodes on target-type nodes through one
/// bipartite meta-path adjacency `A` (`|ot| × |os|`), per Eq. (10)-(13).
///
/// The bipartite block operator
/// `M = [[0, Â], [Âᵀ, 0]]` (symmetrically normalized) is applied to a seed
/// uniform over the target rows in `seed_rows` (every target row when
/// `None`); the returned vector is the accumulated PPR mass on each
/// *source* node — exactly the column sums `Σ_i N^s_{i,:}` that Eq. (13)
/// ranks. FreeHGC seeds from the already-selected target nodes, so father
/// scores measure influence on the condensed root set ("the goal is to
/// select the most important neighbor nodes to be connected to the target
/// nodes", §IV-C).
///
/// The state `x_k = seedᵀ Mᵏ` alternates between the target block (even
/// `k`) and the source block (odd `k`), and only source states feed
/// Eq. (13). Every pass over `A` after the first therefore advances the
/// series by two terms: row `r` gathers its target state
/// `t_r = (Σ_c (a[r,c]·dc[c])·src_k[c]) · dr[r]` from `src_k` and at once
/// scatters `(a[r,c]·dc[c]) · (t_r·dr[r])` into `src_{k+2}`. Rows are
/// visited in ascending order, so the additions into each
/// `src_{k+2}[c]` arrive in the same ascending-`r` order, and with the
/// same product associations, as a separate gather pass followed by a
/// separate scatter pass — the result is bitwise-identical to that
/// two-pass form. A series of `T` terms costs `⌈T/2⌉` passes over the
/// nonzeros instead of `T`.
///
/// The folded weight `w[i] = a[r,c]·dc[c]` of every stored entry is
/// computed once per call: Rust evaluates `v * dc[c] * x` as
/// `(v * dc[c]) * x`, so `w[i] * x` performs the very same `f32`
/// operations and the bits are unchanged.
pub fn bipartite_influence(a: &CsrMatrix, seed_rows: Option<&[u32]>, cfg: &PprConfig) -> Vec<f32> {
    let (n, m) = (a.nrows(), a.ncols());
    if n == 0 || m == 0 || seed_rows.is_some_and(<[u32]>::is_empty) {
        return vec![0.0; m];
    }
    // All per-call scratch lives in one pooled buffer: `dr` and the seed
    // state `tgt` (target block), then `dc` and the two source states,
    // then the folded per-entry weights `w`. One take keeps a warm call
    // at zero growth whatever the shape.
    let mut scratch = ws::take_f32(2 * n + 3 * m + a.nnz());
    let (dr, rest) = scratch.split_at_mut(n);
    let (tgt, rest) = rest.split_at_mut(n);
    let (dc, rest) = rest.split_at_mut(m);
    let (mut src, rest) = rest.split_at_mut(m);
    let (mut nxt, w) = rest.split_at_mut(m);
    // Symmetric normalization of the bipartite block matrix: degrees of a
    // target node are its row sums; of a source node, its absolute column
    // sums (accumulated in `dc`, then mapped in place).
    let inv_sqrt = |s: f32| if s > 0.0 { s.sqrt().recip() } else { 0.0 };
    dc.fill(0.0);
    for (r, d) in dr.iter_mut().enumerate() {
        let (cols, vals) = a.row(r);
        *d = inv_sqrt(vals.iter().sum());
        for (&c, &v) in cols.iter().zip(vals) {
            dc[c as usize] += v.abs();
        }
    }
    dc.iter_mut().for_each(|d| *d = inv_sqrt(*d));
    for ((wi, &c), &v) in w.iter_mut().zip(a.indices()).zip(a.values()) {
        *wi = v * dc[c as usize];
    }
    let (indptr, w) = (a.indptr(), &*w);
    let row = |r: usize| (a.row_indices(r), &w[indptr[r]..indptr[r + 1]]);

    // Seed: uniform mass over the seeded targets.
    match seed_rows {
        None => tgt.fill(1.0 / n as f32),
        Some(rows) => {
            tgt.fill(0.0);
            let w = 1.0 / rows.len() as f32;
            for &r in rows {
                tgt[r as usize] = w;
            }
        }
    }
    // First pass: x_0 (target) → x_1 (source), scatter only.
    src.fill(0.0);
    for r in 0..n {
        let t = tgt[r] * dr[r];
        if t != 0.0 {
            let (cols, wr) = row(r);
            // SAFETY: c < ncols == src.len(), validated at construction.
            unsafe { scatter_row(cols, wr, t, src) };
        }
    }

    let terms = cfg.num_terms();
    // Only source-block states (odd k) contribute to the accumulator, so
    // the last useful state is the largest odd k ≤ terms: stopping there
    // skips the advances whose results would be discarded.
    let last_src_k = terms - usize::from(terms.is_multiple_of(2));
    let decay = 1.0 - cfg.alpha;
    // coeff = α (1−α)^k, the series weight of the state x_k, built one
    // factor at a time exactly as a term-by-term loop would.
    let mut coeff = cfg.alpha * decay;
    let mut acc = vec![0f32; m];
    let mut k = 1;
    loop {
        if k == last_src_k {
            for (aa, &s) in acc.iter_mut().zip(src.iter()) {
                *aa += coeff * s;
            }
            break;
        }
        for ((aa, &s), z) in acc.iter_mut().zip(src.iter()).zip(nxt.iter_mut()) {
            *aa += coeff * s;
            *z = 0.0;
        }
        // One pass, two terms: x_k (source) → x_{k+1} (target, row-local)
        // → x_{k+2} (source).
        for (r, &d) in dr.iter().enumerate() {
            let (cols, wr) = row(r);
            let mut accr = 0f32;
            for (&c, &wi) in cols.iter().zip(wr) {
                // SAFETY: c < ncols == src.len(), validated at
                // construction.
                unsafe {
                    accr += wi * *src.get_unchecked(c as usize);
                }
            }
            let t = accr * d * d;
            if t != 0.0 {
                // SAFETY: as above, nxt.len() == ncols.
                unsafe { scatter_row(cols, wr, t, nxt) };
            }
        }
        std::mem::swap(&mut src, &mut nxt);
        coeff = coeff * decay * decay;
        k += 2;
    }
    acc
}

/// `out[c] += w · t` over one row of folded weights `w = v · dc[c]` —
/// the target → source half of a bipartite advance.
///
/// # Safety
///
/// Every index in `cols` must be below `out.len()`.
#[inline(always)]
unsafe fn scatter_row(cols: &[u32], w: &[f32], t: f32, out: &mut [f32]) {
    for (&c, &wi) in cols.iter().zip(w) {
        // SAFETY: the caller guarantees c < out.len().
        unsafe {
            *out.get_unchecked_mut(c as usize) += wi * t;
        }
    }
}

/// Dense PPR resolvent `α (I − (1−α) M)⁻¹` by Gauss–Jordan elimination.
/// O(n³); test oracle only.
pub fn dense_resolvent(m_dense: &[f32], n: usize, alpha: f32) -> Vec<f32> {
    assert_eq!(m_dense.len(), n * n);
    // Build A = I - (1-alpha) M, then invert via Gauss-Jordan with partial
    // pivoting, finally scale by alpha.
    let mut a = vec![0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let v = -(1.0 - alpha as f64) * m_dense[i * n + j] as f64;
            a[i * n + j] = if i == j { 1.0 + v } else { v };
        }
    }
    let mut inv = vec![0f64; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        // partial pivot
        let mut piv = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        assert!(a[piv * n + col].abs() > 1e-12, "singular resolvent");
        if piv != col {
            for j in 0..n {
                a.swap(col * n + j, piv * n + j);
                inv.swap(col * n + j, piv * n + j);
            }
        }
        let d = a[col * n + col];
        for j in 0..n {
            a[col * n + j] /= d;
            inv[col * n + j] /= d;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r * n + col];
            if f == 0.0 {
                continue;
            }
            for j in 0..n {
                a[r * n + j] -= f * a[col * n + j];
                inv[r * n + j] -= f * inv[col * n + j];
            }
        }
    }
    inv.iter().map(|&v| (alpha as f64 * v) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_terms_decreases_with_alpha() {
        let lo = PprConfig {
            alpha: 0.1,
            ..Default::default()
        };
        let hi = PprConfig {
            alpha: 0.5,
            ..Default::default()
        };
        assert!(lo.num_terms() > hi.num_terms());
    }

    #[test]
    fn ppr_push_matches_dense_resolvent() {
        // Small symmetric-normalized ring graph.
        let a = CsrMatrix::from_edges(
            4,
            4,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 0),
                (0, 3),
            ],
        )
        .sym_normalized();
        let cfg = PprConfig {
            alpha: 0.2,
            epsilon: 1e-7,
            max_iters: 500,
        };
        let mut seed = vec![0.0; 4];
        seed[0] = 1.0;
        let approx = ppr_push(&a, &seed, &cfg);
        let dense = dense_resolvent(&a.to_dense(), 4, 0.2);
        // seedᵀ N = row 0 of N (since M symmetric, Mᵀ=M).
        for j in 0..4 {
            assert!(
                (approx[j] - dense[j]).abs() < 1e-3,
                "mismatch at {j}: {} vs {}",
                approx[j],
                dense[j]
            );
        }
    }

    #[test]
    fn bipartite_influence_favors_high_degree_sources() {
        // 3 targets, 2 sources; source 0 connects to all targets, source 1
        // to one target.
        let a = CsrMatrix::from_edges(3, 2, &[(0, 0), (1, 0), (2, 0), (2, 1)]);
        let inf = bipartite_influence(&a, None, &PprConfig::default());
        assert!(inf[0] > inf[1], "hub source should dominate: {inf:?}");
        assert!(inf.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn bipartite_influence_empty_matrix_is_zero() {
        let a = CsrMatrix::zeros(3, 2);
        let inf = bipartite_influence(&a, None, &PprConfig::default());
        assert_eq!(inf, vec![0.0, 0.0]);
    }

    #[test]
    fn bipartite_influence_handles_isolated_sources() {
        let a = CsrMatrix::from_edges(2, 3, &[(0, 0), (1, 0)]);
        let inf = bipartite_influence(&a, None, &PprConfig::default());
        assert!(inf[0] > 0.0);
        assert_eq!(inf[1], 0.0);
        assert_eq!(inf[2], 0.0);
    }

    /// Straightforward reference that runs every advance including the
    /// discarded final ones — the restructured loop must match it bit
    /// for bit.
    fn bipartite_reference(a: &CsrMatrix, cfg: &PprConfig) -> Vec<f32> {
        let (n, m) = (a.nrows(), a.ncols());
        let row_sum = a.row_sums();
        let mut col_sum = vec![0f32; m];
        for r in 0..n {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                col_sum[c as usize] += v.abs();
            }
        }
        let dr: Vec<f32> = row_sum
            .iter()
            .map(|&s| if s > 0.0 { s.sqrt().recip() } else { 0.0 })
            .collect();
        let dc: Vec<f32> = col_sum
            .iter()
            .map(|&s| if s > 0.0 { s.sqrt().recip() } else { 0.0 })
            .collect();
        let terms = cfg.num_terms();
        let mut tgt = vec![1.0 / n as f32; n];
        let mut src = vec![0f32; m];
        let mut acc_src = vec![0f32; m];
        let mut coeff = cfg.alpha;
        let mut state_on_target = true;
        for _k in 0..=terms {
            if !state_on_target {
                for (aa, &s) in acc_src.iter_mut().zip(&src) {
                    *aa += coeff * s;
                }
            }
            if state_on_target {
                src.iter_mut().for_each(|v| *v = 0.0);
                for r in 0..n {
                    let (cols, vals) = a.row(r);
                    let t = tgt[r] * dr[r];
                    if t == 0.0 {
                        continue;
                    }
                    for (&c, &v) in cols.iter().zip(vals) {
                        src[c as usize] += v * dc[c as usize] * t;
                    }
                }
            } else {
                for r in 0..n {
                    let (cols, vals) = a.row(r);
                    let mut accr = 0f32;
                    for (&c, &v) in cols.iter().zip(vals) {
                        accr += v * dc[c as usize] * src[c as usize];
                    }
                    tgt[r] = accr * dr[r];
                }
            }
            state_on_target = !state_on_target;
            coeff *= 1.0 - cfg.alpha;
        }
        acc_src
    }

    #[test]
    fn skipping_wasted_final_advances_preserves_bits() {
        for (terms_parity_cfg, seed_edges) in [
            (
                PprConfig {
                    alpha: 0.15,
                    epsilon: 1e-3,
                    max_iters: 64,
                },
                vec![(0u32, 0u32), (1, 0), (2, 1), (3, 2), (1, 2)],
            ),
            (
                PprConfig {
                    alpha: 0.15,
                    epsilon: 1e-4,
                    // The first config's eps yields 43 terms (odd); this
                    // cap forces an even count so both parities of the
                    // last_src_k arithmetic are exercised.
                    max_iters: 42,
                },
                vec![(0, 1), (1, 1), (2, 0), (3, 3), (0, 3)],
            ),
        ] {
            let a = CsrMatrix::from_edges(4, 4, &seed_edges);
            assert_eq!(
                bipartite_influence(&a, None, &terms_parity_cfg),
                bipartite_reference(&a, &terms_parity_cfg)
            );
        }
    }

    #[test]
    fn dense_resolvent_of_zero_matrix_is_alpha_identity() {
        let m = vec![0f32; 9];
        let r = dense_resolvent(&m, 3, 0.3);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 0.3 } else { 0.0 };
                assert!((r[i * 3 + j] - expect).abs() < 1e-6);
            }
        }
    }
}
