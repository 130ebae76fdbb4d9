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
//! bipartite block operator a series term alternates between the
//! target and the source block, so after a first scatter from the
//! seeded rows, every two terms are two pure gathers over the path
//! adjacency `A`: a row side, which sums each row's weighted source
//! states into its target state, and a column side, which sums each
//! column's weighted target states into its next source state, in
//! ascending row order — the order a row-by-row scatter adds them in,
//! so the bits are those of one pass per term. A gather chain has no
//! read-modify-write of another row's output to wait on, where a
//! scatter does, and it runs many chains in one vector register.
//!
//! Both sides are SELL-16 operands (SELL-C-σ, Kreutzer et al. 2014),
//! built per call: rows, and columns, are sorted by length with a
//! counting sort, longest first, and cut into groups of 16; each group
//! stores its entries column-major, lane `l` of slot `j` holding entry
//! `j` of the group's `l`-th row (or column), with the folded weight
//! `w = a[r,c]·dc[c]` and the *position* of the other side's node. So
//! the row side gathers source states and the column side target
//! states where the plan keeps them, both sides iterate in plan order,
//! and the accumulator is put back in column-id order once at the end.
//! One pass over the nonzeros fills both sides. Every lane multiplies,
//! then adds on its own chain, masked where its row ends, so each
//! output keeps its bits in every build of the lane loop — AVX-512F,
//! AVX2 or the baseline target, picked at run time ([`ppr_build`]).
//! Plan positions are `i32` gather indices, which the plan asserts.
//! The plan lives in two pooled scratch buffers (~16 B per stored entry
//! plus group padding) for one call, so only one path's plan exists at
//! a time. [`ppr_push`] / [`ppr_push_into`] are the square-operator
//! variant, used by the bench and tests.

use crate::csr::CsrMatrix;
use crate::sell::{self, Build, Sell16, LANES};
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
/// Eq. (13). With `w_rc = a[r,c]·dc[c]` the folded weight of a stored
/// entry, the first term scatters the seed: every row `r` whose
/// `t_r = seed_r·dr[r]` is not zero adds `w_rc·t_r` into `src_1[c]`,
/// rows in ascending order. Every later pair of terms is two pure
/// gathers over a per-call SELL-16 plan of `A` (see the module docs):
///
/// * **row side:** `t_r = ((Σ_j w_rj·src_k[c_j])·dr[r])·dr[r]`, the
///   products summed in row order;
/// * **column side:** `src_{k+2}[c] = Σ_r w_rc·t_r`, summed over `r`
///   ascending.
///
/// One pass per term computes the same sums in the same order: its
/// gather is the row side's loop, and its scatter adds `w_rc·t_r` into a
/// zeroed `src_{k+2}` row by row, so `src_{k+2}[c]` receives its
/// products in ascending `r`, starting from `+0.0` — the column side's
/// order. The result is bitwise that of one pass per term, whichever
/// lane-loop build ([`ppr_build`]) runs.
///
/// The column side sums every row of a column, including rows whose
/// `t_r` is `±0`, which a scatter would skip; the bits are the same. A
/// folded weight is never `±∞` — `|v·dc[c]| ≤ √|v|` when the column sum
/// is finite, and `dc[c] = 0` when it is not — and a NaN weight makes its
/// own row's gather, hence `t_r`, NaN. So a row with `t_r = ±0` adds only
/// `±0` terms, and `x + ±0 == x` for every `x` but `−0`, which the sum
/// cannot hold: it starts at `+0.0`, and a sum is `−0` only when both
/// addends are. (Edge weights are finite in practice anyway:
/// `HeteroGraph::apply_delta` asserts it for every delta edge, and the
/// serving wire decoder rejects non-finite deltas before that.) The
/// first term keeps the skip, for two reasons: a seeded call leaves most
/// rows at exactly zero there, so the scatter reads only the seeded rows;
/// and `t_r` there comes from the seed, not from a gather, so a row with a
/// NaN weight (whose `dr[r]` is `0`) has `t_r = +0` and only the skip
/// keeps its `NaN·0` out of `src_1`.
pub fn bipartite_influence(a: &CsrMatrix, seed_rows: Option<&[u32]>, cfg: &PprConfig) -> Vec<f32> {
    influence(Build::detect(), a, seed_rows, cfg)
}

/// The build of the SELL-16 lane loop [`bipartite_influence`] runs on
/// this CPU: `"avx512"`, `"avx2"` or `"baseline"`.
pub fn ppr_build() -> &'static str {
    Build::detect().name()
}

/// Every build of the lane loop this CPU runs, narrowest first.
#[doc(hidden)]
pub fn ppr_builds() -> Vec<&'static str> {
    Build::available().into_iter().map(Build::name).collect()
}

/// [`bipartite_influence`] through the named build of the lane loop,
/// for tests that pin every build. Panics when this CPU does not run
/// `build` (see [`ppr_builds`]).
#[doc(hidden)]
pub fn bipartite_influence_build(
    build: &str,
    a: &CsrMatrix,
    seed_rows: Option<&[u32]>,
    cfg: &PprConfig,
) -> Vec<f32> {
    let build = Build::available()
        .into_iter()
        .find(|b| b.name() == build)
        .unwrap_or_else(|| panic!("this CPU does not run the {build:?} PPR build"));
    influence(build, a, seed_rows, cfg)
}

/// Counting-sorts `k` lanes by length, longest first (ties by id), into
/// SELL-16 positions: `pos[id]` is each lane's position, `lens` (padded
/// to a multiple of 16) each position's length and `base[g]` the first
/// slot of group `g`. Returns the slots all groups occupy. `hist` must
/// have room for the longest length plus one.
fn layout(
    k: usize,
    len_of: impl Fn(usize) -> usize,
    hist: &mut [u32],
    pos: &mut [u32],
    lens: &mut [u32],
    base: &mut [u32],
) -> usize {
    let longest = (0..k).map(&len_of).max().unwrap_or(0);
    let hist = &mut hist[..=longest];
    hist.fill(0);
    for id in 0..k {
        hist[len_of(id)] += 1;
    }
    let mut next = 0;
    for h in hist.iter_mut().rev() {
        (*h, next) = (next, next + *h);
    }
    lens.fill(0);
    for (id, p) in pos.iter_mut().enumerate() {
        let len = len_of(id);
        *p = hist[len];
        hist[len] += 1;
        lens[*p as usize] = len as u32;
    }
    let mut slots = 0usize;
    for (b, g) in base.iter_mut().zip(lens.chunks_exact(LANES)) {
        *b = u32::try_from(slots).expect("PPR plan slots exceed u32");
        slots += LANES * g[0] as usize;
    }
    assert!(slots <= u32::MAX as usize, "PPR plan slots exceed u32");
    slots
}

/// [`bipartite_influence`] through one build of the lane loop.
fn influence(build: Build, a: &CsrMatrix, seed_rows: Option<&[u32]>, cfg: &PprConfig) -> Vec<f32> {
    let (n, m) = (a.nrows(), a.ncols());
    if n == 0 || m == 0 || seed_rows.is_some_and(<[u32]>::is_empty) {
        return vec![0.0; m];
    }
    let (n_pad, m_pad) = (n.next_multiple_of(LANES), m.next_multiple_of(LANES));
    assert!(
        n_pad <= i32::MAX as usize && m_pad <= i32::MAX as usize,
        "every plan position must fit an i32 gather index"
    );
    let (indptr, indices, values) = (a.indptr(), a.indices(), a.values());
    let inv_sqrt = |s: f32| if s > 0.0 { s.sqrt().recip() } else { 0.0 };

    // Float scratch, one pooled buffer: the row degrees in id order and
    // by position, the target state, and the two source states and the
    // accumulator by position.
    let mut floats = ws::take_f32(n + 2 * n_pad + 3 * m_pad);
    let (dr, rest) = floats.split_at_mut(n);
    let (drp, rest) = rest.split_at_mut(n_pad);
    let (t, rest) = rest.split_at_mut(n_pad);
    let (mut src, rest) = rest.split_at_mut(m_pad);
    let (mut nxt, acc) = rest.split_at_mut(m_pad);

    // Integer scratch, one pooled buffer: the positions of rows and
    // columns; a 4-word record per column — its position, its next free
    // column-side slot (its entry count until the layout) and its degree
    // `dc` as `f32` bits — so a pass over the nonzeros reads one cache
    // line per entry; the lengths by position, the group bases and the
    // sort histogram (a row holds at most m entries and a column at most
    // n: CSR columns are unique per row); then both sides' input
    // positions and weights (as `f32` bits), sized once the layout is
    // known.
    let meta = n + 5 * m + n_pad + m_pad + (n_pad + m_pad) / LANES + n.max(m) + 1;
    let mut ints = ws::take_u32(meta);
    let (rslots, cslots) = {
        let (row_pos, rest) = ints.split_at_mut(n);
        let (col_pos, rest) = rest.split_at_mut(m);
        let (col, rest) = rest.split_at_mut(4 * m);
        let (rlens, rest) = rest.split_at_mut(n_pad);
        let (clens, rest) = rest.split_at_mut(m_pad);
        let (rbase, rest) = rest.split_at_mut(n_pad / LANES);
        let (cbase, hist) = rest.split_at_mut(m_pad / LANES);
        let rslots = layout(
            n,
            |r| indptr[r + 1] - indptr[r],
            hist,
            row_pos,
            rlens,
            rbase,
        );
        // Symmetric normalization of the bipartite block matrix: degrees
        // of a target node are its row sums; of a source node, its
        // absolute column sums (accumulated in its record, then mapped
        // in place).
        col.fill(0);
        drp.fill(0.0);
        for (r, d) in dr.iter_mut().enumerate() {
            let (cols, vals) = a.row(r);
            *d = inv_sqrt(vals.iter().sum());
            drp[row_pos[r] as usize] = *d;
            for (&c, &v) in cols.iter().zip(vals) {
                let rec = &mut col[4 * c as usize..][..4];
                rec[1] += 1;
                rec[2] = (f32::from_bits(rec[2]) + v.abs()).to_bits();
            }
        }
        let cslots = layout(m, |c| col[4 * c + 1] as usize, hist, col_pos, clens, cbase);
        for (rec, &q) in col.chunks_exact_mut(4).zip(col_pos.iter()) {
            rec[0] = q;
            rec[1] = cbase[q as usize / LANES] + q % LANES as u32;
            rec[2] = inv_sqrt(f32::from_bits(rec[2])).to_bits();
        }
        (rslots, cslots)
    };
    ints.resize(meta + 2 * (rslots + cslots), 0);
    let (meta, slots) = ints.split_at_mut(meta);
    let (row_pos, rest) = meta.split_at_mut(n);
    let (col_pos, rest) = rest.split_at_mut(m);
    let (col, rest) = rest.split_at_mut(4 * m);
    let (rlens, rest) = rest.split_at_mut(n_pad);
    let (clens, rest) = rest.split_at_mut(m_pad);
    let rbase = &rest[..n_pad / LANES];
    let (ridx, rest) = slots.split_at_mut(rslots);
    let (rw, rest) = rest.split_at_mut(rslots);
    let (cidx, cw) = rest.split_at_mut(cslots);

    // The plan, in one pass over the nonzeros: entry j of row r goes to
    // slot j of the row's lane, and to the next free slot of its
    // column's lane, so a column's entries land in ascending r. Both
    // sides get the folded weight `w = a[r,c]·dc[c]`.
    for r in 0..n {
        let p = row_pos[r];
        let mut rs = rbase[p as usize / LANES] as usize + p as usize % LANES;
        for i in indptr[r]..indptr[r + 1] {
            let rec = &mut col[4 * indices[i] as usize..][..4];
            let w = (values[i] * f32::from_bits(rec[2])).to_bits();
            let cs = rec[1] as usize;
            rec[1] += LANES as u32;
            ridx[rs] = rec[0];
            rw[rs] = w;
            rs += LANES;
            cidx[cs] = p;
            cw[cs] = w;
        }
    }
    let rows = Sell16 {
        lens: rlens,
        idx: ridx,
        w: rw,
    };
    let cols = Sell16 {
        lens: clens,
        idx: cidx,
        w: cw,
    };

    // Seed: uniform mass over the seeded targets, in id order.
    let tgt = &mut t[..n];
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
    // First term: x_0 (target) → x_1 (source), a scatter from the rows
    // with mass, in id order, then moved to plan positions.
    let first = &mut nxt[..m];
    first.fill(0.0);
    for r in 0..n {
        let t = tgt[r] * dr[r];
        if t != 0.0 {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let dc = f32::from_bits(col[4 * c as usize + 2]);
                first[c as usize] += v * dc * t;
            }
        }
    }
    src.fill(0.0);
    for (&s, &q) in first.iter().zip(col_pos.iter()) {
        src[q as usize] = s;
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
    acc.fill(0.0);
    let mut k = 1;
    loop {
        for (aa, &s) in acc.iter_mut().zip(src.iter()) {
            *aa += coeff * s;
        }
        if k == last_src_k {
            break;
        }
        // Two terms: x_k (source) → x_{k+1} (target) → x_{k+2} (source).
        // SAFETY: the CPU runs `build` (it came from `Build`), a live
        // row slot holds a column position (< m_pad == src.len()) and a
        // live column slot a row position (< n_pad == t.len()).
        unsafe {
            sell::pull(build, &rows, src, Some(drp), t);
            sell::pull(build, &cols, t, None, nxt);
        }
        std::mem::swap(&mut src, &mut nxt);
        coeff = coeff * decay * decay;
        k += 2;
    }
    col_pos.iter().map(|&q| acc[q as usize]).collect()
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
    /// discarded final ones, and skips every scatter from a row whose
    /// state is zero — the restructured loop must match it bit for bit.
    fn bipartite_reference(a: &CsrMatrix, seed_rows: Option<&[u32]>, cfg: &PprConfig) -> Vec<f32> {
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
        if let Some(rows) = seed_rows {
            tgt.fill(0.0);
            for &r in rows {
                tgt[r as usize] = 1.0 / rows.len() as f32;
            }
        }
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
                bipartite_reference(&a, None, &terms_parity_cfg)
            );
        }
    }

    /// A sparse random block with a few seeded rows: in the early
    /// passes most rows gather nothing (`t = +0`), and rows whose weights
    /// sum to ≤ 0 have `d = 0`, so `t = ±0` whatever they gather. The
    /// column side sums their products too; every bit must stay that of
    /// the reference's guarded scatter.
    #[test]
    fn zero_state_rows_scatter_without_changing_bits() {
        use rand::{Rng, SeedableRng};
        let (n, m) = (400u32, 300u32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut coo = crate::coo::CooMatrix::new(n as usize, m as usize);
        for r in 0..n {
            for _ in 0..2 {
                // One row in eight carries negative weights only.
                let w = if r % 8 == 0 {
                    -0.5
                } else {
                    rng.gen_range(0.25f32..2.0)
                };
                coo.push(r, rng.gen_range(0..m), w);
            }
        }
        let a = coo.to_csr();
        let seeds = [3u32, 150, 299];
        // Rows sharing no source with a seed row gather exactly zero in
        // the first double pass.
        let seeded_cols: Vec<u32> = seeds
            .iter()
            .flat_map(|&r| a.row_indices(r as usize).to_vec())
            .collect();
        let idle = (0..n as usize)
            .filter(|&r| a.row_indices(r).iter().all(|c| !seeded_cols.contains(c)))
            .count();
        assert!(idle > n as usize * 9 / 10, "only {idle} idle rows");
        let cfg = PprConfig::default();
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for seed_rows in [Some(&seeds[..]), None] {
            assert_eq!(
                bits(bipartite_influence(&a, seed_rows, &cfg)),
                bits(bipartite_reference(&a, seed_rows, &cfg)),
                "seed rows {seed_rows:?}"
            );
        }
    }

    /// A row with a NaN weight has `dr = 0`, so its first-term state is
    /// `+0` while its folded weight is NaN: only the first term's skip of
    /// rows without mass keeps `NaN·0` out of the result.
    #[test]
    fn first_term_skips_an_unseeded_row_with_a_nan_weight() {
        let mut coo = crate::coo::CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 1.0),
            (0, 1, 0.5),
            (1, 1, f32::NAN),
            (1, 2, 1.0),
            (2, 2, 2.0),
        ] {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        assert!(a.values().iter().any(|v| v.is_nan()));
        let one_term = PprConfig {
            alpha: 1.0,
            ..Default::default()
        };
        let got = bipartite_influence(&a, Some(&[0, 2]), &one_term);
        assert!(got.iter().all(|v| v.is_finite()), "{got:?}");
        assert_eq!(got, bipartite_reference(&a, Some(&[0, 2]), &one_term));
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
