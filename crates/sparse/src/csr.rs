//! Compressed-sparse-row matrices and the kernels FreeHGC builds on.
//!
//! Column indices are `u32` (heterogeneous benchmark graphs stay well below
//! 4 B nodes per type) and values are `f32`, which halves memory traffic
//! relative to `usize`/`f64` — the SpGEMM in meta-path composition (Eq. 1 of
//! the paper) is bandwidth-bound.
//!
//! # Kernel architecture
//!
//! Every hot kernel here has a **retained naive reference**
//! (`spgemm_serial`, `spmv_ref`, `spmv_t_ref`, `spmm_dense_ref`) whose
//! output the public kernel must match *bitwise* at every thread count.
//! The references double as the throughput baselines of the
//! `bench_report` kernel table's reference column.
//!
//! `spmv_t` and `spmm_dense` run their references' loops: `spmv_t` is
//! the bounds-checked serial scatter, and `spmm_dense` streams each
//! sparse row's scaled source rows into its output row, partitioned by
//! output rows across threads. A register-blocked `spmm_dense` and an
//! unchecked, binned-parallel `spmv_t` measured no faster than these
//! loops at the workloads' shapes and were removed.
//!
//! `spgemm` and `spmv` get their speed from two mechanisms, each of
//! which provably preserves bits:
//!
//! * **Dense accumulator + visited marker (SpGEMM).** A generation
//!   counter per accumulator slot replaces the `acc[j] == 0.0`
//!   occupancy probe; first touch *sets* `a·b` instead of adding it to
//!   zero. `x` and `0.0 + x` differ only when `x` is `-0.0`, and exact
//!   zeros (either sign) are filtered out of the emitted pattern by the
//!   same `v != 0.0` check the naive path uses — so pattern and values
//!   are identical. An exact per-row upper-bound prepass
//!   (Σ `nnz(B[a_k,:])`) sizes the output buffers once. The accumulator
//!   is always the full width of the right-hand side.
//! * **Canonical 8-lane reduction order (dot-product kernels).** `spmv`
//!   (and `Matrix::matmul_nt` in `freehgc_autograd`) accumulate element
//!   `j` into lane `j % 8` and combine lanes as
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. That fixed shape is what
//!   lets the autovectorizer keep 8 independent partial sums in SIMD
//!   registers — and because the *reference implements the same order*,
//!   serial, SIMD-shaped, and every parallel partition agree bitwise.
//!   The lane order is the single canonical semantics; there is no
//!   "fast but different" mode.
//!
//! Index arithmetic inside these two kernels uses `get_unchecked` —
//! sound because [`CsrMatrix::from_parts`] validates every column index
//! against `ncols` up front.
//!
//! SpGEMM scratch buffers (accumulators, markers, touched lists) come
//! from the per-thread pool in [`freehgc_parallel::workspace`], so
//! iterative callers stop paying an allocation per call; pooled buffers
//! are either fully overwritten or marker-guarded, which keeps pooling
//! invisible to the results.

use crate::coo::CooMatrix;
use freehgc_parallel as par;
use freehgc_parallel::workspace as ws;
use std::ops::Range;

/// Minimum rows a SpGEMM worker may own (caps the chunk count so tall
/// ultra-sparse matrices don't over-partition).
const SPGEMM_ROW_GRAIN: usize = 32;
/// Minimum stored entries of `A` a SpGEMM worker must own — each entry
/// triggers a row-of-`B` merge, so this is the work proxy that keeps
/// near-empty matrices (tiny graphs, short meta-path prefixes) serial.
const SPGEMM_NNZ_GRAIN: usize = 2048;
/// Minimum stored entries a worker must own before SpMV/transpose go
/// parallel. These kernels are cheap per entry, so the grain must be
/// several multiples of a scoped-thread spawn (~tens of µs) to pay off.
const SPARSE_NNZ_GRAIN: usize = 16_384;
/// Minimum scalar multiply-adds a worker must own before the sparse ×
/// dense product goes parallel.
const DENSE_FLOP_GRAIN: usize = 65_536;
/// Dense-scan emission threshold: when a row's touched set covers at
/// least `1/SPGEMM_DENSE_EMIT_DIV` of the accumulator width, emitting
/// by scanning the marker array in column order is cheaper than sorting
/// the touched list. Both emit identical bits (a marker scan visits
/// columns in increasing order, exactly like the sorted list).
const SPGEMM_DENSE_EMIT_DIV: usize = 8;

/// Combines the 8 canonical partial sums. This exact association —
/// pairs, then pairs of pairs — is part of the kernel semantics: the
/// naive references and the optimized kernels both use it, which is why
/// they agree bitwise.
#[inline(always)]
fn combine_lanes(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The canonical 8-lane sparse dot product: element `j` of the row
/// accumulates into lane `j % 8`, lanes combine via [`combine_lanes`].
/// The blocked main loop and the naive `spmv_ref` loop put every
/// element into the same lane in the same order, so their bits match.
#[inline]
fn dot_lanes(cols: &[u32], vals: &[f32], x: &[f32]) -> f32 {
    let mut lanes = [0f32; 8];
    let mut cc = cols.chunks_exact(8);
    let mut vc = vals.chunks_exact(8);
    for (c8, v8) in (&mut cc).zip(&mut vc) {
        for l in 0..8 {
            // SAFETY: every column index is < ncols == x.len(),
            // validated by `CsrMatrix::from_parts`.
            lanes[l] += v8[l] * unsafe { *x.get_unchecked(c8[l] as usize) };
        }
    }
    for (l, (&c, &v)) in cc.remainder().iter().zip(vc.remainder()).enumerate() {
        // SAFETY: as above.
        lanes[l] += v * unsafe { *x.get_unchecked(c as usize) };
    }
    combine_lanes(lanes)
}

/// The total order behind [`CsrMatrix::top_k_per_row`]: magnitude
/// descending, then column ascending. Being total (ties broken by the
/// unique column id, NaN handled by `total_cmp`) is what makes an O(n)
/// k-selection keep *exactly* the entry set a full sort keeps.
fn top_k_cmp(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0))
}

/// Advances the SpGEMM visited-marker generation, re-zeroing the marker
/// array on the (astronomically rare) u32 wrap so a stale generation
/// can never alias a live one.
fn next_gen(gen: u32, marker: &mut [u32]) -> u32 {
    if gen == u32::MAX {
        marker.fill(0);
        1
    } else {
        gen + 1
    }
}

/// Merges one scaled B-row run into the marker-guarded accumulator.
/// First touch in this generation *sets* the product, later touches
/// add — see [`CsrMatrix::spgemm_rows_opt`] for why this matches
/// add-from-zero bitwise.
#[inline]
fn accumulate_run(
    bcols: &[u32],
    bvals: &[f32],
    av: f32,
    gen: u32,
    acc: &mut [f32],
    marker: &mut [u32],
    touched: &mut Vec<u32>,
) {
    for (&bc, &bv) in bcols.iter().zip(bvals) {
        let j = bc as usize;
        // SAFETY: j < ncols == accumulator width — column indices are
        // validated `< ncols` at construction.
        unsafe {
            if *marker.get_unchecked(j) != gen {
                *marker.get_unchecked_mut(j) = gen;
                *acc.get_unchecked_mut(j) = av * bv;
                touched.push(bc);
            } else {
                *acc.get_unchecked_mut(j) += av * bv;
            }
        }
    }
}

/// Emits one accumulated output row in increasing column order,
/// filtering exact zeros — by sorting the touched list when sparse, or
/// by scanning the marker array in column order when the row is dense
/// enough ([`SPGEMM_DENSE_EMIT_DIV`]). Both orders are the same order,
/// so the choice never shows in the output.
fn emit_row(
    acc: &[f32],
    marker: &[u32],
    gen: u32,
    touched: &mut Vec<u32>,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    if touched.len() * SPGEMM_DENSE_EMIT_DIV >= acc.len() {
        for (j, (&m, &v)) in marker.iter().zip(acc).enumerate() {
            if m == gen && v != 0.0 {
                indices.push(j as u32);
                values.push(v);
            }
        }
    } else {
        touched.sort_unstable();
        for &c in touched.iter() {
            let v = acc[c as usize];
            if v != 0.0 {
                indices.push(c);
                values.push(v);
            }
        }
    }
    touched.clear();
}

/// An immutable CSR matrix. Rows are contiguous index/value slices with
/// strictly increasing column indices.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Box<[usize]>,
    indices: Box<[u32]>,
    values: Box<[f32]>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    ///
    /// # Panics
    /// Panics if `indptr` is not monotone, lengths disagree, or any row has
    /// unsorted / duplicate / out-of-range column indices.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length must be nrows+1");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr tail != nnz");
        assert!(ncols <= u32::MAX as usize, "ncols exceeds u32 index range");
        for r in 0..nrows {
            let (s, e) = (indptr[r], indptr[r + 1]);
            assert!(s <= e, "indptr not monotone at row {r}");
            let row = &indices[s..e];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {r} has unsorted or duplicate columns");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < ncols, "row {r} column out of range");
            }
        }
        Self {
            nrows,
            ncols,
            indptr: indptr.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// An `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_parts(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    /// An empty matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self::from_parts(nrows, ncols, vec![0; nrows + 1], Vec::new(), Vec::new())
    }

    /// Builds from an unsorted edge list with unit weights (duplicates sum).
    pub fn from_edges(nrows: usize, ncols: usize, edges: &[(u32, u32)]) -> Self {
        let mut coo = CooMatrix::new(nrows, ncols);
        for &(r, c) in edges {
            coo.push(r, c, 1.0);
        }
        coo.to_csr()
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// The column indices of row `r` (its "receptive field" along this
    /// relation, in the paper's terms).
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Stored value at `(r, c)` or 0.0.
    pub fn get(&self, r: usize, c: u32) -> f32 {
        let row = self.row_indices(r);
        match row.binary_search(&c) {
            Ok(pos) => self.values[self.indptr[r] + pos],
            Err(_) => 0.0,
        }
    }

    /// Out-degrees (stored entries per row).
    pub fn out_degrees(&self) -> Vec<usize> {
        (0..self.nrows).map(|r| self.row_nnz(r)).collect()
    }

    /// Per-row sums of stored values.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.nrows)
            .map(|r| self.row(r).1.iter().sum())
            .collect()
    }

    /// Transpose, producing a CSR matrix of shape `ncols × nrows`.
    ///
    /// Parallelized by *output-row ownership*: each worker owns a
    /// contiguous range of original columns and fills the corresponding
    /// disjoint region of the output buffers, visiting original rows in
    /// increasing order — exactly the fill order of the serial path, so
    /// the result is bitwise-identical at any thread count.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in self.indices.iter() {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        let chunks = par::chunks_for(self.nnz(), SPARSE_NNZ_GRAIN, self.ncols);
        if chunks <= 1 {
            self.transpose_fill(0, self.ncols, &indptr, &mut indices, &mut values);
        } else {
            let ranges = par::chunk_ranges(self.ncols, chunks);
            let lens: Vec<usize> = ranges
                .iter()
                .map(|r| indptr[r.end] - indptr[r.start])
                .collect();
            let islices = par::split_by_lens(&mut indices, lens.iter().copied());
            let vslices = par::split_by_lens(&mut values, lens);
            let work: Vec<_> = ranges
                .into_iter()
                .zip(islices.into_iter().zip(vslices))
                .collect();
            par::scoped_map(work, |_, (r, (isl, vsl))| {
                self.transpose_fill(r.start, r.end, &indptr, isl, vsl);
            });
        }
        // Rows of the transpose are filled in increasing original-row order,
        // so column indices are already sorted.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr: indptr.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// Fills the transpose's output rows for original columns
    /// `lo..hi`; `indices`/`values` cover exactly
    /// `indptr[lo]..indptr[hi]` of the output buffers.
    fn transpose_fill(
        &self,
        lo: usize,
        hi: usize,
        indptr: &[usize],
        indices: &mut [u32],
        values: &mut [f32],
    ) {
        let base = indptr[lo];
        let mut cursor: Vec<usize> = indptr[lo..hi].iter().map(|&p| p - base).collect();
        let full = lo == 0 && hi == self.ncols;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            // Row columns are sorted, so the slice owned by this worker
            // is a contiguous window found by binary search.
            let (s, e) = if full {
                (0, cols.len())
            } else {
                (
                    cols.partition_point(|&c| (c as usize) < lo),
                    cols.partition_point(|&c| (c as usize) < hi),
                )
            };
            for (&c, &v) in cols[s..e].iter().zip(&vals[s..e]) {
                let slot = &mut cursor[c as usize - lo];
                indices[*slot] = r as u32;
                values[*slot] = v;
                *slot += 1;
            }
        }
    }

    /// Row-normalized copy: each non-empty row scaled to sum 1 (the `Â`
    /// operator of Eq. 1).
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..out.nrows {
            let (s, e) = (out.indptr[r], out.indptr[r + 1]);
            let sum: f32 = out.values[s..e].iter().sum();
            if sum > 0.0 {
                let inv = 1.0 / sum;
                for v in &mut out.values[s..e] {
                    *v *= inv;
                }
            }
        }
        out
    }

    /// Symmetric normalization `D^{-1/2} A D^{-1/2}` for a square matrix,
    /// with degrees taken as row sums of |values|.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn sym_normalized(&self) -> CsrMatrix {
        assert_eq!(self.nrows, self.ncols, "sym_normalized requires square");
        let mut dinv = vec![0f32; self.nrows];
        for r in 0..self.nrows {
            let s: f32 = self.row(r).1.iter().map(|v| v.abs()).sum();
            dinv[r] = if s > 0.0 { s.sqrt().recip() } else { 0.0 };
        }
        let mut out = self.clone();
        for r in 0..out.nrows {
            let (s, e) = (out.indptr[r], out.indptr[r + 1]);
            for k in s..e {
                let c = out.indices[k] as usize;
                out.values[k] *= dinv[r] * dinv[c];
            }
        }
        out
    }

    /// `A + B` over the union of sparsity patterns.
    pub fn add(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.nrows, other.nrows, "shape mismatch");
        assert_eq!(self.ncols, other.ncols, "shape mismatch");
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (ca, va) = self.row(r);
            for (&c, &v) in ca.iter().zip(va) {
                coo.push(r as u32, c, v);
            }
            let (cb, vb) = other.row(r);
            for (&c, &v) in cb.iter().zip(vb) {
                coo.push(r as u32, c, v);
            }
        }
        coo.to_csr()
    }

    /// `(A + Aᵀ) / 2` for a square matrix — the symmetrization used before
    /// normalizing meta-path adjacencies in Eq. (10)-(11).
    pub fn symmetrize(&self) -> CsrMatrix {
        let mut m = self.add(&self.transpose());
        for v in m.values.iter_mut() {
            *v *= 0.5;
        }
        m
    }

    /// Scales all stored values.
    pub fn scaled(&self, factor: f32) -> CsrMatrix {
        let mut out = self.clone();
        for v in out.values.iter_mut() {
            *v *= factor;
        }
        out
    }

    /// Drops stored entries with `|value| <= eps`, recompacting rows.
    pub fn pruned(&self, eps: f32) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0usize);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if v.abs() > eps {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: indptr.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// Keeps at most the `k` largest-magnitude entries per row (the
    /// `MAX_ROW_NNZ` fill-in cap behind meta-path composition).
    ///
    /// Rows at or under the cap are copied straight through — they are
    /// already column-sorted, so no scratch, selection, or re-sort is
    /// needed. Heavy rows use an O(n) `select_nth_unstable_by`
    /// k-selection under `top_k_cmp` (magnitude descending, column
    /// ascending — a *total* order, so the selection keeps exactly the
    /// same entry set a full sort would) and only the `k` survivors are
    /// re-sorted by column. [`CsrMatrix::top_k_per_row_ref`] is the
    /// full-sort reference this is pinned bitwise-equal to.
    pub fn top_k_per_row(&self, k: usize) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0usize);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            if cols.len() <= k {
                indices.extend_from_slice(cols);
                values.extend_from_slice(vals);
            } else {
                scratch.clear();
                scratch.extend(cols.iter().copied().zip(vals.iter().copied()));
                scratch.select_nth_unstable_by(k, top_k_cmp);
                scratch.truncate(k);
                scratch.sort_unstable_by_key(|&(c, _)| c);
                for &(c, v) in &scratch {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: indptr.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// Full-sort reference for [`CsrMatrix::top_k_per_row`]: sorts every
    /// row completely under the same total order, truncates, re-sorts by
    /// column. O(n log n) per row — kept as the oracle the O(n)
    /// selection path is pinned bitwise-equal to.
    #[doc(hidden)]
    pub fn top_k_per_row_ref(&self, k: usize) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0usize);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            scratch.clear();
            scratch.extend(cols.iter().copied().zip(vals.iter().copied()));
            scratch.sort_unstable_by(top_k_cmp);
            scratch.truncate(k);
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: indptr.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// Dense `y = A·x` (sparse matrix, dense vector). Row-partitioned
    /// parallel: each worker owns a disjoint slice of `y`. The result is
    /// a fresh `nrows`-long `Vec`; iterative callers reuse their own
    /// buffer through [`CsrMatrix::spmv_into`].
    ///
    /// Per-row reduction uses the canonical 8-lane order (see the
    /// module docs); [`CsrMatrix::spmv_ref`] is the naive oracle with
    /// the same semantics.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0f32; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// In-place `y = A·x`, overwriting `y` (length `nrows`). Lets hot
    /// iterative callers (PPR, HITS) reuse buffers instead of
    /// allocating per term.
    pub fn spmv_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.ncols, "vector length mismatch");
        assert_eq!(y.len(), self.nrows, "output length mismatch");
        let chunks = par::chunks_for(self.nnz(), SPARSE_NNZ_GRAIN, self.nrows);
        if chunks <= 1 {
            self.spmv_rows(x, 0..self.nrows, y);
        } else {
            let ranges = par::chunk_ranges(self.nrows, chunks);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            par::par_write_chunks(ranges, lens, y, |_, r, ys| self.spmv_rows(x, r, ys));
        }
    }

    /// `y[i] = A[rows.start + i, :] · x` for the given row range, in the
    /// canonical 8-lane reduction order. Serial path and every parallel
    /// partition run exactly this per-row kernel.
    fn spmv_rows(&self, x: &[f32], rows: Range<usize>, y: &mut [f32]) {
        for (i, r) in rows.enumerate() {
            let (cols, vals) = self.row(r);
            y[i] = dot_lanes(cols, vals, x);
        }
    }

    /// Naive reference for [`CsrMatrix::spmv`]: same canonical 8-lane
    /// reduction order, written as the obvious scalar loop (no lane
    /// blocking, no unchecked indexing). The optimized kernel is pinned
    /// bitwise-equal to this at every thread count.
    pub fn spmv_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.ncols, "vector length mismatch");
        (0..self.nrows)
            .map(|r| {
                let (cols, vals) = self.row(r);
                let mut lanes = [0f32; 8];
                for (j, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                    lanes[j % 8] += v * x[c as usize];
                }
                combine_lanes(lanes)
            })
            .collect()
    }

    /// Dense `y = Aᵀ·x` without materializing the transpose, into a
    /// fresh `ncols`-long `Vec` (see [`CsrMatrix::spmv_t_into`] to reuse
    /// a buffer). Bitwise-equal to [`CsrMatrix::spmv_t_ref`].
    pub fn spmv_t(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0f32; self.ncols];
        self.spmv_t_into(x, &mut y);
        y
    }

    /// Naive reference (and throughput baseline) for
    /// [`CsrMatrix::spmv_t`]: the same bounds-checked serial scatter,
    /// into a fresh output.
    pub fn spmv_t_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.nrows, "vector length mismatch");
        let mut y = vec![0f32; self.ncols];
        for r in 0..self.nrows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                y[c as usize] += v * xr;
            }
        }
        y
    }

    /// In-place `y = Aᵀ·x`, overwriting `y` (length `ncols`).
    ///
    /// Serial at every thread budget: rows in increasing order scatter
    /// `A[r,c]·x[r]` into `y[c]`, skipping rows with `x[r] == 0.0` —
    /// the accumulation order of [`CsrMatrix::spmv_t_ref`]. An
    /// order-preserving parallel scatter has to stream every entry
    /// twice, so it only pays off on large outputs with four or more
    /// real cores behind it, which no workload here reaches.
    pub fn spmv_t_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.nrows, "vector length mismatch");
        assert_eq!(y.len(), self.ncols, "output length mismatch");
        y.fill(0.0);
        for r in 0..self.nrows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                y[c as usize] += v * xr;
            }
        }
    }

    /// Dense `Y = A·X` where `X` is row-major `ncols × dim`.
    /// This is the feature-propagation kernel of the HGNN pre-processing.
    /// Row-partitioned parallel: each worker owns a disjoint block of
    /// output rows. The result is a fresh `Vec`; hot callers use
    /// [`CsrMatrix::spmm_dense_into`] to reuse their own buffer.
    /// Every partition runs the loop of [`CsrMatrix::spmm_dense_ref`],
    /// so the result is bitwise-equal to it at any thread count.
    pub fn spmm_dense(&self, x: &[f32], dim: usize) -> Vec<f32> {
        let mut y = vec![0f32; self.nrows * dim];
        self.spmm_dense_into(x, dim, &mut y);
        y
    }

    /// In-place `Y = A·X`, overwriting `y` (length `nrows * dim`; prior
    /// contents are ignored — each output row is zeroed right before
    /// it accumulates).
    pub fn spmm_dense_into(&self, x: &[f32], dim: usize, y: &mut [f32]) {
        assert_eq!(x.len(), self.ncols * dim, "dense operand shape mismatch");
        assert_eq!(y.len(), self.nrows * dim, "dense output shape mismatch");
        let chunks = par::chunks_for(self.nnz().saturating_mul(dim), DENSE_FLOP_GRAIN, self.nrows);
        if chunks <= 1 {
            self.spmm_rows(x, dim, 0..self.nrows, y);
        } else {
            let ranges = par::chunk_ranges(self.nrows, chunks);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len() * dim).collect();
            par::par_write_chunks(ranges, lens, y, |_, r, ys| self.spmm_rows(x, dim, r, ys));
        }
    }

    /// The dense rows of `A·X` for the given row range, written into
    /// `y` (length `rows.len() * dim`): each sparse entry `A[r,c]` adds
    /// `A[r,c]·X[c,:]` into output row `r`, in sparse-row order — the
    /// per-element order of [`CsrMatrix::spmm_dense_ref`].
    fn spmm_rows(&self, x: &[f32], dim: usize, rows: Range<usize>, y: &mut [f32]) {
        for (i, r) in rows.enumerate() {
            let (cols, vals) = self.row(r);
            let out = &mut y[i * dim..(i + 1) * dim];
            out.fill(0.0);
            for (&c, &v) in cols.iter().zip(vals) {
                let src = &x[c as usize * dim..(c as usize + 1) * dim];
                for (o, s) in out.iter_mut().zip(src) {
                    *o += v * s;
                }
            }
        }
    }

    /// Naive reference (and throughput baseline) for
    /// [`CsrMatrix::spmm_dense`]: accumulate each sparse entry's scaled
    /// source row into the output row, serially into a fresh output.
    pub fn spmm_dense_ref(&self, x: &[f32], dim: usize) -> Vec<f32> {
        assert_eq!(x.len(), self.ncols * dim, "dense operand shape mismatch");
        let mut y = vec![0f32; self.nrows * dim];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let out = &mut y[r * dim..(r + 1) * dim];
            for (&c, &v) in cols.iter().zip(vals) {
                let src = &x[c as usize * dim..(c as usize + 1) * dim];
                for (o, s) in out.iter_mut().zip(src) {
                    *o += v * s;
                }
            }
        }
        y
    }

    /// Sparse × sparse product by Gustavson's row-wise algorithm with a
    /// dense accumulator — O(flops), the standard SpGEMM for meta-path
    /// adjacency composition (Eq. 1).
    ///
    /// The per-row kernel uses the visited-marker accumulator described
    /// in the module docs: a generation counter per column replaces the
    /// `== 0.0` occupancy probe, an exact per-chunk upper-bound prepass
    /// sizes the output buffers once (no regrowth), scratch comes from
    /// the workspace pool, and the accumulator spans all of
    /// `other.ncols()`. Output is pinned bitwise-equal to the retained
    /// naive [`CsrMatrix::spgemm_serial`].
    ///
    /// Row-partitioned parallel in two phases: each worker runs the
    /// kernel over its contiguous row chunk into chunk-local buffers
    /// (recording per-row counts, which double as the symbolic result),
    /// a serial prefix sum turns the counts into the exact `indptr`
    /// offsets, and the chunk buffers are copied into their disjoint
    /// regions of the final arrays in parallel. Every row is produced by
    /// the same per-row kernel as the serial path, so the output is
    /// bitwise-identical at any thread count.
    pub fn spgemm(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.ncols, other.nrows, "inner dimension mismatch");
        let n = self.nrows;
        let chunks = par::chunks_for(self.nnz(), SPGEMM_NNZ_GRAIN, n / SPGEMM_ROW_GRAIN);
        if chunks <= 1 {
            let (row_lens, indices, values) = self.spgemm_rows_opt(other, 0..n);
            return Self::assemble(n, other.ncols, &row_lens, indices, values);
        }
        let ranges = par::chunk_ranges(n, chunks);
        let parts: Vec<(Vec<usize>, Vec<u32>, Vec<f32>)> =
            par::scoped_map(ranges, |_, r| self.spgemm_rows_opt(other, r));

        // Exact offsets from the per-row counts.
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let mut total = 0usize;
        for (row_lens, _, _) in &parts {
            for &len in row_lens {
                total += len;
                indptr.push(total);
            }
        }
        let mut indices = vec![0u32; total];
        let mut values = vec![0f32; total];
        let chunk_lens: Vec<usize> = parts.iter().map(|(_, ci, _)| ci.len()).collect();
        let islices = par::split_by_lens(&mut indices, chunk_lens.iter().copied());
        let vslices = par::split_by_lens(&mut values, chunk_lens);
        let fill: Vec<_> = parts
            .into_iter()
            .zip(islices.into_iter().zip(vslices))
            .collect();
        par::scoped_map(fill, |_, ((_, ci, cv), (isl, vsl))| {
            isl.copy_from_slice(&ci);
            vsl.copy_from_slice(&cv);
        });
        CsrMatrix {
            nrows: n,
            ncols: other.ncols,
            indptr: indptr.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// Builds a matrix from per-row lengths plus flat column/value
    /// buffers (the chunk-kernel output format).
    fn assemble(
        nrows: usize,
        ncols: usize,
        row_lens: &[usize],
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0usize);
        let mut total = 0usize;
        for &len in row_lens {
            total += len;
            indptr.push(total);
        }
        CsrMatrix {
            nrows,
            ncols,
            indptr: indptr.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// The retained naive SpGEMM: Gustavson with a zero-probed `f32`
    /// accumulator and growing output buffers — exactly the pre-rework
    /// kernel. Kept public as the reference the equivalence suites and
    /// the `bench_report` kernel table compare the optimized
    /// [`CsrMatrix::spgemm`] against (bitwise and for throughput).
    pub fn spgemm_serial(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.ncols, other.nrows, "inner dimension mismatch");
        let n = self.nrows;
        let (row_lens, indices, values) = self.spgemm_rows_naive(other, 0..n);
        Self::assemble(n, other.ncols, &row_lens, indices, values)
    }

    /// The pre-rework per-row kernel behind [`CsrMatrix::spgemm_serial`].
    fn spgemm_rows_naive(
        &self,
        other: &CsrMatrix,
        rows: Range<usize>,
    ) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        let m = other.ncols;
        let mut acc = vec![0f32; m];
        let mut touched: Vec<u32> = Vec::new();
        let mut row_lens = Vec::with_capacity(rows.len());
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        for r in rows {
            let before = indices.len();
            let (acols, avals) = self.row(r);
            for (&ac, &av) in acols.iter().zip(avals) {
                let (bcols, bvals) = other.row(ac as usize);
                for (&bc, &bv) in bcols.iter().zip(bvals) {
                    let slot = &mut acc[bc as usize];
                    if *slot == 0.0 {
                        touched.push(bc);
                    }
                    *slot += av * bv;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c as usize];
                // Exact cancellation to 0.0 is kept out of the pattern.
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
                acc[c as usize] = 0.0;
            }
            touched.clear();
            row_lens.push(indices.len() - before);
        }
        (row_lens, indices, values)
    }

    /// The optimized per-row kernel: marker-based dense accumulator,
    /// exact upper-bound prepass, pooled scratch. Both the serial path
    /// and every parallel worker run exactly this code.
    ///
    /// Bitwise equality with [`CsrMatrix::spgemm_rows_naive`] rests on
    /// three facts. (1) First-touch *set* vs add-to-zero differ only in
    /// the sign of an exact-zero product, and exact zeros never reach
    /// the output (`v != 0.0` filter, same as naive) while any nonzero
    /// later sum is unaffected because `-0.0 + x == 0.0 + x` for
    /// nonzero `x` — the same argument covers the dense-row mode,
    /// which accumulates every product from an explicit `0.0` instead
    /// of setting on first touch. (2) Per output column, contributions
    /// accumulate in a-entry order. (3) Emission visits surviving
    /// columns in increasing order whether by sorted touched list, by
    /// marker scan, or by the dense-row full scan.
    fn spgemm_rows_opt(
        &self,
        other: &CsrMatrix,
        rows: Range<usize>,
    ) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        // Exact upper-bound prepass: every A entry contributes at most
        // the full B row it selects, so Σ nnz(B[a_k,:]) bounds each
        // output row. The flat buffers are sized once and never regrow.
        let mut total_bound = 0usize;
        let mut max_row_bound = 0usize;
        for r in rows.clone() {
            let mut b = 0usize;
            for &ac in self.row_indices(r) {
                b += other.row_nnz(ac as usize);
            }
            total_bound += b;
            max_row_bound = max_row_bound.max(b);
        }
        let width = other.ncols;
        let mut acc = ws::take_f32(width); // marker-guarded, contents unspecified
        let mut marker = ws::take_u32_zeroed(width);
        let mut touched = ws::take_u32(0);
        touched.reserve(max_row_bound.min(width));
        let mut row_lens = Vec::with_capacity(rows.len());
        let mut indices: Vec<u32> = Vec::with_capacity(total_bound);
        let mut values: Vec<f32> = Vec::with_capacity(total_bound);
        let mut gen = 0u32;
        for r in rows {
            let before = indices.len();
            let (acols, avals) = self.row(r);
            if let (&[ac], &[av]) = (acols, avals) {
                // Single-entry fast path: the output row is the selected
                // B row scaled by `av` — same products, same (sorted)
                // order, same `!= 0.0` filter; no accumulator needed.
                let (bcols, bvals) = other.row(ac as usize);
                for (&bc, &bv) in bcols.iter().zip(bvals) {
                    let v = av * bv;
                    if v != 0.0 {
                        indices.push(bc);
                        values.push(v);
                    }
                }
            } else if !acols.is_empty() {
                // Dense-row mode: once the product bound reaches half
                // the output width, the per-product marker branch and
                // touched bookkeeping cost more than a width-long zero
                // + scan, so the inner loop degenerates to a branch-free
                // scattered FMA. The mode is chosen per row from the
                // (thread-independent) bound, so every partition makes
                // the same choice.
                let bound: usize = acols.iter().map(|&ac| other.row_nnz(ac as usize)).sum();
                if 2 * bound >= width {
                    acc.fill(0.0);
                    for (&ac, &av) in acols.iter().zip(avals) {
                        let (bcols, bvals) = other.row(ac as usize);
                        for (&bc, &bv) in bcols.iter().zip(bvals) {
                            // SAFETY: bc < ncols == acc.len(), validated
                            // by `from_parts`.
                            unsafe {
                                *acc.get_unchecked_mut(bc as usize) += av * bv;
                            }
                        }
                    }
                    for (c, &v) in acc.iter().enumerate() {
                        if v != 0.0 {
                            indices.push(c as u32);
                            values.push(v);
                        }
                    }
                } else {
                    gen = next_gen(gen, &mut marker);
                    for (&ac, &av) in acols.iter().zip(avals) {
                        let (bcols, bvals) = other.row(ac as usize);
                        accumulate_run(bcols, bvals, av, gen, &mut acc, &mut marker, &mut touched);
                    }
                    emit_row(&acc, &marker, gen, &mut touched, &mut indices, &mut values);
                }
            }
            row_lens.push(indices.len() - before);
        }
        (row_lens, indices, values)
    }

    /// Dense row-major copy (tests/small matrices only).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut d = vec![0f32; self.nrows * self.ncols];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                d[r * self.ncols + c as usize] = v;
            }
        }
        d
    }

    /// Builds from a dense row-major slice, storing entries with
    /// `|value| > tol`.
    pub fn from_dense(nrows: usize, ncols: usize, data: &[f32], tol: f32) -> Self {
        assert_eq!(data.len(), nrows * ncols, "dense data shape mismatch");
        let mut coo = CooMatrix::new(nrows, ncols);
        for r in 0..nrows {
            for c in 0..ncols {
                let v = data[r * ncols + c];
                if v.abs() > tol {
                    coo.push(r as u32, c as u32, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Extracts the submatrix of `rows × cols`, remapping indices to the
    /// positions within the given (sorted or unsorted, duplicate-free) id
    /// lists. Used to induce condensed subgraphs.
    pub fn submatrix(&self, rows: &[u32], cols: &[u32]) -> CsrMatrix {
        let mut col_pos = vec![u32::MAX; self.ncols];
        for (new, &old) in cols.iter().enumerate() {
            debug_assert!(col_pos[old as usize] == u32::MAX, "duplicate column id");
            col_pos[old as usize] = new as u32;
        }
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0usize);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for &old_r in rows {
            let (ocols, ovals) = self.row(old_r as usize);
            scratch.clear();
            for (&c, &v) in ocols.iter().zip(ovals) {
                let nc = col_pos[c as usize];
                if nc != u32::MAX {
                    scratch.push((nc, v));
                }
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols: cols.len(),
            indptr: indptr.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// Approximate heap size of the stored data in bytes (Table VII's
    /// storage accounting).
    pub fn storage_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
    }

    #[test]
    fn accessors() {
        let m = small();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_indices(0), &[0, 2]);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.out_degrees(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn rejects_unsorted_rows() {
        CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn rejects_out_of_range_columns() {
        CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_normalization_sums_to_one() {
        let m = small().row_normalized();
        let sums = m.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-6);
        assert!((sums[1] - 1.0).abs() < 1e-6);
        assert!((m.get(0, 2) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn row_normalization_keeps_empty_rows() {
        let m = CsrMatrix::zeros(3, 3).row_normalized();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn sym_normalization_matches_manual() {
        // Path graph 0-1-2 (undirected).
        let a = CsrMatrix::from_edges(3, 3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let n = a.sym_normalized();
        // deg = [1,2,1]; entry (0,1) = 1/sqrt(1*2)
        assert!((n.get(0, 1) - 1.0 / 2f32.sqrt()).abs() < 1e-6);
        assert!((n.get(1, 2) - 1.0 / 2f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn spmv_and_transposed_spmv_agree_with_dense() {
        let m = small();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(m.spmv(&x), vec![7.0, 6.0]);
        let y = vec![1.0, 1.0];
        assert_eq!(m.spmv_t(&y), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn spgemm_matches_dense_reference() {
        let a = small(); // 2x3
        let b = CsrMatrix::from_parts(3, 2, vec![0, 1, 2, 3], vec![0, 1, 0], vec![1.0, 1.0, 1.0]);
        let c = a.spgemm(&b);
        // dense: [[1,0,2],[0,3,0]] * [[1,0],[0,1],[1,0]] = [[3,0],[0,3]]
        assert_eq!(c.to_dense(), vec![3.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn spgemm_with_identity_is_noop() {
        let a = small();
        let i3 = CsrMatrix::identity(3);
        let i2 = CsrMatrix::identity(2);
        assert_eq!(a.spgemm(&i3), a);
        assert_eq!(i2.spgemm(&a), a);
    }

    #[test]
    fn spmm_dense_propagates_features() {
        let a = CsrMatrix::from_edges(2, 2, &[(0, 1), (1, 0)]);
        let x = vec![1.0, 2.0, 3.0, 4.0]; // rows [1,2],[3,4]
        let y = a.spmm_dense(&x, 2);
        assert_eq!(y, vec![3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn add_and_symmetrize() {
        let a = CsrMatrix::from_edges(2, 2, &[(0, 1)]);
        let s = a.symmetrize();
        assert_eq!(s.get(0, 1), 0.5);
        assert_eq!(s.get(1, 0), 0.5);
        let sum = a.add(&a);
        assert_eq!(sum.get(0, 1), 2.0);
    }

    #[test]
    fn pruned_drops_small_entries() {
        let m = CsrMatrix::from_parts(1, 3, vec![0, 3], vec![0, 1, 2], vec![0.5, 1e-9, 2.0]);
        let p = m.pruned(1e-6);
        assert_eq!(p.nnz(), 2);
        assert_eq!(p.get(0, 1), 0.0);
    }

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let m = CsrMatrix::from_parts(
            1,
            4,
            vec![0, 4],
            vec![0, 1, 2, 3],
            vec![0.1, -5.0, 3.0, 0.2],
        );
        let t = m.top_k_per_row(2);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(0, 1), -5.0);
        assert_eq!(t.get(0, 2), 3.0);
    }

    #[test]
    fn submatrix_remaps_ids() {
        let m = small();
        let s = m.submatrix(&[0], &[2, 0]);
        // row 0 of m is {0:1.0, 2:2.0}; cols reordered [2,0] -> {0:2.0, 1:1.0}
        assert_eq!(s.nrows(), 1);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(0, 1), 1.0);
    }

    #[test]
    fn dense_roundtrip() {
        let m = small();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(2, 3, &d, 0.0);
        assert_eq!(back, m);
    }

    #[test]
    fn spmv_t_into_matches_allocating_spmv_t() {
        let m = small();
        let x = vec![2.0, -1.0];
        let mut y = vec![7.0; 3]; // stale contents must be overwritten
        m.spmv_t_into(&x, &mut y);
        assert_eq!(y, m.spmv_t(&x));
    }

    #[test]
    fn spgemm_serial_equals_parallel_path() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let mut edges = Vec::new();
        // nnz must clear SPGEMM_NNZ_GRAIN on several chunks so the
        // parallel path actually runs.
        for r in 0..300u32 {
            for _ in 0..16 {
                edges.push((r, rng.gen_range(0..300u32)));
            }
        }
        let a = CsrMatrix::from_edges(300, 300, &edges);
        freehgc_parallel::set_thread_override(Some(4));
        let parallel = a.spgemm(&a);
        freehgc_parallel::set_thread_override(None);
        assert_eq!(parallel, a.spgemm_serial(&a));
    }

    #[test]
    fn storage_bytes_counts_buffers() {
        let m = small();
        let expect = 3 * std::mem::size_of::<usize>() + 3 * 4 + 3 * 4;
        assert_eq!(m.storage_bytes(), expect);
    }
}
