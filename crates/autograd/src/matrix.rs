//! Dense row-major `f32` matrices.
//!
//! The HGNN heads in this reproduction are small (hidden sizes ≤ a few
//! hundred); all heavy propagation work happens in `freehgc-sparse`.
//! Products of at least twice `MATMUL_FLOP_GRAIN` multiply-adds are
//! row-partitioned across threads. Partitions own disjoint output rows
//! and accumulate in the serial order, so results are bitwise-identical
//! at any thread count.
//!
//! # Panel loops
//!
//! `matmul` and `matmul_tn` build each output row as a sum of scaled
//! rows of `B`: `Σ_k a[i,k]·B[k,:]` for `A·B`, `Σ_i a[i,k]·B[i,:]` for
//! `Aᵀ·B`. The reference loop ([`Matrix::matmul_ref`]) adds each term
//! into the output row in memory, so it loads and stores the whole row
//! once per term. The kernels split the row into column panels instead
//! and sum each panel in a local array that stays in registers across
//! every term, then store it once. The widest panel is 64 columns in
//! the AVX2 build (8 ymm registers) and 32 in the baseline build (8 of
//! the 16 SSE registers); what is left of the row takes one 32-, 16-
//! and 8-wide panel at most, then one panel of its exact width, so a
//! class head of 3 or 4 columns is a single panel too.
//!
//! An earlier 8-lane register block measured no faster than the
//! reference and was deleted. It kept one 8-lane accumulator, so every
//! multiply-add waited for the previous one, and it ran a 64-column row
//! as 8 passes over `A`'s row. A 64-wide panel keeps 8 independent
//! accumulator chains, so each broadcast of `a[i,k]` feeds 8 vector
//! multiply-adds that do not wait on each other, and the trainer's
//! 64-wide hidden rows are a single pass. On a 2-core x86_64 host the
//! AVX2 build runs the trainer's 58–2240 × 64 × 64 products at 12–20
//! GMAC/s, the reference loop at 4–7.
//!
//! Both kernels keep the reference's `a[i,k] == 0.0` skip and add each
//! element's terms in increasing `k` (or `i`) order, starting from
//! `+0.0`, so every element gets exactly the operations
//! [`Matrix::matmul_ref`] performs. `matmul_tn` reads `A` and `B` in
//! blocks of `TN_ROW_BLOCK` rows and carries each panel over from
//! one block to the next through the output row; storing and reloading
//! an `f32` is exact, so the blocks do not change the sum. Rust never
//! contracts a multiply and an add into a fused multiply-add, so the
//! two builds, picked at run time with `is_x86_feature_detected!`,
//! give the same bits as each other and as the reference.
//!
//! `matmul_nt` has a kernel of its own: the canonical 8-lane dot
//! product, which its reference computes in the same order.

use freehgc_parallel as par;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::ops::Range;

/// Minimum scalar multiply-adds a worker must own before a dense
/// product goes parallel. On a 2-core x86_64 host, splitting the
/// trainer's products (up to 2240 × 64 × 64, 9.2M) over 2 threads made
/// training no faster, while products from 16.8M up (4096 × 64 × 64)
/// ran 1.1–1.9× faster; at this grain every trainer product stays
/// serial and those go parallel.
const MATMUL_FLOP_GRAIN: usize = 1 << 23;

/// The canonical 8-lane dense dot product: element `k` accumulates into
/// lane `k % 8`, lanes combine as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
/// The blocked main loop and the scalar loop in
/// [`Matrix::matmul_nt_ref`] put every element into the same lane in the
/// same order, so their bits match; the fixed shape is what the
/// autovectorizer turns into SIMD.
#[inline]
fn dot_lanes_dense(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0f32; 8];
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (a8, b8) in (&mut ac).zip(&mut bc) {
        for l in 0..8 {
            lanes[l] += a8[l] * b8[l];
        }
    }
    for (l, (&x, &y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        lanes[l] += x * y;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// Widest column panel of the baseline build: 32 accumulators take 8
/// of the 16 SSE registers, leaving the rest for the broadcast scalar
/// and the loads (64 would spill).
const BASELINE_PANEL: usize = 32;

/// Widest column panel of the AVX2 build: 64 accumulators in 8 of the
/// 16 ymm registers.
#[cfg(target_arch = "x86_64")]
const AVX2_PANEL: usize = 64;

/// Rows of `A` and `B` that one pass of the `Aᵀ·B` loop covers. Every
/// output row of a pass reads the same block of `B`; at 128 rows of up
/// to 64 columns that block stays in L1 (32 KiB) instead of streaming
/// the whole of `B` from memory once per output row.
const TN_ROW_BLOCK: usize = 128;

/// Adds `Σ_t s_t · row_t` into the output row `crow`, over the
/// `(s_t, row_t)` pairs `terms` yields. Each column panel (`W` wide,
/// then one 32-, 16- and 8-wide panel at most, then one of the exact
/// width left) loads its part of `crow` into an accumulator array that
/// stays in registers across all the terms, and stores it once. Every
/// element gets `crow[j] + s_0·x_0 + s_1·x_1 + …` in term order.
#[inline(always)]
fn accumulate_row<'r, const W: usize>(
    terms: impl Iterator<Item = (f32, &'r [f32])> + Clone,
    crow: &mut [f32],
) {
    let n = crow.len();
    let mut j = 0;
    while j + W <= n {
        panel::<W>(terms.clone(), j, &mut crow[j..j + W]);
        j += W;
    }
    if W > 32 && j + 32 <= n {
        panel::<32>(terms.clone(), j, &mut crow[j..j + 32]);
        j += 32;
    }
    if W > 16 && j + 16 <= n {
        panel::<16>(terms.clone(), j, &mut crow[j..j + 16]);
        j += 16;
    }
    if W > 8 && j + 8 <= n {
        panel::<8>(terms.clone(), j, &mut crow[j..j + 8]);
        j += 8;
    }
    let tail = &mut crow[j..];
    match tail.len() {
        0 => {}
        1 => panel::<1>(terms, j, tail),
        2 => panel::<2>(terms, j, tail),
        3 => panel::<3>(terms, j, tail),
        4 => panel::<4>(terms, j, tail),
        5 => panel::<5>(terms, j, tail),
        6 => panel::<6>(terms, j, tail),
        7 => panel::<7>(terms, j, tail),
        _ => unreachable!("panels leave fewer than 8 columns"),
    }
}

/// The `P`-wide panel of [`accumulate_row`] at column `j`; `out` is
/// that panel of the output row.
#[inline(always)]
fn panel<'r, const P: usize>(
    terms: impl Iterator<Item = (f32, &'r [f32])>,
    j: usize,
    out: &mut [f32],
) {
    let mut acc: [f32; P] = (&*out).try_into().expect("panel width");
    for (s, row) in terms {
        let x: &[f32; P] = row[j..j + P].try_into().expect("panel width");
        for l in 0..P {
            acc[l] += s * x[l];
        }
    }
    out.copy_from_slice(&acc);
}

/// `A·B` over output rows `rows`: row `i` sums `a[i,k]·B[k,:]` over the
/// `k` with `a[i,k] != 0.0`, in increasing `k`. `out` arrives zeroed.
#[inline(always)]
fn matmul_rows_loop<const W: usize>(a: &Matrix, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
    let n = b.cols;
    for (ri, i) in rows.enumerate() {
        let terms = a
            .row(i)
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0.0)
            .map(|(k, &s)| (s, b.row(k)));
        accumulate_row::<W>(terms, &mut out[ri * n..(ri + 1) * n]);
    }
}

/// `Aᵀ·B` over output rows `ks` (columns of `A`): row `k` sums
/// `a[i,k]·B[i,:]` over the `i` with `a[i,k] != 0.0`, in increasing
/// `i`, one block of [`TN_ROW_BLOCK`] rows at a time. `out` arrives
/// zeroed.
#[inline(always)]
fn matmul_tn_cols_loop<const W: usize>(a: &Matrix, b: &Matrix, ks: Range<usize>, out: &mut [f32]) {
    let n = b.cols;
    for i0 in (0..a.rows).step_by(TN_ROW_BLOCK) {
        let block = i0..(i0 + TN_ROW_BLOCK).min(a.rows);
        for (rk, k) in ks.clone().enumerate() {
            let terms = block
                .clone()
                .map(|i| (a.data[i * a.cols + k], b.row(i)))
                .filter(|&(s, _)| s != 0.0);
            accumulate_row::<W>(terms, &mut out[rk * n..(rk + 1) * n]);
        }
    }
}

/// [`matmul_rows_loop`] compiled with AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_rows_avx2(a: &Matrix, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
    matmul_rows_loop::<AVX2_PANEL>(a, b, rows, out);
}

/// [`matmul_tn_cols_loop`] compiled with AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_tn_cols_avx2(a: &Matrix, b: &Matrix, ks: Range<usize>, out: &mut [f32]) {
    matmul_tn_cols_loop::<AVX2_PANEL>(a, b, ks, out);
}

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// A `1 × 1` matrix (scalar node payload).
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// Xavier/Glorot-uniform initialization, deterministic per seed.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self { rows, cols, data }
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `C = A · B` with an `ikj` loop order for contiguous inner access.
    /// Row-partitioned parallel: each worker owns a disjoint block of
    /// output rows.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(self.rows, b.cols);
        self.matmul_into(b, &mut c.data);
        c
    }

    /// [`Matrix::matmul`] into `out`, which must hold `rows × b.cols`
    /// zeros.
    pub(crate) fn matmul_into(&self, b: &Matrix, out: &mut [f32]) {
        assert_eq!(self.cols, b.rows, "matmul inner dimension mismatch");
        assert_eq!(out.len(), self.rows * b.cols, "matmul output size");
        let flops = self.rows * self.cols * b.cols;
        let chunks = par::chunks_for(flops, MATMUL_FLOP_GRAIN, self.rows);
        if chunks <= 1 {
            self.matmul_rows(b, 0..self.rows, out);
        } else {
            let ranges = par::chunk_ranges(self.rows, chunks);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len() * b.cols).collect();
            par::par_write_chunks(ranges, lens, out, |_, r, out| self.matmul_rows(b, r, out));
        }
    }

    /// The `A·B` kernel over a contiguous output-row range; see the
    /// module docs for the panel loop and its two builds.
    fn matmul_rows(&self, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { matmul_rows_avx2(self, b, rows, out) };
        }
        matmul_rows_loop::<BASELINE_PANEL>(self, b, rows, out);
    }

    /// The serial `ikj` matmul, kept as the bitwise oracle and
    /// throughput baseline for [`Matrix::matmul`].
    pub fn matmul_ref(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            let arow = self.row(i);
            let crow = &mut c.data[i * b.cols..(i + 1) * b.cols];
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                for (cj, &bkj) in crow.iter_mut().zip(brow) {
                    *cj += aik * bkj;
                }
            }
        }
        c
    }

    /// `C = Aᵀ · B` without materializing the transpose. Parallel
    /// workers own disjoint blocks of output rows (columns of `A`) and
    /// accumulate over `A`'s rows in increasing order — the serial
    /// order — so results are bitwise-identical to
    /// `self.transpose().matmul_ref(b)`.
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(self.cols, b.cols);
        self.matmul_tn_into(b, &mut c.data);
        c
    }

    /// [`Matrix::matmul_tn`] into `out`, which must hold
    /// `cols × b.cols` zeros.
    pub(crate) fn matmul_tn_into(&self, b: &Matrix, out: &mut [f32]) {
        assert_eq!(self.rows, b.rows, "matmul_tn outer dimension mismatch");
        assert_eq!(out.len(), self.cols * b.cols, "matmul_tn output size");
        let flops = self.rows * self.cols * b.cols;
        let chunks = par::chunks_for(flops, MATMUL_FLOP_GRAIN, self.cols);
        if chunks <= 1 {
            self.matmul_tn_cols(b, 0..self.cols, out);
        } else {
            let ranges = par::chunk_ranges(self.cols, chunks);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len() * b.cols).collect();
            par::par_write_chunks(ranges, lens, out, |_, r, out| {
                self.matmul_tn_cols(b, r, out)
            });
        }
    }

    /// The `Aᵀ·B` kernel for output rows `ks` (a range of `A`'s
    /// columns); see the module docs for the panel loop and its two
    /// builds.
    fn matmul_tn_cols(&self, b: &Matrix, ks: Range<usize>, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { matmul_tn_cols_avx2(self, b, ks, out) };
        }
        matmul_tn_cols_loop::<BASELINE_PANEL>(self, b, ks, out);
    }

    /// `C = A · Bᵀ`. Row-partitioned parallel like [`Matrix::matmul`].
    pub fn matmul_nt(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.cols, "matmul_nt inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, b.rows);
        let flops = self.rows * self.cols * b.rows;
        let chunks = par::chunks_for(flops, MATMUL_FLOP_GRAIN, self.rows);
        if chunks <= 1 {
            self.matmul_nt_rows(b, 0..self.rows, &mut c.data);
        } else {
            let ranges = par::chunk_ranges(self.rows, chunks);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len() * b.rows).collect();
            par::par_write_chunks(ranges, lens, &mut c.data, |_, r, out| {
                self.matmul_nt_rows(b, r, out)
            });
        }
        c
    }

    /// The `A·Bᵀ` kernel over a contiguous output-row range. Each
    /// output element is a dense dot product in the canonical 8-lane
    /// reduction order (the same canonical semantics as the sparse
    /// `spmv` — see `freehgc_sparse`'s module docs), pinned
    /// bitwise-equal to [`Matrix::matmul_nt_ref`].
    fn matmul_nt_rows(&self, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
        for (ri, i) in rows.enumerate() {
            let arow = self.row(i);
            for j in 0..b.rows {
                out[ri * b.rows + j] = dot_lanes_dense(arow, b.row(j));
            }
        }
    }

    /// Naive reference for [`Matrix::matmul_nt`]: the same canonical
    /// 8-lane reduction order written as the obvious scalar loop.
    pub fn matmul_nt_ref(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.cols, "matmul_nt inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, b.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            for j in 0..b.rows {
                let brow = b.row(j);
                let mut lanes = [0f32; 8];
                for (k, (&x, &y)) in arow.iter().zip(brow).enumerate() {
                    lanes[k % 8] += x * y;
                }
                c.data[i * b.rows + j] = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                    + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
            }
        }
        c
    }

    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    pub fn add(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.shape(), b.shape(), "add shape mismatch");
        let data = self.data.iter().zip(&b.data).map(|(x, y)| x + y).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    pub fn sub(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.shape(), b.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(&b.data).map(|(x, y)| x - y).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    pub fn hadamard(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.shape(), b.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&b.data).map(|(x, y)| x * y).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|x| x * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    pub fn add_assign(&mut self, b: &Matrix) {
        assert_eq!(self.shape(), b.shape(), "add_assign shape mismatch");
        for (x, y) in self.data.iter_mut().zip(&b.data) {
            *x += y;
        }
    }

    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Row-wise numerically stable softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_in_place();
        out
    }

    /// [`Matrix::softmax_rows`] in place.
    pub(crate) fn softmax_rows_in_place(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Index of the largest entry in each row.
    pub fn argmax_rows(&self) -> Vec<u32> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best as u32
            })
            .collect()
    }

    /// Sum of squared entries.
    pub fn sum_squares(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Gathers rows into a new matrix.
    pub fn gather_rows(&self, rows: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (new, &old) in rows.iter().enumerate() {
            out.row_mut(new).copy_from_slice(self.row(old as usize));
        }
        out
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(parts[0].rows, cols);
        Matrix::hcat_into(parts, &mut out);
        out
    }

    /// [`Matrix::hcat`] into `out`, which must have the parts' row count
    /// and their summed widths; every element is overwritten.
    pub(crate) fn hcat_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(
            parts.iter().all(|m| m.rows == out.rows),
            "hcat row mismatch"
        );
        assert_eq!(
            parts.iter().map(|m| m.cols).sum::<usize>(),
            out.cols,
            "hcat width"
        );
        for r in 0..out.rows {
            let orow = out.row_mut(r);
            let mut off = 0usize;
            for m in parts {
                orow[off..off + m.cols].copy_from_slice(m.row(r));
                off += m.cols;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::xavier(4, 3, 1);
        let b = Matrix::xavier(4, 2, 2);
        let c1 = a.matmul_tn(&b);
        let c2 = a.transpose().matmul(&b);
        for (x, y) in c1.data.iter().zip(&c2.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::xavier(3, 4, 3);
        let b = Matrix::xavier(2, 4, 4);
        let c1 = a.matmul_nt(&b);
        let c2 = a.matmul(&b.transpose());
        for (x, y) in c1.data.iter().zip(&c2.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 100.]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!((s.get(1, 2) - 1.0).abs() < 1e-4); // extreme logit saturates
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data, vec![5., 7., 9.]);
        assert_eq!(b.sub(&a).data, vec![3., 3., 3.]);
        assert_eq!(a.hadamard(&b).data, vec![4., 10., 18.]);
        assert_eq!(a.scale(2.0).data, vec![2., 4., 6.]);
    }

    #[test]
    fn gather_and_hcat() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g.data, vec![5., 6., 1., 2.]);
        let h = Matrix::hcat(&[&g, &g]);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[5., 6., 5., 6.]);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(10, 10, 7);
        let b = Matrix::xavier(10, 10, 7);
        assert_eq!(a, b);
        let bound = (6.0 / 20.0f32).sqrt();
        assert!(a.data.iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn parallel_matmuls_are_bitwise_serial() {
        // 1040 · 128 · 256 multiply-adds clear MATMUL_FLOP_GRAIN four
        // times over, so each product splits into 4 partitions.
        let a = Matrix::xavier(1040, 128, 11);
        let b = Matrix::xavier(128, 256, 12);
        let g = Matrix::xavier(1040, 256, 13);
        let bt = Matrix::xavier(256, 128, 14);
        par::set_thread_override(Some(1));
        let serial = (a.matmul(&b), a.matmul_tn(&g), a.matmul_nt(&bt));
        par::set_thread_override(Some(4));
        let chunks = par::chunks_for(a.rows * a.cols * b.cols, MATMUL_FLOP_GRAIN, a.cols);
        let parallel = (a.matmul(&b), a.matmul_tn(&g), a.matmul_nt(&bt));
        par::set_thread_override(None);
        assert_eq!(chunks, 4);
        assert_eq!(serial, parallel);
    }

    /// One build of the panel loops: its name, the `A·B` loop and the
    /// `Aᵀ·B` loop.
    type Build = (&'static str, PanelLoop, PanelLoop);
    type PanelLoop = fn(&Matrix, &Matrix, Range<usize>, &mut [f32]);

    /// Every build this host can run: the baseline build always, the
    /// AVX2 build where the CPU has AVX2.
    fn builds() -> Vec<Build> {
        let mut out: Vec<Build> = vec![(
            "baseline",
            matmul_rows_loop::<BASELINE_PANEL>,
            matmul_tn_cols_loop::<BASELINE_PANEL>,
        )];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 is present, checked just above.
            out.push((
                "avx2",
                |a, b, r, o| unsafe { matmul_rows_avx2(a, b, r, o) },
                |a, b, r, o| unsafe { matmul_tn_cols_avx2(a, b, r, o) },
            ));
        }
        out
    }

    /// Xavier entries with every third one zeroed, so the zero skip runs.
    fn zero_heavy(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::xavier(rows, cols, seed);
        for (i, v) in m.data.iter_mut().enumerate() {
            if (i * 7 + seed as usize).is_multiple_of(3) {
                *v = 0.0;
            }
        }
        m
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_build_matches_the_reference_across_panel_edges() {
        // Widths on both sides of every panel edge of both builds; 300
        // rows make `Aᵀ·B` cross two TN_ROW_BLOCK boundaries.
        for n in [
            1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 72, 128, 129,
        ] {
            for (m, k) in [(1usize, 1usize), (5, 37), (3, 257), (300, 5)] {
                let a = zero_heavy(m, k, (m * 7 + n) as u64);
                let b = zero_heavy(k, n, (k * 11 + n) as u64);
                let g = zero_heavy(m, n, (m * 13 + n) as u64);
                let want = bits(&a.matmul_ref(&b).data);
                let want_tn = bits(&a.transpose().matmul_ref(&g).data);
                for (name, rows_loop, tn_loop) in builds() {
                    let mut out = vec![0f32; m * n];
                    rows_loop(&a, &b, 0..m, &mut out);
                    assert_eq!(bits(&out), want, "{name} A·B at ({m},{k},{n})");
                    // A partition that starts past row 0, as a parallel
                    // worker's does.
                    let mut part = vec![0f32; (m - m / 2) * n];
                    rows_loop(&a, &b, m / 2..m, &mut part);
                    assert_eq!(bits(&part), want[m / 2 * n..], "{name} A·B rows");
                    let mut out = vec![0f32; k * n];
                    tn_loop(&a, &g, 0..k, &mut out);
                    assert_eq!(bits(&out), want_tn, "{name} Aᵀ·B at ({m},{k},{n})");
                    let mut part = vec![0f32; (k - k / 2) * n];
                    tn_loop(&a, &g, k / 2..k, &mut part);
                    assert_eq!(bits(&part), want_tn[k / 2 * n..], "{name} Aᵀ·B rows");
                }
            }
        }
    }

    #[test]
    fn every_build_skips_non_finite_rows_behind_zeros() {
        // Column 1 of A is zero, so B row 1 never enters A·B; row 1 of A
        // is zero, so G row 1 never enters Aᵀ·G. Those rows hold ±inf
        // and NaN, and the outputs must stay the reference's.
        let (m, k, n) = (6, 4, 72);
        let mut a = Matrix::xavier(m, k, 21);
        for i in 0..m {
            a.set(i, 1, 0.0);
        }
        a.row_mut(1).fill(0.0);
        let mut b = Matrix::xavier(k, n, 22);
        let mut g = Matrix::xavier(m, n, 23);
        for (j, v) in b.row_mut(1).iter_mut().enumerate() {
            *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
        }
        for (j, v) in g.row_mut(1).iter_mut().enumerate() {
            *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][j % 3];
        }
        let want = bits(&a.matmul_ref(&b).data);
        let want_tn = bits(&a.transpose().matmul_ref(&g).data);
        assert!(a.matmul_ref(&b).data.iter().all(|v| v.is_finite()));
        assert!(a
            .transpose()
            .matmul_ref(&g)
            .data
            .iter()
            .all(|v| v.is_finite()));
        for (name, rows_loop, tn_loop) in builds() {
            let mut out = vec![0f32; m * n];
            rows_loop(&a, &b, 0..m, &mut out);
            assert_eq!(bits(&out), want, "{name} A·B");
            let mut out = vec![0f32; k * n];
            tn_loop(&a, &g, 0..k, &mut out);
            assert_eq!(bits(&out), want_tn, "{name} Aᵀ·B");
        }
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert_eq!(m.sum_squares(), 25.0);
    }
}
