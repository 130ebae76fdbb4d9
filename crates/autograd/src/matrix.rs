//! Dense row-major `f32` matrices.
//!
//! The HGNN heads in this reproduction are small (hidden sizes ≤ a few
//! hundred), so a cache-friendly `ikj` matmul — row-partitioned across
//! threads for the larger products the trainer hits — is fast enough;
//! all heavy propagation work happens in `freehgc-sparse`. Parallel
//! partitions own disjoint output rows and accumulate in the serial
//! order, so results are bitwise-identical at any thread count.
//!
//! `matmul` runs the plain `ikj` loop of [`Matrix::matmul_ref`] over
//! each partition (an 8-lane register-blocked loop measured no faster
//! at the trainer's shapes and slower on class heads), and `matmul_tn`
//! the matching `i`-outer loop. Only `matmul_nt` has a kernel of its
//! own: the canonical 8-lane dot product, which its reference computes
//! in the same order.

use freehgc_parallel as par;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::ops::Range;

/// Minimum scalar multiply-adds a worker must own before a dense
/// product goes parallel (several multiples of a scoped-thread spawn).
const MATMUL_FLOP_GRAIN: usize = 65_536;

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

    /// I.i.d. normal entries scaled by `std`.
    pub fn randn(rows: usize, cols: usize, std: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| {
                // Box-Muller transform.
                let u1: f32 = rng.gen_range(1e-7f32..1.0);
                let u2: f32 = rng.gen_range(0.0f32..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
            })
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
        assert_eq!(self.cols, b.rows, "matmul inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, b.cols);
        let flops = self.rows * self.cols * b.cols;
        let chunks = par::chunks_for(flops, MATMUL_FLOP_GRAIN, self.rows);
        if chunks <= 1 {
            self.matmul_rows(b, 0..self.rows, &mut c.data);
        } else {
            let ranges = par::chunk_ranges(self.rows, chunks);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len() * b.cols).collect();
            par::par_write_chunks(ranges, lens, &mut c.data, |_, r, out| {
                self.matmul_rows(b, r, out)
            });
        }
        c
    }

    /// The `ikj` kernel over a contiguous output-row range of `A·B`:
    /// for each `k` with `a[i,k] != 0.0`, add `a[i,k]·B[k,:]` into the
    /// output row. Each output element receives its contributions in
    /// increasing-`k` order, exactly as in [`Matrix::matmul_ref`].
    fn matmul_rows(&self, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
        let n = b.cols;
        for (ri, i) in rows.enumerate() {
            let crow = &mut out[ri * n..(ri + 1) * n];
            for (k, &aik) in self.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                for (cj, &bkj) in crow.iter_mut().zip(b.row(k)) {
                    *cj += aik * bkj;
                }
            }
        }
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
    /// order — so results are bitwise-identical.
    ///
    /// The loop is `i`-outer so both operands stream contiguously; a
    /// `k`-outer loop would walk `A` down a column (stride `cols`) over
    /// the much larger activation matrix at gradient shapes
    /// (`rows` = batch ≫ `cols`).
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, b.rows, "matmul_tn outer dimension mismatch");
        let mut c = Matrix::zeros(self.cols, b.cols);
        let flops = self.rows * self.cols * b.cols;
        let chunks = par::chunks_for(flops, MATMUL_FLOP_GRAIN, self.cols);
        if chunks <= 1 {
            self.matmul_tn_cols(b, 0..self.cols, &mut c.data);
        } else {
            let ranges = par::chunk_ranges(self.cols, chunks);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len() * b.cols).collect();
            par::par_write_chunks(ranges, lens, &mut c.data, |_, r, out| {
                self.matmul_tn_cols(b, r, out)
            });
        }
        c
    }

    /// The `Aᵀ·B` kernel for output rows `ks` (a range of `A`'s
    /// columns), accumulating over `A`'s rows in increasing order.
    fn matmul_tn_cols(&self, b: &Matrix, ks: Range<usize>, out: &mut [f32]) {
        for i in 0..self.rows {
            let arow = self.row(i);
            let brow = b.row(i);
            for k in ks.clone() {
                let aik = arow[k];
                if aik == 0.0 {
                    continue;
                }
                let rel = k - ks.start;
                let crow = &mut out[rel * b.cols..(rel + 1) * b.cols];
                for (cj, &bij) in crow.iter_mut().zip(brow) {
                    *cj += aik * bij;
                }
            }
        }
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
        for r in 0..out.rows {
            let row = out.row_mut(r);
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
        out
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

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.sum_squares().sqrt()
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
        let rows = parts[0].rows;
        assert!(parts.iter().all(|m| m.rows == rows), "hcat row mismatch");
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let orow = out.row_mut(r);
            let mut off = 0usize;
            for m in parts {
                orow[off..off + m.cols].copy_from_slice(m.row(r));
                off += m.cols;
            }
        }
        out
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
    fn randn_has_roughly_right_scale() {
        let m = Matrix::randn(100, 100, 0.5, 3);
        let mean: f32 = m.data.iter().sum::<f32>() / m.data.len() as f32;
        let var: f32 =
            m.data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.data.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn parallel_matmuls_are_bitwise_serial() {
        // Big enough to clear MATMUL_FLOP_GRAIN on several chunks.
        let a = Matrix::xavier(96, 80, 11);
        let b = Matrix::xavier(80, 96, 12);
        let bt = Matrix::xavier(96, 80, 13);
        par::set_thread_override(Some(1));
        let serial = (a.matmul(&b), a.matmul_tn(&bt), a.matmul_nt(&bt));
        par::set_thread_override(Some(4));
        let parallel = (a.matmul(&b), a.matmul_tn(&bt), a.matmul_nt(&bt));
        par::set_thread_override(None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert_eq!(m.sum_squares(), 25.0);
        assert_eq!(m.frob_norm(), 5.0);
    }
}
