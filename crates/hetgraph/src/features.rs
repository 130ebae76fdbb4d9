//! Dense per-type node feature matrices.
//!
//! Heterogeneous graphs carry one feature matrix per node type and the
//! dimensions are "usually inconsistent" across types (paper §II-A), so
//! features live outside the adjacency structure as row-major `f32` blocks.

/// A row-major `num_rows × dim` feature matrix for one node type.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureMatrix {
    dim: usize,
    data: Vec<f32>,
}

impl FeatureMatrix {
    /// Creates a zeroed matrix.
    pub fn zeros(num_rows: usize, dim: usize) -> Self {
        Self {
            dim,
            data: vec![0.0; num_rows * dim],
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_rows(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer is not a whole number of rows");
        Self { dim, data }
    }

    #[inline]
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The full row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Copies the given rows (by index) into a new matrix.
    pub fn gather(&self, rows: &[u32]) -> FeatureMatrix {
        let mut out = FeatureMatrix::zeros(rows.len(), self.dim);
        for (new, &old) in rows.iter().enumerate() {
            out.row_mut(new).copy_from_slice(self.row(old as usize));
        }
        out
    }

    /// Mean of the given rows — the σ(·) mean aggregator of Eq. (14).
    /// Returns a zero vector when `rows` is empty.
    pub fn mean_of(&self, rows: &[u32]) -> Vec<f32> {
        let mut acc = vec![0f32; self.dim];
        self.mean_into(rows, &mut acc);
        acc
    }

    /// One row per group: row `k` is [`FeatureMatrix::mean_of`] group
    /// `k`, bit for bit, written in place instead of row by row.
    pub fn means_of(&self, groups: &[Vec<u32>]) -> FeatureMatrix {
        let mut out = FeatureMatrix::zeros(groups.len(), self.dim);
        for (k, rows) in groups.iter().enumerate() {
            self.mean_into(rows, out.row_mut(k));
        }
        out
    }

    /// Adds the mean of `rows` into the zeroed `acc`.
    fn mean_into(&self, rows: &[u32], acc: &mut [f32]) {
        if rows.is_empty() {
            return;
        }
        for &r in rows {
            for (a, v) in acc.iter_mut().zip(self.row(r as usize)) {
                *a += v;
            }
        }
        let inv = 1.0 / rows.len() as f32;
        for a in acc.iter_mut() {
            *a *= inv;
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "pushed row has wrong dimension");
        self.data.extend_from_slice(row);
    }

    /// Squared Euclidean distance between two rows (used by Herding /
    /// K-Center baselines).
    pub fn dist2(&self, i: usize, j: usize) -> f32 {
        self.row(i)
            .iter()
            .zip(self.row(j))
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Heap bytes of the feature buffer (Table VII storage accounting).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = FeatureMatrix::from_rows(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn rejects_ragged_buffer() {
        FeatureMatrix::from_rows(3, vec![1.0, 2.0]);
    }

    #[test]
    fn gather_reorders_rows() {
        let m = FeatureMatrix::from_rows(1, vec![10.0, 20.0, 30.0]);
        let g = m.gather(&[2, 0]);
        assert_eq!(g.data(), &[30.0, 10.0]);
    }

    #[test]
    fn mean_of_rows() {
        let m = FeatureMatrix::from_rows(2, vec![0.0, 2.0, 4.0, 6.0]);
        assert_eq!(m.mean_of(&[0, 1]), vec![2.0, 4.0]);
        assert_eq!(m.mean_of(&[]), vec![0.0, 0.0]);
        let means = m.means_of(&[vec![0, 1], vec![], vec![1]]);
        assert_eq!(means.data(), &[2.0, 4.0, 0.0, 0.0, 4.0, 6.0]);
    }

    #[test]
    fn push_row_grows() {
        let mut m = FeatureMatrix::zeros(0, 3);
        m.push_row(&[1.0, 2.0, 3.0]);
        assert_eq!(m.num_rows(), 1);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dist2_is_squared_euclid() {
        let m = FeatureMatrix::from_rows(2, vec![0.0, 0.0, 3.0, 4.0]);
        assert_eq!(m.dist2(0, 1), 25.0);
    }

    #[test]
    fn storage_bytes_tracks_len() {
        let m = FeatureMatrix::zeros(4, 8);
        assert_eq!(m.storage_bytes(), 4 * 8 * 4);
    }
}
