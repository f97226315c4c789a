//! Dense row-major `f64` matrix.
//!
//! [`Mat`] is the single matrix type used throughout the reproduction. It is
//! intentionally simple: a `Vec<f64>` plus a shape, with the elementwise,
//! reduction and multiplication operations that the matrix-completion
//! algorithms (censored ALS, SVT, Soft-Impute) and the neural layers need.

use crate::error::{LinalgError, Result};

/// A dense, row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl std::fmt::Debug for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:10.4}", self[(r, c)])?;
                if c + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Mat {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Mat { rows, cols, data })
    }

    /// Build a matrix from nested row slices (handy in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Mat::from_rows");
            data.extend_from_slice(row);
        }
        Mat { rows: r, cols: c, data }
    }

    /// Build a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Build a column vector (n×1 matrix) from a slice.
    pub fn col_vec(values: &[f64]) -> Self {
        Mat { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its backing storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Bounds-checked element access returning `None` when out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Matrix multiplication `self * other`.
    ///
    /// Uses the classic i-k-j loop order so the inner loop streams over
    /// contiguous rows of both the output and `other` (good cache behaviour
    /// without an explicit blocking scheme; all LimeQO matrices have a small
    /// inner dimension — the hint count 49 or the rank r ≤ 9).
    pub fn matmul(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b_kj;
                }
            }
        }
        Ok(out)
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Mat) -> Result<Mat> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Mat::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a_ki) in a_row.iter().enumerate() {
                if a_ki == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ki * b_kj;
                }
            }
        }
        Ok(out)
    }

    /// `self * otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (&a, &x) in row.iter().zip(v.iter()) {
                acc += a * x;
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Mat) -> Result<Mat> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Mat) -> Result<Mat> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Mat) -> Result<Mat> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// In-place elementwise addition of `other` scaled by `alpha`.
    pub fn axpy(&mut self, alpha: f64, other: &Mat) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiply every entry by a scalar, returning a new matrix.
    pub fn scale(&self, s: f64) -> Mat {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// Apply `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }

    /// Apply `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Clamp every entry to be at least `lo` (used for the non-negativity
    /// projection in Algorithm 2, lines 7 and 12).
    pub fn clamp_min(&mut self, lo: f64) {
        for v in &mut self.data {
            if *v < lo {
                *v = lo;
            }
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Minimum entry of row `r` together with its column index.
    ///
    /// Returns `None` for zero-column matrices. NaNs are skipped.
    pub fn row_min(&self, r: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (c, &v) in self.row(r).iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            match best {
                Some((_, bv)) if bv <= v => {}
                _ => best = Some((c, v)),
            }
        }
        best
    }

    /// Extract a contiguous sub-block of rows `[r0, r1)` as a new matrix.
    pub fn row_block(&self, r0: usize, r1: usize) -> Mat {
        assert!(r0 <= r1 && r1 <= self.rows);
        Mat {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Extract a contiguous sub-block of columns `[c0, c1)` as a new
    /// matrix (used to hand independent right-hand-side blocks to the
    /// batched ridge solver's workers).
    pub fn col_block(&self, c0: usize, c1: usize) -> Mat {
        assert!(c0 <= c1 && c1 <= self.cols);
        let mut out = Mat::zeros(self.rows, c1 - c0);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[c0..c1]);
        }
        out
    }

    /// Vertically stack `self` on top of `other`.
    pub fn vstack(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Mat { rows: self.rows + other.rows, cols: self.cols, data })
    }

    fn zip_with(&self, other: &Mat, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<Mat> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch { op, lhs: self.shape(), rhs: other.shape() });
        }
        let data =
            self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect::<Vec<_>>();
        Ok(Mat { rows: self.rows, cols: self.cols, data })
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Mat::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Mat::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_hand_computed() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_rows(&[&[1.0, -2.0, 3.5], &[0.0, 4.0, -1.0]]);
        let i = Mat::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let expected = a.transpose().matmul(&b).unwrap();
        assert_eq!(a.t_matmul(&b).unwrap(), expected);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[1.0, 1.0]]);
        let expected = a.matmul(&b.transpose()).unwrap();
        assert_eq!(a.matmul_t(&b).unwrap(), expected);
    }

    #[test]
    fn hadamard_and_add_sub() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[2.0, 0.5], &[1.0, 2.0]]);
        assert_eq!(a.hadamard(&b).unwrap(), Mat::from_rows(&[&[2.0, 1.0], &[3.0, 8.0]]));
        assert_eq!(a.add(&b).unwrap(), Mat::from_rows(&[&[3.0, 2.5], &[4.0, 6.0]]));
        assert_eq!(a.sub(&b).unwrap(), Mat::from_rows(&[&[-1.0, 1.5], &[2.0, 2.0]]));
    }

    #[test]
    fn row_min_skips_nan() {
        let a = Mat::from_rows(&[&[f64::NAN, 2.0, 1.5]]);
        assert_eq!(a.row_min(0), Some((2, 1.5)));
    }

    #[test]
    fn row_min_empty_cols() {
        let a = Mat::zeros(1, 0);
        assert_eq!(a.row_min(0), None);
    }

    #[test]
    fn clamp_min_projects_negatives() {
        let mut a = Mat::from_rows(&[&[-1.0, 0.5], &[2.0, -3.0]]);
        a.clamp_min(0.0);
        assert_eq!(a, Mat::from_rows(&[&[0.0, 0.5], &[2.0, 0.0]]));
    }

    #[test]
    fn matvec_hand_computed() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn vstack_appends_rows() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s[(2, 1)], 6.0);
    }

    #[test]
    fn row_block_extracts_middle() {
        let a = Mat::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let b = a.row_block(1, 3);
        assert_eq!(b, Mat::from_rows(&[&[2.0], &[3.0]]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Mat::from_rows(&[&[1.0, 1.0]]);
        let b = Mat::from_rows(&[&[2.0, 3.0]]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a, Mat::from_rows(&[&[2.0, 2.5]]));
    }
}
