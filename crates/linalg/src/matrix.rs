//! Dense row-major `f64` matrices with the factorizations the chemistry
//! stack needs: Jacobi symmetric eigendecomposition, `S^{-1/2}`
//! orthogonalization, and linear solves via partial-pivot LU.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Errors produced by dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions were incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        context: &'static str,
    },
    /// A factorization met a (numerically) singular matrix.
    Singular,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations attempted.
        iterations: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch in {context}")
            }
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense, row-major `f64` matrix.
///
/// # Examples
///
/// ```
/// use cafqa_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = m.eigh().unwrap();
/// assert!((eig.values[0] - 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Result of a symmetric eigendecomposition: `A = V diag(values) Vᵀ`.
///
/// Eigenvalues are sorted ascending; column `k` of [`Eigh::vectors`] is the
/// eigenvector for `values[k]`.
#[derive(Debug, Clone)]
pub struct Eigh {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column.
    pub vectors: Matrix,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// Returns the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns a view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Extracts column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// Maximum absolute difference between `self` and the symmetric part of
    /// itself; zero for exactly symmetric matrices.
    pub fn asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Symmetric eigendecomposition by the cyclic Jacobi method.
    ///
    /// Suitable for the small (≤ ~50×50) symmetric matrices arising in SCF;
    /// eigenvalues return sorted ascending with matching eigenvector columns.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for non-square input and
    /// [`LinalgError::NoConvergence`] if the off-diagonal mass does not
    /// vanish within the sweep budget.
    pub fn eigh(&self) -> Result<Eigh, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch { context: "eigh" });
        }
        let n = self.rows;
        if n == 0 {
            return Ok(Eigh { values: vec![], vectors: Matrix::identity(0) });
        }
        // The working copy is row-major; the eigenvectors accumulate as
        // the rows of `vt = Vᵀ`, so two of the three updates per rotation
        // run over contiguous rows. Every element sees the same products
        // and sums as with a column-stored `V`, so the bits do not move.
        let mut a = self.data.clone();
        let mut vt = Matrix::identity(n).data;
        const MAX_SWEEPS: usize = 128;
        let scale = self.frobenius_norm().max(1.0);
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0;
            for i in 0..n {
                for &aij in &a[i * n + i + 1..(i + 1) * n] {
                    off += aij * aij;
                }
            }
            if off.sqrt() <= 1e-14 * scale {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&p, &q| a[p * n + p].partial_cmp(&a[q * n + q]).unwrap());
                let values = order.iter().map(|&k| a[k * n + k]).collect();
                let vectors = Matrix::from_fn(n, n, |i, j| vt[order[j] * n + i]);
                return Ok(Eigh { values, vectors });
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    // Standard Jacobi rotation: choose t = tan(θ) from the
                    // stable quadratic root so |θ| ≤ π/4.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = if tau >= 0.0 {
                        1.0 / (tau + (1.0 + tau * tau).sqrt())
                    } else {
                        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for row in a.chunks_exact_mut(n) {
                        let akp = row[p];
                        let akq = row[q];
                        row[p] = c * akp - s * akq;
                        row[q] = s * akp + c * akq;
                    }
                    rotate_rows(&mut a, n, p, q, c, s);
                    rotate_rows(&mut vt, n, p, q, c, s);
                }
            }
        }
        Err(LinalgError::NoConvergence { iterations: MAX_SWEEPS })
    }

    /// Computes `A^{-1/2}` for a symmetric positive-definite matrix via its
    /// eigendecomposition, used for Löwdin symmetric orthogonalization of
    /// the AO overlap matrix.
    ///
    /// Eigenvalues below `threshold` are treated as linear dependence and
    /// projected out (their inverse square root is set to zero), mirroring
    /// canonical orthogonalization in quantum-chemistry codes.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures.
    pub fn inv_sqrt_symmetric(&self, threshold: f64) -> Result<Matrix, LinalgError> {
        let eig = self.eigh()?;
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let lambda = eig.values[k];
            if lambda <= threshold {
                continue;
            }
            let w = 1.0 / lambda.sqrt();
            for i in 0..n {
                for j in 0..n {
                    out[(i, j)] += eig.vectors[(i, k)] * w * eig.vectors[(j, k)];
                }
            }
        }
        Ok(out)
    }

    /// Solves `A x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a pivot underflows, and
    /// [`LinalgError::DimensionMismatch`] on shape errors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch { context: "solve" });
        }
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch { context: "solve rhs" });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let (piv, pmax) = (k..n)
                .map(|i| (i, a[(i, k)].abs()))
                .max_by(|l, r| l.1.partial_cmp(&r.1).unwrap())
                .unwrap();
            if pmax < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if piv != k {
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(piv, j)];
                    a[(piv, j)] = tmp;
                }
                x.swap(k, piv);
                perm.swap(k, piv);
            }
            for i in (k + 1)..n {
                let factor = a[(i, k)] / a[(k, k)];
                a[(i, k)] = 0.0;
                for j in (k + 1)..n {
                    a[(i, j)] -= factor * a[(k, j)];
                }
                x[i] -= factor * x[k];
            }
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= a[(i, j)] * x[j];
            }
            x[i] = acc / a[(i, i)];
        }
        Ok(x)
    }
}

/// Applies the Jacobi rotation `(c, s)` to rows `p < q` of a row-major
/// `n`-column buffer: `row_p ← c·row_p − s·row_q`, `row_q ← s·row_p +
/// c·row_q`.
fn rotate_rows(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = data.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    for (xp, xq) in row_p.iter_mut().zip(&mut tail[..n]) {
        let (vp, vq) = (*xp, *xq);
        *xp = c * vp - s * vq;
        *xq = s * vp + c * vq;
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        let mut out = self.clone();
        for a in out.data.iter_mut() {
            *a *= rhs;
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn eigh_known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = a.eigh().unwrap();
        assert!(approx(e.values[0], 1.0, 1e-12));
        assert!(approx(e.values[1], 3.0, 1e-12));
        // Reconstruct A = V D V^T.
        let d = Matrix::from_fn(2, 2, |i, j| if i == j { e.values[i] } else { 0.0 });
        let recon = &(&e.vectors * &d) * &e.vectors.transpose();
        assert!((&recon - &a).frobenius_norm() < 1e-12);
    }

    #[test]
    fn eigh_orthonormal_vectors() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let e = a.eigh().unwrap();
        let vtv = &e.vectors.transpose() * &e.vectors;
        assert!((&vtv - &Matrix::identity(3)).frobenius_norm() < 1e-12);
        assert!(e.values.windows(2).all(|w| w[0] <= w[1] + 1e-14));
    }

    #[test]
    fn eigh_diagonal_is_identity_rotation() {
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { i as f64 } else { 0.0 });
        let e = a.eigh().unwrap();
        for k in 0..4 {
            assert!(approx(e.values[k], k as f64, 1e-14));
        }
    }

    #[test]
    fn inv_sqrt_squares_to_inverse() {
        let s = Matrix::from_rows(&[&[1.0, 0.4], &[0.4, 1.0]]);
        let x = s.inv_sqrt_symmetric(1e-10).unwrap();
        // X S X should be the identity.
        let probe = &(&x * &s) * &x;
        assert!((&probe - &Matrix::identity(2)).frobenius_norm() < 1e-12);
    }

    #[test]
    fn solve_roundtrip() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, -1.0], &[1.0, -2.0, 4.0], &[2.0, 0.0, 1.0]]);
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!(approx(*xi, *ti, 1e-12));
        }
    }

    #[test]
    fn solve_singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let y = a.matvec(&[3.0, 4.0]);
        assert_eq!(y, vec![-1.0, 8.0]);
    }
}
