//! Row-major dense `f32` matrices.
//!
//! The compute kernels (`matmul` and its transposed variants, the
//! elementwise ops) run on the workspace's deterministic fork-join backend
//! ([`crate::parallel`]): output rows are partitioned into contiguous
//! chunks, and inputs below the per-kernel cutoffs never leave the calling
//! thread. The three matmuls share one register-tiled micro-kernel
//! (`gemm.rs`) that reads transposed operands in place and keeps every
//! output element's k-ascending accumulation order, so results are
//! bit-identical to the plain triple loop at any thread count and on any
//! instruction set the kernel dispatches to.

use crate::gemm::{self, Lhs};
use crate::parallel;
use fastgl_telemetry::names;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense row-major `f32` matrix.
///
/// # Example
///
/// ```
/// use fastgl_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of {} elements cannot form a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
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

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · rhs` on the register-tiled kernel of
    /// `gemm.rs`, parallelised over contiguous output-row chunks. Every
    /// output element accumulates in k-ascending order and skips terms whose
    /// `self` entry is `0.0`, so the result is bit-identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _span = fastgl_telemetry::span(names::SPAN_TENSOR_MATMUL);
        fastgl_telemetry::counter_add(
            names::TENSOR_MATMUL_FLOPS,
            2 * (self.rows * self.cols * rhs.cols) as u64,
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let lhs = Lhs {
            data: &self.data,
            row_stride: self.cols,
            col_stride: 1,
        };
        gemm::gemm::<true>(lhs, &rhs.data, rhs.rows, rhs.cols, &mut out.data);
        out
    }

    /// `selfᵀ · rhs`, reading `self` in place (backward pass weight
    /// gradient: `dW = Xᵀ · dY`). Output rows (= columns of `self`) are
    /// split across workers; each element sums over rows of the inputs in
    /// ascending order and skips terms whose `self` entry is `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn matmul_transpose_a(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_transpose_a dimension mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _span = fastgl_telemetry::span(names::SPAN_TENSOR_MATMUL_T_A);
        fastgl_telemetry::counter_add(
            names::TENSOR_MATMUL_FLOPS,
            2 * (self.rows * self.cols * rhs.cols) as u64,
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let lhs = Lhs {
            data: &self.data,
            row_stride: 1,
            col_stride: self.cols,
        };
        gemm::gemm::<true>(lhs, &rhs.data, rhs.rows, rhs.cols, &mut out.data);
        out
    }

    /// `self · rhsᵀ` (backward pass input gradient: `dX = dY · Wᵀ`). The
    /// small `rhs` is transposed once per call; every output element is a
    /// k-ascending dot product with no term skipped.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose_b dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _span = fastgl_telemetry::span(names::SPAN_TENSOR_MATMUL_T_B);
        fastgl_telemetry::counter_add(
            names::TENSOR_MATMUL_FLOPS,
            2 * (self.rows * self.cols * rhs.rows) as u64,
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let lhs = Lhs {
            data: &self.data,
            row_stride: self.cols,
            col_stride: 1,
        };
        let rhs_t = rhs.transpose();
        gemm::gemm::<false>(lhs, &rhs_t.data, rhs_t.rows, rhs_t.cols, &mut out.data);
        out
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Applies `f` elementwise, returning a new matrix. Runs in parallel
    /// chunks above the elementwise cutoff (each element is independent, so
    /// any partition is bit-identical to the serial pass).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        parallel::par_row_chunks_mut(
            &mut out.data,
            1,
            parallel::ELEMWISE_GRAIN,
            |first, chunk| {
                let src = &self.data[first..first + chunk.len()];
                for (o, &x) in chunk.iter_mut().zip(src) {
                    *o = f(x);
                }
            },
        );
        out
    }

    /// Multiplies every element in place.
    pub fn scale(&mut self, s: f32) {
        parallel::par_row_chunks_mut(&mut self.data, 1, parallel::ELEMWISE_GRAIN, |_, chunk| {
            for x in chunk {
                *x *= s;
            }
        });
    }

    /// Adds `rhs` scaled by `alpha` in place (`self += alpha * rhs`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "axpy shape mismatch"
        );
        parallel::par_row_chunks_mut(
            &mut self.data,
            1,
            parallel::ELEMWISE_GRAIN,
            |first, chunk| {
                let src = &rhs.data[first..first + chunk.len()];
                for (a, &b) in chunk.iter_mut().zip(src) {
                    *a += alpha * b;
                }
            },
        );
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "hadamard shape mismatch"
        );
        let mut out = Matrix::zeros(self.rows, self.cols);
        parallel::par_row_chunks_mut(
            &mut out.data,
            1,
            parallel::ELEMWISE_GRAIN,
            |first, chunk| {
                let a = &self.data[first..first + chunk.len()];
                let b = &rhs.data[first..first + chunk.len()];
                for ((o, &x), &y) in chunk.iter_mut().zip(a).zip(b) {
                    *o = x * y;
                }
            },
        );
        out
    }

    /// Selects rows by index into a new matrix (feature gather).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        Self::gather_flat(&self.data, self.cols, self.rows, indices)
    }

    /// Gathers rows out of a flat row-major feature buffer of `dim`-wide
    /// rows (the mini-batch feature load: `out[i] = src[indices[i]]`).
    /// Row copies are independent, so the gather parallelises over
    /// contiguous output-row chunks with no ordering concerns.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < num_rows * dim` or any index is `>= num_rows`.
    pub fn gather_flat(src: &[f32], dim: usize, num_rows: usize, indices: &[usize]) -> Matrix {
        assert!(
            src.len() >= num_rows * dim,
            "flat buffer of {} elements is smaller than {num_rows} rows of {dim}",
            src.len()
        );
        let _span = fastgl_telemetry::span(names::SPAN_TENSOR_GATHER);
        fastgl_telemetry::counter_add(names::TENSOR_GATHER_ROWS, indices.len() as u64);
        fastgl_telemetry::counter_add(names::TENSOR_GATHER_BYTES, (indices.len() * dim * 4) as u64);
        let mut out = Matrix::zeros(indices.len(), dim);
        if dim == 0 {
            for &idx in indices {
                assert!(idx < num_rows, "row index {idx} out of bounds");
            }
            return out;
        }
        parallel::par_row_chunks_mut(
            &mut out.data,
            dim,
            parallel::GATHER_GRAIN_ROWS,
            |first_row, chunk| {
                for (i, row) in chunk.chunks_mut(dim).enumerate() {
                    let idx = indices[first_row + i];
                    assert!(idx < num_rows, "row index {idx} out of bounds");
                    row.copy_from_slice(&src[idx * dim..(idx + 1) * dim]);
                }
            },
        );
        out
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale(s);
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &Matrix, b: &Matrix, eps: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() < eps)
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        let t1 = a.matmul_transpose_a(&b);
        let t2 = a.transpose().matmul(&b);
        assert!(approx(&t1, &t2, 1e-6));

        let c = Matrix::from_vec(5, 2, (0..10).map(|x| x as f32 * 0.3).collect());
        let d = Matrix::from_vec(4, 2, (0..8).map(|x| x as f32 - 3.0).collect());
        let t3 = c.matmul_transpose_b(&d);
        let t4 = c.matmul(&d.transpose());
        assert!(approx(&t3, &t4, 1e-6));
    }

    #[test]
    fn zero_in_a_skips_non_finite_b_in_matmul_and_t_a() {
        // Row 0 of `a` is [0, 1]; B's row 0 holds the non-finite values.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(
            2,
            3,
            vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 2.0, 3.0, 4.0],
        );
        assert_eq!(a.matmul(&b).as_slice(), &[2.0, 3.0, 4.0]);
        // The same product with `a` stored transposed: (aᵀ)ᵀ · b.
        assert_eq!(
            a.transpose().matmul_transpose_a(&b).as_slice(),
            &[2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn t_b_does_not_skip_zero_times_non_finite() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        // Rows of `b` are the columns of the product's right operand.
        let b = Matrix::from_vec(
            3,
            2,
            vec![f32::INFINITY, 2.0, f32::NEG_INFINITY, 3.0, f32::NAN, 4.0],
        );
        let out = a.matmul_transpose_b(&b);
        assert!(out.as_slice().iter().all(|x| x.is_nan()), "{out:?}");
    }

    #[test]
    fn all_zero_row_of_a_gives_positive_zero() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, -0.0, 0.0]);
        let b = Matrix::from_vec(2, 2, vec![-1.0, -2.0, -3.0, -4.0]);
        let positive_zero = |m: &Matrix| m.as_slice().iter().all(|x| x.to_bits() == 0);
        assert!(positive_zero(&a.matmul(&b)));
        assert!(positive_zero(&a.transpose().matmul_transpose_a(&b)));
        assert!(positive_zero(&a.matmul_transpose_b(&b)));
    }

    #[test]
    fn zero_sized_dimensions() {
        // k = 0: every output element is the empty sum, +0.0.
        let zero_k = Matrix::zeros(3, 0).matmul(&Matrix::zeros(0, 5));
        assert_eq!((zero_k.rows(), zero_k.cols()), (3, 5));
        assert!(zero_k.as_slice().iter().all(|x| x.to_bits() == 0));
        let t_a = Matrix::zeros(0, 3).matmul_transpose_a(&Matrix::zeros(0, 5));
        assert_eq!((t_a.rows(), t_a.cols()), (3, 5));
        assert!(t_a.as_slice().iter().all(|x| x.to_bits() == 0));
        let t_b = Matrix::zeros(3, 0).matmul_transpose_b(&Matrix::zeros(5, 0));
        assert_eq!((t_b.rows(), t_b.cols()), (3, 5));
        assert!(t_b.as_slice().iter().all(|x| x.to_bits() == 0));
        // m = 0 and n = 0: empty outputs of the right shape.
        let b = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let zero_m = Matrix::zeros(0, 2).matmul(&b);
        assert_eq!((zero_m.rows(), zero_m.cols()), (0, 2));
        let zero_n = b.matmul(&Matrix::zeros(2, 0));
        assert_eq!((zero_n.rows(), zero_n.cols()), (2, 0));
        let t_a_m = Matrix::zeros(2, 0).matmul_transpose_a(&b);
        assert_eq!((t_a_m.rows(), t_a_m.cols()), (0, 2));
        let t_a_n = b.matmul_transpose_a(&Matrix::zeros(2, 0));
        assert_eq!((t_a_n.rows(), t_a_n.cols()), (2, 0));
        let t_b_m = Matrix::zeros(0, 2).matmul_transpose_b(&b);
        assert_eq!((t_b_m.rows(), t_b_m.cols()), (0, 2));
        let t_b_n = b.matmul_transpose_b(&Matrix::zeros(0, 2));
        assert_eq!((t_b_n.rows(), t_b_n.cols()), (2, 0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_add_sub() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0, 33.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0, 27.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.as_slice(), &[6.0, 12.0, 18.0]);
        c += &a;
        assert_eq!(c.as_slice(), &[7.0, 14.0, 21.0]);
    }

    #[test]
    fn scale_and_mul() {
        let a = Matrix::from_vec(1, 2, vec![2.0, -4.0]);
        assert_eq!((&a * 0.5).as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_bounds_checked() {
        let a = Matrix::zeros(2, 2);
        let _ = a.gather_rows(&[5]);
    }

    #[test]
    fn norm_is_frobenius() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn map_applies_elementwise() {
        let a = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let r = a.map(|x| x.max(0.0));
        assert_eq!(r.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn display_does_not_panic() {
        let a = Matrix::zeros(10, 10);
        let s = a.to_string();
        assert!(s.contains("Matrix 10x10"));
    }

    #[test]
    #[should_panic(expected = "cannot form")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn gather_flat_matches_gather_rows() {
        let a = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        let idx = [3, 1, 1, 0];
        let g1 = a.gather_rows(&idx);
        let g2 = Matrix::gather_flat(a.as_slice(), 3, 4, &idx);
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_flat_bounds_checked() {
        let src = vec![0.0f32; 6];
        let _ = Matrix::gather_flat(&src, 3, 2, &[2]);
    }

    /// Pseudo-random but deterministic fill that exercises the zero-skip.
    fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| {
                let mut x = i as u64 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 31;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                if x.is_multiple_of(7) {
                    0.0
                } else {
                    ((x >> 40) as f32 / 8_388_608.0) - 1.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn kernels_bit_identical_across_thread_counts() {
        use crate::parallel::test_util::with_threads;
        // Sizes above every grain so the parallel path actually engages.
        let a = fill(97, 193, 1);
        let b = fill(193, 131, 2);
        let c = fill(97, 131, 3);
        let idx: Vec<usize> = (0..500).map(|i| (i * 37) % 97).collect();
        let baseline = with_threads(1, || {
            (
                a.matmul(&b),
                a.matmul_transpose_a(&c),
                c.matmul_transpose_b(&b),
                a.map(|x| x.max(0.0)),
                a.hadamard(&a),
                a.gather_rows(&idx),
            )
        });
        for threads in [2usize, 3, 8] {
            let got = with_threads(threads, || {
                (
                    a.matmul(&b),
                    a.matmul_transpose_a(&c),
                    c.matmul_transpose_b(&b),
                    a.map(|x| x.max(0.0)),
                    a.hadamard(&a),
                    a.gather_rows(&idx),
                )
            });
            assert_eq!(
                got.0.as_slice(),
                baseline.0.as_slice(),
                "matmul t={threads}"
            );
            assert_eq!(got.1.as_slice(), baseline.1.as_slice(), "t_a t={threads}");
            assert_eq!(got.2.as_slice(), baseline.2.as_slice(), "t_b t={threads}");
            assert_eq!(got.3.as_slice(), baseline.3.as_slice(), "map t={threads}");
            assert_eq!(
                got.4.as_slice(),
                baseline.4.as_slice(),
                "hadamard t={threads}"
            );
            assert_eq!(
                got.5.as_slice(),
                baseline.5.as_slice(),
                "gather t={threads}"
            );
        }
    }

    #[test]
    fn inplace_kernels_bit_identical_across_thread_counts() {
        use crate::parallel::test_util::with_threads;
        let base = fill(211, 97, 4);
        let delta = fill(211, 97, 5);
        let baseline = with_threads(1, || {
            let mut m = base.clone();
            m.scale(0.37);
            m.axpy(-1.25, &delta);
            m
        });
        for threads in [2usize, 8] {
            let got = with_threads(threads, || {
                let mut m = base.clone();
                m.scale(0.37);
                m.axpy(-1.25, &delta);
                m
            });
            assert_eq!(got.as_slice(), baseline.as_slice(), "t={threads}");
        }
    }
}
