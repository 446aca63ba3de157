//! Row-major dense `f32` matrices.
//!
//! The compute kernels (`matmul` and its transposed variants, the
//! elementwise ops) run on the workspace's deterministic fork-join backend
//! ([`crate::parallel`]): output rows are partitioned into contiguous
//! chunks, each chunk is computed with the exact serial loop, and every
//! per-element reduction keeps its fixed k-ascending accumulation order —
//! so results are bit-identical at any thread count, and inputs below the
//! per-kernel cutoffs never leave the calling thread.

use crate::parallel;
use fastgl_telemetry::names;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Output-column stripe width of the matmul inner kernel. A 128-element
/// stripe of the output row plus the matching stripe of one `rhs` row is
/// 1 KiB — both stay L1-resident while the k loop streams over `rhs` rows.
const MATMUL_J_BLOCK: usize = 128;

/// Rows of output each matmul worker claims at minimum, sized so a chunk
/// amortises spawn/join over [`parallel::MATMUL_GRAIN_FLOPS`] multiply-adds.
fn matmul_grain_rows(flops_per_row: usize) -> usize {
    (parallel::MATMUL_GRAIN_FLOPS / flops_per_row.max(1)).max(1)
}

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

    /// Matrix product `self · rhs` using an ikj loop order (streams rows of
    /// `rhs`, cache-friendly for row-major data), parallelised over
    /// contiguous output-row chunks with the j loop blocked to L1-sized
    /// stripes. Every output element accumulates in k-ascending order, so
    /// the result is bit-identical at any thread count.
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
        let _span = fastgl_telemetry::span("tensor.matmul")
            .with_u64("m", self.rows as u64)
            .with_u64("k", self.cols as u64)
            .with_u64("n", rhs.cols as u64);
        fastgl_telemetry::counter_add(
            names::TENSOR_MATMUL_FLOPS,
            2 * (self.rows * self.cols * rhs.cols) as u64,
        );
        let n = rhs.cols;
        let mut out = Matrix::zeros(self.rows, n);
        if n == 0 {
            return out;
        }
        let grain = matmul_grain_rows(self.cols * n);
        parallel::par_row_chunks_mut(&mut out.data, n, grain, |first_row, chunk| {
            for (di, out_row) in chunk.chunks_mut(n).enumerate() {
                let a_row = self.row(first_row + di);
                let mut j0 = 0;
                while j0 < n {
                    let j1 = (j0 + MATMUL_J_BLOCK).min(n);
                    let out_stripe = &mut out_row[j0..j1];
                    for (k, &a) in a_row.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let b_stripe = &rhs.row(k)[j0..j1];
                        for (o, &b) in out_stripe.iter_mut().zip(b_stripe) {
                            *o += a * b;
                        }
                    }
                    j0 = j1;
                }
            }
        });
        out
    }

    /// `selfᵀ · rhs`, without materialising the transpose (backward pass
    /// weight gradient: `dW = Xᵀ · dY`).
    ///
    /// Parallelised over contiguous chunks of *output* rows (= columns `k`
    /// of `self`): each worker owns a disjoint `k` range and scans all rows
    /// `i` of the inputs in ascending order, so every output element keeps
    /// the serial i-ascending accumulation order with no write conflicts.
    /// The tradeoff is that each worker re-reads the inputs, which is cheap
    /// relative to the multiply-adds it owns.
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
        let _span = fastgl_telemetry::span("tensor.matmul_t_a")
            .with_u64("m", self.cols as u64)
            .with_u64("k", self.rows as u64)
            .with_u64("n", rhs.cols as u64);
        fastgl_telemetry::counter_add(
            names::TENSOR_MATMUL_FLOPS,
            2 * (self.rows * self.cols * rhs.cols) as u64,
        );
        let n = rhs.cols;
        let mut out = Matrix::zeros(self.cols, n);
        if n == 0 {
            return out;
        }
        let grain = matmul_grain_rows(self.rows * n);
        parallel::par_row_chunks_mut(&mut out.data, n, grain, |first_k, chunk| {
            let k_range = first_k..first_k + chunk.len() / n;
            for i in 0..self.rows {
                let a_row = &self.row(i)[k_range.clone()];
                let b_row = rhs.row(i);
                for (dk, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let out_row = &mut chunk[dk * n..(dk + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        });
        out
    }

    /// `self · rhsᵀ`, without materialising the transpose (backward pass
    /// input gradient: `dX = dY · Wᵀ`).
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
        let _span = fastgl_telemetry::span("tensor.matmul_t_b")
            .with_u64("m", self.rows as u64)
            .with_u64("k", self.cols as u64)
            .with_u64("n", rhs.rows as u64);
        fastgl_telemetry::counter_add(
            names::TENSOR_MATMUL_FLOPS,
            2 * (self.rows * self.cols * rhs.rows) as u64,
        );
        let n = rhs.rows;
        let mut out = Matrix::zeros(self.rows, n);
        if n == 0 {
            return out;
        }
        let grain = matmul_grain_rows(self.cols.max(1) * n);
        parallel::par_row_chunks_mut(&mut out.data, n, grain, |first_row, chunk| {
            for (di, out_row) in chunk.chunks_mut(n).enumerate() {
                let a_row = self.row(first_row + di);
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = rhs.row(j);
                    let mut acc = 0.0;
                    for (&a, &b) in a_row.iter().zip(b_row) {
                        acc += a * b;
                    }
                    *o = acc;
                }
            }
        });
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
        let _span = fastgl_telemetry::span("tensor.gather")
            .with_u64("rows", indices.len() as u64)
            .with_u64("dim", dim as u64);
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
