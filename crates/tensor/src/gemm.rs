//! The dense matmul micro-kernel behind [`Matrix::matmul`] and its
//! transposed variants.
//!
//! The kernel computes `out = A · B` for an `m × k` left operand read in
//! place through row and column strides ([`Lhs`]) and a row-major `k × n`
//! right operand. It keeps a [`MR`] × [`NR`] accumulator tile in registers,
//! loads each row of B once per [`MR`] rows of A, and walks `k` in panels of
//! [`KC`] so the B stripe a tile streams stays cache-resident.
//!
//! Every output element is bit-identical to the plain triple loop: its sum
//! starts at `+0.0` and adds `a * b` in `k`-ascending order with a separate
//! multiply and add. A tile stores its `f32` partial sums between `k`
//! panels and reloads them, which is exact. With `SKIP_ZERO_A` a term whose
//! `a` is `0.0` is skipped per element, so `0 × inf` never reaches the sum.
//!
//! The same generic body is compiled twice: a portable copy, and on x86-64
//! a copy with AVX2 enabled, picked at run time. AVX2 widens the vectors
//! only; FMA stays disabled, and Rust never contracts a multiply and an add
//! into one, so both copies give the same bits.
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul

use crate::parallel;

/// Rows of the accumulator tile.
const MR: usize = 4;
/// Columns of the accumulator tile: two AVX2 vectors of `f32`.
const NR: usize = 16;
/// Depth of one `k` panel: a tile streams `KC` rows of an `NR`-wide B
/// stripe (16 KiB), which stays L1-resident across the tile's `k` loop.
const KC: usize = 256;

/// An `m × k` left operand read in place: element `(i, p)` is
/// `data[i * row_stride + p * col_stride]`.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) row_stride: usize,
    pub(crate) col_stride: usize,
}

impl<'a> Lhs<'a> {
    /// The operand from row `first` on.
    fn skip_rows(self, first: usize) -> Lhs<'a> {
        Lhs {
            data: &self.data[first * self.row_stride..],
            ..self
        }
    }
}

/// Which compiled copy of the kernel body runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// Compiled for the build target's baseline instruction set.
    Portable,
    /// Compiled with AVX2 enabled (FMA stays off).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The fastest copy this CPU can run.
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }
}

/// `out = a · b`, where `out` is a zeroed row-major `m × n` buffer and `b`
/// is row-major `k × n`. With `SKIP_ZERO_A`, terms whose `a` entry is `0.0`
/// are skipped. Output rows are split over the fork-join backend in chunks
/// of about [`parallel::MATMUL_GRAIN_FLOPS`] multiply-adds, each run by the
/// fastest copy of the kernel this CPU has.
pub(crate) fn gemm<const SKIP_ZERO_A: bool>(
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    gemm_on::<SKIP_ZERO_A>(Isa::detect(), a, b, k, n, out);
}

/// [`gemm`] on the copy of the kernel that `isa` names.
fn gemm_on<const SKIP_ZERO_A: bool>(
    isa: Isa,
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    if n == 0 {
        return;
    }
    let grain_rows = (parallel::MATMUL_GRAIN_FLOPS / (k * n).max(1)).max(1);
    parallel::par_row_chunks_mut(out, n, grain_rows, |first_row, chunk| {
        dispatch::<SKIP_ZERO_A>(isa, a.skip_rows(first_row), b, k, n, chunk);
    });
}

/// Runs the copy of the kernel body that `isa` names, if the CPU has it.
#[allow(unsafe_code)]
fn dispatch<const SKIP_ZERO_A: bool>(
    isa: Isa,
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: `kernel_avx2` requires only the AVX2 target feature,
            // and the guard above checked that this CPU supports it.
            unsafe { kernel_avx2::<SKIP_ZERO_A>(a, b, k, n, out) }
        }
        _ => kernel::<SKIP_ZERO_A>(a, b, k, n, out),
    }
}

/// [`kernel`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn kernel_avx2<const SKIP_ZERO_A: bool>(
    a: Lhs<'_>,
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    kernel::<SKIP_ZERO_A>(a, b, k, n, out);
}

/// The serial kernel over one chunk of output rows. `#[inline(always)]`
/// down to the tile update, so each caller compiles the whole body under
/// its own target features.
#[inline(always)]
fn kernel<const SKIP_ZERO_A: bool>(a: Lhs<'_>, b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let m = out.len() / n;
    // A micro-panel of A: `MR` rows by up to `KC` columns, stored column by
    // column and zero-padded past the last row.
    let mut a_panel = [[0.0f32; MR]; KC];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let b_panel = &b[k0 * n..(k0 + kc) * n];
        for i0 in (0..m).step_by(MR) {
            let rows = MR.min(m - i0);
            for (p, col) in a_panel[..kc].iter_mut().enumerate() {
                for (r, x) in col.iter_mut().enumerate() {
                    *x = if r < rows {
                        a.data[(i0 + r) * a.row_stride + (k0 + p) * a.col_stride]
                    } else {
                        0.0
                    };
                }
            }
            let out_rows = &mut out[i0 * n..(i0 + rows) * n];
            for j0 in (0..n).step_by(NR) {
                tile::<SKIP_ZERO_A>(&a_panel[..kc], b_panel, n, j0, out_rows);
            }
        }
    }
}

/// Adds one `k` panel into the output tile at columns `j0..` of
/// `out_rows` (up to `MR` rows of width `n`). The tile's partial sums are
/// loaded from `out_rows` and stored back, both exactly.
#[inline(always)]
fn tile<const SKIP_ZERO_A: bool>(
    a_panel: &[[f32; MR]],
    b_panel: &[f32],
    n: usize,
    j0: usize,
    out_rows: &mut [f32],
) {
    let cols = NR.min(n - j0);
    let mut acc = [[0.0f32; NR]; MR];
    for (acc_row, out_row) in acc.iter_mut().zip(out_rows.chunks_exact(n)) {
        acc_row[..cols].copy_from_slice(&out_row[j0..j0 + cols]);
    }
    if cols == NR {
        for (a_col, b_row) in a_panel.iter().zip(b_panel.chunks_exact(n)) {
            let b_row: &[f32; NR] = b_row[j0..j0 + NR]
                .try_into()
                .expect("a full tile spans NR columns");
            update::<SKIP_ZERO_A>(&mut acc, a_col, b_row);
        }
    } else {
        // The right edge: lanes past `cols` compute on zero padding and
        // are never stored.
        for (a_col, b_row) in a_panel.iter().zip(b_panel.chunks_exact(n)) {
            let mut padded = [0.0f32; NR];
            padded[..cols].copy_from_slice(&b_row[j0..j0 + cols]);
            update::<SKIP_ZERO_A>(&mut acc, a_col, &padded);
        }
    }
    for (acc_row, out_row) in acc.iter().zip(out_rows.chunks_exact_mut(n)) {
        out_row[j0..j0 + cols].copy_from_slice(&acc_row[..cols]);
    }
}

/// One `k` step of the tile: `acc[r][j] += a[r] * b[j]`.
#[inline(always)]
fn update<const SKIP_ZERO_A: bool>(acc: &mut [[f32; NR]; MR], a: &[f32; MR], b: &[f32; NR]) {
    for (acc_row, &a) in acc.iter_mut().zip(a) {
        if SKIP_ZERO_A && a == 0.0 {
            continue;
        }
        for (o, &b) in acc_row.iter_mut().zip(b) {
            *o += a * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::test_util::with_threads;
    use crate::Matrix;

    /// The plain loops the kernel replaced: `a · b` with `a == 0.0` terms
    /// skipped.
    fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// `aᵀ · b` with `a == 0.0` terms skipped, summed over rows of `a`.
    fn oracle_transpose_a(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.rows() {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(k).iter_mut().zip(b.row(i)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// `a · bᵀ` as one dot product per element, no term skipped.
    fn oracle_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0;
                for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Deterministic values in `[-1, 1)`; with `relu`, negatives become
    /// `0.0`, so about half the entries are zero (a post-ReLU activation).
    fn fill(rows: usize, cols: usize, salt: u64, relu: bool) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| {
                let mut x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                x ^= x >> 29;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 32;
                let v = (x >> 40) as f32 / 8_388_608.0 - 1.0;
                if relu {
                    v.max(0.0)
                } else {
                    v
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Every copy of the kernel body this CPU can run.
    fn available() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        if Isa::detect() != Isa::Portable {
            isas.push(Isa::detect());
        }
        isas
    }

    fn run<const SKIP_ZERO_A: bool>(isa: Isa, a: Lhs<'_>, b: &Matrix, m: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * b.cols()];
        gemm_on::<SKIP_ZERO_A>(isa, a, b.as_slice(), b.rows(), b.cols(), &mut out);
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_copy_matches_the_plain_loops_bit_for_bit() {
        // m % 4 ∈ {1, 2, 3, 0}, n % 16 ≠ 0 as well as full tiles, and k
        // below, at, and above the panel depth (not a multiple of it).
        let shapes = [
            (1, 1, 1),
            (5, 300, 37),
            (6, 517, 16),
            (7, 256, 33),
            (23, 300, 40),
            (12, 600, 64),
            (33, 129, 3),
        ];
        for isa in available() {
            for &(m, k, n) in &shapes {
                for relu in [false, true] {
                    let a = fill(m, k, 1, relu);
                    let a_t = a.transpose();
                    let b = fill(k, n, 2, false);
                    let b_t = b.transpose();
                    let want_mm = oracle_matmul(&a, &b);
                    let want_ta = oracle_transpose_a(&a_t, &b);
                    let want_tb = oracle_transpose_b(&a, &b_t);
                    for threads in [1usize, 2, 8] {
                        let (mm, ta, tb) = with_threads(threads, || {
                            let row_major = Lhs {
                                data: a.as_slice(),
                                row_stride: k,
                                col_stride: 1,
                            };
                            let transposed = Lhs {
                                data: a_t.as_slice(),
                                row_stride: 1,
                                col_stride: m,
                            };
                            (
                                run::<true>(isa, row_major, &b, m),
                                run::<true>(isa, transposed, &b, m),
                                run::<false>(isa, row_major, &b, m),
                            )
                        });
                        let case = format!("{isa:?} m={m} k={k} n={n} relu={relu} t={threads}");
                        assert_eq!(bits(&mm), bits(want_mm.as_slice()), "matmul {case}");
                        assert_eq!(bits(&ta), bits(want_ta.as_slice()), "t_a {case}");
                        assert_eq!(bits(&tb), bits(want_tb.as_slice()), "t_b {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_methods_match_the_plain_loops() {
        let a = fill(23, 300, 3, true);
        let b = fill(300, 40, 4, false);
        let c = fill(23, 40, 5, false);
        let d = fill(40, 300, 6, false);
        assert_eq!(a.matmul(&b), oracle_matmul(&a, &b));
        assert_eq!(
            a.matmul_transpose_a(&c).as_slice(),
            oracle_transpose_a(&a, &c).as_slice()
        );
        assert_eq!(a.matmul_transpose_b(&d), oracle_transpose_b(&a, &d));
    }
}
