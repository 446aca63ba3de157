//! Sparse aggregation over subgraph blocks (the numeric counterpart of the
//! simulated aggregation kernel).
//!
//! These functions implement Eq. 1 of the paper and its backward (Eq. 5)
//! on the CPU: destination `u` of a block combines the rows of its sampled
//! sources. The *timing* of this kernel on the simulated GPU comes from
//! `fastgl-gpusim`; the numerics here are what actually trains.
//!
//! The forward reads its input as [`Rows`]: a matrix, or at layer 0 the
//! feature store in place, with the same adds in the same order.

use crate::Rows;
use fastgl_sample::Block;
use fastgl_tensor::{parallel, Matrix};

/// Mean aggregation: `out[u] = (1/|N(u)|) Σ_{v∈N(u)} z[v]`.
///
/// Destinations with no sources produce a zero row (cannot happen when the
/// sampler adds self-loops).
///
/// # Panics
///
/// Panics if a source index exceeds `z`'s rows.
pub fn mean_aggregate<'a>(block: &Block, z: impl Into<Rows<'a>>) -> Matrix {
    weighted_aggregate(block, z.into(), |deg| 1.0 / deg as f32)
}

/// Sum aggregation: `out[u] = Σ_{v∈N(u)} z[v]` (GIN's aggregator).
///
/// # Panics
///
/// Panics if a source index exceeds `z`'s rows.
pub fn sum_aggregate<'a>(block: &Block, z: impl Into<Rows<'a>>) -> Matrix {
    weighted_aggregate(block, z.into(), |_| 1.0)
}

/// Minimum destination rows per aggregation worker; a chunk this size does
/// enough row-adds to amortise spawn/join even for skinny feature dims.
const AGGREGATE_GRAIN_DST: usize = 128;

fn weighted_aggregate(block: &Block, z: Rows<'_>, weight: impl Fn(usize) -> f32 + Sync) -> Matrix {
    let d = z.cols();
    let mut out = Matrix::zeros(block.num_dst(), d);
    if d == 0 {
        return out;
    }
    // Each destination row is an independent reduction over its sources, so
    // partitioning destinations across threads keeps the serial per-row
    // (source-ascending) accumulation order exactly.
    parallel::par_row_chunks_mut(
        out.as_mut_slice(),
        d,
        AGGREGATE_GRAIN_DST,
        |first_dst, chunk| {
            for (di, row) in chunk.chunks_mut(d).enumerate() {
                let srcs = block.sources_of(first_dst + di);
                if srcs.is_empty() {
                    continue;
                }
                let w = weight(srcs.len());
                for &v in srcs {
                    // Equal-length reslice lets the compiler elide the
                    // per-element bound checks and vectorise the add.
                    let src_row = z.row(v as usize);
                    assert_eq!(row.len(), src_row.len());
                    let src_row = &src_row[..row.len()];
                    for (o, &x) in row.iter_mut().zip(src_row) {
                        *o += w * x;
                    }
                }
            }
        },
    );
    out
}

/// Backward of [`mean_aggregate`]: scatters `grad[u] / |N(u)|` back to each
/// source row (Eq. 5 with the same weights).
///
/// `num_src_rows` is the number of rows of the forward input `z`.
///
/// # Panics
///
/// Panics if `grad.rows() != block.num_dst()` or a source index exceeds
/// `num_src_rows`.
pub fn mean_aggregate_backward(block: &Block, grad: &Matrix, num_src_rows: usize) -> Matrix {
    weighted_aggregate_backward(block, grad, num_src_rows, |deg| 1.0 / deg as f32)
}

/// Backward of [`sum_aggregate`].
///
/// # Panics
///
/// Panics if `grad.rows() != block.num_dst()` or a source index exceeds
/// `num_src_rows`.
pub fn sum_aggregate_backward(block: &Block, grad: &Matrix, num_src_rows: usize) -> Matrix {
    weighted_aggregate_backward(block, grad, num_src_rows, |_| 1.0)
}

fn weighted_aggregate_backward(
    block: &Block,
    grad: &Matrix,
    num_src_rows: usize,
    weight: impl Fn(usize) -> f32 + Sync,
) -> Matrix {
    assert_eq!(
        grad.rows(),
        block.num_dst(),
        "gradient rows must match destinations"
    );
    let d = grad.cols();
    let mut out = Matrix::zeros(num_src_rows, d);
    if d == 0 {
        for i in 0..block.num_dst() {
            for &v in block.sources_of(i) {
                assert!((v as usize) < num_src_rows, "source index out of range");
            }
        }
        return out;
    }
    // The scatter is parallelised by partitioning *source* rows: each worker
    // owns a contiguous range of output rows and scans the whole block CSR,
    // accumulating only the edges that land in its range. Compared with
    // per-worker partial buffers folded at the end, this trades P redundant
    // CSR reads (cheap: the index is a fraction of the feature data) for
    // zero write conflicts and zero temporary `num_src_rows × d` buffers —
    // and each output element keeps the serial destination-ascending
    // accumulation order, so the result is bit-identical at any thread
    // count.
    parallel::par_row_chunks_mut(
        out.as_mut_slice(),
        d,
        AGGREGATE_GRAIN_DST,
        |first_src, chunk| {
            let src_range = first_src..first_src + chunk.len() / d;
            for i in 0..block.num_dst() {
                let srcs = block.sources_of(i);
                if srcs.is_empty() {
                    continue;
                }
                let w = weight(srcs.len());
                let g_row = grad.row(i);
                for &v in srcs {
                    let v = v as usize;
                    assert!(v < num_src_rows, "source index out of range");
                    if !src_range.contains(&v) {
                        continue;
                    }
                    let dst_row = &mut chunk[(v - first_src) * d..(v - first_src + 1) * d];
                    assert_eq!(dst_row.len(), g_row.len());
                    let g_row = &g_row[..dst_row.len()];
                    for (o, &g) in dst_row.iter_mut().zip(g_row) {
                        *o += w * g;
                    }
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dst 0 <- {0, 1}; dst 1 <- {2}.
    fn block() -> Block {
        Block {
            dst_locals: vec![0, 1],
            src_offsets: vec![0, 2, 3],
            src_locals: vec![0, 1, 2],
        }
    }

    fn z() -> Matrix {
        Matrix::from_vec(3, 2, vec![2.0, 4.0, 6.0, 8.0, 1.0, 3.0])
    }

    #[test]
    fn mean_aggregate_known_values() {
        let out = mean_aggregate(&block(), &z());
        assert_eq!(out.row(0), &[4.0, 6.0]); // mean of (2,4) and (6,8)
        assert_eq!(out.row(1), &[1.0, 3.0]);
    }

    #[test]
    fn sum_aggregate_known_values() {
        let out = sum_aggregate(&block(), &z());
        assert_eq!(out.row(0), &[8.0, 12.0]);
        assert_eq!(out.row(1), &[1.0, 3.0]);
    }

    #[test]
    fn mean_backward_matches_finite_differences() {
        let b = block();
        let base = z();
        let upstream = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        let grad = mean_aggregate_backward(&b, &upstream, 3);
        let eps = 1e-2;
        // loss = <upstream, mean_aggregate(z)>; check d loss / d z numerically.
        let loss = |m: &Matrix| -> f32 {
            let out = mean_aggregate(&b, m);
            out.as_slice()
                .iter()
                .zip(upstream.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        for i in 0..base.as_slice().len() {
            let mut plus = base.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = base.clone();
            minus.as_mut_slice()[i] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let an = grad.as_slice()[i];
            assert!((fd - an).abs() < 1e-3, "grad[{i}]: fd {fd} vs {an}");
        }
    }

    #[test]
    fn sum_backward_scatters_unweighted() {
        let b = block();
        let upstream = Matrix::from_vec(2, 2, vec![1.0, 1.0, 2.0, 2.0]);
        let grad = sum_aggregate_backward(&b, &upstream, 3);
        assert_eq!(grad.row(0), &[1.0, 1.0]);
        assert_eq!(grad.row(1), &[1.0, 1.0]);
        assert_eq!(grad.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn shared_source_accumulates() {
        let b = Block {
            dst_locals: vec![0, 1],
            src_offsets: vec![0, 1, 2],
            src_locals: vec![0, 0],
        };
        let upstream = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        let grad = sum_aggregate_backward(&b, &upstream, 1);
        assert_eq!(grad.row(0), &[7.0]);
    }

    #[test]
    #[should_panic(expected = "must match destinations")]
    fn backward_validates_rows() {
        let _ = mean_aggregate_backward(&block(), &Matrix::zeros(5, 2), 3);
    }
}
