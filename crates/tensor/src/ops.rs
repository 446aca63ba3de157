//! Activations and row-wise softmax utilities.

use crate::matrix::Matrix;
use crate::parallel;

/// ReLU, elementwise.
pub fn relu(x: &Matrix) -> Matrix {
    x.map(|v| v.max(0.0))
}

/// Backward of ReLU: passes `grad` where the forward input was positive.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn relu_backward(input: &Matrix, grad: &Matrix) -> Matrix {
    assert_eq!(
        (input.rows(), input.cols()),
        (grad.rows(), grad.cols()),
        "relu_backward shape mismatch"
    );
    let mut out = Matrix::zeros(grad.rows(), grad.cols());
    parallel::par_row_chunks_mut(
        out.as_mut_slice(),
        1,
        parallel::ELEMWISE_GRAIN,
        |first, chunk| {
            let x = &input.as_slice()[first..first + chunk.len()];
            let g = &grad.as_slice()[first..first + chunk.len()];
            for ((o, &x), &g) in chunk.iter_mut().zip(x).zip(g) {
                // Multiply rather than select: a masked `-g` must give
                // `-0.0` and a masked `inf` must give NaN.
                *o = if x > 0.0 { 1.0 } else { 0.0 } * g;
            }
        },
    );
    out
}

/// Numerically-stable row-wise softmax.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Numerically-stable row-wise log-softmax.
pub fn log_softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
    out
}

/// Exponential over a slice normalised to sum 1 (softmax of a vector),
/// written in place. Used for per-node attention coefficients in GAT.
pub fn softmax_slice(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in xs.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_vec(1, 4, vec![-2.0, -0.5, 0.0, 3.0]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let x = Matrix::from_vec(1, 3, vec![-1.0, 2.0, 0.0]);
        let g = Matrix::from_vec(1, 3, vec![5.0, 5.0, 5.0]);
        assert_eq!(relu_backward(&x, &g).as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn relu_backward_matches_mask_times_grad_bit_for_bit() {
        let specials = [
            -0.0,
            0.0,
            1.5,
            -2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // Every (x, g) pair of specials, repeated past the parallel grain
        // so the chunked path runs too.
        let pairs: Vec<(f32, f32)> = specials
            .iter()
            .flat_map(|&x| specials.iter().map(move |&g| (x, g)))
            .cycle()
            .take(2 * crate::parallel::ELEMWISE_GRAIN + 7)
            .collect();
        let n = pairs.len();
        let x = Matrix::from_vec(1, n, pairs.iter().map(|p| p.0).collect());
        let g = Matrix::from_vec(1, n, pairs.iter().map(|p| p.1).collect());
        let reference = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }).hadamard(&g);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&relu_backward(&x, &g)), bits(&reference));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Monotone in the input.
        assert!(s.get(0, 2) > s.get(0, 1));
        // Large inputs do not overflow.
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Matrix::from_vec(1, 4, vec![0.1, -2.0, 3.0, 0.7]);
        let ls = log_softmax_rows(&x);
        let s = softmax_rows(&x);
        for c in 0..4 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_slice_normalises() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_slice(&mut xs);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
        let mut empty: Vec<f32> = vec![];
        softmax_slice(&mut empty); // must not panic
    }
}
