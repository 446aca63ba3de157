//! Graph Convolutional Network layer (Kipf & Welling).
//!
//! `H' = σ( Â · X · W + b )` with mean aggregation over each destination's
//! sampled neighbours (including the self-loop the sampler adds), the
//! standard normalisation for sampled subgraphs.

use super::{activate, activate_backward, add_bias, column_sums, GnnLayer};
use crate::aggregate::{mean_aggregate, mean_aggregate_backward};
use fastgl_sample::Block;
use fastgl_tensor::init::{xavier_uniform, zeros_bias};
use fastgl_tensor::Matrix;
use rand::RngCore;

/// One GCN layer.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    weight: Matrix,
    bias: Matrix,
    activation: bool,
    // Forward caches.
    input_rows: usize,
    aggregated: Option<Matrix>,
    pre_activation: Option<Matrix>,
    // Accumulated gradients.
    grad_weight: Matrix,
    grad_bias: Matrix,
}

impl GcnLayer {
    /// A layer mapping `d_in` to `d_out` features; `activation` selects
    /// whether a ReLU follows (off for the output layer).
    pub fn new(d_in: usize, d_out: usize, activation: bool, rng: &mut impl RngCore) -> Self {
        Self {
            weight: xavier_uniform(d_in, d_out, rng),
            bias: zeros_bias(d_out),
            activation,
            input_rows: 0,
            aggregated: None,
            pre_activation: None,
            grad_weight: Matrix::zeros(d_in, d_out),
            grad_bias: Matrix::zeros(1, d_out),
        }
    }

    /// Immutable view of the weight matrix (for tests and inspection).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }
}

impl GnnLayer for GcnLayer {
    fn forward(&mut self, block: &Block, input: &Matrix) -> Matrix {
        // Aggregate-then-update, as the paper's Eq. 1/2 formulates it:
        // h_u = Σ w_uv x_v over the raw (wide) features, then the dense
        // update. This is the order that makes the aggregation the
        // memory-bound stage the Memory-Aware kernel targets.
        let agg = mean_aggregate(block, input);
        let mut z = agg.matmul(&self.weight);
        add_bias(&mut z, &self.bias);
        self.input_rows = input.rows();
        self.aggregated = Some(agg);
        activate(z, self.activation, &mut self.pre_activation)
    }

    fn backward(&mut self, block: &Block, grad_out: &Matrix, input_grad: bool) -> Option<Matrix> {
        let agg = self.aggregated.as_ref().expect("forward before backward");
        let g = activate_backward(self.activation, &self.pre_activation, grad_out);
        self.grad_weight += &agg.matmul_transpose_a(&g);
        self.grad_bias += &column_sums(&g);
        if !input_grad {
            return None;
        }
        let d_agg = g.matmul_transpose_b(&self.weight);
        Some(mean_aggregate_backward(block, &d_agg, self.input_rows))
    }

    fn input_dim(&self) -> usize {
        self.weight.rows()
    }

    fn output_dim(&self) -> usize {
        self.weight.cols()
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.weight, &self.bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        vec![
            (&mut self.weight, &mut self.grad_weight),
            (&mut self.bias, &mut self.grad_bias),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::test_util::{check_input_gradient, input, tiny_block};
    use fastgl_graph::DeterministicRng;
    use fastgl_tensor::Sgd;

    fn layer(activation: bool) -> GcnLayer {
        let mut rng = DeterministicRng::seed(42);
        GcnLayer::new(3, 2, activation, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let block = tiny_block();
        let x = input(4, 3, 1);
        let mut l = layer(true);
        let out = l.forward(&block, &x);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.cols(), 2);
    }

    #[test]
    fn relu_output_non_negative() {
        let block = tiny_block();
        let x = input(4, 3, 2);
        let mut l = layer(true);
        let out = l.forward(&block, &x);
        assert!(out.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn input_gradient_matches_finite_differences_linear() {
        let block = tiny_block();
        let x = input(4, 3, 3);
        let upstream = input(2, 2, 4);
        check_input_gradient(|| layer(false), &block, &x, &upstream, 2e-3);
    }

    #[test]
    fn input_gradient_matches_finite_differences_relu() {
        let block = tiny_block();
        let x = input(4, 3, 5);
        let upstream = input(2, 2, 6);
        check_input_gradient(|| layer(true), &block, &x, &upstream, 2e-3);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let block = tiny_block();
        let x = input(4, 3, 7);
        let upstream = input(2, 2, 8);
        let mut l = layer(false);
        l.forward(&block, &x);
        l.backward(&block, &upstream, true);
        let analytic = l.grad_weight.clone();
        let eps = 1e-2;
        for i in 0..analytic.as_slice().len() {
            let mut lp = layer(false);
            lp.weight.as_mut_slice()[i] += eps;
            let op = lp.forward(&block, &x);
            let mut lm = layer(false);
            lm.weight.as_mut_slice()[i] -= eps;
            let om = lm.forward(&block, &x);
            let fd: f32 = op
                .as_slice()
                .iter()
                .zip(om.as_slice())
                .zip(upstream.as_slice())
                .map(|((p, m), u)| (p - m) * u)
                .sum::<f32>()
                / (2.0 * eps);
            let an = analytic.as_slice()[i];
            assert!((fd - an).abs() < 2e-3, "dW[{i}]: fd {fd} vs {an}");
        }
    }

    #[test]
    fn apply_grads_updates_and_clears() {
        let block = tiny_block();
        let x = input(4, 3, 9);
        let upstream = input(2, 2, 10);
        let mut l = layer(false);
        l.forward(&block, &x);
        l.backward(&block, &upstream, true);
        let w_before = l.weight.clone();
        let mut opt = Sgd::new(0.1);
        let slots = l.apply_grads(&mut opt, 0);
        assert_eq!(slots, 2);
        assert_ne!(l.weight, w_before);
        assert_eq!(l.grad_weight.norm(), 0.0);
    }

    #[test]
    fn dims_and_params() {
        let l = layer(true);
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 2);
        assert_eq!(l.param_count(), 8);
    }
}
