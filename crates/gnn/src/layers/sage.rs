//! GraphSAGE layer (Hamilton et al.) with the mean aggregator.
//!
//! `H'_u = σ( W_self · x_u + W_neigh · mean_{v∈N(u)} x_v + b )` — the
//! inductive workhorse that popularised sampling-based training. Not part
//! of the paper's benchmark trio, but the library exposes it because
//! sampled pipelines in the wild overwhelmingly run SAGE.

use super::{activate, activate_backward, add_bias, column_sums, GnnLayer};
use crate::aggregate::{mean_aggregate, mean_aggregate_backward};
use crate::Rows;
use fastgl_sample::Block;
use fastgl_tensor::init::{xavier_uniform, zeros_bias};
use fastgl_tensor::Matrix;
use rand::RngCore;

/// One GraphSAGE-mean layer.
#[derive(Debug, Clone)]
pub struct SageLayer {
    w_self: Matrix,
    w_neigh: Matrix,
    bias: Matrix,
    activation: bool,
    // Caches.
    input_rows: usize,
    self_rows: Option<Matrix>,
    aggregated: Option<Matrix>,
    pre_activation: Option<Matrix>,
    // Gradients.
    grad_w_self: Matrix,
    grad_w_neigh: Matrix,
    grad_bias: Matrix,
}

impl SageLayer {
    /// A layer mapping `d_in` to `d_out`; `activation` adds a ReLU.
    pub fn new(d_in: usize, d_out: usize, activation: bool, rng: &mut impl RngCore) -> Self {
        Self {
            w_self: xavier_uniform(d_in, d_out, rng),
            w_neigh: xavier_uniform(d_in, d_out, rng),
            bias: zeros_bias(d_out),
            activation,
            input_rows: 0,
            self_rows: None,
            aggregated: None,
            pre_activation: None,
            grad_w_self: Matrix::zeros(d_in, d_out),
            grad_w_neigh: Matrix::zeros(d_in, d_out),
            grad_bias: Matrix::zeros(1, d_out),
        }
    }

    /// The destination rows the self weight reads; at layer 0 they are
    /// copied from the feature store, and only they are.
    fn gather_self_rows(block: &Block, input: Rows<'_>) -> Matrix {
        let indices: Vec<usize> = block.dst_locals.iter().map(|&d| d as usize).collect();
        input.gather(&indices)
    }
}

impl GnnLayer for SageLayer {
    fn forward(&mut self, block: &Block, input: Rows<'_>) -> Matrix {
        let self_rows = Self::gather_self_rows(block, input);
        let agg = mean_aggregate(block, input);
        let mut z = self_rows.matmul(&self.w_self);
        z += &agg.matmul(&self.w_neigh);
        add_bias(&mut z, &self.bias);
        self.input_rows = input.len();
        self.self_rows = Some(self_rows);
        self.aggregated = Some(agg);
        activate(z, self.activation, &mut self.pre_activation)
    }

    fn backward(&mut self, block: &Block, grad_out: &Matrix, input_grad: bool) -> Option<Matrix> {
        let self_rows = self.self_rows.as_ref().expect("forward before backward");
        let agg = self.aggregated.as_ref().expect("forward before backward");
        let g = activate_backward(self.activation, &self.pre_activation, grad_out);
        self.grad_w_self += &self_rows.matmul_transpose_a(&g);
        self.grad_w_neigh += &agg.matmul_transpose_a(&g);
        self.grad_bias += &column_sums(&g);
        if !input_grad {
            return None;
        }

        // Neighbour path scatters back through the mean aggregation.
        let d_agg = g.matmul_transpose_b(&self.w_neigh);
        let mut d_input = mean_aggregate_backward(block, &d_agg, self.input_rows);
        // Self path scatters to the destination rows directly.
        let d_self = g.matmul_transpose_b(&self.w_self);
        for (i, &dst) in block.dst_locals.iter().enumerate() {
            let row = d_input.row_mut(dst as usize);
            for (o, &v) in row.iter_mut().zip(d_self.row(i)) {
                *o += v;
            }
        }
        Some(d_input)
    }

    fn input_dim(&self) -> usize {
        self.w_self.rows()
    }

    fn output_dim(&self) -> usize {
        self.w_self.cols()
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w_self, &self.w_neigh, &self.bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        vec![
            (&mut self.w_self, &mut self.grad_w_self),
            (&mut self.w_neigh, &mut self.grad_w_neigh),
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

    fn layer(activation: bool) -> SageLayer {
        let mut rng = DeterministicRng::seed(31);
        SageLayer::new(3, 2, activation, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let block = tiny_block();
        let x = input(4, 3, 1);
        let out = layer(true).forward(&block, (&x).into());
        assert_eq!((out.rows(), out.cols()), (2, 2));
    }

    #[test]
    fn self_path_distinguishes_nodes_with_same_neighbours() {
        // Two destinations with identical neighbour sets but different own
        // features must produce different outputs (the point of W_self).
        let block = fastgl_sample::Block {
            dst_locals: vec![0, 1],
            src_offsets: vec![0, 2, 4],
            src_locals: vec![2, 3, 2, 3],
        };
        let x = input(4, 3, 2);
        let out = layer(false).forward(&block, (&x).into());
        assert_ne!(out.row(0), out.row(1));
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let block = tiny_block();
        let x = input(4, 3, 3);
        let upstream = input(2, 2, 4);
        check_input_gradient(|| layer(false), &block, &x, &upstream, 3e-3);
    }

    #[test]
    fn input_gradient_with_activation() {
        let block = tiny_block();
        let x = input(4, 3, 5);
        let upstream = input(2, 2, 6);
        check_input_gradient(|| layer(true), &block, &x, &upstream, 3e-3);
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let block = tiny_block();
        let x = input(4, 3, 7);
        let upstream = input(2, 2, 8);
        let mut l = layer(false);
        l.forward(&block, (&x).into());
        l.backward(&block, &upstream, true);
        let eps = 1e-2;
        for (which, analytic) in [(0, l.grad_w_self.clone()), (1, l.grad_w_neigh.clone())] {
            for i in 0..analytic.as_slice().len() {
                let perturb = |delta: f32| {
                    let mut lp = layer(false);
                    let w = if which == 0 {
                        &mut lp.w_self
                    } else {
                        &mut lp.w_neigh
                    };
                    w.as_mut_slice()[i] += delta;
                    let out = lp.forward(&block, (&x).into());
                    out.as_slice()
                        .iter()
                        .zip(upstream.as_slice())
                        .map(|(a, b)| a * b)
                        .sum::<f32>()
                };
                let fd = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
                let an = analytic.as_slice()[i];
                assert!((fd - an).abs() < 3e-3, "w{which}[{i}]: fd {fd} vs {an}");
            }
        }
    }

    #[test]
    fn apply_grads_uses_three_slots_and_clears() {
        let block = tiny_block();
        let x = input(4, 3, 9);
        let upstream = input(2, 2, 10);
        let mut l = layer(false);
        l.forward(&block, (&x).into());
        l.backward(&block, &upstream, true);
        let mut opt = Sgd::new(0.1);
        assert_eq!(l.apply_grads(&mut opt, 0), 3);
        assert_eq!(l.grad_w_self.norm(), 0.0);
        assert_eq!(l.grad_w_neigh.norm(), 0.0);
    }

    #[test]
    fn dims_and_params() {
        let l = layer(true);
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 2);
        assert_eq!(l.param_count(), 2 * 6 + 2);
    }
}
