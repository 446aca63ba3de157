//! Graph Isomorphism Network layer (Xu et al.).
//!
//! `H'_u = MLP( (1 + ε) · X_u + Σ_{v∈N(u)} X_v )` with a two-layer MLP.
//! The sum runs over the sampled sources (the sampler's self-loop already
//! contributes `X_u` once; ε scales an additional copy).

use super::{activate, activate_backward, add_bias, column_sums, GnnLayer};
use crate::aggregate::{sum_aggregate, sum_aggregate_backward};
use fastgl_sample::Block;
use fastgl_tensor::init::{xavier_uniform, zeros_bias};
use fastgl_tensor::ops::{relu, relu_backward};
use fastgl_tensor::{Matrix, Optimizer};
use rand::RngCore;

/// One GIN layer with a 2-layer MLP update.
#[derive(Debug, Clone)]
pub struct GinLayer {
    w1: Matrix,
    b1: Matrix,
    w2: Matrix,
    b2: Matrix,
    epsilon: f32,
    activation: bool,
    // Caches.
    input_rows: usize,
    agg: Option<Matrix>,
    /// `relu(h1)`: `grad_w2`'s operand, and the ReLU mask (`r > 0`
    /// exactly where `h1 > 0`).
    hidden: Option<Matrix>,
    out_pre: Option<Matrix>,
    // Gradients.
    grad_w1: Matrix,
    grad_b1: Matrix,
    grad_w2: Matrix,
    grad_b2: Matrix,
}

impl GinLayer {
    /// A layer mapping `d_in` to `d_out` through a 2-layer MLP with hidden
    /// width `mlp_hidden`, and fixed ε (the paper's models use ε = 0).
    pub fn new(
        d_in: usize,
        mlp_hidden: usize,
        d_out: usize,
        epsilon: f32,
        activation: bool,
        rng: &mut impl RngCore,
    ) -> Self {
        Self {
            w1: xavier_uniform(d_in, mlp_hidden, rng),
            b1: zeros_bias(mlp_hidden),
            w2: xavier_uniform(mlp_hidden, d_out, rng),
            b2: zeros_bias(d_out),
            epsilon,
            activation,
            input_rows: 0,
            agg: None,
            hidden: None,
            out_pre: None,
            grad_w1: Matrix::zeros(d_in, mlp_hidden),
            grad_b1: Matrix::zeros(1, mlp_hidden),
            grad_w2: Matrix::zeros(mlp_hidden, d_out),
            grad_b2: Matrix::zeros(1, d_out),
        }
    }
}

impl GnnLayer for GinLayer {
    fn forward(&mut self, block: &Block, input: &Matrix) -> Matrix {
        let mut agg = sum_aggregate(block, input);
        if self.epsilon != 0.0 {
            for (i, &dst) in block.dst_locals.iter().enumerate() {
                for (a, &x) in agg.row_mut(i).iter_mut().zip(input.row(dst as usize)) {
                    *a += self.epsilon * x;
                }
            }
        }
        let mut h1 = agg.matmul(&self.w1);
        add_bias(&mut h1, &self.b1);
        let r = relu(&h1);
        let mut out = r.matmul(&self.w2);
        add_bias(&mut out, &self.b2);
        self.input_rows = input.rows();
        self.agg = Some(agg);
        self.hidden = Some(r);
        activate(out, self.activation, &mut self.out_pre)
    }

    fn backward(&mut self, block: &Block, grad_out: &Matrix, input_grad: bool) -> Option<Matrix> {
        let agg = self.agg.as_ref().expect("forward before backward");
        let r = self.hidden.as_ref().expect("forward before backward");
        let g_out = activate_backward(self.activation, &self.out_pre, grad_out);
        self.grad_w2 += &r.matmul_transpose_a(&g_out);
        self.grad_b2 += &column_sums(&g_out);
        let d_r = g_out.matmul_transpose_b(&self.w2);
        let d_h1 = relu_backward(r, &d_r);
        self.grad_w1 += &agg.matmul_transpose_a(&d_h1);
        self.grad_b1 += &column_sums(&d_h1);
        if !input_grad {
            return None;
        }
        let d_agg = d_h1.matmul_transpose_b(&self.w1);

        let mut d_input = sum_aggregate_backward(block, &d_agg, self.input_rows);
        if self.epsilon != 0.0 {
            for (i, &dst) in block.dst_locals.iter().enumerate() {
                for (o, &g) in d_input.row_mut(dst as usize).iter_mut().zip(d_agg.row(i)) {
                    *o += self.epsilon * g;
                }
            }
        }
        Some(d_input)
    }

    fn apply_grads(&mut self, opt: &mut dyn Optimizer, slot_base: usize) -> usize {
        opt.step(slot_base, self.w1.as_mut_slice(), self.grad_w1.as_slice());
        opt.step(
            slot_base + 1,
            self.b1.as_mut_slice(),
            self.grad_b1.as_slice(),
        );
        opt.step(
            slot_base + 2,
            self.w2.as_mut_slice(),
            self.grad_w2.as_slice(),
        );
        opt.step(
            slot_base + 3,
            self.b2.as_mut_slice(),
            self.grad_b2.as_slice(),
        );
        self.grad_w1.scale(0.0);
        self.grad_b1.scale(0.0);
        self.grad_w2.scale(0.0);
        self.grad_b2.scale(0.0);
        4
    }

    fn input_dim(&self) -> usize {
        self.w1.rows()
    }

    fn output_dim(&self) -> usize {
        self.w2.cols()
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.w1, &self.b1, &self.w2, &self.b2]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]
    }

    fn param_count(&self) -> usize {
        self.w1.rows() * self.w1.cols()
            + self.b1.cols()
            + self.w2.rows() * self.w2.cols()
            + self.b2.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::test_util::{check_input_gradient, input, tiny_block};
    use fastgl_graph::DeterministicRng;
    use fastgl_tensor::Sgd;

    fn layer(eps: f32, activation: bool) -> GinLayer {
        let mut rng = DeterministicRng::seed(17);
        GinLayer::new(3, 4, 2, eps, activation, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let block = tiny_block();
        let x = input(4, 3, 1);
        let out = layer(0.0, true).forward(&block, &x);
        assert_eq!((out.rows(), out.cols()), (2, 2));
    }

    #[test]
    fn input_gradient_eps_zero() {
        let block = tiny_block();
        let x = input(4, 3, 2);
        let upstream = input(2, 2, 3);
        check_input_gradient(|| layer(0.0, false), &block, &x, &upstream, 3e-3);
    }

    #[test]
    fn input_gradient_with_epsilon_and_activation() {
        let block = tiny_block();
        let x = input(4, 3, 4);
        let upstream = input(2, 2, 5);
        check_input_gradient(|| layer(0.3, true), &block, &x, &upstream, 3e-3);
    }

    #[test]
    fn epsilon_changes_output() {
        let block = tiny_block();
        let x = input(4, 3, 6);
        let o1 = layer(0.0, false).forward(&block, &x);
        let o2 = layer(1.0, false).forward(&block, &x);
        assert_ne!(o1, o2);
    }

    #[test]
    fn apply_grads_uses_four_slots() {
        let block = tiny_block();
        let x = input(4, 3, 7);
        let upstream = input(2, 2, 8);
        let mut l = layer(0.0, false);
        l.forward(&block, &x);
        l.backward(&block, &upstream, true);
        let mut opt = Sgd::new(0.01);
        assert_eq!(l.apply_grads(&mut opt, 0), 4);
        assert_eq!(l.grad_w1.norm(), 0.0);
        assert_eq!(l.grad_w2.norm(), 0.0);
    }

    #[test]
    fn param_count() {
        let l = layer(0.0, true);
        assert_eq!(l.param_count(), 3 * 4 + 4 + 4 * 2 + 2);
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 2);
    }
}
