//! Graph Attention Network layer (Veličković et al.).
//!
//! Per head `h`: `e_uv = LeakyReLU(a_lᵀ W x_u + a_rᵀ W x_v)`,
//! `α_uv = softmax_v(e_uv)`, `H'_u = Σ_v α_uv · W x_v`, heads concatenated.
//! The paper's GAT uses 8 heads of dimension 8 (§6.1).

use super::{activate, activate_backward, GnnLayer};
use fastgl_sample::Block;
use fastgl_tensor::init::xavier_uniform;
use fastgl_tensor::ops::softmax_slice;
use fastgl_tensor::Matrix;
use rand::RngCore;

const LEAKY_SLOPE: f32 = 0.2;

/// One multi-head GAT layer (concatenating heads).
#[derive(Debug, Clone)]
pub struct GatLayer {
    weight: Matrix,
    attn_l: Matrix,
    attn_r: Matrix,
    heads: usize,
    head_dim: usize,
    activation: bool,
    // Caches.
    input: Option<Matrix>,
    z: Option<Matrix>,
    alphas: Vec<f32>,
    e_pre: Vec<f32>,
    out_pre: Option<Matrix>,
    // Gradients.
    grad_weight: Matrix,
    grad_attn_l: Matrix,
    grad_attn_r: Matrix,
}

impl GatLayer {
    /// A layer with `heads` attention heads of `head_dim` features each;
    /// output dimensionality is `heads · head_dim`.
    pub fn new(
        d_in: usize,
        heads: usize,
        head_dim: usize,
        activation: bool,
        rng: &mut impl RngCore,
    ) -> Self {
        let d_out = heads * head_dim;
        Self {
            weight: xavier_uniform(d_in, d_out, rng),
            attn_l: xavier_uniform(heads, head_dim, rng),
            attn_r: xavier_uniform(heads, head_dim, rng),
            heads,
            head_dim,
            activation,
            input: None,
            z: None,
            alphas: Vec::new(),
            e_pre: Vec::new(),
            out_pre: None,
            grad_weight: Matrix::zeros(d_in, d_out),
            grad_attn_l: Matrix::zeros(heads, head_dim),
            grad_attn_r: Matrix::zeros(heads, head_dim),
        }
    }

    #[inline]
    fn head_slice(row: &[f32], h: usize, f: usize) -> &[f32] {
        &row[h * f..(h + 1) * f]
    }
}

impl GnnLayer for GatLayer {
    fn forward(&mut self, block: &Block, input: &Matrix) -> Matrix {
        let f = self.head_dim;
        let z = input.matmul(&self.weight);
        let nnz = block.num_edges() as usize;
        let mut alphas = vec![0.0f32; nnz * self.heads];
        let mut e_pre = vec![0.0f32; nnz * self.heads];
        let mut out = Matrix::zeros(block.num_dst(), self.heads * f);

        for i in 0..block.num_dst() {
            let dst = block.dst_locals[i] as usize;
            let srcs = block.sources_of(i);
            let edge_base = block.src_offsets[i] as usize;
            for h in 0..self.heads {
                let a_l = self.attn_l.row(h);
                let a_r = self.attn_r.row(h);
                let s_l: f32 = a_l
                    .iter()
                    .zip(Self::head_slice(z.row(dst), h, f))
                    .map(|(a, b)| a * b)
                    .sum();
                // Attention logits with LeakyReLU.
                let mut scores: Vec<f32> = srcs
                    .iter()
                    .map(|&v| {
                        let s_r: f32 = a_r
                            .iter()
                            .zip(Self::head_slice(z.row(v as usize), h, f))
                            .map(|(a, b)| a * b)
                            .sum();
                        let e = s_l + s_r;
                        if e > 0.0 {
                            e
                        } else {
                            LEAKY_SLOPE * e
                        }
                    })
                    .collect();
                for (k, &v) in srcs.iter().enumerate() {
                    // Recompute pre-activation for the backward cache.
                    let s_r: f32 = a_r
                        .iter()
                        .zip(Self::head_slice(z.row(v as usize), h, f))
                        .map(|(a, b)| a * b)
                        .sum();
                    e_pre[(edge_base + k) * self.heads + h] = s_l + s_r;
                }
                softmax_slice(&mut scores);
                for (k, (&v, &alpha)) in srcs.iter().zip(&scores).enumerate() {
                    alphas[(edge_base + k) * self.heads + h] = alpha;
                    let z_v = Self::head_slice(z.row(v as usize), h, f);
                    let o = &mut out.row_mut(i)[h * f..(h + 1) * f];
                    for (oo, &zz) in o.iter_mut().zip(z_v) {
                        *oo += alpha * zz;
                    }
                }
            }
        }

        self.input = Some(input.clone());
        self.z = Some(z);
        self.alphas = alphas;
        self.e_pre = e_pre;
        activate(out, self.activation, &mut self.out_pre)
    }

    fn backward(&mut self, block: &Block, grad_out: &Matrix, input_grad: bool) -> Option<Matrix> {
        // Split the borrows so the per-edge loops read the caches and the
        // attention vectors in place while writing the gradients.
        let Self {
            weight,
            attn_l,
            attn_r,
            heads,
            head_dim: f,
            activation,
            input,
            z,
            alphas,
            e_pre,
            out_pre,
            grad_weight,
            grad_attn_l,
            grad_attn_r,
        } = self;
        let (heads, f) = (*heads, *f);
        let input = input.as_ref().expect("forward before backward");
        let z = z.as_ref().expect("forward before backward");
        let g = activate_backward(*activation, out_pre, grad_out);

        let mut d_z = Matrix::zeros(z.rows(), z.cols());
        let mut d_alpha = Vec::new();
        for i in 0..block.num_dst() {
            let dst = block.dst_locals[i] as usize;
            let srcs = block.sources_of(i);
            let edge_base = block.src_offsets[i] as usize;
            for h in 0..heads {
                let g_head = Self::head_slice(g.row(i), h, f);
                // dα_k = <g_head, z_vk>; dz_vk += α_k · g_head.
                d_alpha.clear();
                for (k, &v) in srcs.iter().enumerate() {
                    let alpha = alphas[(edge_base + k) * heads + h];
                    let z_v = Self::head_slice(z.row(v as usize), h, f);
                    let mut dot = 0.0;
                    let d_row = &mut d_z.row_mut(v as usize)[h * f..(h + 1) * f];
                    for ((dz, &gg), &zz) in d_row.iter_mut().zip(g_head).zip(z_v) {
                        *dz += alpha * gg;
                        dot += gg * zz;
                    }
                    d_alpha.push(dot);
                }
                // Softmax backward: de_k = α_k (dα_k − Σ_j α_j dα_j).
                let weighted: f32 = d_alpha
                    .iter()
                    .enumerate()
                    .map(|(k, &da)| alphas[(edge_base + k) * heads + h] * da)
                    .sum();
                let a_r = attn_r.row(h);
                let mut ds_l_total = 0.0f32;
                for (k, &v) in srcs.iter().enumerate() {
                    let alpha = alphas[(edge_base + k) * heads + h];
                    let de = alpha * (d_alpha[k] - weighted);
                    let pre = e_pre[(edge_base + k) * heads + h];
                    let ds = if pre > 0.0 { de } else { LEAKY_SLOPE * de };
                    ds_l_total += ds;
                    // s_r = a_rᵀ z_v: propagate into z_v and a_r.
                    let d_row = &mut d_z.row_mut(v as usize)[h * f..(h + 1) * f];
                    for (dz, &ar) in d_row.iter_mut().zip(a_r) {
                        *dz += ds * ar;
                    }
                    let z_v = Self::head_slice(z.row(v as usize), h, f);
                    for (da, &zz) in grad_attn_r.row_mut(h).iter_mut().zip(z_v) {
                        *da += ds * zz;
                    }
                }
                // s_l = a_lᵀ z_dst: one total per destination/head.
                let d_row = &mut d_z.row_mut(dst)[h * f..(h + 1) * f];
                for (dz, &al) in d_row.iter_mut().zip(attn_l.row(h)) {
                    *dz += ds_l_total * al;
                }
                let z_dst = Self::head_slice(z.row(dst), h, f);
                for (da, &zz) in grad_attn_l.row_mut(h).iter_mut().zip(z_dst) {
                    *da += ds_l_total * zz;
                }
            }
        }

        *grad_weight += &input.matmul_transpose_a(&d_z);
        input_grad.then(|| d_z.matmul_transpose_b(weight))
    }

    fn input_dim(&self) -> usize {
        self.weight.rows()
    }

    fn output_dim(&self) -> usize {
        self.heads * self.head_dim
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.weight, &self.attn_l, &self.attn_r]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        vec![
            (&mut self.weight, &mut self.grad_weight),
            (&mut self.attn_l, &mut self.grad_attn_l),
            (&mut self.attn_r, &mut self.grad_attn_r),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::test_util::{check_input_gradient, input, tiny_block};
    use fastgl_graph::DeterministicRng;
    use fastgl_tensor::Sgd;

    fn layer(heads: usize, head_dim: usize, activation: bool) -> GatLayer {
        let mut rng = DeterministicRng::seed(23);
        GatLayer::new(3, heads, head_dim, activation, &mut rng)
    }

    #[test]
    fn forward_shape_multi_head() {
        let block = tiny_block();
        let x = input(4, 3, 1);
        let out = layer(4, 2, true).forward(&block, &x);
        assert_eq!((out.rows(), out.cols()), (2, 8));
    }

    #[test]
    fn attention_coefficients_sum_to_one() {
        let block = tiny_block();
        let x = input(4, 3, 2);
        let mut l = layer(2, 3, false);
        l.forward(&block, &x);
        for i in 0..block.num_dst() {
            let base = block.src_offsets[i] as usize;
            let n = block.sources_of(i).len();
            for h in 0..2 {
                let sum: f32 = (0..n).map(|k| l.alphas[(base + k) * 2 + h]).sum();
                assert!((sum - 1.0).abs() < 1e-5, "dst {i} head {h}: {sum}");
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let block = tiny_block();
        let x = input(4, 3, 3);
        let upstream = input(2, 4, 4);
        check_input_gradient(|| layer(2, 2, false), &block, &x, &upstream, 6e-3);
    }

    #[test]
    fn input_gradient_with_activation() {
        let block = tiny_block();
        let x = input(4, 3, 5);
        let upstream = input(2, 4, 6);
        check_input_gradient(|| layer(2, 2, true), &block, &x, &upstream, 6e-3);
    }

    #[test]
    fn attention_param_gradient_matches_finite_differences() {
        let block = tiny_block();
        let x = input(4, 3, 7);
        let upstream = input(2, 4, 8);
        let mut l = layer(2, 2, false);
        l.forward(&block, &x);
        l.backward(&block, &upstream, true);
        let analytic = l.grad_attn_l.clone();
        let eps = 1e-2;
        for i in 0..analytic.as_slice().len() {
            let mut lp = layer(2, 2, false);
            lp.attn_l.as_mut_slice()[i] += eps;
            let op = lp.forward(&block, &x);
            let mut lm = layer(2, 2, false);
            lm.attn_l.as_mut_slice()[i] -= eps;
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
            assert!((fd - an).abs() < 6e-3, "da_l[{i}]: fd {fd} vs {an}");
        }
    }

    #[test]
    fn apply_grads_uses_three_slots() {
        let block = tiny_block();
        let x = input(4, 3, 9);
        let upstream = input(2, 4, 10);
        let mut l = layer(2, 2, false);
        l.forward(&block, &x);
        l.backward(&block, &upstream, true);
        let mut opt = Sgd::new(0.05);
        assert_eq!(l.apply_grads(&mut opt, 0), 3);
        assert_eq!(l.grad_weight.norm(), 0.0);
    }

    #[test]
    fn paper_configuration_dims() {
        let mut rng = DeterministicRng::seed(1);
        let l = GatLayer::new(602, 8, 8, true, &mut rng);
        assert_eq!(l.output_dim(), 64);
        assert_eq!(l.param_count(), 602 * 64 + 2 * 64);
    }
}
