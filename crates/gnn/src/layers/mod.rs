//! GNN layers with hand-derived backward passes.

pub mod gat;
pub mod gcn;
pub mod gin;
pub mod sage;

use crate::Rows;
use fastgl_sample::Block;
use fastgl_tensor::ops::{relu, relu_backward};
use fastgl_tensor::{Matrix, Optimizer};
use std::borrow::Cow;

/// A GNN layer operating on one subgraph block.
///
/// `forward` reads its input as [`Rows`]: the previous layer's output, or
/// at layer 0 the feature store in place. It caches what `backward` reads
/// and nothing more: GCN, SAGE and GIN keep only the input's row count
/// (plus their own intermediates), while GAT keeps its input as a matrix
/// because its weight gradient is `Xᵀ·d_z`. `backward` always accumulates
/// every parameter gradient internally; it computes the gradient with
/// respect to the layer input only when the caller asks for it, which a
/// model never does for its first layer (that input is the feature store,
/// not a parameter). A layer names its parameters once, in
/// [`params_and_grads`](Self::params_and_grads); `params`, `param_count`
/// and `apply_grads` follow that list.
pub trait GnnLayer {
    /// Computes the layer output over the block's destination nodes from
    /// `input`, whose rows cover the block's source ID space.
    fn forward(&mut self, block: &Block, input: Rows<'_>) -> Matrix;

    /// Backpropagates `grad_out` (rows = destinations) and accumulates the
    /// parameter gradients. Returns the gradient with respect to the
    /// forward `input` when `input_grad` is true and `None` otherwise; the
    /// parameter gradients are the same either way.
    fn backward(&mut self, block: &Block, grad_out: &Matrix, input_grad: bool) -> Option<Matrix>;

    /// Input feature dimensionality.
    fn input_dim(&self) -> usize;

    /// Output feature dimensionality.
    fn output_dim(&self) -> usize;

    /// The layer's parameter matrices, in a stable order.
    fn params(&self) -> Vec<&Matrix>;

    /// Each parameter matrix paired with its accumulated gradient, in the
    /// order of [`params`](Self::params).
    fn params_and_grads(&mut self) -> Vec<(&mut Matrix, &mut Matrix)>;

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.as_slice().len()).sum()
    }

    /// Steps parameter `i` through `opt` under slot `slot_base + i`, then
    /// clears its gradient. Returns how many slots the layer used, so a
    /// model can hand each layer a disjoint slot range.
    fn apply_grads(&mut self, opt: &mut dyn Optimizer, slot_base: usize) -> usize {
        let pairs = self.params_and_grads();
        let slots = pairs.len();
        for (i, (param, grad)) in pairs.into_iter().enumerate() {
            opt.step(slot_base + i, param.as_mut_slice(), grad.as_slice());
            grad.scale(0.0);
        }
        slots
    }
}

/// Applies a layer's optional ReLU to `z`. Only an activated layer's
/// backward reads the pre-activation, so only then is `z` kept in `pre`.
pub(crate) fn activate(z: Matrix, activation: bool, pre: &mut Option<Matrix>) -> Matrix {
    if activation {
        let out = relu(&z);
        *pre = Some(z);
        out
    } else {
        z
    }
}

/// Backward of [`activate`]: `grad_out` masked by the cached
/// pre-activation, or `grad_out` itself when the layer has no ReLU.
pub(crate) fn activate_backward<'a>(
    activation: bool,
    pre: &Option<Matrix>,
    grad_out: &'a Matrix,
) -> Cow<'a, Matrix> {
    if activation {
        let pre = pre.as_ref().expect("forward before backward");
        Cow::Owned(relu_backward(pre, grad_out))
    } else {
        Cow::Borrowed(grad_out)
    }
}

/// Column-wise sums of a matrix as a `1 × cols` bias-gradient row.
pub(crate) fn column_sums(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, m.cols());
    for r in 0..m.rows() {
        let row = m.row(r);
        let acc = out.row_mut(0);
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
    out
}

/// Adds a bias row to every row of `m` in place.
pub(crate) fn add_bias(m: &mut Matrix, bias: &Matrix) {
    debug_assert_eq!(bias.rows(), 1);
    debug_assert_eq!(bias.cols(), m.cols());
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        for (x, &b) in row.iter_mut().zip(bias.row(0)) {
            *x += b;
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use fastgl_sample::Block;

    /// A tiny block: 2 destinations over 4 source rows.
    /// dst 0 <- {0, 2, 3}, dst 1 <- {1, 3}.
    pub fn tiny_block() -> Block {
        Block {
            dst_locals: vec![0, 1],
            src_offsets: vec![0, 3, 5],
            src_locals: vec![0, 2, 3, 1, 3],
        }
    }

    /// Deterministic pseudo-random input of the given shape.
    pub fn input(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Checks `layer`'s input gradient against central finite differences
    /// of the scalar loss `<upstream, forward(input)>`.
    pub fn check_input_gradient<L: GnnLayer>(
        make_layer: impl Fn() -> L,
        block: &Block,
        input: &Matrix,
        upstream: &Matrix,
        tol: f32,
    ) {
        let mut layer = make_layer();
        layer.forward(block, input.into());
        let grad = layer
            .backward(block, upstream, true)
            .expect("an input gradient was asked for");
        let loss = |m: &Matrix| -> f32 {
            let mut l = make_layer();
            let out = l.forward(block, m.into());
            out.as_slice()
                .iter()
                .zip(upstream.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2;
        for i in 0..input.as_slice().len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let an = grad.as_slice()[i];
            assert!(
                (fd - an).abs() < tol,
                "input grad[{i}]: finite-diff {fd} vs analytic {an}"
            );
        }
    }

    /// Skipping the input gradient must not change what a layer learns:
    /// after one SGD step, the parameters are bit-identical either way.
    #[test]
    fn input_gradient_flag_leaves_parameter_updates_unchanged() {
        use fastgl_graph::DeterministicRng;
        use fastgl_tensor::Sgd;
        fn make(name: &str) -> Box<dyn GnnLayer> {
            let rng = &mut DeterministicRng::seed(5);
            match name {
                "GCN" => Box::new(gcn::GcnLayer::new(3, 2, true, rng)),
                "SAGE" => Box::new(sage::SageLayer::new(3, 2, true, rng)),
                "GIN" => Box::new(gin::GinLayer::new(3, 4, 2, 0.3, true, rng)),
                _ => Box::new(gat::GatLayer::new(3, 2, 2, true, rng)),
            }
        }
        let bits = |l: &dyn GnnLayer| -> Vec<u32> {
            l.params()
                .iter()
                .flat_map(|p| p.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        let block = tiny_block();
        let x = input(4, 3, 11);
        for name in ["GCN", "SAGE", "GIN", "GAT"] {
            let mut with = make(name);
            let mut without = make(name);
            let initial = bits(&*with);
            let out = with.forward(&block, (&x).into());
            assert_eq!(out, without.forward(&block, (&x).into()), "{name}");
            let upstream = input(out.rows(), out.cols(), 12);
            let grad = with.backward(&block, &upstream, true);
            assert_eq!(grad.map(|g| (g.rows(), g.cols())), Some((4, 3)), "{name}");
            assert!(
                without.backward(&block, &upstream, false).is_none(),
                "{name}"
            );
            with.apply_grads(&mut Sgd::new(0.1), 0);
            without.apply_grads(&mut Sgd::new(0.1), 0);
            assert_ne!(bits(&*with), initial, "{name}: the step moved nothing");
            assert_eq!(bits(&*with), bits(&*without), "{name}");
        }
    }

    /// A layer reading the feature store in place gives the bits of the
    /// same layer reading the gathered rows: its output and every
    /// parameter gradient. GIN runs with ε ≠ 0 and SAGE with its self
    /// term, so the destination-row reads are covered too.
    #[test]
    fn store_read_matches_the_gathered_rows() {
        use fastgl_graph::{FeatureStore, NodeId};
        let store = FeatureStore::materialized(input(6, 3, 13).as_slice().to_vec(), 3);
        let nodes = [NodeId(4), NodeId(1), NodeId(5), NodeId(0)];
        let gathered = Rows::store(&store, &nodes).to_matrix();
        let block = tiny_block();
        let upstream = input(2, 2, 14);
        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        for name in ["GCN", "SAGE", "GIN", "GAT"] {
            let run = |rows: Rows<'_>| -> Vec<Vec<u32>> {
                let rng = &mut fastgl_graph::DeterministicRng::seed(5);
                let mut layer: Box<dyn GnnLayer> = match name {
                    "GCN" => Box::new(gcn::GcnLayer::new(3, 2, true, rng)),
                    "SAGE" => Box::new(sage::SageLayer::new(3, 2, true, rng)),
                    "GIN" => Box::new(gin::GinLayer::new(3, 4, 2, 0.3, true, rng)),
                    _ => Box::new(gat::GatLayer::new(3, 1, 2, true, rng)),
                };
                let out = layer.forward(&block, rows);
                layer.backward(&block, &upstream, false);
                let mut all = vec![bits(&out)];
                all.extend(layer.params_and_grads().into_iter().map(|(_, g)| bits(g)));
                all
            };
            assert_eq!(
                run(Rows::store(&store, &nodes)),
                run((&gathered).into()),
                "{name}"
            );
        }
    }

    #[test]
    fn column_sums_sum_columns() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(column_sums(&m).as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn add_bias_broadcasts() {
        let mut m = Matrix::zeros(2, 2);
        let b = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        add_bias(&mut m, &b);
        assert_eq!(m.as_slice(), &[1.0, -1.0, 1.0, -1.0]);
    }
}
