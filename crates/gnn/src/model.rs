//! Stacked GNN models matching the paper's benchmark configurations.

use crate::layers::gat::GatLayer;
use crate::layers::gcn::GcnLayer;
use crate::layers::gin::GinLayer;
use crate::layers::sage::SageLayer;
use crate::layers::GnnLayer;
use fastgl_sample::SampledSubgraph;
use fastgl_tensor::loss::softmax_cross_entropy;
use fastgl_tensor::{Matrix, Optimizer};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// The three model families the paper evaluates (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Graph Convolutional Network (hidden width 64).
    Gcn,
    /// Graph Isomorphism Network (hidden width 64).
    Gin,
    /// Graph Attention Network (8 heads × 8 dims).
    Gat,
    /// GraphSAGE with the mean aggregator (not in the paper's benchmark
    /// trio, provided as a library extension).
    Sage,
}

impl ModelKind {
    /// All three models, in the paper's order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Gin => "GIN",
            ModelKind::Gat => "GAT",
            ModelKind::Sage => "SAGE",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Architecture description used to build a [`GnnModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model family.
    pub kind: ModelKind,
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Hidden width (paper: 64 for GCN/GIN; 8 heads × 8 = 64 for GAT).
    pub hidden_dim: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Number of layers (= sampling hops; paper default 3).
    pub num_layers: usize,
    /// GAT attention heads (ignored by GCN/GIN).
    pub heads: usize,
}

impl ModelConfig {
    /// The paper's configuration of `kind` for a dataset with `input_dim`
    /// features and `num_classes` classes (3 layers, hidden 64, 8 heads).
    pub fn paper(kind: ModelKind, input_dim: usize, num_classes: usize) -> Self {
        Self {
            kind,
            input_dim,
            hidden_dim: 64,
            num_classes,
            num_layers: 3,
            heads: 8,
        }
    }

    /// Same configuration with a different layer count (Fig. 14d).
    pub fn with_layers(mut self, num_layers: usize) -> Self {
        self.num_layers = num_layers;
        self
    }

    /// Same configuration with a different hidden width (Fig. 14c).
    pub fn with_hidden(mut self, hidden_dim: usize) -> Self {
        self.hidden_dim = hidden_dim;
        self
    }

    /// Per-layer `(input_dim, output_dim)` pairs, computed analytically —
    /// identical to what [`GnnModel::layer_dims`] reports after building.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        (0..self.num_layers)
            .map(|l| {
                let d_in = if l == 0 {
                    self.input_dim
                } else {
                    self.hidden_dim
                };
                let d_out = if l == self.num_layers - 1 {
                    self.num_classes
                } else {
                    self.hidden_dim
                };
                (d_in, d_out)
            })
            .collect()
    }

    /// Total scalar parameters, computed analytically without building the
    /// model (used by the simulator's memory and all-reduce accounting).
    pub fn param_count(&self) -> usize {
        self.layer_dims()
            .iter()
            .map(|&(d_in, d_out)| match self.kind {
                ModelKind::Gcn => d_in * d_out + d_out,
                ModelKind::Sage => 2 * d_in * d_out + d_out,
                ModelKind::Gin => {
                    d_in * self.hidden_dim + self.hidden_dim + self.hidden_dim * d_out + d_out
                }
                ModelKind::Gat => d_in * d_out + 2 * d_out,
            })
            .sum()
    }

    /// Bytes of FP32 parameters.
    pub fn param_bytes(&self) -> u64 {
        self.param_count() as u64 * 4
    }
}

/// A stack of GNN layers with training conveniences.
///
/// # Example
///
/// ```
/// use fastgl_gnn::{GnnModel, ModelConfig, ModelKind};
/// use fastgl_graph::DeterministicRng;
///
/// let config = ModelConfig::paper(ModelKind::Gcn, 602, 41); // Reddit shape
/// let mut rng = DeterministicRng::seed(1);
/// let model = GnnModel::new(&config, &mut rng);
/// assert_eq!(model.num_layers(), 3);
/// assert_eq!(model.layer_dims(), vec![(602, 64), (64, 64), (64, 41)]);
/// assert_eq!(model.param_count(), config.param_count());
/// ```
pub struct GnnModel {
    kind: ModelKind,
    layers: Vec<Box<dyn GnnLayer>>,
}

impl std::fmt::Debug for GnnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GnnModel")
            .field("kind", &self.kind)
            .field("layers", &self.layers.len())
            .field("params", &self.param_count())
            .finish()
    }
}

impl GnnModel {
    /// Builds the model described by `config` with Xavier-initialised
    /// weights drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_layers == 0` or any dimension is zero.
    pub fn new(config: &ModelConfig, rng: &mut impl RngCore) -> Self {
        assert!(config.num_layers > 0, "model needs at least one layer");
        assert!(
            config.input_dim > 0 && config.hidden_dim > 0 && config.num_classes > 0,
            "dimensions must be positive"
        );
        let mut layers: Vec<Box<dyn GnnLayer>> = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let d_in = if l == 0 {
                config.input_dim
            } else {
                config.hidden_dim
            };
            let last = l == config.num_layers - 1;
            let d_out = if last {
                config.num_classes
            } else {
                config.hidden_dim
            };
            match config.kind {
                ModelKind::Gcn => layers.push(Box::new(GcnLayer::new(d_in, d_out, !last, rng))),
                ModelKind::Sage => layers.push(Box::new(SageLayer::new(d_in, d_out, !last, rng))),
                ModelKind::Gin => layers.push(Box::new(GinLayer::new(
                    d_in,
                    config.hidden_dim,
                    d_out,
                    0.0,
                    !last,
                    rng,
                ))),
                ModelKind::Gat => {
                    if last {
                        // Output layer: single head producing the logits.
                        layers.push(Box::new(GatLayer::new(
                            d_in,
                            1,
                            config.num_classes,
                            false,
                            rng,
                        )));
                    } else {
                        let heads = config.heads.max(1);
                        let head_dim = (config.hidden_dim / heads).max(1);
                        layers.push(Box::new(GatLayer::new(d_in, heads, head_dim, true, rng)));
                    }
                }
            }
        }
        Self {
            kind: config.kind,
            layers,
        }
    }

    /// Model family.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Per-layer `(input_dim, output_dim)` pairs, input side first.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .map(|l| (l.input_dim(), l.output_dim()))
            .collect()
    }

    /// Total scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Bytes of FP32 parameters (gradient all-reduce volume).
    pub fn param_bytes(&self) -> u64 {
        self.param_count() as u64 * 4
    }

    /// Forward pass: `features` rows cover the subgraph's full node list;
    /// returns logits over the seed nodes.
    ///
    /// # Panics
    ///
    /// Panics if the subgraph's block count differs from the layer count or
    /// the feature matrix does not cover the subgraph.
    pub fn forward(&mut self, subgraph: &SampledSubgraph, features: &Matrix) -> Matrix {
        assert_eq!(
            subgraph.blocks.len(),
            self.layers.len(),
            "subgraph has {} blocks but the model has {} layers",
            subgraph.blocks.len(),
            self.layers.len()
        );
        assert_eq!(
            features.rows() as u64,
            subgraph.num_nodes(),
            "feature rows must cover the subgraph"
        );
        // Layer 0 reads the features in place; later layers read the
        // previous layer's output.
        let mut h: Option<Matrix> = None;
        for (layer, block) in self.layers.iter_mut().zip(&subgraph.blocks) {
            h = Some(layer.forward(block, h.as_ref().unwrap_or(features)));
        }
        h.expect("a model has at least one layer")
    }

    /// Backward pass from the loss gradient over seed logits; accumulates
    /// parameter gradients in every layer. Layer 0 is not asked for the
    /// gradient of its input: the features are not trainable.
    pub fn backward(&mut self, subgraph: &SampledSubgraph, grad_logits: &Matrix) {
        let mut g: Option<Matrix> = None;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            g = layer.backward(
                &subgraph.blocks[i],
                g.as_ref().unwrap_or(grad_logits),
                i > 0,
            );
        }
    }

    /// Applies all accumulated gradients through `opt`.
    pub fn apply_grads(&mut self, opt: &mut dyn Optimizer) {
        let mut slot = 0;
        for layer in &mut self.layers {
            slot += layer.apply_grads(opt, slot);
        }
    }

    /// Serialises every parameter into one flat `f32` vector — a minimal
    /// checkpoint format (pair it with the same [`ModelConfig`] to restore).
    pub fn state(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for p in layer.params() {
                out.extend_from_slice(p.as_slice());
            }
        }
        out
    }

    /// Restores parameters from a flat vector produced by
    /// [`GnnModel::state`] on a model of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if `state` does not hold exactly
    /// [`GnnModel::param_count`] values; the model is unchanged on error.
    pub fn load_state(&mut self, state: &[f32]) -> Result<(), String> {
        if state.len() != self.param_count() {
            return Err(format!(
                "checkpoint holds {} values but the model has {} parameters",
                state.len(),
                self.param_count()
            ));
        }
        let mut cursor = 0;
        for layer in &mut self.layers {
            for (p, _) in layer.params_and_grads() {
                let n = p.as_slice().len();
                p.as_mut_slice().copy_from_slice(&state[cursor..cursor + n]);
                cursor += n;
            }
        }
        Ok(())
    }

    /// Forward-only evaluation on a mini-batch: returns `(loss, accuracy)`
    /// over the seeds without touching gradients or parameters.
    pub fn evaluate(
        &mut self,
        subgraph: &SampledSubgraph,
        features: &Matrix,
        labels: &[u32],
    ) -> (f32, f64) {
        let logits = self.forward(subgraph, features);
        let loss = softmax_cross_entropy(&logits, labels).loss;
        let acc = fastgl_tensor::loss::accuracy(&logits, labels);
        (loss, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_graph::generate::rmat::{self, RmatConfig};
    use fastgl_graph::{DeterministicRng, NodeId};
    use fastgl_sample::{FusedIdMap, NeighborSampler};
    use fastgl_tensor::Adam;

    fn subgraph(layers: usize) -> SampledSubgraph {
        let g = rmat::generate(&RmatConfig::social(500, 4_000), 1);
        let sampler = NeighborSampler::new(vec![3; layers]);
        let seeds: Vec<NodeId> = (0..16).map(|i| NodeId(i * 29 % 500)).collect();
        let mut rng = DeterministicRng::seed(2);
        sampler.sample(&g, &seeds, &FusedIdMap::new(), &mut rng).0
    }

    fn features(sg: &SampledSubgraph, dim: usize) -> Matrix {
        crate::layers::test_util::input(sg.num_nodes() as usize, dim, 3)
    }

    /// One training step the way the trainer runs it: forward, loss,
    /// backward, update. Returns the loss value.
    fn train_step(
        model: &mut GnnModel,
        sg: &SampledSubgraph,
        x: &Matrix,
        labels: &[u32],
        opt: &mut dyn Optimizer,
    ) -> f32 {
        let logits = model.forward(sg, x);
        let out = softmax_cross_entropy(&logits, labels);
        model.backward(sg, &out.grad);
        model.apply_grads(opt);
        out.loss
    }

    #[test]
    fn forward_produces_seed_logits_for_all_kinds() {
        for kind in ModelKind::ALL {
            let cfg = ModelConfig {
                kind,
                input_dim: 12,
                hidden_dim: 16,
                num_classes: 5,
                num_layers: 2,
                heads: 4,
            };
            let mut rng = DeterministicRng::seed(4);
            let mut model = GnnModel::new(&cfg, &mut rng);
            let sg = subgraph(2);
            let x = features(&sg, 12);
            let logits = model.forward(&sg, &x);
            assert_eq!(logits.rows(), 16, "{kind}");
            assert_eq!(logits.cols(), 5, "{kind}");
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        for kind in ModelKind::ALL {
            let cfg = ModelConfig {
                kind,
                input_dim: 8,
                hidden_dim: 16,
                num_classes: 3,
                num_layers: 2,
                heads: 2,
            };
            let mut rng = DeterministicRng::seed(5);
            let mut model = GnnModel::new(&cfg, &mut rng);
            let sg = subgraph(2);
            let x = features(&sg, 8);
            let labels: Vec<u32> = (0..16).map(|i| (i % 3) as u32).collect();
            let mut opt = Adam::new(0.01);
            let first = train_step(&mut model, &sg, &x, &labels, &mut opt);
            let mut last = first;
            for _ in 0..80 {
                opt.next_iteration();
                last = train_step(&mut model, &sg, &x, &labels, &mut opt);
            }
            assert!(
                last < first * 0.7,
                "{kind}: loss did not drop ({first} -> {last})"
            );
        }
    }

    #[test]
    fn layer_dims_follow_config() {
        let cfg = ModelConfig::paper(ModelKind::Gcn, 602, 41);
        let mut rng = DeterministicRng::seed(6);
        let model = GnnModel::new(&cfg, &mut rng);
        assert_eq!(model.layer_dims(), vec![(602, 64), (64, 64), (64, 41)]);
        assert!(model.param_count() > 602 * 64);
        assert_eq!(model.param_bytes(), model.param_count() as u64 * 4);
    }

    #[test]
    fn gat_paper_config_has_64_wide_hidden() {
        let cfg = ModelConfig::paper(ModelKind::Gat, 100, 10);
        let mut rng = DeterministicRng::seed(7);
        let model = GnnModel::new(&cfg, &mut rng);
        let dims = model.layer_dims();
        assert_eq!(dims[0], (100, 64));
        assert_eq!(dims[1], (64, 64));
        assert_eq!(dims[2], (64, 10));
    }

    #[test]
    #[should_panic(expected = "blocks but the model")]
    fn block_layer_mismatch_panics() {
        let cfg = ModelConfig::paper(ModelKind::Gcn, 8, 3);
        let mut rng = DeterministicRng::seed(8);
        let mut model = GnnModel::new(&cfg, &mut rng); // 3 layers
        let sg = subgraph(2); // 2 blocks
        let x = features(&sg, 8);
        let _ = model.forward(&sg, &x);
    }

    #[test]
    fn sage_model_trains() {
        let cfg = ModelConfig {
            kind: ModelKind::Sage,
            input_dim: 8,
            hidden_dim: 16,
            num_classes: 3,
            num_layers: 2,
            heads: 1,
        };
        let mut rng = DeterministicRng::seed(12);
        let mut model = GnnModel::new(&cfg, &mut rng);
        let sg = subgraph(2);
        let x = features(&sg, 8);
        let labels: Vec<u32> = (0..16).map(|i| (i % 3) as u32).collect();
        let mut opt = Adam::new(0.01);
        let first = train_step(&mut model, &sg, &x, &labels, &mut opt);
        let mut last = first;
        for _ in 0..60 {
            opt.next_iteration();
            last = train_step(&mut model, &sg, &x, &labels, &mut opt);
        }
        assert!(last < first * 0.7, "SAGE loss {first} -> {last}");
        assert_eq!(cfg.param_count(), model.param_count());
    }

    #[test]
    fn analytic_param_count_matches_built_model() {
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            let cfg = ModelConfig::paper(kind, 50, 7);
            let mut rng = DeterministicRng::seed(11);
            let model = GnnModel::new(&cfg, &mut rng);
            assert_eq!(cfg.param_count(), model.param_count(), "{kind}");
            assert_eq!(cfg.layer_dims(), model.layer_dims(), "{kind}");
        }
    }

    #[test]
    fn checkpoint_round_trip_restores_outputs() {
        let cfg = ModelConfig::paper(ModelKind::Gcn, 8, 3).with_layers(2);
        let mut r1 = DeterministicRng::seed(21);
        let mut r2 = DeterministicRng::seed(22);
        let mut trained = GnnModel::new(&cfg, &mut r1);
        let mut fresh = GnnModel::new(&cfg, &mut r2);
        let sg = subgraph(2);
        let x = features(&sg, 8);
        // Perturb `trained` so the two models differ, then transfer state.
        let labels: Vec<u32> = (0..16).map(|i| (i % 3) as u32).collect();
        let mut opt = Adam::new(0.05);
        train_step(&mut trained, &sg, &x, &labels, &mut opt);
        let before = trained.forward(&sg, &x);
        assert_ne!(before, fresh.forward(&sg, &x));
        let state = trained.state();
        assert_eq!(state.len(), cfg.param_count());
        fresh.load_state(&state).unwrap();
        assert_eq!(before, fresh.forward(&sg, &x));
    }

    #[test]
    fn load_state_rejects_wrong_length() {
        let cfg = ModelConfig::paper(ModelKind::Gin, 8, 3);
        let mut rng = DeterministicRng::seed(23);
        let mut model = GnnModel::new(&cfg, &mut rng);
        let err = model.load_state(&[0.0; 3]).unwrap_err();
        assert!(err.contains("3 values"));
    }

    #[test]
    fn evaluate_reports_loss_and_accuracy_without_updating() {
        let cfg = ModelConfig::paper(ModelKind::Gcn, 8, 3).with_layers(2);
        let mut rng = DeterministicRng::seed(24);
        let mut model = GnnModel::new(&cfg, &mut rng);
        let sg = subgraph(2);
        let x = features(&sg, 8);
        let labels: Vec<u32> = (0..16).map(|i| (i % 3) as u32).collect();
        let state = model.state();
        let (loss, acc) = model.evaluate(&sg, &x, &labels);
        assert!(loss.is_finite() && loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(model.state(), state, "evaluation must not mutate params");
    }

    #[test]
    fn deterministic_initialisation() {
        let cfg = ModelConfig::paper(ModelKind::Gin, 16, 4);
        let mut r1 = DeterministicRng::seed(9);
        let mut r2 = DeterministicRng::seed(9);
        let mut m1 = GnnModel::new(&cfg, &mut r1);
        let mut m2 = GnnModel::new(&cfg, &mut r2);
        let sg = subgraph(3);
        let x = features(&sg, 16);
        assert_eq!(m1.forward(&sg, &x), m2.forward(&sg, &x));
    }
}
