//! Real (numeric) training for the convergence study (paper Fig. 16).
//!
//! The paper validates FastGL's correctness by showing its training loss
//! matches DGL's: the three techniques change *when and how* data moves,
//! never *what* is computed — except that Reorder permutes the mini-batch
//! order within each sampled window, which stochastic optimisation is
//! robust to. This module trains real models (real gradients, real Adam)
//! with and without reordering so the claim can be verified numerically.
//!
//! Training runs the same window loop as the simulator: each epoch's plan
//! is cut into windows by a `WindowPlan`, and a [`PipelineExecutor`]
//! samples, reorders and trains them — pipelined at the
//! `FASTGL_PREFETCH` depth, with results bit-identical at any depth.

use crate::executor::{PipelineExecutor, WindowPlan};
use crate::resilience::{Checkpoint, CheckpointError, TrainerState};
use fastgl_gnn::{GnnModel, ModelConfig, ModelKind};
use fastgl_graph::{Csr, DeterministicRng, FeatureStore, NodeId};
use fastgl_sample::{FusedIdMap, MinibatchPlan, NeighborSampler, SampledSubgraph};
use fastgl_telemetry::names;
use fastgl_tensor::{Adam, Matrix};

/// Configuration of a convergence run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Model family.
    pub model: ModelKind,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Per-hop fanouts (defines the layer count).
    pub fanouts: Vec<usize>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Whether mini-batches are greedily reordered per window (FastGL) or
    /// run in the sampled order (DGL).
    pub reorder: bool,
    /// Reorder window size.
    pub window: usize,
    /// Random seed (sampling and initialisation).
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Gcn,
            hidden_dim: 64,
            fanouts: vec![5, 10],
            batch_size: 256,
            learning_rate: 0.003,
            epochs: 5,
            reorder: false,
            window: 4,
            seed: 1,
        }
    }
}

/// The trace of a convergence run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceRun {
    /// Loss of every training iteration, in execution order.
    pub iteration_losses: Vec<f32>,
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy of the final model, measured on a re-sample of
    /// the final epoch's last planned mini-batch (a pure function of the
    /// trained weights, so checkpointed resumes reproduce it exactly).
    pub final_accuracy: f64,
    /// Held-out accuracy after each epoch (empty when no validation nodes
    /// were supplied).
    pub val_accuracy: Vec<f64>,
}

impl ConvergenceRun {
    /// Mean of the final `k` iteration losses (converged level).
    pub fn tail_loss(&self, k: usize) -> f32 {
        let n = self.iteration_losses.len();
        let k = k.min(n).max(1);
        self.iteration_losses[n - k..].iter().sum::<f32>() / k as f32
    }
}

/// Trains a model on a labelled graph and records the loss trajectory.
///
/// # Panics
///
/// Panics if `features` is not materialized, `labels` does not cover the
/// graph, or `train_nodes` is empty.
pub fn train(
    graph: &Csr,
    features: &FeatureStore,
    labels: &[u32],
    train_nodes: &[NodeId],
    config: &TrainerConfig,
) -> ConvergenceRun {
    train_with_validation(graph, features, labels, train_nodes, &[], config)
}

/// [`train`] with a held-out node set evaluated (forward only, sampled the
/// same way as training batches) after every epoch.
///
/// # Panics
///
/// Same conditions as [`train`].
pub fn train_with_validation(
    graph: &Csr,
    features: &FeatureStore,
    labels: &[u32],
    train_nodes: &[NodeId],
    val_nodes: &[NodeId],
    config: &TrainerConfig,
) -> ConvergenceRun {
    match train_resumable(
        graph,
        features,
        labels,
        train_nodes,
        val_nodes,
        config,
        None,
        None,
    ) {
        Ok(TrainOutcome::Complete(run)) => run,
        Ok(TrainOutcome::Interrupted(_)) => unreachable!("no halt was requested"),
        Err(e) => unreachable!("a fresh run resumes nothing: {e}"),
    }
}

/// The outcome of a resumable convergence run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainOutcome {
    /// Training ran to the end; the run is bit-identical to an
    /// uninterrupted [`train_with_validation`] call.
    Complete(ConvergenceRun),
    /// Training halted at the requested batch; pass the checkpoint back
    /// to [`train_resumable`] to continue.
    Interrupted(Box<Checkpoint>),
}

/// The trainer's window plan of `epoch`. Each mini-batch's RNG stream
/// derives from the seed, the epoch and the batch's index *in plan
/// order* — never from execution order, thread schedule, or resume
/// position — the root of the trainer's determinism-under-replay
/// guarantee.
fn epoch_windows<'p>(
    plan: &'p MinibatchPlan,
    config: &TrainerConfig,
    epoch: u64,
) -> WindowPlan<'p> {
    let base = DeterministicRng::seed(config.seed ^ 0xABCD).derive(epoch);
    WindowPlan::new(plan, config.window.max(1), base, config.reorder)
}

/// [`train_with_validation`], but killable and resumable at mini-batch
/// granularity.
///
/// `halt_after` simulates a kill: training stops before executing global
/// batch `halt_after` (counting from 0 across all epochs) and returns
/// [`TrainOutcome::Interrupted`] with a [`Checkpoint`] holding the model
/// weights, Adam moments, loss trajectories, and the batch cursor. Nothing
/// past the halt is sampled. Passing that checkpoint back via `resume`
/// continues the run and produces final weights, losses, and accuracies
/// **bit-identical** to an uninterrupted run: every mini-batch's RNG
/// stream is derived from its plan position, so the resumed run re-samples
/// its window and replays the exact draws and floating-point accumulation
/// order.
///
/// Each epoch is one [`PipelineExecutor::run`] over the windows from the
/// cursor to the halt or the epoch's end, at the `FASTGL_PREFETCH` depth
/// (0, serial, when unset); the depth never changes a result.
///
/// # Errors
///
/// Returns [`CheckpointError::Mismatch`] when `resume` has no trainer
/// section, was trained with a different seed, does not fit this config's
/// epoch/batch plan, or holds a model of the wrong shape.
///
/// # Panics
///
/// Same conditions as [`train`].
#[allow(clippy::too_many_arguments)]
pub fn train_resumable(
    graph: &Csr,
    features: &FeatureStore,
    labels: &[u32],
    train_nodes: &[NodeId],
    val_nodes: &[NodeId],
    config: &TrainerConfig,
    resume: Option<&Checkpoint>,
    halt_after: Option<u64>,
) -> Result<TrainOutcome, CheckpointError> {
    let feats = features
        .as_slice()
        .expect("convergence training needs materialized features");
    assert_eq!(labels.len() as u64, graph.num_nodes(), "one label per node");
    assert!(!train_nodes.is_empty(), "no training nodes");
    let num_classes = labels.iter().copied().max().unwrap_or(0) as usize + 1;
    let dim = features.dim();

    let model_cfg = ModelConfig::paper(config.model, dim, num_classes)
        .with_layers(config.fanouts.len())
        .with_hidden(config.hidden_dim);
    let mut init_rng = DeterministicRng::seed(config.seed ^ 0x1217);
    let mut model = GnnModel::new(&model_cfg, &mut init_rng);
    let mut opt = Adam::new(config.learning_rate);
    let sampler = NeighborSampler::new(config.fanouts.clone());
    let id_map = FusedIdMap::new();

    // Every epoch shuffles the same node set into the same batch count.
    let batches_per_epoch =
        MinibatchPlan::new(train_nodes, config.batch_size, config.seed, 0).len() as u64;
    let total = config.epochs as u64 * batches_per_epoch;

    let mut iteration_losses = Vec::new();
    let mut epoch_losses = Vec::new();
    let mut val_accuracy = Vec::new();
    let mut epoch_loss_sum = 0.0f32;
    let mut epoch_batches = 0u64;
    let mut next: u64 = 0;

    if let Some(ckpt) = resume {
        let st = ckpt
            .trainer
            .as_ref()
            .ok_or_else(|| CheckpointError::Mismatch("checkpoint has no trainer section".into()))?;
        if st.seed != config.seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint was trained with seed {} but this run uses seed {}",
                st.seed, config.seed
            )));
        }
        if st.next_batch > total {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint cursor at batch {} but this run only has {total} batches \
                 ({} epochs of {batches_per_epoch})",
                st.next_batch, config.epochs
            )));
        }
        if st.iteration_losses.len() as u64 != st.next_batch {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint cursor at batch {} but {} iteration losses recorded",
                st.next_batch,
                st.iteration_losses.len()
            )));
        }
        model
            .load_state(&st.model)
            .map_err(CheckpointError::Mismatch)?;
        opt.restore(&st.optimizer);
        iteration_losses = st.iteration_losses.clone();
        epoch_losses = st.epoch_losses.clone();
        val_accuracy = st.val_accuracy.clone();
        epoch_loss_sum = st.epoch_loss_sum;
        epoch_batches = st.epoch_batches;
        next = st.next_batch;
    }

    // Gather a subgraph's feature rows (the memory IO phase); runs on the
    // parallel backend above the gather cutoff.
    let gather = |sg: &SampledSubgraph| -> Matrix {
        let idx: Vec<usize> = sg.nodes.iter().map(|n| n.index()).collect();
        Matrix::gather_flat(feats, dim, labels.len(), &idx)
    };
    let seed_labels = |sg: &SampledSubgraph| -> Vec<u32> {
        sg.seed_locals
            .iter()
            .map(|&l| labels[sg.nodes[l as usize].index()])
            .collect()
    };
    let executor = PipelineExecutor::new(crate::config::env_prefetch());

    while next < total {
        let epoch = next / batches_per_epoch;
        let epoch_start = epoch * batches_per_epoch;
        let epoch_end = epoch_start + batches_per_epoch;
        // Train up to the halt or the epoch's end, whichever is first; a
        // halt at the cursor stops before anything is sampled.
        let stop = halt_after.map_or(epoch_end, |h| h.clamp(next, epoch_end));
        if stop == next {
            break;
        }
        let _epoch_span = fastgl_telemetry::span(names::SPAN_TRAINER_EPOCH);
        let plan = MinibatchPlan::new(train_nodes, config.batch_size, config.seed, epoch);
        let windows = epoch_windows(&plan, config, epoch);
        let batches = (next - epoch_start) as usize..(stop - epoch_start) as usize;
        executor.run(
            windows.covering(batches),
            // Sample the whole window even when resuming into its middle:
            // the reorder needs every member, and each batch's stream
            // re-derives from its plan position, so the re-sampled window
            // is identical to the first time around.
            |w| {
                windows.sample(w, |_, seeds, rng| {
                    sampler.sample(graph, seeds, &id_map, rng).0
                })
            },
            |_, subgraphs: Vec<SampledSubgraph>| (windows.order(&subgraphs), subgraphs),
            |w, (order, subgraphs): (Vec<usize>, Vec<SampledSubgraph>)| {
                // Skip the window entries an interrupted run already
                // executed; stop at the halt.
                let done = next - epoch_start - windows.batches(w).start as u64;
                let todo = stop - next;
                for &idx in order.iter().skip(done as usize).take(todo as usize) {
                    let sg = &subgraphs[idx];
                    let _iter_span = fastgl_telemetry::span(names::SPAN_TRAINER_ITERATION);
                    fastgl_telemetry::observe(names::TRAINER_BATCH_NODES, sg.num_nodes());
                    let x = gather(sg);
                    let batch_labels = seed_labels(sg);
                    opt.next_iteration();
                    let logits = {
                        let _fwd = fastgl_telemetry::span(names::SPAN_TRAINER_FORWARD);
                        model.forward(sg, &x)
                    };
                    let out = fastgl_tensor::loss::softmax_cross_entropy(&logits, &batch_labels);
                    {
                        let _bwd = fastgl_telemetry::span(names::SPAN_TRAINER_BACKWARD);
                        model.backward(sg, &out.grad);
                        model.apply_grads(&mut opt);
                    }
                    iteration_losses.push(out.loss);
                    epoch_loss_sum += out.loss;
                    epoch_batches += 1;
                    next += 1;
                }
            },
        );
        if next < epoch_end {
            break; // halted inside the epoch
        }

        epoch_losses.push(epoch_loss_sum / epoch_batches.max(1) as f32);
        epoch_loss_sum = 0.0;
        epoch_batches = 0;

        if !val_nodes.is_empty() {
            let mut val_rng = DeterministicRng::seed(config.seed ^ 0x7A1).derive(epoch);
            let mut correct = 0.0;
            let mut total_eval = 0usize;
            for seeds in val_nodes.chunks(config.batch_size) {
                let (sg, _) = sampler.sample(graph, seeds, &id_map, &mut val_rng);
                let batch_labels = seed_labels(&sg);
                let (_, acc) = model.evaluate(&sg, &gather(&sg), &batch_labels);
                correct += acc * batch_labels.len() as f64;
                total_eval += batch_labels.len();
            }
            val_accuracy.push(correct / total_eval.max(1) as f64);
        }
    }

    if next < total {
        return Ok(TrainOutcome::Interrupted(Box::new(Checkpoint {
            trainer: Some(TrainerState {
                seed: config.seed,
                next_batch: next,
                model: model.state(),
                optimizer: opt.state(),
                iteration_losses,
                epoch_losses,
                val_accuracy,
                epoch_loss_sum,
                epoch_batches,
            }),
        })));
    }

    // Final training accuracy: evaluate the trained model on a re-sample
    // of the final epoch's last planned batch. A pure function of the
    // final weights, so it survives kill/resume unchanged.
    let final_accuracy = if total == 0 {
        0.0
    } else {
        let last = total - 1;
        let (epoch, r) = (
            last / batches_per_epoch,
            (last % batches_per_epoch) as usize,
        );
        let plan = MinibatchPlan::new(train_nodes, config.batch_size, config.seed, epoch);
        let mut rng = epoch_windows(&plan, config, epoch).rng(r);
        let (sg, _) = sampler.sample(graph, plan.batch(r), &id_map, &mut rng);
        model.evaluate(&sg, &gather(&sg), &seed_labels(&sg)).1
    };

    Ok(TrainOutcome::Complete(ConvergenceRun {
        iteration_losses,
        epoch_losses,
        final_accuracy,
        val_accuracy,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_graph::generate::community::{self, CommunityConfig};

    fn data() -> community::CommunityGraph {
        community::generate(
            &CommunityConfig {
                num_nodes: 1_200,
                num_classes: 4,
                intra_degree: 12.0,
                inter_degree: 1.0,
                feature_dim: 16,
                feature_noise: 0.8,
            },
            3,
        )
    }

    fn nodes(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn quick_config() -> TrainerConfig {
        TrainerConfig {
            fanouts: vec![4, 4],
            batch_size: 128,
            epochs: 4,
            learning_rate: 0.01,
            ..Default::default()
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let d = data();
        let run = train(
            &d.graph,
            &d.features,
            &d.labels,
            &nodes(600),
            &quick_config(),
        );
        assert_eq!(run.epoch_losses.len(), 4);
        let first = run.epoch_losses[0];
        let last = *run.epoch_losses.last().unwrap();
        assert!(last < first * 0.8, "loss {first} -> {last}");
        assert!(run.final_accuracy > 0.5, "accuracy {}", run.final_accuracy);
    }

    #[test]
    fn reordered_training_converges_like_default() {
        // The paper's Fig. 16 claim: FastGL (reordered) converges to
        // approximately the same loss as DGL (default order).
        let d = data();
        let mut cfg = quick_config();
        let base = train(&d.graph, &d.features, &d.labels, &nodes(600), &cfg);
        cfg.reorder = true;
        let reordered = train(&d.graph, &d.features, &d.labels, &nodes(600), &cfg);
        let a = base.tail_loss(10);
        let b = reordered.tail_loss(10);
        assert!(
            (a - b).abs() < 0.15 * a.max(b),
            "converged losses diverge: {a} vs {b}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let d = data();
        let cfg = quick_config();
        let a = train(&d.graph, &d.features, &d.labels, &nodes(400), &cfg);
        let b = train(&d.graph, &d.features, &d.labels, &nodes(400), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn tail_loss_of_short_runs() {
        let run = ConvergenceRun {
            iteration_losses: vec![4.0, 2.0],
            epoch_losses: vec![3.0],
            final_accuracy: 0.0,
            val_accuracy: vec![],
        };
        assert_eq!(run.tail_loss(10), 3.0);
        assert_eq!(run.tail_loss(1), 2.0);
    }

    #[test]
    fn validation_accuracy_tracks_learning() {
        let d = data();
        let train_nodes = nodes(600);
        let val_nodes: Vec<NodeId> = (600..900).map(NodeId).collect();
        let run = train_with_validation(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &val_nodes,
            &quick_config(),
        );
        assert_eq!(run.val_accuracy.len(), 4);
        let first = run.val_accuracy[0];
        let last = *run.val_accuracy.last().unwrap();
        // The community task is easy enough to solve within one epoch, so
        // assert the trajectory is non-degrading and ends high.
        assert!(last >= first - 0.05, "val accuracy {first} -> {last}");
        assert!(last > 0.8, "final val accuracy {last}");
        assert!(run.val_accuracy.iter().all(|a| (0.0..=1.0).contains(a)));
        // Plain train() records no validation.
        let plain = train(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &quick_config(),
        );
        assert!(plain.val_accuracy.is_empty());
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let d = data();
        let cfg = TrainerConfig {
            reorder: true,
            epochs: 3,
            ..quick_config()
        };
        let train_nodes = nodes(500);
        let val_nodes: Vec<NodeId> = (600..800).map(NodeId).collect();
        let full = train_with_validation(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &val_nodes,
            &cfg,
        );
        // Kill mid-window, mid-epoch (batch 5 of 4-per-epoch windows).
        let TrainOutcome::Interrupted(ckpt) = train_resumable(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &val_nodes,
            &cfg,
            None,
            Some(5),
        )
        .unwrap() else {
            panic!("expected an interruption")
        };
        assert_eq!(ckpt.trainer.as_ref().unwrap().next_batch, 5);
        let resumed = train_resumable(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &val_nodes,
            &cfg,
            Some(&ckpt),
            None,
        )
        .unwrap();
        assert_eq!(resumed, TrainOutcome::Complete(full));
    }

    #[test]
    fn mismatched_trainer_checkpoints_are_typed_errors() {
        let d = data();
        let cfg = quick_config();
        let train_nodes = nodes(400);
        let no_trainer = Checkpoint::default();
        let err = train_resumable(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &[],
            &cfg,
            Some(&no_trainer),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no trainer section"), "{err}");

        let TrainOutcome::Interrupted(ckpt) = train_resumable(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &[],
            &cfg,
            None,
            Some(2),
        )
        .unwrap() else {
            panic!("expected an interruption")
        };
        let mut wrong_seed = cfg.clone();
        wrong_seed.seed ^= 1;
        let err = train_resumable(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &[],
            &wrong_seed,
            Some(&ckpt),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");

        let mut short = cfg.clone();
        short.epochs = 0;
        let err = train_resumable(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &[],
            &short,
            Some(&ckpt),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("batches"), "{err}");
    }

    #[test]
    fn halt_at_zero_checkpoints_fresh_state() {
        let d = data();
        let cfg = quick_config();
        let train_nodes = nodes(400);
        let TrainOutcome::Interrupted(ckpt) = train_resumable(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &[],
            &cfg,
            None,
            Some(0),
        )
        .unwrap() else {
            panic!("expected an interruption")
        };
        let st = ckpt.trainer.as_ref().unwrap();
        assert_eq!(st.next_batch, 0);
        assert!(st.iteration_losses.is_empty());
        let resumed = train_resumable(
            &d.graph,
            &d.features,
            &d.labels,
            &train_nodes,
            &[],
            &cfg,
            Some(&ckpt),
            None,
        )
        .unwrap();
        let direct = train(&d.graph, &d.features, &d.labels, &train_nodes, &cfg);
        assert_eq!(resumed, TrainOutcome::Complete(direct));
    }

    #[test]
    #[should_panic(expected = "materialized features")]
    fn virtual_features_rejected() {
        let d = data();
        let virt = FeatureStore::virtual_store(d.graph.num_nodes(), 16);
        let _ = train(&d.graph, &virt, &d.labels, &nodes(10), &quick_config());
    }
}
