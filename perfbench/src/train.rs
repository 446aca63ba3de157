//! The numeric training workload and its traced replay.
//!
//! The untraced epochs run `trainer::train_resumable` one epoch at a time:
//! each call resumes from the checkpoint the previous epoch saved and
//! loaded, and halts at the next epoch boundary. The replay trains the
//! same model uninterrupted in memory by calling each layer's public
//! function in the order the trainer does, timing every call. After each
//! epoch its whole trainer state (weights, Adam moments, every loss so
//! far) must equal the checkpoint of the resumed run, bit for bit.

use crate::metrics::{ratio, restart_heap_peak, Metrics, Trace};
use crate::{SetupTimes, Workload, THREADS};
use fastgl_core::match_reorder::greedy_reorder;
use fastgl_core::resilience::{Checkpoint, TrainerState};
use fastgl_core::trainer::{train, train_resumable, TrainOutcome, TrainerConfig};
use fastgl_gnn::{GnnModel, ModelConfig, ModelKind};
use fastgl_graph::generate::community::{self, CommunityConfig, CommunityGraph};
use fastgl_graph::{DeterministicRng, NodeId};
use fastgl_sample::overlap::match_degree_matrix;
use fastgl_sample::{FusedIdMap, MinibatchPlan, NeighborSampler};
use fastgl_tensor::loss::softmax_cross_entropy;
use fastgl_tensor::{Adam, Matrix};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where checkpoints go: inside the directory the benchmark runs from.
const CHECKPOINT_DIR: &str = ".bench_build/perfbench";

/// One training workload's inputs and settings.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// The planted-partition graph; the lowest two thirds of its node IDs
    /// are the training seeds.
    pub graph: CommunityConfig,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl TrainSpec {
    /// GCN on a 20,000-node, 16-class community graph with 128-dim
    /// features, noisy enough that the loss stays well above zero.
    pub const GCN_COMMUNITY: TrainSpec = TrainSpec {
        graph: CommunityConfig {
            num_nodes: 20_000,
            num_classes: 16,
            intra_degree: 6.0,
            inter_degree: 6.0,
            feature_dim: 128,
            feature_noise: 8.0,
        },
        batch_size: 256,
    };

    /// The trainer settings. `epochs` only bounds the plan: each timed
    /// epoch halts at its own end.
    fn config(&self, seed: u64) -> TrainerConfig {
        TrainerConfig {
            model: ModelKind::Gcn,
            hidden_dim: 64,
            fanouts: vec![5, 10],
            batch_size: self.batch_size,
            learning_rate: 0.003,
            epochs: 1 << 20,
            reorder: true,
            window: 8,
            seed,
        }
    }
}

/// The state the replay trains, uninterrupted, in memory.
struct Replica {
    model: GnnModel,
    opt: Adam,
    /// The replay's own checkpoint, updated after every epoch.
    ckpt: Checkpoint,
}

/// The training workload after set-up.
pub struct TrainBench {
    data: CommunityGraph,
    train_nodes: Vec<NodeId>,
    config: TrainerConfig,
    batches_per_epoch: u64,
    /// The untraced run's latest checkpoint, as loaded back from disk.
    ckpt: Checkpoint,
    replica: Replica,
    run_path: PathBuf,
    replay_path: PathBuf,
    /// Counts of the first replayed epoch: edges, nodes, checkpoint bytes.
    first_counts: Option<[u64; 3]>,
    /// Mean loss of the first timed epoch.
    first_loss: Option<f32>,
    replay_edges: u64,
}

impl TrainBench {
    /// Generates the graph and trains the warm-up epoch through a
    /// checkpoint round trip.
    pub fn setup(spec: TrainSpec, seed: u64) -> (Self, SetupTimes) {
        fastgl_tensor::parallel::set_num_threads(THREADS);
        fastgl_telemetry::set_enabled(false);
        let start = Instant::now();
        let data = community::generate(&spec.graph, seed);
        let train_nodes: Vec<NodeId> = (0..spec.graph.num_nodes * 2 / 3).map(NodeId).collect();
        let generate = start.elapsed();
        restart_heap_peak();

        let warm = Instant::now();
        let config = spec.config(seed);
        let batches_per_epoch =
            MinibatchPlan::new(&train_nodes, config.batch_size, config.seed, 0).len() as u64;
        std::fs::create_dir_all(CHECKPOINT_DIR).expect("create the checkpoint directory");
        let path = |tag: &str| {
            PathBuf::from(CHECKPOINT_DIR).join(format!("{tag}-{}.ckpt", std::process::id()))
        };
        let run_path = path("run");
        let ckpt = resume_epoch(
            &data,
            &train_nodes,
            &config,
            None,
            batches_per_epoch,
            &run_path,
        );
        let warmup = warm.elapsed();
        let total = start.elapsed();

        let replica = Replica::from_checkpoint(&data, &config, ckpt.clone());
        let bench = Self {
            data,
            train_nodes,
            config,
            batches_per_epoch,
            ckpt,
            replica,
            run_path,
            replay_path: path("replay"),
            first_counts: None,
            first_loss: None,
            replay_edges: 0,
        };
        let times = SetupTimes {
            total,
            generate,
            warmup,
        };
        (bench, times)
    }

    /// Replays `epoch` and compares the replay's trainer state with the
    /// untraced checkpoint `expected`.
    pub fn replay_against(&mut self, epoch: u64, expected: &Checkpoint, trace: &mut Trace) -> bool {
        let start = Instant::now();
        let (edges, nodes) = self.replay(epoch, trace);
        let ckpt = &self.replica.ckpt;
        trace.time("resilience.checkpoint_save_ms", || {
            ckpt.save(&self.replay_path)
                .expect("save the replay checkpoint")
        });
        let loaded = trace.time("resilience.checkpoint_load_ms", || {
            Checkpoint::load(&self.replay_path).expect("load the replay checkpoint")
        });
        trace.wall += start.elapsed();
        trace.epochs += 1;
        self.replay_edges += edges;
        if self.first_counts.is_none() {
            let bytes = std::fs::metadata(&self.replay_path).map_or(0, |m| m.len());
            self.first_counts = Some([edges, nodes, bytes]);
        }
        loaded == *ckpt && same_trainer_state(ckpt, expected)
    }

    /// Trains `epoch` on the replica, each layer call timed; returns the
    /// epoch's sampled edges and nodes.
    fn replay(&mut self, epoch: u64, trace: &mut Trace) -> (u64, u64) {
        let config = &self.config;
        let labels = &self.data.labels;
        let feats = self
            .data
            .features
            .as_slice()
            .expect("materialized features");
        let dim = self.data.features.dim();
        let sampler = NeighborSampler::new(config.fanouts.clone());
        let id_map = FusedIdMap::new();
        let plan = MinibatchPlan::new(&self.train_nodes, config.batch_size, config.seed, epoch);
        let batches: Vec<&[NodeId]> = plan.iter().collect();
        let Replica { model, opt, ckpt } = &mut self.replica;
        let state = ckpt.trainer.as_mut().expect("trainer checkpoint");
        let (mut edges, mut nodes) = (0, 0);
        let (mut loss_sum, mut executed) = (0.0f32, 0u64);
        for (w, chunk) in batches.chunks(config.window).enumerate() {
            let subgraphs: Vec<_> = chunk
                .iter()
                .enumerate()
                .map(|(i, seeds)| {
                    // The trainer's per-batch stream, keyed by plan position.
                    let mut rng = DeterministicRng::seed(config.seed ^ 0xABCD)
                        .derive(epoch)
                        .derive((w * config.window + i) as u64);
                    let (sg, stats) = trace.time("sampler.batch_ms", || {
                        sampler.sample(&self.data.graph, seeds, &id_map, &mut rng)
                    });
                    edges += stats.edges_sampled;
                    nodes += sg.num_nodes();
                    sg
                })
                .collect();
            let order: Vec<usize> = if config.reorder && subgraphs.len() > 1 {
                let sets: Vec<&[NodeId]> = trace.time("sampler.sorted_ids_ms", || {
                    subgraphs.iter().map(|s| s.sorted_global_ids()).collect()
                });
                let matrix = trace.time("match_reorder.degree_matrix_ms", || {
                    match_degree_matrix(&sets)
                });
                trace.time("match_reorder.reorder_ms", || greedy_reorder(&matrix))
            } else {
                (0..subgraphs.len()).collect()
            };
            for idx in order {
                let sg = &subgraphs[idx];
                let x = trace.time("tensor.gather_ms", || {
                    let rows: Vec<usize> = sg.nodes.iter().map(|n| n.index()).collect();
                    Matrix::gather_flat(feats, dim, labels.len(), &rows)
                });
                let batch_labels: Vec<u32> = sg
                    .seed_locals
                    .iter()
                    .map(|&l| labels[sg.nodes[l as usize].index()])
                    .collect();
                opt.next_iteration();
                let logits = trace.time("gnn.forward_ms", || model.forward(sg, &x));
                let out = trace.time("tensor.loss_ms", || {
                    softmax_cross_entropy(&logits, &batch_labels)
                });
                trace.time("gnn.backward_ms", || model.backward(sg, &out.grad));
                trace.time("gnn.apply_grads_ms", || model.apply_grads(opt));
                state.iteration_losses.push(out.loss);
                loss_sum += out.loss;
                executed += 1;
            }
        }
        state.epoch_losses.push(loss_sum / executed.max(1) as f32);
        state.next_batch += executed;
        trace.time("resilience.checkpoint_save_ms", || {
            state.model = model.state();
            state.optimizer = opt.state();
        });
        (edges, nodes)
    }
}

impl Replica {
    /// Restores the trainer's model and optimizer from `ckpt`.
    fn from_checkpoint(data: &CommunityGraph, config: &TrainerConfig, ckpt: Checkpoint) -> Self {
        let st = ckpt.trainer.as_ref().expect("trainer checkpoint");
        let num_classes = data.labels.iter().copied().max().unwrap_or(0) as usize + 1;
        let model_cfg = ModelConfig::paper(config.model, data.features.dim(), num_classes)
            .with_layers(config.fanouts.len())
            .with_hidden(config.hidden_dim);
        let mut model = GnnModel::new(
            &model_cfg,
            &mut DeterministicRng::seed(config.seed ^ 0x1217),
        );
        model
            .load_state(&st.model)
            .expect("checkpoint matches the model");
        let mut opt = Adam::new(config.learning_rate);
        opt.restore(&st.optimizer);
        Self { model, opt, ckpt }
    }
}

/// Whether two checkpoints hold the same trainer state, losses compared
/// bit for bit.
fn same_trainer_state(a: &Checkpoint, b: &Checkpoint) -> bool {
    let bits =
        |s: &TrainerState| -> Vec<u32> { s.iteration_losses.iter().map(|l| l.to_bits()).collect() };
    match (&a.trainer, &b.trainer) {
        (Some(x), Some(y)) => x == y && bits(x) == bits(y),
        _ => false,
    }
}

/// Trains one epoch with `train_resumable`, resuming from `resume` and
/// halting at the next epoch boundary, then saves the checkpoint and loads
/// it back.
fn resume_epoch(
    data: &CommunityGraph,
    train_nodes: &[NodeId],
    config: &TrainerConfig,
    resume: Option<&Checkpoint>,
    halt_after: u64,
    path: &Path,
) -> Checkpoint {
    let outcome = train_resumable(
        &data.graph,
        &data.features,
        &data.labels,
        train_nodes,
        &[],
        config,
        resume,
        Some(halt_after),
    )
    .expect("resume from the run's own checkpoint");
    let TrainOutcome::Interrupted(ckpt) = outcome else {
        unreachable!("the plan outlasts every run");
    };
    ckpt.save(path).expect("save the checkpoint");
    Checkpoint::load(path).expect("load the checkpoint")
}

impl Workload for TrainBench {
    fn run_epoch(&mut self, epoch: u64) -> u64 {
        let bpe = self.batches_per_epoch;
        self.ckpt = resume_epoch(
            &self.data,
            &self.train_nodes,
            &self.config,
            Some(&self.ckpt),
            (epoch + 1) * bpe,
            &self.run_path,
        );
        if self.first_loss.is_none() {
            let st = self.ckpt.trainer.as_ref().expect("trainer checkpoint");
            self.first_loss = st.epoch_losses.last().copied();
        }
        bpe
    }

    fn replay_epoch(&mut self, epoch: u64, trace: &mut Trace) -> bool {
        let expected = std::mem::take(&mut self.ckpt);
        let same = self.replay_against(epoch, &expected, trace);
        self.ckpt = expected;
        same
    }

    fn final_check(&mut self) -> bool {
        // An uninterrupted `train` over the warm-up and first timed epoch
        // must match the checkpoint-resumed losses bit for bit.
        let epochs = 2;
        let config = TrainerConfig {
            epochs,
            ..self.config.clone()
        };
        let run = train(
            &self.data.graph,
            &self.data.features,
            &self.data.labels,
            &self.train_nodes,
            &config,
        );
        let st = self.ckpt.trainer.as_ref().expect("trainer checkpoint");
        let n = epochs * self.batches_per_epoch as usize;
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        st.iteration_losses.len() >= n
            && bits(&run.iteration_losses) == bits(&st.iteration_losses[..n])
            && bits(&run.epoch_losses) == bits(&st.epoch_losses[..epochs])
    }

    fn write_layers(&self, trace: &Trace, m: &mut Metrics) {
        let [edges, nodes, bytes] = self.first_counts.unwrap_or_default();
        m.set("sampler.edges", edges as f64);
        m.set("sampler.nodes", nodes as f64);
        m.set(
            "sampler.edges_per_s",
            ratio(
                self.replay_edges as f64,
                trace.total("sampler.batch_ms").as_secs_f64(),
            ),
        );
        m.set("resilience.checkpoint_bytes", bytes as f64);
        m.set("train_loss", f64::from(self.first_loss.unwrap_or(0.0)));
        // Stage totals of the trainer's window loop (already counted in
        // the layer rows above, so not part of the attribution sum).
        m.set("trainer.sample_ms", trace.per_epoch_ms("sampler.batch_ms"));
        m.set(
            "trainer.reorder_ms",
            [
                "sampler.sorted_ids_ms",
                "match_reorder.degree_matrix_ms",
                "match_reorder.reorder_ms",
            ]
            .iter()
            .map(|l| trace.per_epoch_ms(l))
            .sum(),
        );
    }
}

impl Drop for TrainBench {
    fn drop(&mut self) {
        // Best effort: a leftover checkpoint is harmless.
        let _ = std::fs::remove_file(&self.run_path);
        let _ = std::fs::remove_file(&self.replay_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TrainSpec {
        TrainSpec {
            graph: CommunityConfig {
                num_nodes: 600,
                feature_dim: 16,
                ..TrainSpec::GCN_COMMUNITY.graph
            },
            batch_size: 64,
        }
    }

    #[test]
    fn replay_matches_the_resumed_run_and_train() {
        let (mut bench, _) = TrainBench::setup(small(), 5);
        let mut trace = Trace::default();
        for epoch in 1..=2 {
            bench.run_epoch(epoch);
            assert!(bench.replay_epoch(epoch, &mut trace), "epoch {epoch}");
        }
        assert!(bench.final_check());
    }

    #[test]
    fn replay_checked_against_the_next_epoch_fails() {
        let (mut bench, _) = TrainBench::setup(small(), 5);
        bench.run_epoch(1);
        bench.run_epoch(2);
        let after_two = bench.ckpt.clone();
        let mut trace = Trace::default();
        assert!(!bench.replay_against(1, &after_two, &mut trace));
        assert!(bench.replay_against(2, &after_two, &mut trace));
    }
}
