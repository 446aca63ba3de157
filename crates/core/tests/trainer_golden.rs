//! Golden output of the numeric trainer.
//!
//! Pins, bit for bit, every per-iteration loss, every per-epoch loss and
//! validation accuracy, the final training accuracy, and a checksum of
//! the model weights checkpointed by a run halted mid-window. Covers GCN
//! and GAT with and without Reorder, and SAGE and GIN in plan order, on a
//! plan whose window (3) does not divide the batches per epoch (7), so the
//! last window of every epoch is ragged. Any change to the trainer's window
//! loop, RNG streams, reorder rule, accumulation order or layer arithmetic
//! shows up here.

use fastgl_core::trainer::{train_resumable, train_with_validation, TrainOutcome, TrainerConfig};
use fastgl_gnn::ModelKind;
use fastgl_graph::generate::community::{self, CommunityConfig, CommunityGraph};
use fastgl_graph::NodeId;

fn data() -> CommunityGraph {
    community::generate(
        &CommunityConfig {
            num_nodes: 600,
            num_classes: 3,
            intra_degree: 8.0,
            inter_degree: 1.0,
            feature_dim: 8,
            feature_noise: 0.8,
        },
        21,
    )
}

fn config(model: ModelKind, reorder: bool) -> TrainerConfig {
    TrainerConfig {
        model,
        hidden_dim: 16,
        fanouts: vec![3, 3],
        batch_size: 60,
        learning_rate: 0.01,
        epochs: 2,
        reorder,
        window: 3,
        seed: 7,
    }
}

/// Global batch the halted run stops before: batch 1 of epoch 1, inside
/// that epoch's first window.
const HALT: u64 = 8;

/// FNV-1a over the bit patterns of `values`.
fn checksum(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

struct Golden {
    iteration_losses: [u32; 14],
    epoch_losses: [u32; 2],
    val_accuracy: [u64; 2],
    final_accuracy: u64,
    halted_model: u64,
}

fn observed(model: ModelKind, reorder: bool) -> Golden {
    let d = data();
    let train_nodes: Vec<NodeId> = (0..420).map(NodeId).collect();
    let val_nodes: Vec<NodeId> = (420..540).map(NodeId).collect();
    let cfg = config(model, reorder);
    let run = train_with_validation(
        &d.graph,
        &d.features,
        &d.labels,
        &train_nodes,
        &val_nodes,
        &cfg,
    );
    let TrainOutcome::Interrupted(ckpt) = train_resumable(
        &d.graph,
        &d.features,
        &d.labels,
        &train_nodes,
        &val_nodes,
        &cfg,
        None,
        Some(HALT),
    )
    .unwrap() else {
        panic!("expected an interruption at batch {HALT}")
    };
    let state = ckpt.trainer.expect("a trainer checkpoint");
    assert_eq!(state.next_batch, HALT);
    let bits32 = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
    let bits64 = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    Golden {
        iteration_losses: bits32(&run.iteration_losses).try_into().unwrap(),
        epoch_losses: bits32(&run.epoch_losses).try_into().unwrap(),
        val_accuracy: bits64(&run.val_accuracy).try_into().unwrap(),
        final_accuracy: run.final_accuracy.to_bits(),
        halted_model: checksum(&state.model),
    }
}

fn check(model: ModelKind, reorder: bool, want: Golden) {
    let got = observed(model, reorder);
    let case = format!("{model}, reorder {reorder}");
    assert_eq!(got.iteration_losses, want.iteration_losses, "{case}");
    assert_eq!(got.epoch_losses, want.epoch_losses, "{case}");
    assert_eq!(got.val_accuracy, want.val_accuracy, "{case}");
    assert_eq!(got.final_accuracy, want.final_accuracy, "{case}");
    assert_eq!(got.halted_model, want.halted_model, "{case}");
}

#[test]
fn gcn_default_order() {
    check(
        ModelKind::Gcn,
        false,
        Golden {
            iteration_losses: [
                0x3fddf2e1, 0x3fadcaf0, 0x3fb75b45, 0x3f9c273d, 0x3f7ba2e2, 0x3f8852c6, 0x3f80e401,
                0x3f44b5aa, 0x3f5298a7, 0x3f3fd467, 0x3f08755e, 0x3efb52bc, 0x3efa602b, 0x3ef25ef3,
            ],
            epoch_losses: [0x3fa0e5ca, 0x3f1e3b93],
            val_accuracy: [0x3fdaaaaaaaaaaaab, 0x3fef333333333333],
            final_accuracy: 0x3fedddddddddddde,
            halted_model: 0x3f0dd04a6b0c830b,
        },
    );
}

#[test]
fn gcn_reordered() {
    check(
        ModelKind::Gcn,
        true,
        Golden {
            iteration_losses: [
                0x3fddf2e1, 0x3fadcaf0, 0x3fb75b45, 0x3f9c273d, 0x3f950b23, 0x3f685351, 0x3f8045ec,
                0x3f4455d5, 0x3f545f1a, 0x3f3ccfa6, 0x3f085523, 0x3f0c102f, 0x3ee17753, 0x3ef24200,
            ],
            epoch_losses: [0x3fa13f4a, 0x3f1e40f0],
            val_accuracy: [0x3fdb333333333333, 0x3fef333333333333],
            final_accuracy: 0x3fedddddddddddde,
            halted_model: 0x16e448eaaf700a60,
        },
    );
}

#[test]
fn gat_default_order() {
    check(
        ModelKind::Gat,
        false,
        Golden {
            iteration_losses: [
                0x3f4d656f, 0x3f463861, 0x3f43dc45, 0x3f11b98e, 0x3f175742, 0x3f229095, 0x3efd4320,
                0x3ee519b0, 0x3f043c1b, 0x3f005709, 0x3ebd8ece, 0x3ea37d5c, 0x3ea38aba, 0x3ecc45ee,
            ],
            epoch_losses: [0x3f296426, 0x3ed228af],
            val_accuracy: [0x3fedddddddddddde, 0x3fee666666666666],
            final_accuracy: 0x3fedddddddddddde,
            halted_model: 0x10814c7b57e62647,
        },
    );
}

#[test]
fn gat_reordered() {
    check(
        ModelKind::Gat,
        true,
        Golden {
            iteration_losses: [
                0x3f4d656f, 0x3f463861, 0x3f43dc45, 0x3f11b98e, 0x3f2a2f95, 0x3f0c6796, 0x3efbf059,
                0x3ee41122, 0x3f066175, 0x3efbd710, 0x3ebcfef7, 0x3eafb1d4, 0x3e97b267, 0x3ecbd549,
            ],
            epoch_losses: [0x3f28d2b6, 0x3ed1d75f],
            val_accuracy: [0x3fedddddddddddde, 0x3fee666666666666],
            final_accuracy: 0x3fedddddddddddde,
            halted_model: 0xd74002300aa9163d,
        },
    );
}

#[test]
fn sage_default_order() {
    check(
        ModelKind::Sage,
        false,
        Golden {
            iteration_losses: [
                0x3f9a714a, 0x3f89d11e, 0x3f2b4f6d, 0x3f097bc7, 0x3ef35d6b, 0x3e97be5a, 0x3e59aec3,
                0x3e445269, 0x3e47a2eb, 0x3dd9731b, 0x3d82eb71, 0x3da7f0b9, 0x3d378ede, 0x3d508284,
            ],
            epoch_losses: [0x3f239ccd, 0x3dd6e4f2],
            val_accuracy: [0x3fef777777777777, 0x3ff0000000000000],
            final_accuracy: 0x3ff0000000000000,
            halted_model: 0x76c88ed8bf475ccb,
        },
    );
}

#[test]
fn gin_default_order() {
    check(
        ModelKind::Gin,
        false,
        Golden {
            iteration_losses: [
                0x40bf5a19, 0x408fc4eb, 0x3fd94977, 0x3fa3f37a, 0x3f455db6, 0x3f191066, 0x3f1d292f,
                0x3e820f67, 0x3e9c280e, 0x3dfc2566, 0x3dbd8624, 0x3cbc7755, 0x3cdd2c2d, 0x3c6dfcfd,
            ],
            epoch_losses: [0x400d1bc2, 0x3df58720],
            val_accuracy: [0x3fe9111111111111, 0x3ff0000000000000],
            final_accuracy: 0x3ff0000000000000,
            halted_model: 0x0607_c249_4b42_9bb9,
        },
    );
}
