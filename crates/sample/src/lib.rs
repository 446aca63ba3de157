//! Subgraph sampling for FastGL: mini-batching, k-hop neighbour and
//! random-walk samplers, the ID-map process (baseline and Fused-Map), and
//! inter-subgraph overlap measurement.
//!
//! The sample phase of sampling-based GNN training (paper Fig. 2) has two
//! steps: drawing the subgraph and renumbering its global node IDs to dense
//! local IDs (*ID map*). This crate implements both, with the ID map
//! available in two strategies whose event counts differ exactly the way
//! the paper describes:
//!
//! * [`id_map::baseline::BaselineIdMap`] — the DGL-style three-kernel map
//!   whose local-ID assignment serializes on thread synchronizations;
//! * [`id_map::fused::FusedIdMap`] — the paper's Algorithm 2, fusing table
//!   construction with local-ID assignment (no synchronization), including
//!   a genuinely concurrent lock-free execution used in tests.
//!
//! [`overlap`] quantifies the node overlap between sampled subgraphs
//! (*match degree*), the quantity Match-Reorder exploits, over the dense
//! [`NodeSet`] bitsets of [`node_set`].

#![warn(missing_docs)]

pub mod id_map;
pub mod layer_wise;
pub mod minibatch;
pub mod neighbor;
pub mod node_set;
#[cfg(test)]
mod oracle;
pub mod overlap;
pub mod random_walk;
pub mod subgraph;

pub use id_map::baseline::BaselineIdMap;
pub use id_map::fused::FusedIdMap;
pub use id_map::{IdMap, IdMapOutput, IdMapStats};
pub use layer_wise::LayerWiseSampler;
pub use minibatch::MinibatchPlan;
pub use neighbor::{NeighborSampler, SampleStats};
pub use node_set::NodeSet;
pub use random_walk::RandomWalkSampler;
pub use subgraph::{Block, SampledSubgraph};
