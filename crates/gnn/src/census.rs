//! Workload census: the per-layer event counts the simulator charges.
//!
//! The simulated GPU needs to know, for each GNN layer executed over a
//! sampled subgraph, how big the aggregation (sparse) and update (dense)
//! stages are. This module derives those numbers from the subgraph
//! structure and the model's layer dimensions — the *numeric* execution in
//! [`crate::model::GnnModel`] and the *timed* execution in the simulator
//! consume the same shapes.

use fastgl_sample::SampledSubgraph;

/// The workload of one GNN layer over one subgraph block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerWorkload {
    /// Destination nodes (rows produced).
    pub num_dst: u64,
    /// Source rows consumed (the previous layer's output, or the feature
    /// matrix for layer 0).
    pub num_src_rows: u64,
    /// Sampled edges aggregated.
    pub nnz: u64,
    /// Input feature dimensionality.
    pub d_in: usize,
    /// Output feature dimensionality.
    pub d_out: usize,
}

/// Derives per-layer workloads for a model with `dims` layer dimensions
/// executed over `subgraph`.
///
/// # Panics
///
/// Panics if `dims.len() != subgraph.blocks.len()`.
pub fn census(subgraph: &SampledSubgraph, dims: &[(usize, usize)]) -> Vec<LayerWorkload> {
    assert_eq!(
        dims.len(),
        subgraph.blocks.len(),
        "census needs one (d_in, d_out) pair per block"
    );
    let mut out = Vec::with_capacity(dims.len());
    for (i, (block, &(d_in, d_out))) in subgraph.blocks.iter().zip(dims).enumerate() {
        let num_src_rows = if i == 0 {
            subgraph.num_nodes()
        } else {
            subgraph.blocks[i - 1].num_dst() as u64
        };
        out.push(LayerWorkload {
            num_dst: block.num_dst() as u64,
            num_src_rows,
            nnz: block.num_edges(),
            d_in,
            d_out,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_graph::generate::rmat::{self, RmatConfig};
    use fastgl_graph::{DeterministicRng, NodeId};
    use fastgl_sample::{FusedIdMap, NeighborSampler};

    fn subgraph() -> SampledSubgraph {
        let g = rmat::generate(&RmatConfig::social(400, 3_000), 2);
        let seeds: Vec<NodeId> = (0..8).map(|i| NodeId(i * 31 % 400)).collect();
        let mut rng = DeterministicRng::seed(1);
        NeighborSampler::new(vec![2, 3])
            .sample(&g, &seeds, &FusedIdMap::new(), &mut rng)
            .0
    }

    #[test]
    fn census_matches_blocks() {
        let sg = subgraph();
        let dims = [(32, 16), (16, 4)];
        let w = census(&sg, &dims);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].num_src_rows, sg.num_nodes());
        assert_eq!(w[1].num_src_rows, sg.blocks[0].num_dst() as u64);
        assert_eq!(w[0].nnz, sg.blocks[0].num_edges());
        assert_eq!(w[1].num_dst, 8);
        assert_eq!(w[0].d_in, 32);
        assert_eq!(w[1].d_out, 4);
    }

    #[test]
    #[should_panic(expected = "one (d_in, d_out) pair per block")]
    fn dim_count_mismatch_panics() {
        let sg = subgraph();
        let _ = census(&sg, &[(8, 4)]);
    }
}
