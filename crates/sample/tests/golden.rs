//! Golden output of `NeighborSampler::sample`.
//!
//! Every simulated figure in the repository is a function of the sampled
//! subgraphs, so any change to the sampler's inner loop must reproduce
//! them exactly: the same per-node RNG streams, the same draw order, the
//! same ID-map input stream and therefore the same probe counts. This test
//! pins the full output for a fixed graph and seed under both ID maps.
//!
//! The graph mixes nodes whose degree is at most the hop's fanout (all
//! neighbours are copied) with nodes whose degree exceeds it (Floyd's
//! distinct draws), on both hops.

use fastgl_graph::{Csr, DeterministicRng, GraphBuilder, NodeId};
use fastgl_sample::{BaselineIdMap, FusedIdMap, IdMap, IdMapStats, NeighborSampler, SampleStats};

/// 40 nodes: two hubs (0 with degree 15, 5 with degree 17) and a ring-like
/// remainder of degrees 1–5.
fn graph() -> Csr {
    let mut edges: Vec<(u64, u64)> = (0..40).map(|i| (i, (i * 7 + 3) % 40)).collect();
    edges.extend(
        (0..40)
            .filter(|i| i % 3 == 0)
            .map(|i| (i, (i * 11 + 5) % 40)),
    );
    edges.extend((1..16).map(|j| (0, j)));
    edges.extend((16..30).map(|j| (5, j)));
    GraphBuilder::new(40)
        .symmetric(true)
        .extend_edges(edges)
        .build()
}

const SEEDS: [u64; 5] = [0, 5, 9, 17, 33];

const NODES: [u64; 29] = [
    0, 5, 9, 17, 33, 13, 11, 7, 22, 19, 28, 18, 26, 2, 12, 8, 10, 34, 3, 29, 20, 24, 14, 30, 27,
    16, 39, 25, 15,
];

/// Widest block first (hop 2, fanout 2), then the seed block (hop 1,
/// fanout 3); each destination lists its self-loop first.
const WIDE_OFFSETS: [u64; 19] = [
    0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42, 45, 48, 51, 54,
];
const WIDE_LOCALS: [u64; 54] = [
    0, 18, 13, 1, 19, 20, 2, 21, 12, 3, 1, 14, 4, 15, 17, 5, 22, 23, 6, 0, 21, 7, 0, 14, 8, 1, 24,
    9, 1, 25, 10, 1, 26, 11, 2, 18, 12, 1, 27, 13, 0, 3, 14, 7, 0, 15, 9, 4, 16, 0, 28, 17, 4, 26,
];
const SEED_OFFSETS: [u64; 6] = [0, 4, 8, 12, 16, 20];
const SEED_LOCALS: [u64; 20] = [
    0, 5, 6, 7, 1, 8, 9, 10, 2, 0, 11, 12, 3, 13, 1, 14, 4, 15, 16, 17,
];

fn check(id_map: &dyn IdMap, id_map_stats: IdMapStats) {
    let sampler = NeighborSampler::new(vec![3, 2]);
    let seeds: Vec<NodeId> = SEEDS.iter().map(|&s| NodeId(s)).collect();
    let mut rng = DeterministicRng::seed(2024);
    let (sg, stats) = sampler.sample(&graph(), &seeds, id_map, &mut rng);
    sg.validate().unwrap();

    let nodes: Vec<u64> = sg.nodes.iter().map(|n| n.0).collect();
    assert_eq!(nodes, NODES, "{}: nodes", id_map.name());
    assert_eq!(sg.blocks.len(), 2);
    assert_eq!(sg.blocks[0].src_offsets, WIDE_OFFSETS, "{}", id_map.name());
    assert_eq!(sg.blocks[0].src_locals, WIDE_LOCALS, "{}", id_map.name());
    assert_eq!(sg.blocks[1].src_offsets, SEED_OFFSETS, "{}", id_map.name());
    assert_eq!(sg.blocks[1].src_locals, SEED_LOCALS, "{}", id_map.name());
    assert_eq!(
        stats,
        SampleStats {
            edges_sampled: 51,
            self_loops: 23,
            id_map: id_map_stats,
        },
        "{}",
        id_map.name()
    );
    // The draws must not depend on the state the RNG was left in: the
    // batch RNG advances exactly once per hop.
    let mut expect = DeterministicRng::seed(2024);
    expect.next();
    expect.next();
    assert_eq!(rng, expect, "{}: batch RNG advanced", id_map.name());
}

#[test]
fn fused_map_output_is_pinned() {
    check(
        &FusedIdMap::new(),
        IdMapStats {
            total_ids: 74,
            unique_ids: 47,
            probes: 2,
            kernel_launches: 4,
            device_syncs: 2,
            sync_serializations: 0,
            lookups: 74,
        },
    );
}

#[test]
fn baseline_map_output_is_pinned() {
    check(
        &BaselineIdMap::new(),
        IdMapStats {
            total_ids: 74,
            unique_ids: 47,
            probes: 3,
            kernel_launches: 6,
            device_syncs: 4,
            sync_serializations: 47,
            lookups: 74,
        },
    );
}
