//! Property-based tests (proptest) of the workspace's core invariants.

use fastgl::core::match_reorder::{greedy_reorder, match_load_set};
use fastgl::graph::generate::rmat::{self, RmatConfig};
use fastgl::graph::{DeterministicRng, GraphBuilder, NodeId};
use fastgl::sample::id_map::{baseline::BaselineIdMap, fused::FusedIdMap};
use fastgl::sample::overlap::{match_degree, match_degree_matrix};
use fastgl::sample::{IdMap, NeighborSampler};
use proptest::prelude::*;
use std::collections::HashSet;

fn sorted_unique(ids: Vec<u64>) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    /// Both ID maps produce a bijection onto 0..unique for any multiset.
    #[test]
    fn id_maps_are_bijections(ids in prop::collection::vec(0u64..10_000, 0..2_000)) {
        for map in [&BaselineIdMap::new() as &dyn IdMap, &FusedIdMap::new()] {
            let out = map.map(&ids);
            prop_assert!(out.verify(&ids).is_ok());
            let expected_unique: HashSet<u64> = ids.iter().copied().collect();
            prop_assert_eq!(out.unique.len(), expected_unique.len());
            prop_assert_eq!(out.stats.total_ids, ids.len() as u64);
        }
    }

    /// Baseline and fused maps agree exactly (same first-occurrence order).
    #[test]
    fn id_map_strategies_agree(ids in prop::collection::vec(0u64..500, 0..800)) {
        let a = BaselineIdMap::new().map(&ids);
        let b = FusedIdMap::new().map(&ids);
        prop_assert_eq!(a.unique, b.unique);
        prop_assert_eq!(a.locals, b.locals);
    }

    /// Match partitions the incoming set: load ∪ overlap = incoming,
    /// load ∩ resident = ∅, and counts add up.
    #[test]
    fn match_is_a_partition(
        incoming in prop::collection::vec(0u64..5_000, 0..800),
        resident in prop::collection::vec(0u64..5_000, 0..800),
    ) {
        let incoming = sorted_unique(incoming);
        let resident = sorted_unique(resident);
        let m = match_load_set(&incoming, &resident);
        prop_assert_eq!(m.load.len() as u64 + m.reused, incoming.len() as u64);
        let resident_set: HashSet<NodeId> = resident.iter().copied().collect();
        for n in &m.load {
            prop_assert!(!resident_set.contains(n));
        }
        let overlap = incoming.iter().filter(|n| resident_set.contains(n)).count();
        prop_assert_eq!(m.reused as usize, overlap);
    }

    /// Match degree is symmetric and bounded in [0, 1].
    #[test]
    fn match_degree_bounds(
        a in prop::collection::vec(0u64..2_000, 0..500),
        b in prop::collection::vec(0u64..2_000, 0..500),
    ) {
        let a = sorted_unique(a);
        let b = sorted_unique(b);
        let d = match_degree(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert_eq!(d, match_degree(&b, &a));
    }

    /// Greedy reorder returns a permutation starting at 0 whose
    /// consecutive match sum is at least the identity order's.
    #[test]
    fn reorder_is_valid_permutation(seed in 0u64..1_000, n in 2usize..12) {
        let mut rng = DeterministicRng::seed(seed);
        let sets: Vec<Vec<NodeId>> = (0..n)
            .map(|_| {
                let ids: Vec<u64> = (0..50).map(|_| rng.below(200)).collect();
                sorted_unique(ids)
            })
            .collect();
        let m = match_degree_matrix(&sets);
        let order = greedy_reorder(&m);
        prop_assert_eq!(order[0], 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// The neighbour sampler produces structurally valid subgraphs on
    /// arbitrary R-MAT graphs with arbitrary fanouts.
    #[test]
    fn sampler_output_always_valid(
        seed in 0u64..500,
        nodes in 50u64..500,
        fanout1 in 1usize..6,
        fanout2 in 1usize..6,
        batch in 1usize..32,
    ) {
        let g = rmat::generate(&RmatConfig::social(nodes, nodes * 8), seed);
        let mut rng = DeterministicRng::seed(seed ^ 1);
        let seeds: Vec<NodeId> = (0..batch as u64).map(|i| NodeId(i % nodes)).collect();
        // Deduplicate seeds: mini-batch plans never repeat a seed.
        let seeds = sorted_unique(seeds.into_iter().map(|n| n.0).collect());
        let sampler = NeighborSampler::new(vec![fanout1, fanout2]);
        let (sg, stats) = sampler.sample(&g, &seeds, &FusedIdMap::new(), &mut rng);
        prop_assert!(sg.validate().is_ok());
        prop_assert_eq!(sg.blocks.len(), 2);
        prop_assert!(sg.num_nodes() >= seeds.len() as u64);
        // Every sampled edge's endpoints are real graph neighbours.
        prop_assert!(stats.edges_sampled <= (sg.num_nodes() * (fanout1 + fanout2) as u64 * 2));
    }

    /// CSR round-trips arbitrary edge lists through the builder.
    #[test]
    fn builder_round_trips_edges(
        edges in prop::collection::vec((0u64..100, 0u64..100), 0..500),
    ) {
        let g = GraphBuilder::new(100)
            .extend_edges(edges.iter().copied())
            .build();
        let expected: HashSet<(u64, u64)> = edges
            .iter()
            .copied()
            .filter(|(u, v)| u != v)
            .collect();
        let got: HashSet<(u64, u64)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Sampled neighbours are always true neighbours in the raw graph.
    #[test]
    fn sampled_edges_exist_in_graph(seed in 0u64..200) {
        let g = rmat::generate(&RmatConfig::social(300, 2_400), seed);
        let mut rng = DeterministicRng::seed(seed);
        let seeds: Vec<NodeId> = (0..8u64).map(NodeId).collect();
        let (sg, _) = NeighborSampler::new(vec![3])
            .sample(&g, &seeds, &FusedIdMap::new(), &mut rng);
        let block = &sg.blocks[0];
        for (i, &dst_local) in block.dst_locals.iter().enumerate() {
            let dst_global = sg.nodes[dst_local as usize];
            for &src_local in block.sources_of(i) {
                if src_local == dst_local {
                    continue; // self-loop added by the sampler
                }
                let src_global = sg.nodes[src_local as usize];
                prop_assert!(
                    g.neighbors(dst_global).contains(&src_global.0),
                    "sampled edge ({dst_global}, {src_global}) not in graph"
                );
            }
        }
    }
}
