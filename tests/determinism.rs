//! Determinism guarantees: every stochastic component is a pure function
//! of its seed, end to end — the property the whole simulation methodology
//! rests on (DESIGN.md §6).

use fastgl::core::trainer::{train, TrainerConfig};
use fastgl::graph::generate::community::{self, CommunityConfig};
use fastgl::graph::generate::rmat::{self, RmatConfig};
use fastgl::graph::{Dataset, DeterministicRng, NodeId};
use fastgl::sample::{FusedIdMap, LayerWiseSampler, NeighborSampler, RandomWalkSampler};

#[test]
fn generators_are_pure_functions_of_their_seed() {
    let cfg = RmatConfig::social(2_000, 16_000);
    assert_eq!(rmat::generate(&cfg, 7), rmat::generate(&cfg, 7));
    assert_ne!(rmat::generate(&cfg, 7), rmat::generate(&cfg, 8));

    let ccfg = CommunityConfig::default();
    let a = community::generate(&ccfg, 3);
    let b = community::generate(&ccfg, 3);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.features, b.features);
}

#[test]
fn dataset_bundles_reproduce() {
    let a = Dataset::IgbLarge.generate_scaled(1.0 / 8192.0, 99);
    let b = Dataset::IgbLarge.generate_scaled(1.0 / 8192.0, 99);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.split.train(), b.split.train());
    assert_eq!(a.spec, b.spec);
}

#[test]
fn every_sampler_reproduces_from_its_rng() {
    let g = rmat::generate(&RmatConfig::social(1_500, 12_000), 5);
    let seeds: Vec<NodeId> = (0..32).map(|i| NodeId(i * 7 % 1_500)).collect();
    let map = FusedIdMap::new();

    let neighbor = NeighborSampler::new(vec![3, 4]);
    let walk = RandomWalkSampler::paper_default();
    let ladies = LayerWiseSampler::new(vec![64, 128]);

    let run = |f: &dyn Fn(&mut DeterministicRng) -> u64| {
        let mut r1 = DeterministicRng::seed(11);
        let mut r2 = DeterministicRng::seed(11);
        assert_eq!(f(&mut r1), f(&mut r2));
    };
    run(&|rng| neighbor.sample(&g, &seeds, &map, rng).0.num_nodes());
    run(&|rng| walk.sample(&g, &seeds, &map, rng).0.num_edges());
    run(&|rng| ladies.sample(&g, &seeds, &map, rng).0.num_nodes());
}

#[test]
fn real_training_reproduces_bit_for_bit() {
    let d = community::generate(
        &CommunityConfig {
            num_nodes: 500,
            num_classes: 3,
            intra_degree: 8.0,
            inter_degree: 1.0,
            feature_dim: 12,
            feature_noise: 0.6,
        },
        13,
    );
    let nodes: Vec<NodeId> = (0..300).map(NodeId).collect();
    let cfg = TrainerConfig {
        fanouts: vec![3, 3],
        batch_size: 64,
        epochs: 2,
        ..Default::default()
    };
    let a = train(&d.graph, &d.features, &d.labels, &nodes, &cfg);
    let b = train(&d.graph, &d.features, &d.labels, &nodes, &cfg);
    assert_eq!(a.iteration_losses, b.iteration_losses);
    assert_eq!(a.final_accuracy, b.final_accuracy);
}

#[test]
fn cheap_experiments_reproduce_their_reports() {
    let scale = fastgl_bench::BenchScale::quick();
    for (id, runner) in fastgl_bench::experiments::all() {
        // Only the cheap, pure-table experiments; the full suite is
        // exercised by `all_experiments` (still deterministic, just slow).
        if !matches!(
            id,
            "tab03_memory_levels"
                | "tab04_match_degree"
                | "abl01_reorder_window"
                | "abl02_hash_load_factor"
                | "BENCH_pipeline"
        ) {
            continue;
        }
        let a = runner(&scale);
        let b = runner(&scale);
        assert_eq!(a, b, "{id} is not deterministic");
    }
}

#[test]
fn derived_rng_streams_are_stable_constants() {
    // Freeze a few values of the RNG stream: any change to the generator
    // silently invalidates every recorded experiment, so pin it.
    let mut rng = DeterministicRng::seed(0);
    assert_eq!(rng.next(), 11091344671253066420);
    let mut derived = DeterministicRng::seed(42).derive(7);
    let first = derived.next();
    let mut again = DeterministicRng::seed(42).derive(7);
    assert_eq!(first, again.next());
}
