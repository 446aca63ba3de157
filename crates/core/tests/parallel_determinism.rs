//! The execution backend's central guarantee: every hot path produces
//! bit-identical results at any thread count, and repeated runs at the
//! same thread count are bit-identical too.

use fastgl_core::cache::PARTITION_GRAIN_ROWS;
use fastgl_core::FeatureCache;
use fastgl_gnn::aggregate::{mean_aggregate, sum_aggregate_backward};
use fastgl_graph::generate::rmat::{self, RmatConfig};
use fastgl_graph::{DeterministicRng, NodeId};
use fastgl_sample::{
    BaselineIdMap, Block, FusedIdMap, IdMap, NeighborSampler, SampleStats, SampledSubgraph,
};
use fastgl_tensor::{parallel, Matrix};
use std::sync::Mutex;

/// Serializes tests in this binary that flip the global thread override.
static THREADS: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_num_threads(n);
    let r = f();
    parallel::set_num_threads(0);
    r
}

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = DeterministicRng::seed(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.normal_f32()).collect(),
    )
}

/// A block with `num_dst` destinations, each pulling `deg` of `num_src`
/// source rows (shared sources exercise accumulation order).
fn fanout_block(num_dst: usize, num_src: usize, deg: usize) -> Block {
    let mut src_offsets = vec![0u64];
    let mut src_locals = Vec::with_capacity(num_dst * deg);
    for i in 0..num_dst {
        for e in 0..deg {
            src_locals.push(((i * 31 + e * 977) % num_src) as u64);
        }
        src_offsets.push(src_locals.len() as u64);
    }
    Block {
        dst_locals: (0..num_dst as u64).collect(),
        src_offsets,
        src_locals,
    }
}

#[test]
fn matmul_bit_identical_across_thread_counts() {
    // Every product sums over k = 300, which crosses the kernel's k-panel
    // boundary (256) mid-sum; ReLU zeros in `a` exercise the zero skip.
    let a = filled(150, 300, 1).map(|x| x.max(0.0));
    let b = filled(300, 90, 2);
    let c = filled(300, 70, 3);
    let d = filled(90, 300, 4);
    let products = || {
        (
            a.matmul(&b),
            b.matmul_transpose_a(&c),
            a.matmul_transpose_b(&d),
        )
    };
    let baseline = with_threads(1, products);
    for threads in [1usize, 2, 8] {
        for run in 0..2 {
            let got = with_threads(threads, products);
            for (name, got, want) in [
                ("matmul", &got.0, &baseline.0),
                ("matmul_transpose_a", &got.1, &baseline.1),
                ("matmul_transpose_b", &got.2, &baseline.2),
            ] {
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{name} diverged at {threads} threads (run {run})"
                );
            }
        }
    }
}

#[test]
fn aggregation_bit_identical_across_thread_counts() {
    let num_dst = 700;
    let num_src = 1_500;
    let block = fanout_block(num_dst, num_src, 11);
    let z = filled(num_src, 48, 3);
    let grad = filled(num_dst, 48, 4);
    let baseline = with_threads(1, || {
        (
            mean_aggregate(&block, &z),
            sum_aggregate_backward(&block, &grad, num_src),
        )
    });
    for threads in [1usize, 2, 8] {
        for run in 0..2 {
            let got = with_threads(threads, || {
                (
                    mean_aggregate(&block, &z),
                    sum_aggregate_backward(&block, &grad, num_src),
                )
            });
            assert_eq!(
                got.0.as_slice(),
                baseline.0.as_slice(),
                "mean_aggregate diverged at {threads} threads (run {run})"
            );
            assert_eq!(
                got.1.as_slice(),
                baseline.1.as_slice(),
                "sum_aggregate_backward diverged at {threads} threads (run {run})"
            );
        }
    }
}

/// One full mini-batch — sample, gather, aggregate, dense update — must be
/// bit-identical across `FASTGL_THREADS ∈ {1, 2, 8}` and repeated runs,
/// under either ID map.
#[test]
fn full_minibatch_bit_identical_across_thread_counts() {
    let graph = rmat::generate(&RmatConfig::social(3_000, 24_000), 5);
    let seeds: Vec<NodeId> = (0..256).map(|i| NodeId(i * 11 % 3_000)).collect();
    // The seed frontier alone must split across several sampling workers,
    // or the test would only ever exercise the serial draw loop.
    let workers = with_threads(2, || {
        parallel::plan_threads(seeds.len(), parallel::SAMPLE_GRAIN_SEEDS)
    });
    assert_eq!(workers, 2, "seed frontier too small to split");
    let dim = 32;
    let feats: Vec<f32> = {
        let mut rng = DeterministicRng::seed(7);
        (0..3_000 * dim).map(|_| rng.normal_f32()).collect()
    };
    let weight = filled(dim, 16, 8);

    let minibatch = |id_map: &dyn IdMap| -> (SampledSubgraph, SampleStats, Matrix) {
        let sampler = NeighborSampler::new(vec![4, 6]);
        let mut rng = DeterministicRng::seed(42);
        let (sg, stats) = sampler.sample(&graph, &seeds, id_map, &mut rng);
        let idx: Vec<usize> = sg.nodes.iter().map(|n| n.index()).collect();
        let gathered = Matrix::gather_flat(&feats, dim, 3_000, &idx);
        // One hop of the model: aggregate the widest block, then the dense
        // update — enough to cover every backend hot path in sequence.
        let h = mean_aggregate(&sg.blocks[0], &gathered)
            .matmul(&weight)
            .map(|x| x.max(0.0));
        (sg, stats, h)
    };

    let maps: [&dyn IdMap; 2] = [&FusedIdMap::new(), &BaselineIdMap::new()];
    let mut subgraphs = Vec::new();
    for id_map in maps {
        let name = id_map.name();
        let (base_sg, base_stats, base_h) = with_threads(1, || minibatch(id_map));
        for threads in [1usize, 2, 8] {
            for run in 0..2 {
                let (sg, stats, h) = with_threads(threads, || minibatch(id_map));
                assert_eq!(
                    sg, base_sg,
                    "{name}: sampled subgraph diverged at {threads} threads (run {run})"
                );
                assert_eq!(
                    stats, base_stats,
                    "{name}: sample stats diverged at {threads} threads (run {run})"
                );
                assert_eq!(
                    h.as_slice(),
                    base_h.as_slice(),
                    "{name}: minibatch output diverged at {threads} threads (run {run})"
                );
            }
        }
        subgraphs.push(base_sg);
    }
    // Both maps number IDs in first-occurrence order, so they agree.
    assert_eq!(subgraphs[0], subgraphs[1], "ID maps disagree");
}

/// The cache partition's chunked merge must concatenate to the serial
/// answer at any thread count, including cached runs that straddle a
/// chunk boundary.
#[test]
fn cache_partition_bit_identical_across_thread_counts() {
    let grain = PARTITION_GRAIN_ROWS;
    let rows = 4 * grain + 123;
    let workers = |threads| with_threads(threads, || parallel::plan_threads(rows, grain));
    // The load must split, or only the serial merge would run.
    assert!(workers(2) >= 2, "load too small to split at 2 threads");
    assert!(
        workers(8) > workers(2),
        "load too small to split further at 8"
    );

    // A sorted load of every third ID.
    let load: Vec<NodeId> = (0..rows as u64).map(|i| NodeId(3 * i)).collect();
    // Cache a run of load rows around every chunk boundary, a sparse
    // sprinkle of other load rows, and IDs between them that no load hits.
    let mut ranking: Vec<NodeId> = Vec::new();
    for threads in [2, 8] {
        let t = workers(threads);
        for k in 1..t {
            let boundary = k * rows / t;
            ranking.extend(load[boundary - 32..boundary + 32].iter().copied());
        }
    }
    ranking.extend(load.iter().step_by(97).copied());
    ranking.extend((0..rows as u64).step_by(5).map(|i| NodeId(3 * i + 1)));
    let cache = FeatureCache::from_ranking(&ranking, ranking.len() as u64, 4);

    let serial = with_threads(1, || cache.partition(&load));
    let expected_hits = load.iter().filter(|&&n| cache.contains(n)).count() as u64;
    assert_eq!(serial.0, expected_hits);
    assert_eq!(serial.1.len() as u64, rows as u64 - expected_hits);
    for threads in [2usize, 8] {
        assert_eq!(
            with_threads(threads, || cache.partition(&load)),
            serial,
            "cache partition diverged at {threads} threads"
        );
    }
}
