//! `fastgl-sim` — command-line driver for the FastGL simulator.
//!
//! ```sh
//! fastgl-sim --dataset products --system fastgl --model gcn \
//!            --batch 256 --gpus 2 --scale 512 --epochs 3
//! fastgl-sim --dataset papers100m --system dgl --sampler walk --scale 2048
//! fastgl-sim --help
//! ```
//!
//! Runs one training system on one scaled dataset and prints the epoch
//! statistics the paper's tables are built from.

use fastgl::baselines::SystemKind;
use fastgl::core::FastGlConfig;
use fastgl::gnn::ModelKind;
use fastgl::graph::Dataset;
use std::process::ExitCode;

const HELP: &str = "\
fastgl-sim — simulate sampling-based GNN training (FastGL, ASPLOS'24)

USAGE:
    fastgl-sim [OPTIONS]

OPTIONS:
    --dataset <name>     reddit | products | mag | igb | papers100m  [products]
    --system <name>      fastgl | dgl | pyg | gnnlab | gnnadvisor | pagraph  [fastgl]
    --model <name>       gcn | gin | gat | sage  [gcn]
    --sampler <name>     neighbor | walk | layerwise  [neighbor]
    --batch <n>          mini-batch size  [256]
    --gpus <n>           simulated GPU count (gnnlab needs 2 or more)  [2]
    --scale <d>          dataset scale divisor (graph is 1/d of full size)  [512]
    --epochs <n>         epochs to average  [3]
    --fanouts <a,b,c>    per-hop fanouts  [5,10,15]
    --cache-ratio <f>    explicit cache ratio in [0,1]; only fastgl, gnnlab
                         and pagraph keep a cache, the others ignore it  [auto]
    --seed <n>           random seed  [42]
    --help               print this text
";

fn parse_args() -> Result<(Dataset, SystemKind, FastGlConfig, f64, u64), String> {
    let mut dataset = Dataset::Products;
    let mut system = SystemKind::FastGl;
    let mut config = FastGlConfig::default().with_batch_size(256).with_seed(42);
    let mut scale = 512.0;
    let mut epochs = 3u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            "--dataset" => {
                dataset = match value(&mut i)?.to_lowercase().as_str() {
                    "reddit" | "rd" => Dataset::Reddit,
                    "products" | "pr" => Dataset::Products,
                    "mag" => Dataset::Mag,
                    "igb" | "igb-large" => Dataset::IgbLarge,
                    "papers100m" | "pa" | "papers" => Dataset::Papers100M,
                    other => return Err(format!("unknown dataset '{other}'")),
                };
            }
            "--system" => {
                let name = value(&mut i)?.to_lowercase();
                system = match name.as_str() {
                    "advisor" => SystemKind::GnnAdvisor,
                    other => SystemKind::ALL
                        .into_iter()
                        .find(|kind| kind.name().eq_ignore_ascii_case(other))
                        .ok_or_else(|| format!("unknown system '{other}'"))?,
                };
            }
            "--model" => {
                let model = match value(&mut i)?.to_lowercase().as_str() {
                    "gcn" => ModelKind::Gcn,
                    "gin" => ModelKind::Gin,
                    "gat" => ModelKind::Gat,
                    "sage" => ModelKind::Sage,
                    other => return Err(format!("unknown model '{other}'")),
                };
                config = config.with_model(model);
            }
            "--sampler" => {
                config = match value(&mut i)?.to_lowercase().as_str() {
                    "neighbor" | "neighbour" => config,
                    "walk" | "randomwalk" => config.with_random_walk(),
                    "layerwise" | "ladies" => config.with_layer_wise(),
                    other => return Err(format!("unknown sampler '{other}'")),
                };
            }
            "--batch" => {
                config = config.with_batch_size(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --batch: {e}"))?,
                );
            }
            "--gpus" => {
                config = config.with_gpus(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --gpus: {e}"))?,
                );
            }
            "--scale" => {
                scale = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if scale < 1.0 {
                    return Err("--scale must be at least 1".into());
                }
            }
            "--epochs" => {
                epochs = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --epochs: {e}"))?;
            }
            "--fanouts" => {
                let fanouts: Result<Vec<usize>, _> =
                    value(&mut i)?.split(',').map(str::parse).collect();
                config = config.with_fanouts(fanouts.map_err(|e| format!("bad --fanouts: {e}"))?);
            }
            "--cache-ratio" => {
                config = config.with_cache_ratio(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --cache-ratio: {e}"))?,
                );
            }
            "--seed" => {
                config = config.with_seed(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                );
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
        i += 1;
    }
    config.validate()?;
    if config.system.num_gpus < system.min_gpus() {
        return Err(format!(
            "{system} needs at least {} GPUs (got --gpus {})",
            system.min_gpus(),
            config.system.num_gpus
        ));
    }
    Ok((dataset, system, config, scale, epochs))
}

fn main() -> ExitCode {
    if let Err(e) = fastgl::core::check_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let (dataset, system, config, scale, epochs) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "generating {dataset} at 1/{scale:.0} scale (seed {})...",
        config.seed
    );
    let data = dataset.generate_scaled(1.0 / scale, config.seed);
    eprintln!(
        "graph: {} nodes, {} edges, {} features, {} train seeds",
        data.graph.num_nodes(),
        data.graph.num_edges(),
        data.spec.feature_dim,
        data.train_nodes().len(),
    );
    if data.train_nodes().is_empty() {
        eprintln!("error: scaled dataset has no training nodes; lower --scale");
        return ExitCode::FAILURE;
    }

    let mut sys = system.build(config);
    let stats = sys.run_epochs(&data, epochs);
    let (s, i, c) = stats.breakdown.fractions();
    println!("system        : {}", sys.name());
    println!("epoch time    : {}", stats.total());
    println!(
        "  sample      : {} ({:.1}%)",
        stats.breakdown.sample,
        s * 100.0
    );
    println!("  memory IO   : {} ({:.1}%)", stats.breakdown.io, i * 100.0);
    println!(
        "  compute     : {} ({:.1}%)",
        stats.breakdown.compute,
        c * 100.0
    );
    println!("iterations    : {}", stats.iterations);
    println!("rows loaded   : {}", stats.rows_loaded);
    println!("rows reused   : {}", stats.rows_reused);
    println!("rows cached   : {}", stats.rows_cached);
    println!("PCIe traffic  : {:.2} MB", stats.bytes_h2d as f64 / 1e6);
    println!("edges sampled : {}", stats.edges_sampled);
    println!("id-map time   : {}", stats.id_map_time);
    println!(
        "peak memory   : {:.1} MB (modelled)",
        stats.peak_memory_bytes as f64 / 1e6
    );
    if stats.l1_hit_rate > 0.0 {
        println!(
            "agg hit rates : L1 {:.1}% / L2 {:.1}%",
            stats.l1_hit_rate * 100.0,
            stats.l2_hit_rate * 100.0
        );
    }
    println!("agg GFLOP/s   : {:.0}", stats.aggregation_gflops);
    ExitCode::SUCCESS
}
