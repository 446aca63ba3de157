//! Experiment scale profiles.
//!
//! The paper evaluates on graphs with up to 111M nodes and a batch size of
//! 8000. The scaled stand-ins keep each dataset's degree structure and
//! relative proportions while shrinking node counts to what a CPU-only
//! machine simulates in seconds. Batch size and training fraction are
//! scaled so the *batches-per-epoch* count stays in the paper's range
//! (≈10–50), which is what the Match-Reorder window mechanics depend on.

use fastgl_graph::{Dataset, DatasetBundle};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A scale profile for experiment runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchScale {
    /// Multiplier applied on top of each dataset's per-dataset scale.
    pub extra_factor: f64,
    /// Mini-batch size (the paper's 8000, scaled).
    pub batch_size: u64,
    /// Target mini-batches per epoch; the training fraction adapts to hit
    /// it, keeping epoch structure in the paper's range at reduced scale.
    pub target_batches: u64,
    /// Epochs averaged per measurement (the paper averages 20).
    pub epochs: u64,
    /// Base random seed.
    pub seed: u64,
}

impl BenchScale {
    /// The default profile used by the experiment binaries.
    pub fn default_profile() -> Self {
        Self {
            extra_factor: 1.0,
            batch_size: 256,
            target_batches: 16,
            epochs: 2,
            seed: 0xFA57,
        }
    }

    /// A fast smoke profile for tests (`FASTGL_QUICK=1`).
    pub fn quick() -> Self {
        Self {
            extra_factor: 0.25,
            batch_size: 64,
            target_batches: 6,
            epochs: 1,
            seed: 0xFA57,
        }
    }

    /// Reads the profile from the environment (`FASTGL_QUICK`).
    ///
    /// # Panics
    ///
    /// If `FASTGL_QUICK` is not a flag (see
    /// [`fastgl_telemetry::settings`]).
    pub fn from_env() -> Self {
        if fastgl_telemetry::settings::quick().unwrap_or_else(|e| panic!("{e}")) {
            Self::quick()
        } else {
            Self::default_profile()
        }
    }

    /// Per-dataset base scale factor, chosen so stand-ins land between
    /// roughly 8k and 60k nodes (Reddit stays smaller because its average
    /// degree of ~470 makes even small instances expensive).
    pub fn base_factor(dataset: Dataset) -> f64 {
        match dataset {
            Dataset::Reddit => 1.0 / 32.0,
            Dataset::Products => 1.0 / 64.0,
            Dataset::Mag => 1.0 / 128.0,
            Dataset::IgbLarge => 1.0 / 1024.0,
            Dataset::Papers100M => 1.0 / 1024.0,
        }
    }

    /// The effective scale of `dataset` under this profile.
    pub fn factor(&self, dataset: Dataset) -> f64 {
        (Self::base_factor(dataset) * self.extra_factor).min(1.0)
    }

    /// Generates (or fetches from the process-wide cache) the scaled bundle
    /// of `dataset`, with the profile's training fraction applied.
    pub fn bundle(&self, dataset: Dataset) -> DatasetBundle {
        static CACHE: OnceLock<Mutex<HashMap<(Dataset, u64), DatasetBundle>>> = OnceLock::new();
        let key = (dataset, (self.factor(dataset) * 1e9) as u64 ^ self.seed);
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(b) = cache.lock().expect("cache poisoned").get(&key) {
            return b.clone();
        }
        let mut spec = dataset.spec().scaled(self.factor(dataset));
        spec.train_fraction =
            ((self.target_batches * self.batch_size) as f64 / spec.num_nodes as f64).min(0.66);
        let bundle = spec.generate(self.seed);
        cache
            .lock()
            .expect("cache poisoned")
            .insert(key, bundle.clone());
        bundle
    }
}

impl Default for BenchScale {
    fn default() -> Self {
        Self::default_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_are_cached_and_consistent() {
        let scale = BenchScale::quick();
        let a = scale.bundle(Dataset::Products);
        let b = scale.bundle(Dataset::Products);
        assert_eq!(a.graph, b.graph);
        assert!(a.graph.num_nodes() > 1_000);
    }

    #[test]
    fn batches_per_epoch_near_target() {
        let scale = BenchScale::quick();
        for d in [Dataset::Products, Dataset::Mag] {
            let b = scale.bundle(d);
            let batches = b.train_nodes().len() as u64 / scale.batch_size;
            assert!(
                batches >= scale.target_batches / 2 && batches <= scale.target_batches + 2,
                "{d}: {batches} batches per epoch (target {})",
                scale.target_batches
            );
        }
    }

    #[test]
    fn quick_profile_is_smaller() {
        let q = BenchScale::quick();
        let d = BenchScale::default_profile();
        assert!(q.factor(Dataset::Products) < d.factor(Dataset::Products));
    }
}
