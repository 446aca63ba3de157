//! Data-parallel multi-GPU arithmetic (paper §5 and Fig. 14a).
//!
//! FastGL trains data-parallel: training seeds shard round-robin across
//! trainer GPUs, every GPU runs the full pipeline on its shard, and a ring
//! all-reduce synchronises gradients each iteration. GNNLab additionally
//! dedicates GPUs to sampling. This module collects the pure arithmetic of
//! that organisation — shard sizing, host-gather contention, all-reduce
//! cost, and GNNLab's sample-hiding — which [`crate::pipeline::Pipeline`]
//! applies.

use fastgl_gpusim::transfer::ring_allreduce_time;
use fastgl_gpusim::{SimTime, SystemSpec};

/// The GPU roles of one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuRoles {
    /// GPUs running the training pipeline.
    pub trainers: usize,
    /// GPUs dedicated to sampling (GNNLab's factored design).
    pub samplers: usize,
}

impl GpuRoles {
    /// Splits `num_gpus` into roles.
    ///
    /// # Panics
    ///
    /// Panics if no GPU remains for training.
    pub fn new(num_gpus: usize, samplers: usize) -> Self {
        assert!(
            samplers < num_gpus,
            "at least one GPU must train ({num_gpus} GPUs, {samplers} samplers)"
        );
        Self {
            trainers: num_gpus - samplers,
            samplers,
        }
    }

    /// Per-iteration gradient all-reduce time across the trainers.
    pub fn allreduce_time(&self, spec: &SystemSpec, param_bytes: u64) -> SimTime {
        if self.trainers <= 1 {
            SimTime::ZERO
        } else {
            ring_allreduce_time(&spec.host, param_bytes, self.trainers)
        }
    }

    /// Host-gather contention factor: the trainers' loader processes share
    /// the host memory bus, so each sees roughly `trainers` times the solo
    /// gather latency.
    pub fn gather_contention(&self) -> f64 {
        self.trainers as f64
    }

    /// GNNLab's visible sample time, window by window: `samplers` GPUs
    /// sample for all `trainers` and produce window `w + 1` while the
    /// trainers consume window `w`, so only the pipeline fill plus any
    /// window where sampling outruns training shows on the critical path.
    ///
    /// `sample[w]` is the shard's sampling time of window `w`; `train[w]`
    /// is the trainers' IO + compute time of the same window. Each sampler
    /// GPU serves `trainers / samplers` shards, scaling the producer side.
    /// Entry `w` is the sampling time of window `w` left visible: the fill
    /// (`produced[0]`) charges to window 0 and each later window charges
    /// only its production excess over the preceding window's training.
    /// By the identity `max(p, c) - c = p ∸ c` (exact on nanosecond
    /// integers), the entries sum **exactly** to the depth-1 pipeline
    /// bound [`fastgl_gpusim::overlap::hidden_stage_visible`], which `fastgl-insight`'s
    /// attribution relies on. With no dedicated samplers the sampling is
    /// on the critical path and returned unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn visible_sample_per_window(&self, sample: &[SimTime], train: &[SimTime]) -> Vec<SimTime> {
        assert_eq!(
            sample.len(),
            train.len(),
            "pipeline stages must cover the same items"
        );
        if self.samplers == 0 {
            return sample.to_vec();
        }
        let ratio = self.trainers as f64 / self.samplers as f64;
        sample
            .iter()
            .enumerate()
            .map(|(w, &s)| {
                let produced = s * ratio;
                if w == 0 {
                    produced
                } else {
                    produced.saturating_sub(train[w - 1])
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_gpusim::overlap;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn roles_split_and_validate() {
        let r = GpuRoles::new(8, 2);
        assert_eq!(r.trainers, 6);
        assert_eq!(r.samplers, 2);
        assert_eq!(r.gather_contention(), 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one GPU must train")]
    fn all_samplers_rejected() {
        let _ = GpuRoles::new(2, 2);
    }

    #[test]
    fn allreduce_zero_for_single_trainer() {
        let spec = SystemSpec::rtx3090_server(2);
        let solo = GpuRoles::new(2, 1);
        assert_eq!(solo.allreduce_time(&spec, 1 << 20), SimTime::ZERO);
        let duo = GpuRoles::new(2, 0);
        assert!(duo.allreduce_time(&spec, 1 << 20) > SimTime::ZERO);
    }

    #[test]
    fn per_window_decomposition_sums_exactly_to_the_aggregate() {
        // Irregular, tie-heavy inputs across several role splits: the
        // per-window entries must reproduce the depth-1 pipeline bound of
        // the scaled producer to the nanosecond, including the float
        // producer scaling.
        for (gpus, samplers) in [(2usize, 1usize), (8, 2), (8, 3), (4, 0)] {
            let r = GpuRoles::new(gpus, samplers);
            let sample: Vec<SimTime> = (0..17).map(|i| t(37 * (i % 5) + i)).collect();
            let train: Vec<SimTime> = (0..17).map(|i| t(120 - 6 * (i % 9))).collect();
            let per = r.visible_sample_per_window(&sample, &train);
            assert_eq!(per.len(), sample.len());
            let sum: SimTime = per.iter().copied().sum();
            let aggregate = if samplers == 0 {
                sample.iter().copied().sum()
            } else {
                let ratio = r.trainers as f64 / r.samplers as f64;
                let produced: Vec<SimTime> = sample.iter().map(|&s| s * ratio).collect();
                overlap::hidden_stage_visible(&produced, &train)
            };
            assert_eq!(sum, aggregate, "roles {gpus}/{samplers}");
        }
    }

    #[test]
    fn per_window_fill_and_excess_land_on_the_right_windows() {
        let r = GpuRoles::new(2, 1);
        let sample = [t(100), t(100), t(100)];
        let train = [t(500), t(500), t(500)];
        // Sampler keeps up: only window 0 (the fill) is charged.
        assert_eq!(
            r.visible_sample_per_window(&sample, &train),
            vec![t(100), SimTime::ZERO, SimTime::ZERO]
        );
        // Sampler falls behind: fill plus per-window excess.
        let slow = [t(800), t(800), t(800)];
        assert_eq!(
            r.visible_sample_per_window(&slow, &train),
            vec![t(800), t(300), t(300)]
        );
        // No dedicated sampler: nothing is hidden.
        let plain = GpuRoles::new(2, 0);
        assert_eq!(
            plain.visible_sample_per_window(&slow, &train),
            slow.to_vec()
        );
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn per_window_mismatched_lengths_panic() {
        let r = GpuRoles::new(2, 1);
        let _ = r.visible_sample_per_window(&[t(1)], &[]);
    }

    #[test]
    fn two_samplers_halve_the_sampler_work() {
        // 6 trainers, 2 samplers: the work is 6/2 times the shard sample.
        let r = GpuRoles::new(8, 2);
        assert_eq!(
            r.visible_sample_per_window(&[t(100)], &[SimTime::ZERO]),
            vec![t(300)]
        );
    }
}
