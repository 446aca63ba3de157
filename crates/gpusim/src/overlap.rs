//! Software-pipelining arithmetic: what overlap buys.
//!
//! Several designs in the paper's landscape hide one stage behind another:
//! DGL/PyG prefetch features during compute, GNNLab runs sampling on a
//! dedicated GPU, FastGL prefetches the next subgraph's topology (§6.5).
//! This module computes the producer time left visible under the depth-1
//! prefetch bound those designs obey.

use crate::timeline::SimTime;

/// Total time of a sequence of items through a 2-stage pipeline where
/// stage 1 of item `i + 1` may overlap stage 2 of item `i` (the classic
/// prefetch bound): `t = s1[0] + Σ max(s1[i+1], s2[i]) + s2[last]`.
///
/// Returns zero for an empty sequence.
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn two_stage_pipeline(stage1: &[SimTime], stage2: &[SimTime]) -> SimTime {
    assert_eq!(
        stage1.len(),
        stage2.len(),
        "pipeline stages must cover the same items"
    );
    if stage1.is_empty() {
        return SimTime::ZERO;
    }
    let mut total = stage1[0];
    for i in 0..stage1.len() - 1 {
        total += stage1[i + 1].max(stage2[i]);
    }
    total + stage2[stage2.len() - 1]
}

/// Visible (unhidden) time of a producer stage whose item `i + 1` is
/// produced while item `i` is consumed — the prefetch-depth-1 pipeline of
/// the classic bound above. Returns the pipelined makespan minus the
/// consumer's own work: the fill (`producer[0]`) plus every gap where
/// production outruns consumption.
///
/// This is the overlap model of GNNLab's dedicated sampler GPUs
/// (sampling hidden behind training): only what the consumer cannot hide
/// is charged. The simulator charges it window by window, and the
/// per-window split sums to this aggregate exactly.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn hidden_stage_visible(producer: &[SimTime], consumer: &[SimTime]) -> SimTime {
    let consumed: SimTime = consumer.iter().copied().sum();
    two_stage_pipeline(producer, consumer).saturating_sub(consumed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn balanced_pipeline_halves_time_asymptotically() {
        let s1 = vec![t(100); 50];
        let s2 = vec![t(100); 50];
        let piped = two_stage_pipeline(&s1, &s2);
        assert_eq!(piped.as_nanos(), 100 + 49 * 100 + 100);
    }

    #[test]
    fn dominant_stage_hides_the_other_completely() {
        let s1 = vec![t(10); 20];
        let s2 = vec![t(1_000); 20];
        let piped = two_stage_pipeline(&s1, &s2);
        // 10 (fill) + 19 * 1000 + 1000 (drain).
        assert_eq!(piped.as_nanos(), 10 + 19_000 + 1_000);
        // Only the fill of the hidden producer stays visible.
        assert_eq!(hidden_stage_visible(&s1, &s2), t(10));
    }

    #[test]
    fn single_item_has_no_overlap() {
        let piped = two_stage_pipeline(&[t(50)], &[t(70)]);
        assert_eq!(piped.as_nanos(), 120);
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(two_stage_pipeline(&[], &[]), SimTime::ZERO);
        assert_eq!(hidden_stage_visible(&[], &[]), SimTime::ZERO);
    }

    #[test]
    fn pipeline_never_beats_its_slower_stage_or_loses_to_sequential() {
        let s1: Vec<SimTime> = (0..30).map(|i| t(50 + i * 7)).collect();
        let s2: Vec<SimTime> = (0..30).map(|i| t(200 - i * 3)).collect();
        let piped = two_stage_pipeline(&s1, &s2);
        let (sum1, sum2): (SimTime, SimTime) = (s1.iter().copied().sum(), s2.iter().copied().sum());
        assert!(piped <= sum1 + sum2);
        assert!(piped >= sum1.max(sum2));
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn mismatched_lengths_panic() {
        let _ = two_stage_pipeline(&[t(1)], &[]);
    }
}
