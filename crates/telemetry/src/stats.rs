//! Latency summaries: percentile estimation over recorded samples.
//!
//! The solver daemon records one sample per request per phase (queue,
//! setup, solve) and publishes p50/p90/p99 gauges from them at report
//! time. The estimator is the *nearest-rank on a sorted copy* definition
//! — deterministic, exact for the sample set (no streaming sketch), and
//! cheap at the sample counts a single daemon sees.

/// The quantiles the daemon publishes for every latency phase.
pub const SUMMARY_QUANTILES: [(u32, f64); 3] = [(50, 0.50), (90, 0.90), (99, 0.99)];

/// Nearest-rank percentile of `samples` (q in `[0, 1]`): the smallest
/// sample such that at least `q · n` samples are ≤ it. Returns `None`
/// for an empty slice. NaN samples sort last and are never selected
/// unless every sample is NaN.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Less));
    let q = q.clamp(0.0, 1.0);
    // Nearest rank: ceil(q * n), 1-based; q = 0 maps to the minimum.
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_percentile() {
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.0], q), Some(7.0));
        }
    }

    #[test]
    fn nearest_rank_definition() {
        // Classic nearest-rank worked example: 5 sorted samples.
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.05), Some(15.0));
        assert_eq!(percentile(&s, 0.30), Some(20.0));
        assert_eq!(percentile(&s, 0.40), Some(20.0));
        assert_eq!(percentile(&s, 0.50), Some(35.0));
        assert_eq!(percentile(&s, 1.00), Some(50.0));
    }

    #[test]
    fn order_does_not_matter() {
        let shuffled = [40.0, 15.0, 50.0, 20.0, 35.0];
        assert_eq!(percentile(&shuffled, 0.50), Some(35.0));
        assert_eq!(percentile(&shuffled, 0.99), Some(50.0));
    }

    #[test]
    fn p99_needs_a_hundred_samples_to_leave_the_max() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 0.50), Some(50.0));
    }
}
