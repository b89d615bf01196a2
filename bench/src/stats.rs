//! Medians and weighted percentiles over the bench's own samples.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the figure is one or two outliers, not a percentile.
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least one segment.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Durations with multiplicities: one `(nanoseconds, weight)` entry per
/// engine call, weighted by the number of reports (or operations) the
/// call carried, so percentiles are per report while storage is per call.
#[derive(Clone, Debug, Default)]
pub struct WeightedSamples {
    entries: Vec<(u64, u32)>,
}

impl WeightedSamples {
    /// Records one call of `ns` nanoseconds that carried `weight` samples.
    pub fn record(&mut self, ns: u64, weight: u32) {
        self.entries.push((ns, weight));
    }

    /// Number of calls recorded.
    pub fn calls(&self) -> usize {
        self.entries.len()
    }

    /// Number of samples (sum of weights).
    pub fn samples(&self) -> u64 {
        self.entries.iter().map(|&(_, w)| u64::from(w)).sum()
    }

    /// Forgets everything recorded so far (end of warm-up).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The smallest recorded duration at or above the `p`-quantile
    /// (`0 < p < 1`) of the weighted samples, or `None` when fewer than
    /// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p < 1.0, "percentile must lie strictly between 0 and 1");
        let total = self.samples();
        let rank = (p * total as f64).ceil() as u64;
        if total.saturating_sub(rank) < MIN_TAIL_SAMPLES {
            return None;
        }
        let mut sorted = self.entries.clone();
        sorted.sort_unstable();
        let mut seen = 0u64;
        for (ns, w) in sorted {
            seen += u64::from(w);
            if seen >= rank {
                return Some(ns);
            }
        }
        unreachable!("rank {rank} exceeds the total weight {total}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut s = WeightedSamples::default();
        for i in 1..=1000u64 {
            s.record(i, 1);
        }
        assert_eq!(s.percentile(0.5), Some(500));
        assert_eq!(s.percentile(0.99), Some(990));
        // 1000 samples leave one beyond p99.9: refused.
        assert_eq!(s.percentile(0.999), None);
        let mut few = WeightedSamples::default();
        for i in 1..=19u64 {
            few.record(i, 1);
        }
        // Nine samples beyond the median of 19: refused; a twentieth
        // sample makes it ten.
        assert_eq!(few.percentile(0.5), None);
        few.record(20, 1);
        assert_eq!(few.percentile(0.5), Some(10));
    }

    #[test]
    fn percentile_is_weighted_per_report() {
        let mut s = WeightedSamples::default();
        s.record(10, 90); // one fast call carrying 90 reports
        s.record(1_000, 10); // one slow call carrying 10
        s.record(5_000, 10);
        assert_eq!(s.samples(), 110);
        assert_eq!(s.calls(), 3);
        assert_eq!(s.percentile(0.5), Some(10));
        assert_eq!(s.percentile(0.9), Some(1_000));
    }
}
