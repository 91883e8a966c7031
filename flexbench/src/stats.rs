//! Percentiles that carry their sample count and refuse to be read from
//! too few samples.

use std::fmt;

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, with the counts it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// A percentile that was refused because too few samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TooFewSamples {
    /// The quantile asked for, in `(0, 1)`.
    pub q: f64,
    /// Samples available.
    pub samples: usize,
    /// Samples that would have been beyond its rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} refused: {} samples, {} beyond its rank (need {MIN_BEYOND})",
            self.q * 100.0,
            self.samples,
            self.beyond
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// The nearest-rank `q`-quantile of `values` (any order).
///
/// # Errors
///
/// [`TooFewSamples`] when fewer than [`MIN_BEYOND`] samples lie above
/// the quantile's rank.
pub fn percentile(values: &[f64], q: f64) -> Result<Percentile, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1), got {q}");
    let samples = values.len();
    let rank = ((q * samples as f64).ceil() as usize).max(1) - 1;
    let beyond = samples.saturating_sub(rank + 1);
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { q, samples, beyond });
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank],
        samples,
        beyond,
    })
}

/// The median of a small set of repeats (set-up times), averaging the
/// middle pair of an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; zero for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile(&thousand, 0.99).expect("1000 samples support p99");
        assert_eq!((p.value, p.samples, p.beyond), (989.0, 1000, 10));

        let err = percentile(&thousand[..999], 0.99).expect_err("999 leave 9 beyond");
        assert_eq!((err.samples, err.beyond), (999, 9));
    }

    #[test]
    fn median_reports_its_count() {
        let p = percentile(&[5.0, 1.0, 3.0, 2.0, 4.0].repeat(5), 0.5).expect("25 samples");
        assert_eq!((p.value, p.samples, p.beyond), (3.0, 25, 12));
        assert!(percentile(&[1.0; 5], 0.5).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
