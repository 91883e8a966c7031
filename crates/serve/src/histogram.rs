//! Streaming per-function input histograms — the serving-side half of
//! the adaptive retuning loop.
//!
//! Every registered function carries a fixed-bucket histogram of the
//! raw inputs its flushes evaluate, accumulated by the worker pool
//! alongside [`crate::BackendStatsSnapshot`]. The bucket range is
//! pinned at registration to the compiled table's breakpoint span and
//! **survives publishes**, so snapshots taken before and after a
//! hot-swap stay mergeable and comparable — exactly what a drift
//! detector needs to compare live traffic against a tuning-time
//! reference.
//!
//! Two read paths ([`crate::FunctionRegistry::input_histogram`] /
//! [`crate::FunctionRegistry::drain_input_histogram`]) expose the
//! counts: cumulative-since-registration, or snapshot-and-reset for
//! windowed drift scoring. Counts are plain sums, so any partitioning
//! of the same jobs into flushes yields identical totals — histogram
//! state after a quiesced batch of traffic is a pure function of the
//! submitted payloads, which is what makes recorded-trace replays
//! reproduce drift decisions bit-for-bit.

use flexsfu_core::Element;
use std::sync::Mutex;

/// Bucket count every registry histogram uses. Fixed (rather than
/// configurable per function) so snapshots from different entries, and
/// from before/after a publish, always have the same shape and merge
/// without resampling.
pub const INPUT_HIST_BUCKETS: usize = 64;

/// A point-in-time reading of one function's input histogram:
/// `counts[i]` tallies inputs in the `i`-th of equal-width buckets over
/// `[lo, hi)`, with out-of-range and non-finite mass tracked separately
/// so the in-range shape is never polluted by outliers.
#[derive(Debug, Clone, PartialEq)]
pub struct InputHistogramSnapshot {
    /// Inclusive lower edge of bucket 0.
    pub lo: f64,
    /// Exclusive upper edge of the last bucket.
    pub hi: f64,
    /// Per-bucket tallies, equal width over `[lo, hi)`.
    pub counts: Vec<u64>,
    /// Inputs (including `-inf`) below `lo`.
    pub below: u64,
    /// Inputs (including `+inf`) at or above `hi`.
    pub above: u64,
    /// NaN inputs — neither below nor above, but still observed.
    pub nan: u64,
}

impl InputHistogramSnapshot {
    /// An empty histogram over `[lo, hi)` with `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`, or `lo`/`hi` are not finite with
    /// `lo < hi` — a histogram with no interior cannot classify
    /// anything.
    pub fn empty(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "histogram range must be finite and non-empty (got [{lo}, {hi}))"
        );
        Self {
            lo,
            hi,
            counts: vec![0; buckets],
            below: 0,
            above: 0,
            nan: 0,
        }
    }

    /// Total observations, including out-of-range and NaN mass.
    pub fn total(&self) -> u64 {
        self.in_range() + self.below + self.above + self.nan
    }

    /// Observations that landed in a bucket.
    pub fn in_range(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The bucket index `x` falls in, or `None` for out-of-range / NaN.
    pub fn bucket_of(&self, x: f64) -> Option<usize> {
        if !(x >= self.lo && x < self.hi) {
            return None;
        }
        let n = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        // `x < hi` guarantees t < 1.0 mathematically, but the division
        // can round up to exactly 1.0 for x just under hi — clamp.
        Some(((t * n as f64) as usize).min(n - 1))
    }

    /// Tallies one observation.
    pub fn record(&mut self, x: f64) {
        if let Some(b) = self.bucket_of(x) {
            self.counts[b] += 1;
        } else if x.is_nan() {
            self.nan += 1;
        } else if x < self.lo {
            self.below += 1;
        } else {
            self.above += 1;
        }
    }

    /// Tallies a slice of observations.
    pub fn record_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.record(x);
        }
    }

    /// Adds `other`'s tallies into `self`. Histograms are mergeable
    /// only when their shapes match — merging windows from the same
    /// function is always safe because the registry pins the range at
    /// registration.
    ///
    /// # Panics
    ///
    /// Panics on mismatched range or bucket count.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "cannot merge histograms with different shapes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.below += other.below;
        self.above += other.above;
        self.nan += other.nan;
    }

    /// Per-bucket counts with the out-of-range mass folded into the
    /// edge buckets — the clamped view a weighting or drift score uses,
    /// so tail mass beyond the table's span still registers as "lots of
    /// traffic at the edge" instead of vanishing. NaN mass is excluded.
    pub fn clamped_counts(&self) -> Vec<u64> {
        let mut c = self.counts.clone();
        if let Some(first) = c.first_mut() {
            *first += self.below;
        }
        if let Some(last) = c.last_mut() {
            *last += self.above;
        }
        c
    }

    /// Clamped per-bucket probability masses (summing to 1.0), or all
    /// zeros when the histogram is empty.
    pub fn density(&self) -> Vec<f64> {
        let clamped = self.clamped_counts();
        let total: u64 = clamped.iter().sum();
        if total == 0 {
            return vec![0.0; clamped.len()];
        }
        clamped.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// Resets all tallies, keeping the shape.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.below = 0;
        self.above = 0;
        self.nan = 0;
    }
}

/// The thread-safe accumulator a registry entry owns and flush units
/// carry — workers feed it, readers snapshot or drain it. One mutex
/// acquisition per flush (not per element).
pub(crate) struct HistogramAccum(Mutex<InputHistogramSnapshot>);

impl HistogramAccum {
    pub(crate) fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        Self(Mutex::new(InputHistogramSnapshot::empty(lo, hi, buckets)))
    }

    /// Tallies a flush's inputs; f32 inputs widen to f64 exactly.
    pub(crate) fn record<T: Element>(&self, xs: &[T]) {
        let mut h = self.0.lock().unwrap();
        for &x in xs {
            h.record(x.to_f64());
        }
    }

    pub(crate) fn snapshot(&self) -> InputHistogramSnapshot {
        self.0.lock().unwrap().clone()
    }

    pub(crate) fn drain(&self) -> InputHistogramSnapshot {
        let mut h = self.0.lock().unwrap();
        let out = h.clone();
        h.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_range_without_gaps() {
        let h = InputHistogramSnapshot::empty(-8.0, 8.0, 64);
        assert_eq!(h.bucket_of(-8.0), Some(0));
        assert_eq!(h.bucket_of(8.0), None);
        assert_eq!(h.bucket_of(7.999_999_999), Some(63));
        assert_eq!(h.bucket_of(0.0), Some(32));
        // Every sampled point lands in exactly one bucket.
        for i in 0..=1000 {
            let x = -8.0 + 16.0 * (i as f64 / 1000.0);
            if x < 8.0 {
                assert!(h.bucket_of(x).is_some(), "x = {x} unclassified");
            }
        }
    }

    #[test]
    fn out_of_range_and_nan_mass_tracked_separately() {
        let mut h = InputHistogramSnapshot::empty(0.0, 1.0, 4);
        h.record_slice(&[-1.0, f64::NEG_INFINITY, 2.0, f64::INFINITY, f64::NAN, 0.5]);
        assert_eq!(h.below, 2);
        assert_eq!(h.above, 2);
        assert_eq!(h.nan, 1);
        assert_eq!(h.in_range(), 1);
        assert_eq!(h.total(), 6);
        let clamped = h.clamped_counts();
        assert_eq!(clamped[0], 2);
        assert_eq!(clamped[3], 2);
        // Density over clamped counts sums to 1 and excludes NaN mass.
        let d = h.density();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_count_addition() {
        let mut a = InputHistogramSnapshot::empty(-1.0, 1.0, 8);
        let mut b = InputHistogramSnapshot::empty(-1.0, 1.0, 8);
        a.record_slice(&[-0.5, 0.0, 0.5]);
        b.record_slice(&[0.0, 0.9, 5.0]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total());
        assert_eq!(merged.above, 1);
        // Merge order never matters (counts commute).
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(merged, other_way);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = InputHistogramSnapshot::empty(-1.0, 1.0, 8);
        let b = InputHistogramSnapshot::empty(-2.0, 2.0, 8);
        a.merge(&b);
    }

    #[test]
    fn accum_drain_resets_but_keeps_shape() {
        let acc = HistogramAccum::new(-4.0, 4.0, 16);
        acc.record(&[0.0f64, 1.0, 2.0]);
        acc.record(&[-1.0f32, -2.0]);
        let first = acc.drain();
        assert_eq!(first.total(), 5);
        let second = acc.snapshot();
        assert_eq!(second.total(), 0);
        assert_eq!(second.lo, first.lo);
        assert_eq!(second.counts.len(), first.counts.len());
    }
}
