//! Online statistics.
//!
//! The evaluation reports means, harmonic means and percentiles (95 %-ile
//! tail latency for RNN1, 99 %-ile fleet bandwidth for Figure 2). This
//! module provides:
//!
//! * [`OnlineStats`] — Welford mean/variance, min/max, counts.
//! * [`SampleSet`] — exact percentile computation over retained samples.
//! * [`P2Quantile`] — the P² streaming quantile estimator (constant memory).

use serde::{Deserialize, Serialize};

/// Welford-style online mean / variance accumulator.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum_reciprocal: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum_reciprocal: 0.0,
        }
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x > 0.0 {
            self.sum_reciprocal += 1.0 / x;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Harmonic mean over the positive observations (0 when none).
    ///
    /// The paper averages CPU-task throughput with the harmonic mean
    /// (Figure 13 caption).
    pub fn harmonic_mean(&self) -> f64 {
        if self.count == 0 || self.sum_reciprocal <= 0.0 {
            0.0
        } else {
            self.count as f64 / self.sum_reciprocal
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum_reciprocal += other.sum_reciprocal;
    }
}

/// Exact percentile computation over a retained sample buffer.
///
/// Samples are kept until queried; a percentile query selects its order
/// statistics from a scratch copy, in linear time rather than a sort's
/// `n log n`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleSet {
    samples: Vec<f64>,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
        }
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Exact `q`-quantile with linear interpolation, `q` in `[0, 1]`.
    ///
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_by_selection(&mut self.samples.clone(), q)
    }

    /// Convenience: the 95th percentile (RNN1 tail latency metric).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile (Figure 2 fleet metric).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Clears all retained samples.
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

/// Where the `q`-quantile of `n > 0` sorted values falls: the ranks of the
/// two order statistics it interpolates between, and the weight of the
/// upper one.
fn quantile_ranks(n: usize, q: f64) -> (usize, usize, f64) {
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// Quantile of an already-sorted slice with linear interpolation.
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let (lo, hi, frac) = quantile_ranks(sorted.len(), q);
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// [`quantile_of_sorted`] of `samples` sorted by `total_cmp`, bit for bit,
/// without the sort: selects the lower order statistic, then takes the
/// minimum of the values above it for the upper one. Reorders `samples`.
pub(crate) fn quantile_by_selection(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let (lo, hi, frac) = quantile_ranks(samples.len(), q);
    let (_, &mut low, above) = samples.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return low;
    }
    let high = above.iter().copied().min_by(f64::total_cmp).unwrap_or(low);
    low * (1.0 - frac) + high * frac
}

/// P² streaming quantile estimator (Jain & Chlamtac, 1985).
///
/// Tracks a single quantile in constant memory. Used for long-running
/// simulations where retaining every latency sample would be wasteful.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    count: usize,
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not strictly between 0 and 1.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(|a, b| a.total_cmp(b));
                for (h, v) in self.heights.iter_mut().zip(&self.initial) {
                    *h = *v;
                }
            }
            return;
        }

        // Find cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // The two guards above pin x into [h0, h4); the top cell is a
            // total fallback should a NaN ever slip through the comparisons.
            (0..4).find(|&i| x < self.heights[i + 1]).unwrap_or(3)
        };

        for pos in self.positions.iter_mut().skip(k + 1) {
            *pos += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let candidate = self.parabolic(i, sign);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, sign)
                    };
                self.heights[i] = new_height;
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + sign / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + sign) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - sign) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = (i as f64 + sign) as usize;
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate.
    ///
    /// Before five samples have been seen, falls back to the exact quantile
    /// of the initial buffer.
    pub fn estimate(&self) -> f64 {
        if self.initial.len() < 5 {
            if self.initial.is_empty() {
                return 0.0;
            }
            let mut sorted = self.initial.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            return quantile_of_sorted(&sorted, self.q);
        }
        self.heights[2]
    }

    /// Number of recorded observations.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Harmonic mean of a slice, ignoring non-positive entries.
///
/// Returns 0 when no positive entries exist.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    let mut n = 0u64;
    let mut sum = 0.0;
    for &v in values {
        if v > 0.0 && v.is_finite() {
            n += 1;
            sum += 1.0 / v;
        }
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / sum
    }
}

/// Arithmetic mean of a slice (0 when empty), ignoring non-finite entries.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        0.0
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_ignores_non_finite() {
        let mut s = OnlineStats::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn online_stats_harmonic_mean() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 4.0] {
            s.record(x);
        }
        // 3 / (1 + 0.5 + 0.25) = 12/7
        assert!((s.harmonic_mean() - 12.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let mut rng = SimRng::seed_from(3);
        let xs: Vec<f64> = (0..500).map(|_| rng.uniform(0.0, 10.0)).collect();
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            all.record(x);
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn sample_set_quantiles_exact() {
        let mut s = SampleSet::new();
        for x in 1..=100 {
            s.record(x as f64);
        }
        assert!((s.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.quantile(1.0) - 100.0).abs() < 1e-12);
        assert!((s.quantile(0.5) - 50.5).abs() < 1e-12);
        assert!((s.p95() - 95.05).abs() < 1e-9);
    }

    #[test]
    fn quantile_by_selection_equals_sorting_bit_for_bit() {
        let mut rng = SimRng::seed_from(7);
        // Drawing half the values from a small pool forces duplicates and
        // mixes the two zeros, which `total_cmp` orders apart.
        let pool = [0.0, -0.0, 1.0, -1.0, 0.5, 2.5e-3, 1e300, -1e-300];
        assert_eq!(quantile_by_selection(&mut [], 0.5), 0.0);
        for case in 0..600 {
            let len = match case % 4 {
                0 => 1,
                1 => 2,
                _ => 1 + (rng.next_u64() % 300) as usize,
            };
            let samples: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.chance(0.5) {
                        pool[(rng.next_u64() % pool.len() as u64) as usize]
                    } else {
                        rng.normal(0.0, 1.0)
                    }
                })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0, rng.next_f64()] {
                let want = quantile_of_sorted(&sorted, q);
                let got = quantile_by_selection(&mut samples.clone(), q);
                assert_eq!(got.to_bits(), want.to_bits(), "q {q} of {samples:?}");
            }
        }
    }

    #[test]
    fn sample_set_empty_is_zero() {
        let s = SampleSet::new();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn p2_tracks_uniform_median() {
        let mut rng = SimRng::seed_from(42);
        let mut p2 = P2Quantile::new(0.5);
        for _ in 0..50_000 {
            p2.record(rng.next_f64());
        }
        assert!((p2.estimate() - 0.5).abs() < 0.02, "{}", p2.estimate());
    }

    #[test]
    fn p2_tracks_exponential_p95() {
        let mut rng = SimRng::seed_from(43);
        let mut p2 = P2Quantile::new(0.95);
        let mut exact = SampleSet::new();
        for _ in 0..50_000 {
            let x = rng.exponential(1.0);
            p2.record(x);
            exact.record(x);
        }
        let truth = exact.p95();
        assert!(
            (p2.estimate() - truth).abs() / truth < 0.05,
            "p2 {} vs exact {truth}",
            p2.estimate()
        );
    }

    #[test]
    fn p2_few_samples_falls_back_to_exact() {
        let mut p2 = P2Quantile::new(0.5);
        p2.record(3.0);
        p2.record(1.0);
        p2.record(2.0);
        assert!((p2.estimate() - 2.0).abs() < 1e-12);
        assert_eq!(p2.count(), 3);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1)")]
    fn p2_rejects_bad_quantile() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn helper_means() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[1.0, 2.0, 4.0]) - 12.0 / 7.0).abs() < 1e-12);
        assert!((arithmetic_mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(arithmetic_mean(&[f64::NAN]), 0.0);
        // non-positive values ignored by harmonic mean
        assert!((harmonic_mean(&[1.0, 0.0, -3.0]) - 1.0).abs() < 1e-12);
    }
}
