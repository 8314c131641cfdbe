//! Host clock and order statistics.

/// A running host wall-clock timer. The benchmark measures the simulator's
/// host cost, so this is the one place it reads the clock; nothing read here
/// feeds a simulated result.
#[derive(Debug, Clone, Copy)]
// kelp-lint: allow(KL-D02): the benchmark's own stopwatch; host wall time is what it measures.
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts a timer now.
    pub fn start() -> Self {
        // kelp-lint: allow(KL-D02): the benchmark's own stopwatch; host wall time is what it measures.
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since [`Stopwatch::start`] (saturating).
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation between
/// closest ranks; NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    match (sorted.get(lo), sorted.get(hi)) {
        (Some(&a), Some(&b)) => a + (b - a) * (rank - lo as f64),
        _ => f64::NAN,
    }
}

/// The median of `values`; NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 99.0), 100.0);
        assert_eq!(percentile(&xs, 100.0), 101.0);
        assert_eq!(percentile(&[1.0, 2.0], 25.0), 1.25);
        assert_eq!(percentile(&[5.0, 1.0], 150.0), 5.0);
    }
}
