//! The benchmark's own arithmetic: order statistics over repeated
//! samples, guarded ratios, and the failure accounting.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty sample: every metric is measured at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`: the quartile of rank
/// `k * (n + 1) / 4` interpolated between neighbouring order statistics.
/// A single sample is its own quartiles.
///
/// # Panics
/// On an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let (n, q) = (n as i64, 4i64);
    let at = |k: i64| {
        let m = n + 1;
        let j = (k * m / q).clamp(1, n - 1);
        // Ranks outside [1, n] extrapolate from the extreme pair, as
        // Python does.
        let delta = (k * m - j * q) as f64;
        let j = j as usize;
        (v[j - 1] * (q as f64 - delta) + v[j] * delta) / q as f64
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    ratio(q3 - q1, median(xs))
}

/// `num / den`, or 0 when there is nothing to divide by — a counter
/// that is zero on a workload (no events, no touches) yields a zero
/// ratio instead of NaN or infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host nanoseconds per unit of work, 0 when no work was done.
pub fn ns_per(seconds: f64, count: u64) -> f64 {
    ratio(seconds * 1e9, count as f64)
}

/// Operations that trapped, were shed, or failed their check, over
/// operations attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed in any way.
    pub failed: u64,
}

impl Tally {
    /// Count `n` attempts of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        debug_assert!(failed <= n, "{failed} failures out of {n} attempts");
        self.attempted += n;
        self.failed += failed;
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted` (0 before any attempt).
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// True when nothing failed.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_rejects_empty() {
        median(&[]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn ratios_guard_zero_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ns_per(0.5, 1_000_000), 500.0);
        assert_eq!(ns_per(0.5, 0), 0.0);
    }

    #[test]
    fn tally_accounts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(t.ok());
        t.add(6, 0);
        t.add(4, 1);
        assert_eq!((t.attempted, t.failed), (10, 1));
        assert_eq!(t.failed_frac(), 0.1);
        let mut u = Tally::default();
        u.absorb(t);
        u.add(10, 3);
        assert_eq!(u.failed_frac(), 0.2);
        assert!(!u.ok());
    }
}
