//! Order statistics on one documented scale.
//!
//! A percentile `p` is always a number in `0.0..=100.0` (`50.0` is the
//! median, `99.0` the 99th percentile), never a fraction in `0..1`. The
//! definition is nearest-rank: the `p`-th percentile of `n` samples is the
//! sample at rank `ceil(p / 100 * n)` (clamped to `1..=n`) in sorted order,
//! so it is always one of the measured values. An empty sample set, or a
//! `p` outside the scale, is an error rather than a silent 0.

use std::fmt;

/// Why an order statistic could not be taken.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples were recorded.
    Empty,
    /// `p` was outside `0.0..=100.0` (or NaN).
    OutOfScale(f64),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "percentile of an empty sample set"),
            StatsError::OutOfScale(p) => {
                write!(f, "percentile {p} is outside the 0..=100 scale")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Nearest-rank percentile; `p` in `0.0..=100.0`.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::OutOfScale(p));
    }
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, n) - 1])
}

/// The nearest-rank median (`percentile(samples, 50.0)`).
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    percentile(samples, 50.0)
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The tail percentile a run of `n` samples can support: the highest whole
/// percentile, capped at 99, that leaves at least ten samples beyond it.
/// Runs of fewer than 20 samples cannot place any tail percentile at or
/// above the median that way; for them the tail is the slowest sample
/// (`100.0`).
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        return 100.0;
    }
    let mut p = 99usize.min(100 * (n - 10) / n);
    // Nearest rank rounds up; step down until ten samples really lie beyond.
    while p > 50 && n - ((p * n).div_ceil(100)) < 10 {
        p -= 1;
    }
    p as f64
}

/// Windows a run's samples are split into for [`windowed_tail`].
pub const TAIL_WINDOWS: usize = 4;

/// A run's tail, robust to short bursts of interference: the samples (in
/// the order they were taken) are cut into [`TAIL_WINDOWS`] consecutive
/// windows, each window's tail is taken at [`tail_percentile`] of its
/// length, and the (nearest-rank, so lower) median of the window tails is
/// returned with the percentile used in the first window. Two disturbed
/// windows out of four do not move it.
pub fn windowed_tail(samples: &[f64]) -> Result<(f64, f64), StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    let windows = TAIL_WINDOWS.min(samples.len());
    let len = samples.len() / windows;
    let mut tails = Vec::with_capacity(windows);
    let mut first_p = 100.0;
    for w in 0..windows {
        // The last window takes the remainder.
        let end = if w + 1 == windows {
            samples.len()
        } else {
            (w + 1) * len
        };
        let win = &samples[w * len..end];
        let p = tail_percentile(win.len());
        if w == 0 {
            first_p = p;
        }
        tails.push(percentile(win, p)?);
    }
    Ok((median(&tails)?, first_p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_pins_p50_and_p99_of_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(50.0));
        assert_eq!(percentile(&xs, 99.0), Ok(99.0));
        assert_eq!(percentile(&xs, 100.0), Ok(100.0));
        assert_eq!(percentile(&xs, 0.0), Ok(1.0));
        assert_eq!(median(&xs), Ok(50.0));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Ok(99.0));
    }

    #[test]
    fn empty_samples_are_an_error() {
        assert_eq!(percentile(&[], 50.0), Err(StatsError::Empty));
        assert_eq!(median(&[]), Err(StatsError::Empty));
        assert_eq!(mean(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn fractions_are_rejected_only_when_off_the_scale() {
        // 0.99 is a valid (tiny) percentile on the 0..=100 scale: it is
        // the first sample, never the 99th percentile.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Ok(1.0));
        assert_eq!(percentile(&xs, 101.0), Err(StatsError::OutOfScale(101.0)));
        assert!(percentile(&xs, f64::NAN).is_err());
        assert_eq!(percentile(&xs, -1.0), Err(StatsError::OutOfScale(-1.0)));
    }

    #[test]
    fn windowed_tail_ignores_two_disturbed_windows() {
        // 4 windows of 1200; two of them have a burst of 30 slow samples.
        let mut xs: Vec<f64> = (0..4800).map(|i| f64::from(i % 100)).collect();
        for start in [1200, 3600] {
            xs[start..start + 30].fill(1000.0);
        }
        let (tail, p) = windowed_tail(&xs).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(tail, 98.0);
        // Few samples: each window's tail is its slowest sample; windows
        // [1], [5], [2], [3, 4, 9] give tails 1, 5, 2, 9, median 2.
        let (tail, p) = windowed_tail(&[1.0, 5.0, 2.0, 3.0, 4.0, 9.0]).unwrap();
        assert_eq!(p, 100.0);
        assert_eq!(tail, 2.0);
        assert_eq!(windowed_tail(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(2000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(500), 98.0);
        assert_eq!(tail_percentile(5), 100.0);
        for n in 20..3000 {
            let p = tail_percentile(n);
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= 10 || p == 50.0, "n={n} p={p}");
        }
    }
}
