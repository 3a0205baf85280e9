//! Order statistics and failure accounting shared by every workload.

/// Median of `values` (mean of the two middle samples for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Mean of `values` after dropping the lowest and the highest
/// `⌊frac·n⌋` of them. Robust to a few extreme values, like a median, but
/// averages the rest instead of picking one sample, so it keeps most of the
/// mean's steadiness and does not jump between the quantized levels of
/// binary images. `None` when nothing is left.
pub fn trimmed_mean(values: &[f64], frac: f64) -> Option<f64> {
    let sorted = sorted(values);
    let cut = (frac * sorted.len() as f64) as usize;
    let kept = sorted.get(cut..sorted.len().saturating_sub(cut)).filter(|k| !k.is_empty())?;
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// A tail percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 100)`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// The highest percentile, at most `cap`, that still has at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond it, with the sample count.
///
/// With `n` samples sorted ascending, the sample at index `i` has `n − 1 − i`
/// samples beyond it, so the highest admissible index is `n − 1 − 10` and
/// its percentile is `100·i/(n − 1)`. Fewer than 11 samples admit no tail.
pub fn tail(values: &[f64], cap: f64) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let highest = n - 1 - TAIL_MIN_BEYOND;
    // Nearest-rank index of the capped percentile, never above `highest`.
    let capped = ((cap / 100.0) * (n - 1) as f64).floor() as usize;
    let index = highest.min(capped);
    Some(Tail {
        percentile: 100.0 * index as f64 / (n - 1) as f64,
        value: sorted[index],
        samples: n,
    })
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Operations attempted and failed. An operation fails when the call
/// returns an error or when any correctness check on its output does not
/// hold; both count the same and neither is ever dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored or violated a check.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it passed every check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        assert_eq!(trimmed_mean(&[], 0.1), None);
        assert_eq!(trimmed_mean(&[5.0], 0.1), Some(5.0));
        assert_eq!(trimmed_mean(&[1.0, 2.0], 0.5), None);
        // 10 values at 10 %: the lowest and the highest one are dropped.
        let v = [1e9, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -1e9];
        assert_eq!(trimmed_mean(&v, 0.1), Some(4.5));
        assert_eq!(trimmed_mean(&v[1..9], 0.0), Some(4.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 10 samples: no index has ten samples beyond it.
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten, 99.0), None);
        // 11 samples: only the minimum has ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven, 99.0), Some(Tail { percentile: 0.0, value: 0.0, samples: 11 }));
    }

    #[test]
    fn tail_reports_highest_admissible_percentile() {
        // 101 samples 0..=100: index 90 has exactly ten beyond it.
        let v: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!(t, Tail { percentile: 90.0, value: 90.0, samples: 101 });
        let beyond = v.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_MIN_BEYOND);
    }

    #[test]
    fn tail_is_capped() {
        // 2001 samples: p99 (index 1980) leaves 20 beyond, so the cap binds.
        let v: Vec<f64> = (0..=2000).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 1980.0, 2001));
    }

    #[test]
    fn tally_counts_errors_and_check_violations_alike() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(false);
        assert_eq!(t, Tally { attempted: 4, failed: 2 });
        assert_eq!(t.fail_frac(), 0.5);
    }
}
