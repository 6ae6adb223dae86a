//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least ten samples lie beyond it, so a p99 needs
//! a thousand samples and a median twenty.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (0 < p < 1) of `samples` by nearest rank, or an error
/// naming the shortfall when fewer than [`MIN_BEYOND`] samples lie beyond
/// it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return Err(format!("percentile {p} of {n} samples is undefined"));
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of any non-empty sample set (no tail rule: used for set-up
/// repetitions and offline re-timings, which are few by design).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of a sample set (NaN when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` operations of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad.min(n);
    }

    /// Share of attempted operations that failed (0 when none attempted).
    pub fn failed_share(&self) -> f64 {
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
    fn percentile_refuses_fewer_than_ten_beyond() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            percentile(&s, 0.99).is_err(),
            "999 samples leave 9 beyond p99"
        );
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Ok(990.0));
        assert!(percentile(&s[..19], 0.5).is_err());
        assert_eq!(percentile(&s[..20], 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn failed_share_arithmetic() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        t.check(true);
        t.check(false);
        t.add(8, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert!((t.failed_share() - 0.2).abs() < 1e-12);
        t.add(2, 5);
        assert_eq!(
            t.failed, 4,
            "a batch cannot fail more operations than it has"
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
