//! Order statistics over timing samples.
//!
//! A tail percentile is only reported when at least [`MIN_TAIL`]
//! samples lie beyond it; with fewer, one outlier moves the value and
//! the number says nothing about the tail.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q` quantile (`0.0..=1.0`), linearly interpolated between the
    /// two nearest ranks; `None` for an empty set.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let last = self.0.len().checked_sub(1)?;
        let rank = q.clamp(0.0, 1.0) * last as f64;
        let below = rank.floor() as usize;
        let above = rank.ceil() as usize;
        let weight = rank - below as f64;
        Some(self.0[below] * (1.0 - weight) + self.0[above] * weight)
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The `q` quantile for `q > 0.5`, refused (with the shortfall as the
    /// error) unless at least [`MIN_TAIL`] samples lie beyond it.
    pub fn tail(&self, q: f64) -> Result<f64, String> {
        // Samples ranked strictly above the interpolation point.
        let rank = q * self.0.len().saturating_sub(1) as f64;
        let beyond = self
            .0
            .len()
            .saturating_sub(1 + (rank + 1e-9).floor() as usize);
        if beyond < MIN_TAIL {
            return Err(format!(
                "p{:.0} of {} samples has {beyond} samples beyond it; at least {MIN_TAIL} are needed",
                q * 100.0,
                self.0.len()
            ));
        }
        Ok(self.quantile(q).expect("a set with a tail is non-empty"))
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Median of a small set of repeated measurements (set-up times).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(samples.quantile(0.0), Some(1.0));
        assert_eq!(samples.quantile(1.0), Some(4.0));
        assert_eq!(samples.median(), Some(2.5));
        assert_eq!(Samples::new(Vec::new()).median(), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of 91 samples sits on rank 81 with 9 ranks above: refused.
        let short = Samples::new((0..91).map(f64::from).collect());
        assert!(short.tail(0.9).is_err());
        // p90 of 100 samples sits between ranks 89 and 90: 10 beyond.
        let enough = Samples::new((0..100).map(f64::from).collect());
        let p90 = enough.tail(0.9).unwrap();
        assert!((p90 - 89.1).abs() < 1e-9, "{p90}");
        // p99 needs about 1000 samples.
        assert!(enough.tail(0.99).is_err());
        assert!(Samples::new(vec![0.0; 1000]).tail(0.99).is_ok());
        assert!(Samples::new(Vec::new()).tail(0.9).is_err());
    }
}
