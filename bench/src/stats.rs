//! Order statistics of a handful of timing samples.

use pim_exp::json::Json;

/// Median, quartiles, extremes and count of one timing's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN sample: every caller times at
    /// least one rep and `Instant` differences are finite.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("median".into(), Json::Num(self.median)),
            ("q1".into(), Json::Num(self.q1)),
            ("q3".into(), Json::Num(self.q3)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
            ("n".into(), Json::u64(self.n as u64)),
        ])
    }
}

/// The `q`-quantile of an ascending slice, linearly interpolated between
/// the two nearest ranks (rank `q·(n−1)`), so the median of an even count
/// is the mean of the middle pair.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let rank = q * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// Geometric mean of positive values — the cross-cell aggregate of the
/// modeled throughput, so no single fast cell dominates.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for value in values {
        assert!(value > 0.0, "geometric mean needs positive values, got {value}");
        log_sum += value.ln();
        n += 1;
    }
    assert!(n > 0, "geometric mean of nothing");
    (log_sum / f64::from(n)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&odd, 0.0), 1.0);
        assert_eq!(quantile(&odd, 0.25), 2.0);
        assert_eq!(quantile(&odd, 0.5), 3.0);
        assert_eq!(quantile(&odd, 1.0), 5.0);
        let even = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&even, 0.5), 25.0);
        assert_eq!(quantile(&even, 0.25), 17.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0, 7.0, 6.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max, s.n), (1.0, 2.5, 4.0, 5.5, 7.0, 7));
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean([4.0, 0.25]) - 1.0).abs() < 1e-12);
        assert!((geomean([8.0, 2.0]) - 4.0).abs() < 1e-12);
    }
}
