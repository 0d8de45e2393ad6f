//! Order statistics and ratio summaries.

/// Median (mean of the two middle values for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, the rule the benchmark's spread
/// gate uses. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let v = sorted(xs);
    let n = v.len() as f64;
    let at = |k: f64| {
        let m = k * (n + 1.0) / 4.0;
        let j = (m.floor() as usize).clamp(1, v.len() - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1.0), at(3.0)))
}

/// The highest percentile that still has at least `beyond` samples above
/// it, with its value: the sorted sample at rank `n - beyond` (1-based)
/// is exceeded by exactly `beyond` samples, and sits at percentile
/// `100 * (n - beyond) / n`. `None` when there are not more than
/// `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    if xs.len() <= beyond {
        return None;
    }
    let v = sorted(xs);
    let rank = v.len() - beyond;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / v.len() as f64,
        samples: v.len(),
        beyond,
    })
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Geometric mean of `new / old` over the pairs with both sides
/// positive, as Table III averages its improvement ratios; 1 when no
/// pair qualifies.
pub fn geomean_ratio(pairs: &[(f64, f64)]) -> f64 {
    let logs: Vec<f64> = pairs
        .iter()
        .filter(|&&(new, old)| new > 0.0 && old > 0.0)
        .map(|&(new, old)| (new / old).ln())
        .collect();
    if logs.is_empty() {
        1.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        // 30 is exceeded by 31..=40, exactly ten samples.
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), t.beyond);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev, 10), Some(t));
        // With 11 samples only the minimum has ten beyond it.
        let t = tail(&xs[..11], 10).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        assert!(tail(&xs[..10], 10).is_none());
    }

    #[test]
    fn geomean_ratios() {
        assert!((geomean_ratio(&[(1.0, 2.0), (4.0, 2.0)]) - 1.0).abs() < 1e-12);
        assert!((geomean_ratio(&[(1.0, 4.0), (1.0, 1.0)]) - 0.5).abs() < 1e-12);
        assert!((geomean_ratio(&[(2.0, 4.0), (0.0, 3.0), (5.0, 0.0)]) - 0.5).abs() < 1e-12);
        assert_eq!(geomean_ratio(&[]), 1.0);
    }
}
