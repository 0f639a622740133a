//! Order statistics used for every reported timing.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread printed here matches the one the acceptance check
/// computes over whole runs. A single value is its own quartiles;
/// `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((v[0], v[0]));
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest percentile that still has at least ten samples beyond
/// it: the order statistic with exactly ten larger samples, i.e. the
/// nearest-rank percentile `100 * (n - 10) / n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Its percentile label; `None` when fewer than eleven samples exist
    /// and the value is the maximum instead.
    pub percentile: Option<f64>,
    /// Sample count.
    pub samples: usize,
}

/// Tail of `values` (see [`Tail`]). With fewer than eleven samples no
/// percentile has ten beyond it, and the maximum is reported, labelled
/// as such. `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n >= 11 {
        Tail {
            value: v[n - 11],
            percentile: Some(100.0 * (n - 10) as f64 / n as f64),
            samples: n,
        }
    } else {
        Tail {
            value: v[n - 1],
            percentile: None,
            samples: n,
        }
    })
}

impl Tail {
    /// `p98.9 (n=912)` or `max (n=7, fewer than 11 samples)`.
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) => format!("p{p:.1} (n={})", self.samples),
            None => format!("max (n={}, fewer than 11 samples)", self.samples),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, Some(90.0));
        assert_eq!(t.samples, 100);

        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, Some(99.0));

        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1.0);
        assert!(t.label().starts_with("p9.1 (n=11)"));
    }

    #[test]
    fn tail_of_a_small_sample_is_the_labelled_maximum() {
        let t = tail(&[3.0, 9.0, 1.0]).unwrap();
        assert_eq!(t.value, 9.0);
        assert_eq!(t.percentile, None);
        assert!(t.label().starts_with("max (n=3"));
        assert_eq!(tail(&[]), None);
    }
}
