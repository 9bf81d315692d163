//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark reports match
//! the ones computed from its printed results. A tail percentile is reported
//! only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples a percentile must have strictly beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median and quartiles of a sample set, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the exclusive method of Python's `statistics.quantiles`.
/// One sample gives that sample for all three; none gives `None`.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let d = sorted(values);
    let n = d.len();
    match n {
        0 => None,
        1 => Some(Summary { q1: d[0], median: d[0], q3: d[0], n }),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            Some(Summary { q1: q(1), median: q(2), q3: q(3), n })
        }
    }
}

/// Nearest-rank percentile `p` (0 < p < 100), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond the selected rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let d = sorted(values);
    let n = d.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let k = rank.clamp(1, n) - 1;
    (n - 1 - k >= MIN_BEYOND).then(|| d[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples is the 90th value with 10 beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // 99 samples leave only 9 beyond the 90th percentile.
        assert_eq!(percentile(&v[..99], 90.0), None);
        // p99 needs 1000 samples.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), Some(990.0));
        assert_eq!(percentile(&w[..999], 99.0), None);
        // The median of 21 samples has exactly 10 beyond it; of 19, only 9.
        assert_eq!(percentile(&v[..21], 50.0), Some(11.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 90.0), Some(180.0));
    }
}
