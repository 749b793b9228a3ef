//! The estimators every reported number goes through.
//!
//! A timed end-to-end value is `LH(samples) * REF_NOMINAL / LH(ref)`: the
//! mean of the fastest half of identical-work samples, divided by the same
//! statistic of the reference kernel interleaved in the same run (see
//! `README.md`, "Normalisation"). The raw median and the tail percentile
//! are printed beside it as diagnostics.

/// Mean of the fastest `ceil(n/2)` samples. Interference on a shared host
/// only ever adds time, so the fast half of many identical samples
/// estimates the undisturbed machine.
pub fn lower_half_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let keep = s.len().div_ceil(2);
    s[..keep].iter().sum::<f64>() / keep as f64
}

/// Median (mean of the two middle values for even `n`).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)`, or `None` below 20 samples, where that rule
/// would name a percentile under the median. With `n` samples the value is
/// the `(n - 10)`-th order statistic, i.e. percentile `100 (n - 10) / n`.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = n - 11; // ten samples lie strictly beyond this one
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

/// First and third quartile by the "exclusive" method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so `--repeat` computes the
/// same spread the driver does.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (q(1), q(3))
}

/// Spread statistics of one metric over repeated runs.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(max - min) / median`.
    pub range_frac: f64,
    /// `(q3 - q1) / median`, the driver's acceptance statistic.
    pub iqr_frac: f64,
    /// Standard deviation over mean.
    pub cv: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    let med = median(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (q1, q3) = quartiles(values);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
        / (values.len() as f64 - 1.0).max(1.0);
    Spread {
        min,
        median: med,
        max,
        q1,
        q3,
        range_frac: (max - min) / med,
        iqr_frac: (q3 - q1) / med,
        cv: var.sqrt() / mean,
    }
}

/// One timing line: the compared value plus its diagnostics.
#[derive(Clone, Debug)]
pub struct Timing {
    /// `LH(samples) / host factor` — the compared value.
    pub value: f64,
    /// Lower-half mean before normalisation.
    pub raw_lh: f64,
    pub raw_median: f64,
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

/// Reduce identical-work `samples` against the run's host factor
/// (`LH(ref) / REF_NOMINAL`).
pub fn timing(samples: &[f64], host_factor: f64) -> Timing {
    let raw_lh = lower_half_mean(samples);
    Timing {
        value: raw_lh / host_factor,
        raw_lh,
        raw_median: median(samples),
        tail: tail_percentile(samples),
        n: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_half_mean_takes_the_fastest_ceil_half() {
        // 5 samples -> fastest 3; the two slow outliers never enter.
        assert_eq!(lower_half_mean(&[9.0, 1.0, 2.0, 100.0, 3.0]), 2.0);
        // 4 samples -> fastest 2.
        assert_eq!(lower_half_mean(&[4.0, 1.0, 3.0, 2.0]), 1.5);
        assert_eq!(lower_half_mean(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert!(tail_percentile(&[1.0; 19]).is_none());
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v) = tail_percentile(&s).unwrap();
        assert_eq!(v, 30.0, "ten of forty samples (31..=40) lie beyond");
        assert_eq!(p, 75.0);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail_percentile(&s).unwrap();
        assert_eq!((p, v), (99.0, 990.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn timing_divides_by_the_host_factor() {
        let t = timing(&[2.0, 2.0, 2.0, 2.0, 50.0], 2.0);
        assert_eq!(t.raw_lh, 2.0);
        assert_eq!(t.value, 1.0);
        assert_eq!(t.n, 5);
    }
}
