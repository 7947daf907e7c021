//! Interpolated (type-7) quantiles on slices.

/// Type-7 quantile of an **unsorted** sample (the R / NumPy default).
/// Copies and sorts internally; the crate's hot paths sort once and call
/// `quantile_sorted`.
///
/// # Panics
/// Panics on an empty sample or `p` outside `[0, 1]`.
#[must_use]
pub fn quantile(sample: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = sample.iter().copied().filter(|x| !x.is_nan()).collect();
    assert!(!v.is_empty(), "quantile of empty sample");
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
    quantile_sorted(&v, p)
}

/// Type-7 quantile of an already **sorted** (ascending, NaN-free) sample.
///
/// # Panics
/// Panics on an empty sample or `p` outside `[0, 1]`.
#[must_use]
pub(crate) fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Convenience: several quantiles at once (single sort).
///
/// # Panics
/// Panics on empty sample or any `p` outside `[0, 1]`.
#[must_use]
pub fn quantiles(sample: &[f64], ps: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = sample.iter().copied().filter(|x| !x.is_nan()).collect();
    assert!(!v.is_empty(), "quantiles of empty sample");
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
    ps.iter().map(|&p| quantile_sorted(&v, p)).collect()
}

/// Median shorthand.
///
/// # Panics
/// Panics on an empty sample.
#[must_use]
pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let s = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 3.0);
    }

    #[test]
    fn interpolation_matches_numpy_type7() {
        // numpy.quantile([1,2,3,4], 0.25) == 1.75
        let s = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&s, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&s, 0.75) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[42.0], 0.3), 42.0);
    }

    #[test]
    fn nan_filtered() {
        assert_eq!(median(&[f64::NAN, 1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn quantiles_batch_matches_single() {
        let s = [5.0, 1.0, 9.0, 3.0, 7.0];
        let qs = quantiles(&s, &[0.1, 0.5, 0.9]);
        assert_eq!(qs[0], quantile(&s, 0.1));
        assert_eq!(qs[1], quantile(&s, 0.5));
        assert_eq!(qs[2], quantile(&s, 0.9));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        let _ = median(&[]);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn out_of_range_p_panics() {
        let _ = quantile(&[1.0], 1.5);
    }
}
