//! Order statistics for run-to-run spread.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (its default "exclusive" method), so a spread printed here is the
//! spread any other tool computing it that way reports for the same
//! values.

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile of `values` by the exclusive method; `None`
/// when empty. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let cut = |i: usize| {
                let n = 4;
                let m = ld + 1;
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let (q1, q3) = quartiles(values)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
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
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    // Reference values from CPython 3.11 `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        let (q1, q3) = quartiles(&[2.0, 9.0, 4.0, 7.0, 5.0]).unwrap();
        assert!((q1 - 3.0).abs() < 1e-12 && (q3 - 8.0).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), Some(0.0));
    }
}
