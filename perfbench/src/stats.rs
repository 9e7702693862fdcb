//! Order statistics over measured samples.

/// Nearest-rank percentile of `values` (`p` in `(0, 100]`): the
/// smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `part / whole`, or 0 when `whole` is 0 (a layer that did no work).
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 99.0), 9.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
    }

    #[test]
    fn p99_of_a_hundred_is_the_99th() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&v), 50.0);
    }

    #[test]
    fn empty_and_zero_whole_are_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(share(3.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
    }
}
