//! Order statistics for the benchmark's timings.

/// Samples that must lie strictly beyond a reported tail percentile. A
/// p95 over fewer than 200 samples would rest on fewer than ten
/// observations and swing from run to run, so [`percentile`] refuses it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0–100] of `samples`: the value at 1-based
/// rank `⌈q·n/100⌉` of the sorted samples. Returns `None` for an empty
/// input, a `q` outside (0, 100], a non-finite sample, or when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 100.0) || samples.iter().any(|s| !s.is_finite()) {
        return None;
    }
    let n = samples.len();
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Fewest samples for which [`percentile`] reports `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n: &usize| {
            let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
            n >= rank + MIN_TAIL_SAMPLES
        })
        .expect("some sample count satisfies the tail rule")
}

/// Plain median (mean of the middle pair for even counts), for small
/// sets such as repeated set-ups where no tail is reported. `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) })
}

/// Arithmetic mean; 0 for an empty input.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_a_known_distribution() {
        let v = one_to(1000);
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 95.0), Some(950.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 95.0), Some(950.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of 200 samples is rank 190: exactly ten lie beyond it.
        assert_eq!(percentile(&one_to(200), 95.0), Some(190.0));
        // 199 samples: rank 190 leaves only nine beyond — refused.
        assert_eq!(percentile(&one_to(199), 95.0), None);
        assert_eq!(min_samples_for(95.0), 200);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
        for q in [50.0, 90.0, 95.0, 99.0] {
            let n = min_samples_for(q);
            let v = one_to(n);
            let p = percentile(&v, q).expect("enough samples");
            assert!(v.iter().filter(|&&x| x > p).count() >= MIN_TAIL_SAMPLES);
            assert_eq!(percentile(&one_to(n - 1), q), None);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&one_to(100), 0.0), None);
        assert_eq!(percentile(&one_to(100), 101.0), None);
        let mut v = one_to(100);
        v[3] = f64::NAN;
        assert_eq!(percentile(&v, 50.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
