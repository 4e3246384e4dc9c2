//! Exact order statistics over the benchmark's own samples, and the
//! speed normalisation applied to every timing.

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of ascending `sorted`
/// samples: the smallest sample with at least `p · n` samples at or
/// below it. No interpolation, no histogram buckets.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "quantile {p} outside (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Returns `values` sorted ascending (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match the acceptance check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Per-sample scale factors `nominal_ms / median(ref_ms[i − w ..= i + w])`
/// (the window clipped at the ends): a timing taken while the reference
/// kernel ran at `median` is reported as if it had taken `nominal_ms`.
/// Each timing is scaled by the speed measured around it, so a speed
/// shift in the middle of a run scales the requests on either side of it
/// differently.
pub fn local_factors(ref_ms: &[f64], nominal_ms: f64, w: usize) -> Vec<f64> {
    (0..ref_ms.len())
        .map(|i| {
            let window = &ref_ms[i.saturating_sub(w)..(i + w + 1).min(ref_ms.len())];
            nominal_ms / median(window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest sample `x` with `#{s ≤ x} ≥ p · n`, by exhaustive search.
    fn brute_force(values: &[f64], p: f64) -> f64 {
        let need = p * values.len() as f64;
        let mut candidates = values.to_vec();
        candidates.sort_by(f64::total_cmp);
        *candidates
            .iter()
            .find(|&&x| values.iter().filter(|&&s| s <= x).count() as f64 >= need - 1e-9)
            .unwrap()
    }

    #[test]
    fn percentile_matches_brute_force() {
        let mut state = 7u64;
        for n in [1usize, 2, 3, 9, 10, 11, 100, 101, 257] {
            let values: Vec<f64> = (0..n)
                .map(|_| (crate::workloads::splitmix(&mut state) % 1000) as f64 / 7.0)
                .collect();
            let s = sorted(&values);
            for p in [0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(percentile(&s, p), brute_force(&values, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn p90_of_100_leaves_ten_samples_above() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 0.5), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0]), (1.25, 4.5));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn factors_scale_by_nominal_over_measured() {
        // A slower machine scales timings down, a faster one up.
        assert_eq!(local_factors(&[2.5; 9], 2.0, 2), vec![0.8; 9]);
        assert_eq!(local_factors(&[1.6; 3], 2.0, 4), vec![1.25; 3]);
        assert_eq!(local_factors(&[2.0; 5], 2.0, 1), vec![1.0; 5]);
    }

    #[test]
    fn local_factors_follow_a_speed_shift() {
        // The machine halves its speed after sample 5; one outlier sample
        // inside each half is voted down by the window median.
        let mut refs = vec![1.0, 1.0, 9.0, 1.0, 1.0, 2.0, 2.0, 0.1, 2.0, 2.0];
        let f = local_factors(&refs, 1.0, 2);
        assert_eq!(&f[..2], &[1.0, 1.0]);
        assert_eq!(&f[8..], &[0.5, 0.5]);
        refs.truncate(1);
        assert_eq!(local_factors(&refs, 3.0, 4), vec![3.0]);
    }
}
