//! Sample statistics: nearest-rank percentiles and the rule that decides
//! which percentile a sample count supports.

/// Samples that must lie strictly beyond a reported percentile, so a tail
/// figure never rests on a handful of observations.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (0 < q ≤ 100) in `n` samples:
/// the smallest rank whose share of the sample reaches `q`.
#[must_use]
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(q > 0.0 && q <= 100.0, "percentile {q} out of (0, 100]");
    // The epsilon keeps exact products such as 0.9 × 100 from rounding
    // up to the next rank.
    let r = (q / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `q` of `samples` (any order).
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The median (nearest rank, so always one of the samples).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Whether `n` samples support percentile `q`: at least [`MIN_BEYOND`]
/// samples rank strictly above it.
#[must_use]
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Percentile `q` of each run of consecutive samples just long enough to
/// support it, and the median of those: a stall that hits one window moves
/// one window's figure, not the result. Samples too few for one full
/// window give the plain percentile.
#[must_use]
pub fn windowed(samples: &[f64], q: f64) -> f64 {
    let size = (1..=samples.len())
        .find(|&n| supported(n, q))
        .unwrap_or(samples.len());
    let windows = (samples.len() / size).max(1);
    let per: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            percentile(&samples[w * size..end], q)
        })
        .collect();
    median(&per)
}

/// Completions per second from ascending completion times (seconds since
/// the loop started), for each of `windows` runs of consecutive
/// completions (fewer when there are fewer completions).
#[must_use]
pub fn window_rates(done_s: &[f64], windows: usize) -> Vec<f64> {
    let windows = windows.clamp(1, done_s.len().max(1));
    let size = done_s.len() / windows;
    if size == 0 {
        return Vec::new();
    }
    (0..windows)
        .map(|w| {
            let (a, b) = (
                w * size,
                if w + 1 == windows {
                    done_s.len()
                } else {
                    (w + 1) * size
                },
            );
            let t0 = if a == 0 { 0.0 } else { done_s[a - 1] };
            (b - a) as f64 / (done_s[b - 1] - t0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_percentile_ignores_a_stall_in_one_window() {
        // Five windows of 100 samples; one window holds a 50 ms stall.
        let mut xs: Vec<f64> = (0..500).map(|i| f64::from(i % 10)).collect();
        for x in &mut xs[120..140] {
            *x = 50.0;
        }
        assert_eq!(percentile(&xs, 97.0), 50.0);
        // The stalled window's own p90 is 50; the other four read 8.
        assert_eq!(percentile(&xs[100..200], 90.0), 50.0);
        assert_eq!(windowed(&xs, 90.0), 8.0);
        // Too few samples for a window: the plain percentile.
        assert_eq!(windowed(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn window_rates_isolate_a_slow_window() {
        // 100 completions 0.1 s apart, but completions 20..30 took 1 s each.
        let mut t = 0.0;
        let done: Vec<f64> = (0..100)
            .map(|i| {
                t += if (20..30).contains(&i) { 1.0 } else { 0.1 };
                t
            })
            .collect();
        let rates = window_rates(&done, 10);
        assert_eq!(rates.len(), 10);
        assert!((rates[2] - 1.0).abs() < 1e-9);
        assert!((median(&rates) - 10.0).abs() < 1e-9);
        assert!(window_rates(&[], 10).is_empty());
        assert_eq!(window_rates(&[0.5], 10), vec![2.0]);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples has ranks 91..=100 beyond it: exactly ten.
        assert!(supported(100, 90.0));
        assert!(!supported(100, 91.0));
        assert!(!supported(99, 90.0));
        // p99 needs a thousand samples.
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
    }
}
