//! Order statistics for the benchmark's timings.

/// Percentiles the tail is chosen from, in per mille, highest last.
const LADDER: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it may be reported as
/// the tail: fewer than this and the value is one or two slow outliers.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
fn rank(pm: u64, n: usize) -> usize {
    ((pm * n as u64).div_ceil(1000) as usize).clamp(1, n.max(1))
}

/// The median (nearest rank) of `values`, or 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(500, v.len()) - 1]
}

/// The highest percentile of the ladder, in per mille, that has at least
/// [`TAIL_SAMPLES_BEYOND`] of `n` samples beyond its rank, or `None` when
/// even the median has fewer.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&pm| n.saturating_sub(rank(pm, n)) >= TAIL_SAMPLES_BEYOND)
}

/// `(percentile, value)` of the tail of `values` by [`tail_per_mille`];
/// with too few samples for any ladder rung, the maximum at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (100.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match tail_per_mille(v.len()) {
        Some(pm) => (pm as f64 / 10.0, v[rank(pm, v.len()) - 1]),
        None => (100.0, v[v.len() - 1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 1..20_000 {
            match tail_per_mille(n) {
                Some(pm) => {
                    assert!(n - rank(pm, n) >= TAIL_SAMPLES_BEYOND, "n={n} pm={pm}");
                    // No higher rung would also qualify.
                    for &q in LADDER.iter().filter(|&&q| q > pm) {
                        assert!(n - rank(q, n) < TAIL_SAMPLES_BEYOND, "n={n} pm={pm} q={q}");
                    }
                }
                None => assert!(n < 2 * TAIL_SAMPLES_BEYOND, "n={n}"),
            }
        }
    }

    #[test]
    fn tail_rungs_at_known_sizes() {
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(43), Some(750));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn tail_and_median_values() {
        let v: Vec<f64> = (1..=43).map(f64::from).collect();
        assert_eq!(median(&v), 22.0);
        // p75 of 43 is rank 33, leaving 10 samples beyond.
        assert_eq!(tail(&v), (75.0, 33.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100.0, 3.0));
    }
}
