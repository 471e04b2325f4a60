//! Order statistics over timing samples.

/// Percentiles a timing may be reported at, in per-mille, lowest first.
const LADDER: [usize; 4] = [500, 900, 990, 999];

/// Samples needed beyond a percentile before it is worth reporting.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`permille` of 1000) of `samples`; 0 for an
/// empty set.
pub fn percentile(samples: &[f64], permille: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), permille).max(1) - 1]
}

/// The median (nearest rank, so always one of the samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500)
}

/// 1-based nearest rank of the `permille` percentile among `n` samples,
/// in integer arithmetic so `0.9 * n` never rounds up a rank.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000)
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9) that has
/// at least ten samples beyond it among `n`, in per-mille.
pub fn tail_permille(n: usize) -> Option<usize> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// `p` in per-mille as a label: 500 -> "p50", 999 -> "p99.9".
pub fn label(permille: usize) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 900), 90.0);
        assert_eq!(percentile(&s, 999), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        // Exactly ten samples lie beyond p90 of 100.
        assert_eq!(s.iter().filter(|&&x| x > percentile(&s, 900)).count(), 10);
    }

    #[test]
    fn labels_drop_a_zero_tenth() {
        assert_eq!(label(900), "p90");
        assert_eq!(label(999), "p99.9");
    }
}
