//! Sample statistics: nearest-rank percentiles and the rule for which
//! tail percentile a sample of a given size supports.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
/// `p` is in `(0, 100]`; an empty sample reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a sample ascending (total order, so NaN cannot panic).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// Nearest-rank median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The tail percentiles a report may use, ascending.
pub const TAIL_CANDIDATES: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// How many samples nearest-rank percentile `p` leaves beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank)
}

/// The highest candidate percentile that still leaves at least ten
/// samples beyond it; below twenty samples nothing does and the median
/// is all the sample supports.
pub fn supported_tail(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Two samples: the nearest-rank median is the lower one.
        assert_eq!(median(&[9.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(3), 50.0);
        assert_eq!(supported_tail(19), 50.0);
        assert_eq!(supported_tail(20), 50.0);
        assert_eq!(supported_tail(99), 50.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(199), 90.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(600), 95.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(samples_beyond(600, 95.0), 30);
        assert_eq!(samples_beyond(2000, 99.0), 20);
    }
}
