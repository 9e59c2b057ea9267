//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even count),
/// or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile by nearest rank, reported only when at least ten
/// samples lie beyond it — a tail percentile resting on fewer samples is
/// noise, so the caller gets `None` instead.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: the 90th percentile is rank 90, with only 9 above.
        let s99: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&s99, 90.0), None);
        // 100 samples: rank 90, ten above it.
        let s100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s100, 90.0), Some(90.0));
    }

    #[test]
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let s: Vec<f64> = (0..200).rev().map(f64::from).collect();
        // rank ceil(0.9 * 200) = 180 → the 180th smallest, 179.
        assert_eq!(tail_percentile(&s, 90.0), Some(179.0));
        // p50 of 20 samples: rank 10, ten beyond.
        let s20: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&s20, 50.0), Some(10.0));
        let s19: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&s19, 50.0), None);
    }
}
