//! Order statistics over latency samples.

/// The `p`-quantile (0 < p ≤ 1) of `samples` by nearest rank; sorts in
/// place. An empty sample set reads as NaN so a missing phase can never
/// pass for a fast one.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (nearest rank); sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The median, over consecutive slices of `slice` samples, of each
/// slice's `p`-quantile: one stall moves the slice it falls in, not the
/// run. With fewer than three whole slices it is the plain quantile.
pub fn sliced_percentile(samples: &[f64], p: f64, slice: usize) -> f64 {
    if samples.len() < 3 * slice {
        return percentile(&mut samples.to_vec(), p);
    }
    let mut per_slice: Vec<f64> = samples
        .chunks_exact(slice)
        .map(|c| percentile(&mut c.to_vec(), p))
        .collect();
    median(&mut per_slice)
}

/// Completion rates, 1/s, of the equal slices about `slice_s` wide that
/// a `window_s`-second phase divides into, given each completion's
/// offset from the phase's start.
pub fn slice_rates(completions_s: &[f64], window_s: f64, slice_s: f64) -> Vec<f64> {
    let slices = ((window_s / slice_s).round() as usize).max(1);
    let width = window_s / slices as f64;
    let mut counts = vec![0usize; slices];
    for &at in completions_s {
        if let Some(c) = counts.get_mut((at / width) as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Microseconds in a duration, with all its digits.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut xs, 1.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn slicing_confines_a_stall_to_its_slice() {
        let mut xs = vec![1.0; 3_000];
        xs[10..40].fill(1_000.0); // a stall inside the first slice
        assert_eq!(sliced_percentile(&xs, 0.99, 1_000), 1.0);
        assert_eq!(percentile(&mut xs.clone(), 0.99), 1.0);
        xs[10..100].fill(1_000.0);
        assert_eq!(percentile(&mut xs.clone(), 0.99), 1_000.0);
        assert_eq!(sliced_percentile(&xs, 0.99, 1_000), 1.0);
        let completions: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        assert_eq!(slice_rates(&completions, 1.0, 0.25), vec![100.0; 4]);
        assert_eq!(slice_rates(&completions, 1.0, 5.0), vec![100.0]);
    }
}
