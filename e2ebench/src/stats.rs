//! Order statistics for latency samples.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile of `sorted` as an order statistic: the smallest sample
/// with at least `q` of the samples at or below it. `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it (for `q > 0.5`), or when empty;
/// a percentile resting on fewer samples is not reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q > 0.5 && beyond < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts samples for [`percentile`]; failed ops are `f64::INFINITY`, so
/// they sort last and miss every latency limit.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
