//! Order statistics.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile of `values`, by rank.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 4).copied().unwrap_or(f64::NAN)
}

/// The `pct` percentile of every run of `window` consecutive samples (of
/// all samples when there are fewer than `window`).
pub fn per_window(values: &[u64], window: usize, pct: f64) -> Vec<f64> {
    if values.len() < window {
        return vec![percentile(values, pct)];
    }
    values
        .chunks_exact(window)
        .map(|w| percentile(w, pct))
        .collect()
}

/// Nearest-rank percentile `pct` (0–100) of unsorted `values`.
pub fn percentile(values: &[u64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}
