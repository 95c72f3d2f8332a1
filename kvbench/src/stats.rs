//! Percentiles and medians computed from the benchmark's own raw
//! samples. Nothing here reads a program histogram: quantiles come from
//! every recorded sample, sorted.

/// Summary of one set of latency samples, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least a `q` share of all samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and summarizes them; all zeros when empty.
pub fn summarize(samples: &mut [u64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    samples.sort_unstable();
    let sum: u128 = samples.iter().map(|&s| s as u128).sum();
    Summary {
        n: samples.len(),
        p50: quantile(samples, 0.50).unwrap_or(0) as f64,
        p90: quantile(samples, 0.90).unwrap_or(0) as f64,
        p99: quantile(samples, 0.99).unwrap_or(0) as f64,
        mean: sum as f64 / samples.len() as f64,
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0 (a rate over no events).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One time slice of a measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Slice {
    /// Operations that completed in the slice, per second.
    pub rate: f64,
    /// Their latencies.
    pub latency: Summary,
}

/// Summarizes each slice's latency samples (ns); `seconds` is the
/// slice width.
pub fn slices(samples: &[Vec<u32>], seconds: f64) -> Vec<Slice> {
    samples
        .iter()
        .map(|b| {
            let mut ns: Vec<u64> = b.iter().map(|&x| x as u64).collect();
            Slice {
                rate: b.len() as f64 / seconds,
                latency: summarize(&mut ns),
            }
        })
        .collect()
}

/// Median over slices of `f`.
pub fn median_of(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    median(&slices.iter().map(f).collect::<Vec<_>>())
}
