//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the raw
//! samples of the run, never from a bucketed histogram: a log-bucket
//! quantile snaps to bucket edges and hides changes smaller than a decade.

/// The `q`-quantile (`q` in `[0, 1]`) of `samples`, by linear
/// interpolation between the closest ranks (the "inclusive" method).
/// NaN when `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// The median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Throughput of `ops`, robust to bursts of host noise: the window
/// `[0, span_s]` is cut into `parts` equal sub-windows, each operation's
/// `weight` is spread evenly over its `[start, end]` interval, and the
/// median of the sub-windows' rates is returned.
pub fn median_rate(ops: &[(f64, f64, f64)], span_s: f64, parts: usize) -> f64 {
    let len = span_s / parts as f64;
    let mut work = vec![0.0; parts];
    for &(start, end, weight) in ops {
        if end <= start {
            let k = ((end / len) as usize).min(parts - 1);
            work[k] += weight;
            continue;
        }
        let first = ((start / len) as usize).min(parts - 1);
        let last = ((end / len) as usize).min(parts - 1);
        for (k, slot) in work.iter_mut().enumerate().take(last + 1).skip(first) {
            let (lo, hi) = (k as f64 * len, (k + 1) as f64 * len);
            *slot += weight * (end.min(hi) - start.max(lo)).max(0.0) / (end - start);
        }
    }
    let rates: Vec<f64> = work.iter().map(|w| w / len).collect();
    median(&rates)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so the repeat mode reports the spread the same
/// way the benchmark's acceptance check does. Needs at least 2 values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least 2 values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut out = [f64::NAN; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 0.125), 1.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_rate_ignores_a_stalled_sub_window() {
        // Ten 1-second sub-windows of back-to-back 0.5 s operations, except
        // one sub-window taken by a single 1 s stall.
        let mut ops = Vec::new();
        let mut t = 0.0;
        while t < 10.0 {
            let d = if (4.0..5.0).contains(&t) { 1.0 } else { 0.5 };
            ops.push((t, t + d, 1.0));
            t += d;
        }
        assert_eq!(median_rate(&ops, 10.0, 10), 2.0);
        // An operation straddling two sub-windows is split between them.
        assert_eq!(median_rate(&[(0.5, 1.5, 2.0)], 2.0, 2), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
