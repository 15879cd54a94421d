//! Sample statistics: the latency percentile rule, the per-window
//! estimators a run reports, and the run-level median and quartiles that
//! `compare` and the spread checks use.

use sophie_solve::stats::quantile_index;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, a "p99" is just the maximum.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of an ascending sample under the workspace convention
/// (`ceil(len·q) − 1`), with no sample-count rule. `None` when empty.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    quantile_index(sorted.len(), q).ok().map(|i| sorted[i])
}

/// The median of an unsorted sample under the same convention (NaN when
/// empty, which the report rejects).
#[must_use]
pub fn p50(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5).unwrap_or(f64::NAN)
}

/// The third quartile of per-window rates: the pace the system keeps
/// through the least disturbed quarter of a run.
///
/// The hosts this benchmark runs on are shared, and other tenants slow a
/// run by a fifth to a half for stretches of a second or several.
/// Interference only ever slows a window, so the faster windows track the
/// code rather than the neighbours; a change that slows most of the run
/// still moves this number in full. A stall confined to a few windows does
/// not; the per-layer tail latencies show those.
#[must_use]
pub fn upper_quartile(rates: &[f64]) -> f64 {
    quantile(&sorted(rates), 0.75).unwrap_or(f64::NAN)
}

/// The first quartile of per-window latencies: the counterpart of
/// [`upper_quartile`] for a number where lower is better.
#[must_use]
pub fn lower_quartile(latencies: &[f64]) -> f64 {
    quantile(&sorted(latencies), 0.25).unwrap_or(f64::NAN)
}

/// The `q`-quantile of an ascending sample, or `None` unless at least
/// [`MIN_BEYOND`] samples lie strictly beyond its index.
#[must_use]
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let i = quantile_index(sorted.len(), q).ok()?;
    (sorted.len() - 1 - i >= MIN_BEYOND).then(|| sorted[i])
}

/// Operations completed per second in each whole `window` of `[0, span)`.
/// Every piece of work `(start, end, amount)` (seconds from the phase
/// start; `amount` in operations) counts in each window by the share of
/// itself that falls there, so a window's rate is continuous even when few
/// operations end inside it.
#[must_use]
pub fn window_rates(work: &[(f64, f64, f64)], span: f64, window: f64) -> Vec<f64> {
    let windows = (span / window).floor().max(0.0) as usize;
    let mut done = vec![0.0; windows];
    for &(start, end, amount) in work.iter().filter(|(s, e, _)| e > s) {
        let first = (start / window).floor().max(0.0) as usize;
        let last = ((end / window).ceil().max(0.0) as usize).min(windows);
        for (w, slot) in done.iter_mut().enumerate().take(last).skip(first) {
            let lo = w as f64 * window;
            let overlap = end.min(lo + window) - start.max(lo);
            *slot += amount * overlap.max(0.0) / (end - start);
        }
    }
    done.iter().map(|d| d / window).collect()
}

/// The median latency within each whole `window` of `[0, span)`, over the
/// operations due in it (`(due, latency)` pairs, seconds from the phase
/// start); windows with no operation are skipped.
#[must_use]
pub fn window_medians(samples: &[(f64, f64)], span: f64, window: f64) -> Vec<f64> {
    let windows = (span / window).floor().max(0.0) as usize;
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(due, latency) in samples {
        if let Some(bin) = bins.get_mut((due / window).floor().max(0.0) as usize) {
            bin.push(latency);
        }
    }
    bins.iter()
        .filter(|b| !b.is_empty())
        .map(|b| p50(b))
        .collect()
}

/// Median, first and third quartile of a set of run values, computed the
/// way Python's `statistics.median` and `statistics.quantiles(values, n=4)`
/// (the default exclusive method, which extrapolates for tiny samples)
/// compute them. A single value is its own median and quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    let len = s.len();
    match len {
        0 => return None,
        1 => return Some((s[0], s[0], s[0])),
        _ => {}
    }
    let median = if len % 2 == 1 {
        s[len / 2]
    } else {
        (s[len / 2 - 1] + s[len / 2]) / 2.0
    };
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), median, cut(3)))
}

/// Interquartile distance as a share of the median (0 for a zero median).
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, med, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond (index 989).
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), Some(989.0));
        // One fewer sample leaves only 9 beyond: not reportable.
        assert_eq!(tail_percentile(&thousand[..999], 0.99), None);
        // p90 needs 100 samples, p50 needs 20.
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.90), Some(89.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.90), None);
        assert_eq!(tail_percentile(&hundred[..20], 0.50), Some(9.0));
        assert_eq!(tail_percentile(&hundred[..19], 0.50), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        // The unruled quantile still answers for small samples.
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
    }

    #[test]
    fn window_rates_split_operations_across_windows() {
        // Back-to-back one-second operations: one per second in each window.
        assert_eq!(
            window_rates(&[(0.0, 1.0, 1.0), (1.0, 2.0, 1.0)], 2.0, 1.0),
            vec![1.0, 1.0]
        );
        // An operation straddling a boundary counts half in each window;
        // the partial third window is dropped.
        assert_eq!(window_rates(&[(0.5, 1.5, 1.0)], 2.5, 1.0), vec![0.5, 0.5]);
        // Half-second windows see two ops per second of a 0.5 s cadence.
        let ops: Vec<(f64, f64, f64)> = (0..8)
            .map(|k| (k as f64 * 0.5, k as f64 * 0.5 + 0.5, 1.0))
            .collect();
        assert_eq!(window_rates(&ops, 4.0, 0.5), vec![2.0; 8]);
        // Operations running past the span count only up to it.
        assert_eq!(window_rates(&[(0.0, 4.0, 1.0)], 2.0, 1.0), vec![0.25, 0.25]);
        // A job cut into quarter pieces, one slow: the windows see the
        // slow stretch rather than the job's average pace.
        let pieces = [
            (0.0, 0.5, 0.25),
            (0.5, 1.0, 0.25),
            (1.0, 2.0, 0.25),
            (2.0, 2.5, 0.25),
        ];
        assert_eq!(
            window_rates(&pieces, 2.5, 0.5),
            vec![0.5, 0.5, 0.25, 0.25, 0.5]
        );
    }

    #[test]
    fn quartiles_of_windows_ignore_a_disturbed_stretch() {
        // Eight windows at full pace, four slowed to half by a neighbour.
        let mut rates = vec![100.0; 8];
        rates.extend([50.0; 4]);
        assert_eq!(upper_quartile(&rates), 100.0);
        let latencies: Vec<f64> = rates.iter().map(|r| 100.0 / r).collect();
        assert_eq!(lower_quartile(&latencies), 1.0);
        // A slowdown over most of the run moves both in full.
        let mut slower = vec![90.0; 10];
        slower.extend([100.0; 2]);
        assert_eq!(upper_quartile(&slower), 90.0);
        assert!(upper_quartile(&[]).is_nan());
    }

    #[test]
    fn window_medians_take_the_median_per_window() {
        let samples = [(0.1, 1.0), (0.2, 3.0), (0.3, 2.0), (1.5, 9.0), (2.5, 7.0)];
        // The third window lies past the span; an empty window is skipped.
        assert_eq!(window_medians(&samples, 2.0, 1.0), vec![2.0, 9.0]);
        assert_eq!(window_medians(&[(3.5, 1.0)], 4.0, 1.0), vec![1.0]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartiles(&[]), None);
    }
}
