//! Service counters and per-solver latency histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sophie_solve::{stats, Json};

/// Log buckets per octave: bucket edges grow by a factor of 2^(1/8).
const STEPS_PER_OCTAVE: u32 = 8;
/// Octaves of log buckets above 1 µs: 2^30 µs ≈ 1,074 s.
const OCTAVES: u32 = 30;
/// Log buckets between 1 µs and 2^30 µs.
const LOG_BUCKETS: usize = (STEPS_PER_OCTAVE * OCTAVES) as usize;

/// Fixed-size log-bucket histogram of latencies in milliseconds.
///
/// One underflow bucket (below 1 µs), 240 buckets of ratio
/// 2^(1/8) from 1 µs to 2^30 µs (≈ 1,074 s), and one overflow bucket:
/// 242 counters whatever the number of samples, plus an exact count,
/// sum, minimum and maximum.
///
/// [`LatencyHistogram::quantile`] finds the bucket holding the sample
/// that [`stats::quantile_index`] picks on the sorted sample (ceil index)
/// and reports the bucket's geometric midpoint, clamped to the observed
/// minimum and maximum; the first and last samples are the exact minimum
/// and maximum. For a sample between 1 µs and 2^30 µs the report is
/// within a relative 2^(1/16) − 1 ≈ 4.4 % (half a bucket) of that exact
/// sample; below 1 µs it is the
/// minimum (less than 1 µs off), above 2^30 µs the maximum.
#[derive(Debug, Clone)]
pub(crate) struct LatencyHistogram {
    /// Underflow, the log buckets in ascending order, overflow.
    buckets: [u64; LOG_BUCKETS + 2],
    count: u64,
    sum_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LOG_BUCKETS + 2],
            count: 0,
            sum_ms: 0.0,
            min_ms: f64::INFINITY,
            max_ms: f64::NEG_INFINITY,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Lower edge of log bucket `i`, in µs.
    fn lower_us(i: usize) -> f64 {
        (i as f64 / f64::from(STEPS_PER_OCTAVE)).exp2()
    }

    /// Index into `buckets` of a latency of `ms` milliseconds.
    fn bucket(ms: f64) -> usize {
        let us = ms * 1e3;
        if us.is_nan() || us < 1.0 {
            return 0;
        }
        let estimate = (us.log2() * f64::from(STEPS_PER_OCTAVE)).floor();
        if estimate >= LOG_BUCKETS as f64 {
            return LOG_BUCKETS + 1;
        }
        // `log2` may round across an edge; settle on the bucket whose
        // edges (as `lower_us` computes them) really hold the value.
        let mut i = estimate as usize;
        if us < Self::lower_us(i) {
            i -= 1;
        } else if us >= Self::lower_us(i + 1) {
            i += 1;
        }
        if i >= LOG_BUCKETS {
            LOG_BUCKETS + 1
        } else {
            i + 1
        }
    }

    /// Records one latency in milliseconds (negative or `NaN` values
    /// count as 0).
    pub fn record(&mut self, ms: f64) {
        let ms = if ms >= 0.0 { ms } else { 0.0 };
        self.buckets[Self::bucket(ms)] += 1;
        self.count += 1;
        self.sum_ms += ms;
        self.min_ms = self.min_ms.min(ms);
        self.max_ms = self.max_ms.max(ms);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// The `q`-quantile, within the error documented on the type; `NaN`
    /// when empty or when `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let Ok(rank) = stats::quantile_index(self.count as usize, q) else {
            return f64::NAN;
        };
        if rank == 0 {
            return self.min_ms;
        }
        if rank as u64 + 1 == self.count {
            return self.max_ms;
        }
        let mut seen = 0_u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank as u64 {
                let mid = match b {
                    0 => 0.0,
                    b if b > LOG_BUCKETS => f64::INFINITY,
                    b => Self::lower_us(b - 1) * (0.5 / f64::from(STEPS_PER_OCTAVE)).exp2() / 1e3,
                };
                return mid.clamp(self.min_ms, self.max_ms);
            }
        }
        f64::NAN
    }
}

/// Lifetime counters plus per-solver latency histograms for one daemon.
///
/// Counters are atomics bumped from connection and worker threads; the
/// `stats` command renders a consistent-enough snapshot (each counter is
/// individually exact, the set is read without a global lock).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs accepted into the admission queue.
    pub accepted: AtomicU64,
    /// Jobs rejected (`queue_full` or `shutting_down`), plus connections
    /// turned away at the connection cap.
    pub rejected: AtomicU64,
    /// Jobs that ran to completion (converged or budget-exhausted).
    pub completed: AtomicU64,
    /// Jobs cancelled before or during execution.
    pub cancelled: AtomicU64,
    /// Jobs whose solver returned an error.
    pub failed: AtomicU64,
    /// Jobs currently executing on a worker.
    pub in_flight: AtomicU64,
    /// Boxed: a map node holds room for 11 values, and an inline 2 KB
    /// histogram would make the first node 22 KB.
    latencies_ms: Mutex<BTreeMap<String, Box<LatencyHistogram>>>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one completed job's submit-to-result latency.
    pub fn record_latency(&self, solver: &str, ms: f64) {
        let mut latencies = self.latencies_ms.lock().expect("metrics lock");
        if let Some(histogram) = latencies.get_mut(solver) {
            histogram.record(ms);
        } else {
            let mut histogram = Box::new(LatencyHistogram::new());
            histogram.record(ms);
            latencies.insert(solver.to_string(), histogram);
        }
    }

    /// The `stats` response members (without the frame `type`): the
    /// counters, then `latency_ms` per solver name in sorted name order,
    /// rounded to microseconds.
    ///
    /// `count` and `mean` are exact; the quantiles come from each
    /// solver's fixed-size log-bucket histogram, within 2^(1/16) − 1
    /// ≈ 4.4 % of the ceil-index sample
    /// ([`sophie_solve::stats::quantile_index`]).
    #[must_use]
    pub fn snapshot(&self, queue_depth: usize) -> Vec<(&'static str, Json)> {
        let get = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let ms = |x: f64| Json::rounded(x, 3);
        let latencies = self.latencies_ms.lock().expect("metrics lock");
        let per_solver = latencies
            .iter()
            .map(|(solver, histogram)| {
                let summary = Json::obj([
                    ("count", histogram.count().into()),
                    ("mean", ms(histogram.mean())),
                    ("p50", ms(histogram.quantile(0.50))),
                    ("p90", ms(histogram.quantile(0.90))),
                    ("p99", ms(histogram.quantile(0.99))),
                ]);
                (solver.clone(), summary)
            })
            .collect();
        vec![
            ("queue_depth", queue_depth.into()),
            ("in_flight", get(&self.in_flight)),
            ("accepted", get(&self.accepted)),
            ("completed", get(&self.completed)),
            ("rejected", get(&self.rejected)),
            ("cancelled", get(&self.cancelled)),
            ("failed", get(&self.failed)),
            ("latency_ms", Json::Obj(per_solver)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_counters_and_quantiles() {
        let m = Metrics::new();
        m.accepted.store(5, Ordering::Relaxed);
        m.completed.store(3, Ordering::Relaxed);
        for ms in [10.0, 20.0, 30.0, 40.0] {
            m.record_latency("sa", ms);
        }
        m.record_latency("sophie", 99.0);
        let parsed = Json::parse(&Json::obj(m.snapshot(2)).to_string()).unwrap();
        assert_eq!(parsed.get("queue_depth").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("accepted").unwrap().as_u64(), Some(5));
        let sa = parsed.get("latency_ms").unwrap().get("sa").unwrap();
        assert_eq!(sa.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(sa.get("mean").unwrap().as_f64(), Some(25.0));
        // Histogram quantiles: within the documented error of the exact
        // ceil-index samples, 20 and 40.
        let within = |got: f64, exact: f64| (got - exact).abs() <= max_rel_error() * exact + 5e-4;
        let p50 = sa.get("p50").unwrap().as_f64().unwrap();
        let p99 = sa.get("p99").unwrap().as_f64().unwrap();
        assert!(within(p50, 20.0), "p50 {p50}");
        assert!(within(p99, 40.0), "p99 {p99}");
        // Solvers list in sorted name order.
        let obj = parsed.get("latency_ms").unwrap().as_obj().unwrap();
        let names: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["sa", "sophie"]);
    }

    #[test]
    fn empty_metrics_render_valid_json() {
        let m = Metrics::new();
        assert_eq!(
            Json::obj(m.snapshot(0)).to_string(),
            r#"{"queue_depth":0,"in_flight":0,"accepted":0,"completed":0,"rejected":0,"cancelled":0,"failed":0,"latency_ms":{}}"#
        );
    }

    /// Largest relative error of a reported quantile against the exact
    /// ceil-index sample: half a bucket, 2^(1/16) − 1.
    fn max_rel_error() -> f64 {
        (0.5 / f64::from(STEPS_PER_OCTAVE)).exp2() - 1.0
    }

    /// Exact ceil-index quantile of a sample: what the histogram
    /// approximates.
    fn exact(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[stats::quantile_index(sorted.len(), q).unwrap()]
    }

    #[test]
    fn histogram_quantiles_fall_within_the_documented_error() {
        // Log-uniform over 10 µs … 100 s with a dense cluster near 2 ms,
        // from a fixed LCG stream.
        let mut state = 7_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut samples: Vec<f64> = (0..20_000)
            .map(|_| 10f64.powf(next() * 7.0 - 2.0))
            .collect();
        samples.extend((0..5_000).map(|_| 2.0 + next() * 0.01));
        // Values on and around bucket edges.
        samples.extend((0..64).map(|i| (f64::from(i) / 8.0).exp2() / 1e3));
        samples.extend((0..64).map(|i| (f64::from(i) / 8.0).exp2() / 1e3 * (1.0 - 1e-12)));
        let mut h = LatencyHistogram::new();
        for &x in &samples {
            h.record(x);
        }
        assert_eq!(h.count(), samples.len() as u64);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert_eq!(h.mean(), mean);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let (got, want) = (h.quantile(q), exact(&samples, q));
            assert!(
                (got - want).abs() <= max_rel_error() * want,
                "q {q}: histogram {got}, exact {want}"
            );
        }
        // The extremes are exact.
        assert_eq!(h.quantile(0.0), exact(&samples, 0.0));
        assert_eq!(h.quantile(1.0), exact(&samples, 1.0));
        assert!(LatencyHistogram::new().quantile(0.5).is_nan());
        assert!(h.quantile(1.5).is_nan());
    }

    #[test]
    fn histogram_edges_hold_their_values() {
        assert_eq!(LatencyHistogram::bucket(0.0), 0);
        assert_eq!(LatencyHistogram::bucket(f64::NAN), 0);
        assert_eq!(LatencyHistogram::bucket(0.000_999), 0);
        assert_eq!(LatencyHistogram::bucket(0.001), 1);
        assert_eq!(LatencyHistogram::bucket(1e7), LOG_BUCKETS + 1);
        assert_eq!(LatencyHistogram::bucket(f64::INFINITY), LOG_BUCKETS + 1);
        for i in 0..LOG_BUCKETS {
            let lower = LatencyHistogram::lower_us(i) / 1e3;
            assert_eq!(LatencyHistogram::bucket(lower), i + 1, "edge {i}");
            let inside = lower * (0.5 / f64::from(STEPS_PER_OCTAVE)).exp2();
            assert_eq!(LatencyHistogram::bucket(inside), i + 1, "midpoint {i}");
        }
        // Out-of-range samples: the minimum and maximum are reported.
        let mut h = LatencyHistogram::new();
        for ms in [0.000_2, 0.000_5, 2e6, 3e6] {
            h.record(ms);
        }
        assert_eq!(h.quantile(0.25), 0.000_2);
        assert_eq!(h.quantile(0.5), 0.000_2);
        assert_eq!(h.quantile(0.75), 3e6);
    }
}
