//! Service counters and per-solver latency quantiles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sophie_solve::{stats, Json};

/// Lifetime counters plus per-solver latency samples for one daemon.
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
    latencies_ms: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one completed job's submit-to-result latency.
    pub fn record_latency(&self, solver: &str, ms: f64) {
        self.latencies_ms
            .lock()
            .expect("metrics lock")
            .entry(solver.to_string())
            .or_default()
            .push(ms);
    }

    /// The `stats` response members (without the frame `type`): the
    /// counters, then `latency_ms` per solver name in sorted name order,
    /// rounded to microseconds.
    ///
    /// Latency quantiles reuse the workspace quantile convention
    /// ([`sophie_solve::stats::quantile_index`], ceil index on the sorted
    /// sample).
    #[must_use]
    pub fn snapshot(&self, queue_depth: usize) -> Vec<(&'static str, Json)> {
        let get = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let ms = |x: f64| Json::rounded(x, 3);
        let latencies = self.latencies_ms.lock().expect("metrics lock");
        let per_solver = latencies
            .iter()
            .map(|(solver, samples)| {
                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                let summary = Json::obj([
                    ("count", sorted.len().into()),
                    ("mean", ms(stats::mean(sorted.iter().copied()))),
                    ("p50", ms(quantile(&sorted, 0.50))),
                    ("p90", ms(quantile(&sorted, 0.90))),
                    ("p99", ms(quantile(&sorted, 0.99))),
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

/// Quantile of an already-sorted, non-empty sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match stats::quantile_index(sorted.len(), q) {
        Ok(i) => sorted[i],
        Err(_) => f64::NAN,
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
        assert_eq!(sa.get("p50").unwrap().as_f64(), Some(20.0));
        assert_eq!(sa.get("p99").unwrap().as_f64(), Some(40.0));
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
}
