//! Cluster-level counters for the router's `stats` frame: per-outcome
//! totals plus the retry/hedge/failover and rejection breakdowns the
//! chaos loadgen asserts on.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Router-wide counters. All relaxed — they are reporting, not
/// synchronization.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Submits admitted by the router (sent `accepted`).
    pub submitted: AtomicU64,
    /// Jobs finished `done` (including cache hits).
    pub done: AtomicU64,
    /// Jobs finished `cancelled` (client-requested).
    pub cancelled: AtomicU64,
    /// Jobs finished `failed` or with an upstream `error` frame.
    pub failed: AtomicU64,
    /// Cache hits served without touching a replica.
    pub cache_hits: AtomicU64,
    /// Attempts beyond the first (same or another replica).
    pub retries: AtomicU64,
    /// Attempts that moved to a *different* replica than the previous one.
    pub failovers: AtomicU64,
    /// Hedged second requests fired near the deadline.
    pub hedges: AtomicU64,
    /// Jobs whose hedge finished before the primary attempt.
    pub hedge_wins: AtomicU64,
    /// Submits refused because no replica was dispatchable, at admission
    /// or, after `accepted`, at dispatch.
    pub rejected_cluster_degraded: AtomicU64,
    /// Submits refused at the router's in-flight cap.
    pub rejected_router_busy: AtomicU64,
    /// Submits refused during shutdown.
    pub rejected_shutting_down: AtomicU64,
    /// Submits refused because every candidate replica refused them.
    pub rejected_upstream: AtomicU64,
    /// Submits refused for reusing a job id still in flight on the
    /// same connection.
    pub rejected_duplicate_id: AtomicU64,
    /// Admitted jobs that ended with a `rejected` frame after their
    /// `accepted` (`cluster_degraded` at dispatch, or `upstream`): with
    /// `done`, `cancelled`, `failed` and `in_flight` it accounts for every
    /// submitted job.
    pub rejected_after_accept: AtomicU64,
    /// Dispatches currently in flight.
    pub in_flight: AtomicU64,
}

impl RouterMetrics {
    /// The counter members of the router's `stats` frame.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, Json)> {
        let get = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        vec![
            ("in_flight", get(&self.in_flight)),
            ("submitted", get(&self.submitted)),
            ("done", get(&self.done)),
            ("cancelled", get(&self.cancelled)),
            ("failed", get(&self.failed)),
            ("cache_hits", get(&self.cache_hits)),
            ("retries", get(&self.retries)),
            ("failovers", get(&self.failovers)),
            ("hedges", get(&self.hedges)),
            ("hedge_wins", get(&self.hedge_wins)),
            ("rejected_after_accept", get(&self.rejected_after_accept)),
            (
                "rejected",
                Json::obj([
                    ("cluster_degraded", get(&self.rejected_cluster_degraded)),
                    ("router_busy", get(&self.rejected_router_busy)),
                    ("shutting_down", get(&self.rejected_shutting_down)),
                    ("upstream", get(&self.rejected_upstream)),
                    ("duplicate_id", get(&self.rejected_duplicate_id)),
                ]),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_embeds_in_a_valid_frame() {
        let m = RouterMetrics::default();
        m.submitted.store(3, Ordering::Relaxed);
        m.rejected_router_busy.store(1, Ordering::Relaxed);
        let doc = Json::parse(&Json::obj(m.snapshot()).to_string()).unwrap();
        assert_eq!(doc.get("submitted").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            doc.get("rejected")
                .and_then(|r| r.get("router_busy"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }
}
