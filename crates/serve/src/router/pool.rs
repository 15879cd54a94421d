//! The router's view of its replica set: each replica's connections,
//! health tracker and counters, and placement candidate ordering.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

use super::health::{HealthPolicy, HealthTracker, ReplicaState};
use super::upstream::Upstream;

/// One backend `sophie-serve` daemon as the router tracks it.
pub(crate) struct Replica {
    /// Its address and the connections to it.
    pub(crate) upstream: Upstream,
    pub(crate) health: Mutex<HealthTracker>,
    pub(crate) dispatched: AtomicU64,
    pub(crate) ok: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) probes_ok: AtomicU64,
    pub(crate) probes_failed: AtomicU64,
}

impl Replica {
    fn new(addr: SocketAddr) -> Self {
        Replica {
            upstream: Upstream::new(addr),
            health: Mutex::new(HealthTracker::default()),
            dispatched: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            probes_ok: AtomicU64::new(0),
            probes_failed: AtomicU64::new(0),
        }
    }

    /// Current health state.
    pub(crate) fn state(&self) -> ReplicaState {
        self.health.lock().expect("replica health lock").state()
    }

    /// One replica's entry in the router `stats` frame.
    pub(crate) fn stats(&self, index: usize) -> Json {
        let health = self.health.lock().expect("replica health lock");
        let get = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        Json::obj([
            ("index", index.into()),
            ("addr", self.upstream.addr().to_string().into()),
            ("state", health.state().as_str().into()),
            ("dispatched", get(&self.dispatched)),
            ("ok", get(&self.ok)),
            ("failed", get(&self.failed)),
            ("probes_ok", get(&self.probes_ok)),
            ("probes_failed", get(&self.probes_failed)),
            ("quarantines", health.quarantines().into()),
            (
                "transitions",
                health.transitions().iter().map(|&t| t.into()).collect(),
            ),
        ])
    }
}

/// The replica set plus the health policy that governs it.
pub(crate) struct ReplicaPool {
    pub(crate) replicas: Vec<std::sync::Arc<Replica>>,
    pub(crate) policy: HealthPolicy,
    /// The next upstream id: unique across replicas, so a job can tell
    /// the frames of its attempts apart.
    next_id: AtomicU64,
}

impl ReplicaPool {
    pub(crate) fn new(addrs: &[SocketAddr], policy: HealthPolicy) -> Self {
        ReplicaPool {
            replicas: addrs
                .iter()
                .map(|&a| std::sync::Arc::new(Replica::new(a)))
                .collect(),
            policy,
            next_id: AtomicU64::new(0),
        }
    }

    /// A fresh upstream id.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Dispatch candidates for a job whose placement hash lands on `home`:
    /// the ring starting at `home`, healthy replicas first, then degraded
    /// ones (each group in ring order), quarantined ones excluded. Empty
    /// means the cluster is degraded to cache-only serving.
    pub(crate) fn candidates(&self, home: usize) -> Vec<usize> {
        let n = self.replicas.len();
        if n == 0 {
            return Vec::new();
        }
        let ring = (0..n).map(|i| (home + i) % n);
        let mut healthy = Vec::new();
        let mut degraded = Vec::new();
        for i in ring {
            match self.replicas[i].state() {
                ReplicaState::Healthy => healthy.push(i),
                ReplicaState::Degraded => degraded.push(i),
                ReplicaState::Quarantined => {}
            }
        }
        healthy.extend(degraded);
        healthy
    }

    /// Feeds one dispatch outcome into a replica's health and counters.
    pub(crate) fn record_dispatch(&self, index: usize, ok: bool) {
        let replica = &self.replicas[index];
        self.record(replica, ok, if ok { &replica.ok } else { &replica.failed });
    }

    /// Feeds one probe outcome into a replica's health and counters.
    pub(crate) fn record_probe(&self, index: usize, ok: bool) {
        let replica = &self.replicas[index];
        let counter = if ok {
            &replica.probes_ok
        } else {
            &replica.probes_failed
        };
        self.record(replica, ok, counter);
    }

    fn record(&self, replica: &Replica, ok: bool, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        let mut health = replica.health.lock().expect("replica health lock");
        match ok {
            true => health.record_success(&self.policy),
            false => health.record_failure(&self.policy),
        };
    }

    /// The `upstream` member of the router `stats` frame: live replica
    /// connections and the attempts pending on them.
    pub(crate) fn upstream_stats(&self) -> Json {
        let loads = self.replicas.iter().map(|r| r.upstream.load());
        let (connections, pending) = loads.fold((0, 0), |(c, p), (rc, rp)| (c + rc, p + rp));
        Json::obj([
            ("connections", connections.into()),
            ("pending", pending.into()),
        ])
    }

    /// The `replicas` array of the router `stats` frame.
    pub(crate) fn stats(&self) -> Json {
        self.replicas
            .iter()
            .enumerate()
            .map(|(i, r)| r.stats(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> ReplicaPool {
        let addrs: Vec<SocketAddr> = (0..n)
            .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap())
            .collect();
        ReplicaPool::new(&addrs, HealthPolicy::default())
    }

    #[test]
    fn candidates_ring_starts_at_home() {
        let pool = pool(3);
        assert_eq!(pool.candidates(1), vec![1, 2, 0]);
    }

    #[test]
    fn candidates_prefer_healthy_and_skip_quarantined() {
        let pool = pool(3);
        // Degrade replica 1 (one failure), quarantine replica 2.
        pool.record_dispatch(1, false);
        for _ in 0..3 {
            pool.record_dispatch(2, false);
        }
        assert_eq!(pool.candidates(1), vec![0, 1], "healthy first, 2 excluded");
        // All quarantined → cache-only serving.
        for _ in 0..3 {
            pool.record_dispatch(0, false);
            pool.record_dispatch(1, false);
        }
        assert!(pool.candidates(0).is_empty());
    }

    #[test]
    fn probes_readmit_a_quarantined_replica() {
        let pool = pool(1);
        for _ in 0..3 {
            pool.record_probe(0, false);
        }
        assert_eq!(pool.replicas[0].state(), ReplicaState::Quarantined);
        pool.record_probe(0, true);
        pool.record_probe(0, true);
        assert_eq!(pool.replicas[0].state(), ReplicaState::Healthy);
    }

    #[test]
    fn replica_stats_render_as_valid_json() {
        let pool = pool(2);
        pool.record_dispatch(0, true);
        pool.record_dispatch(1, false);
        let doc = Json::parse(&pool.stats().to_string()).unwrap();
        match doc {
            Json::Arr(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(
                    items[1].get("state").and_then(Json::as_str),
                    Some("degraded")
                );
            }
            other => panic!("expected array, got {other:?}"),
        }
    }
}
