//! The router's view of its replica set: addresses, pooled idle
//! connections, health trackers, and placement candidate ordering.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::client::Client;
use crate::error::ClientError;
use crate::json::Json;

use super::health::{HealthPolicy, HealthTracker, ReplicaState};

/// Idle connections kept per replica; beyond this, checked-in connections
/// are simply dropped (the replica cancels nothing — they carried no job).
const MAX_IDLE_PER_REPLICA: usize = 4;

/// One backend `sophie-serve` daemon as the router tracks it.
#[derive(Debug)]
pub(crate) struct Replica {
    addr: Mutex<SocketAddr>,
    idle: Mutex<Vec<Client>>,
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
            addr: Mutex::new(addr),
            idle: Mutex::new(Vec::new()),
            health: Mutex::new(HealthTracker::default()),
            dispatched: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            probes_ok: AtomicU64::new(0),
            probes_failed: AtomicU64::new(0),
        }
    }

    /// Current dial address.
    pub(crate) fn addr(&self) -> SocketAddr {
        *self.addr.lock().expect("replica addr lock")
    }

    /// Re-points the replica (restart on a new ephemeral port — the
    /// cluster-level `Remap`) and drops idle connections to the old one.
    pub(crate) fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().expect("replica addr lock") = addr;
        self.idle.lock().expect("replica idle lock").clear();
    }

    /// Checks a connection out of the idle pool, dialing fresh if empty.
    /// The flag says whether the connection was pooled — a pooled one may
    /// have died while idle and deserves one in-place reconnect before
    /// its failure is charged to the replica's health.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] and the other connect-time errors.
    pub(crate) fn checkout(&self) -> Result<(Client, bool), ClientError> {
        let pooled = self.idle.lock().expect("replica idle lock").pop();
        match pooled {
            Some(client) => Ok((client, true)),
            None => Client::connect(self.addr()).map(|c| (c, false)),
        }
    }

    /// Returns a connection to the idle pool, unless the pool is full or
    /// the replica has since moved to a new address.
    pub(crate) fn checkin(&self, client: Client) {
        if client.peer_addr() != self.addr() {
            return;
        }
        let mut idle = self.idle.lock().expect("replica idle lock");
        if idle.len() < MAX_IDLE_PER_REPLICA {
            idle.push(client);
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
            ("addr", self.addr().to_string().into()),
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
#[derive(Debug)]
pub(crate) struct ReplicaPool {
    pub(crate) replicas: Vec<std::sync::Arc<Replica>>,
    pub(crate) policy: HealthPolicy,
}

impl ReplicaPool {
    pub(crate) fn new(addrs: &[SocketAddr], policy: HealthPolicy) -> Self {
        ReplicaPool {
            replicas: addrs
                .iter()
                .map(|&a| std::sync::Arc::new(Replica::new(a)))
                .collect(),
            policy,
        }
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
        if ok {
            replica.ok.fetch_add(1, Ordering::Relaxed);
            replica
                .health
                .lock()
                .expect("replica health lock")
                .record_success(&self.policy);
        } else {
            replica.failed.fetch_add(1, Ordering::Relaxed);
            replica
                .health
                .lock()
                .expect("replica health lock")
                .record_failure(&self.policy);
        }
    }

    /// Feeds one probe outcome into a replica's health and counters.
    pub(crate) fn record_probe(&self, index: usize, ok: bool) {
        let replica = &self.replicas[index];
        if ok {
            replica.probes_ok.fetch_add(1, Ordering::Relaxed);
            replica
                .health
                .lock()
                .expect("replica health lock")
                .record_success(&self.policy);
        } else {
            replica.probes_failed.fetch_add(1, Ordering::Relaxed);
            replica
                .health
                .lock()
                .expect("replica health lock")
                .record_failure(&self.policy);
        }
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
