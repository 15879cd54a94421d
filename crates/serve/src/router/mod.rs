//! `sophie-router`: the fault-tolerant front end of a sharded
//! `sophie-serve` cluster.
//!
//! The router speaks the exact same JSONL protocol as a single daemon —
//! clients cannot tell the difference — and adds, behind that unchanged
//! surface:
//!
//! * **placement** — jobs hash by `(graph digest, config, seed)` to a
//!   home replica, keeping replica-side instance caches warm;
//! * **retry / hedge / failover** — every dispatch is wrapped in
//!   deadline-aware capped exponential backoff with seeded jitter,
//!   optional hedged second requests near the deadline, and failover to
//!   the next replica on connect errors, timeouts, and malformed frames
//!   ([`dispatch`]);
//! * **cluster health** — periodic ping probes drive each replica through
//!   `Healthy → Degraded → Quarantined` with probe-based re-admission
//!   ([`health`]), the cluster-level mirror of the device layer's
//!   `Reprogram`/`Remap`;
//! * **result cache** — completed reports are content-addressed and
//!   replayed byte-identically in microseconds ([`cache`]);
//! * **graceful degradation** — when every replica is quarantined the
//!   router serves cache hits and answers everything else with a typed
//!   `rejected: cluster_degraded`; overload trips `router_busy`. Nothing
//!   queues unboundedly.
//!
//! Byte-identity: any job that completes without a retry produces event
//! and result frames byte-identical to single-daemon serving. The router
//! forwards each submit under an upstream id of its own and splices the
//! client's id back into the replica's frames, keeping every other byte
//! ([`dispatch`]).
//!
//! # Threads and connections
//!
//! Client connections go through the front end the daemon uses
//! (the private `conn` module): a blocking accept woken at shutdown, the
//! connection cap, the read loop and each connection's job map. The router
//! adds its admission checks (shutdown, in-flight cap, degradation,
//! duplicate id), one dispatch thread per admitted job, the health
//! prober, which sleeps on the front end's shutdown signal between sweeps,
//! and its own `stats` frame. Each replica gets at most
//! [`upstream::LINKS`] long-lived connections, each with one thread that
//! dials it and then reads it ([`upstream`]); attempts are messages on
//! them, so once they are up the router dials nothing more. In all, a
//! router runs its client connections' threads, at most `max_inflight`
//! dispatch threads, replicas × `LINKS` link threads, the prober and the
//! supervisor. `list-solvers` takes a short-lived connection of its own,
//! and the prober keeps one per replica: neither the `solvers` frame nor
//! `pong` carries a job id. Every dial is bounded by `probe_timeout`.

pub mod cache;
pub mod dispatch;
pub mod health;
pub mod metrics;
pub mod pool;
pub mod retry;
pub mod upstream;

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::config::env_usize;
use crate::conn::{self, FrontEnd, Service};
use crate::error::{Result, ServeError};
use crate::json::Json;
use crate::protocol::{
    accepted_frame, bare_command, error_frame, failed_frame, hello_frame, rejected_frame,
    SubmitRequest,
};

use cache::ResultCache;
use dispatch::{ClientConn, DispatchCtl, Reply};
use health::HealthPolicy;
use metrics::RouterMetrics;
use pool::ReplicaPool;
use retry::RetryPolicy;

/// Tunables for one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Client connections accepted before `too_many_connections`.
    pub max_connections: usize,
    /// Dispatches in flight before `router_busy` backpressure.
    pub max_inflight: usize,
    /// Per-line request cap, mirroring the daemon's. It also caps each
    /// submit the router renders for a replica, so it must not exceed the
    /// replicas' own.
    pub max_line_bytes: usize,
    /// Result-cache capacity in reports (0 disables caching).
    pub cache_capacity: usize,
    /// Gap between health-probe sweeps.
    pub probe_interval: Duration,
    /// Bound on one probe round-trip, and on each dial to a replica (the
    /// TCP connect and the greeting).
    pub probe_timeout: Duration,
    /// Read timeout for an attempt of a job with no deadline.
    pub default_attempt_timeout: Duration,
    /// Health state-machine thresholds.
    pub health: HealthPolicy,
    /// Retry/backoff/hedging policy.
    pub retry: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_connections: 64,
            max_inflight: 256,
            max_line_bytes: 16 << 20,
            cache_capacity: 1024,
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            default_attempt_timeout: Duration::from_secs(120),
            health: HealthPolicy::default(),
            retry: RetryPolicy::default(),
        }
    }
}

impl RouterConfig {
    /// Validates every field, naming the first offender.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`].
    pub fn validate(&self) -> Result<()> {
        for (field, value) in [
            ("router.max_connections", self.max_connections),
            ("router.max_inflight", self.max_inflight),
            ("router.max_line_bytes", self.max_line_bytes),
        ] {
            if value == 0 {
                return Err(ServeError::BadConfig {
                    field,
                    message: "must be positive".into(),
                });
            }
        }
        for (field, value) in [
            ("router.probe_interval", self.probe_interval),
            ("router.probe_timeout", self.probe_timeout),
        ] {
            if value.is_zero() {
                return Err(ServeError::BadConfig {
                    field,
                    message: "must be positive".into(),
                });
            }
        }
        self.health.validate()?;
        self.retry.validate()
    }

    /// Applies `SOPHIE_ROUTER_INFLIGHT` / `SOPHIE_ROUTER_CACHE` overrides,
    /// mirroring the daemon's env-override idiom.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] for unparsable values.
    pub fn with_env_overrides(mut self) -> Result<Self> {
        if let Some(v) = env_usize("SOPHIE_ROUTER_INFLIGHT")? {
            self.max_inflight = v;
        }
        if let Some(v) = env_usize("SOPHIE_ROUTER_CACHE")? {
            self.cache_capacity = v;
        }
        self.validate()?;
        Ok(self)
    }
}

/// State shared by the router's acceptor, connection, dispatch, and probe
/// threads.
pub(crate) struct RouterShared {
    pub(crate) config: RouterConfig,
    pub(crate) pool: ReplicaPool,
    pub(crate) cache: ResultCache,
    pub(crate) metrics: RouterMetrics,
    front: FrontEnd<Arc<DispatchCtl>>,
}

impl Service for RouterShared {
    type Job = Arc<DispatchCtl>;

    fn front(&self) -> &FrontEnd<Arc<DispatchCtl>> {
        &self.front
    }

    fn submit(shared: &Arc<Self>, conn: &Arc<ClientConn>, req: SubmitRequest) {
        let metrics = &shared.metrics;
        let refuse = |counter: &AtomicU64, reason: &str| {
            counter.fetch_add(1, Ordering::Relaxed);
            conn.send(&rejected_frame(&req.id, reason));
        };
        if shared.front.is_shutting_down() {
            return refuse(&metrics.rejected_shutting_down, "shutting_down");
        }
        // A replica reads the submit the router renders, which can outgrow
        // the client's line (a number prints without an exponent, so
        // `1e-300` takes some 300 bytes), and a replica that cannot frame a
        // line drops its connection, which other jobs' attempts share. Such
        // a submit gets a daemon's answer to an unusable request: an `error`
        // frame, before any `accepted`.
        let upstream_bytes = req.to_frame(&upstream::wire_id(u64::MAX)).len();
        if upstream_bytes > shared.config.max_line_bytes {
            let message = format!(
                "submit renders to {upstream_bytes} bytes for the replicas, over the {}-byte line limit",
                shared.config.max_line_bytes
            );
            return conn.send(&error_frame(&req.id, &message));
        }
        // Reserve the in-flight slot before checking the cap: fetch_add
        // returns the prior value, so concurrent submits cannot both observe
        // a below-limit load and race past `max_inflight` together.
        let prior_inflight = metrics.in_flight.fetch_add(1, Ordering::AcqRel);
        if prior_inflight >= shared.config.max_inflight as u64 {
            // Typed backpressure instead of unbounded queueing.
            metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
            return refuse(&metrics.rejected_router_busy, "router_busy");
        }
        // Graceful degradation, decided at admission: with every replica
        // quarantined, only submissions the cache can replay (cacheable,
        // key present) are worth accepting; everything else gets the typed
        // rejection now rather than a post-acceptance failure. Dispatch
        // re-checks, since health can change between admission and dispatch.
        let key = cache::job_key(&req);
        let home = (cache::placement_hash(&key) % shared.pool.replicas.len() as u64) as usize;
        let cache_serveable = cache::cacheable(&req) && shared.cache.contains(&key);
        if !cache_serveable && shared.pool.candidates(home).is_empty() {
            metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
            return refuse(&metrics.rejected_cluster_degraded, "cluster_degraded");
        }
        let (notes_tx, notes) = mpsc::channel();
        let ctl = Arc::new(DispatchCtl::new(notes_tx));
        if !conn.jobs.insert(&req.id, Arc::clone(&ctl)) {
            metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
            return refuse(&metrics.rejected_duplicate_id, "duplicate_id");
        }
        metrics.submitted.fetch_add(1, Ordering::Relaxed);
        // `accepted` goes out before the dispatch thread exists, so it always
        // precedes this job's result — same ordering guarantee as the daemon.
        conn.send(&accepted_frame(&req.id, prior_inflight as usize + 1));

        let reply = Reply {
            conn: Arc::clone(conn),
            id: req.id.clone(),
        };
        let (dispatcher, job_reply, start) = (Arc::clone(shared), reply.clone(), Instant::now());
        let spawned = std::thread::Builder::new()
            .name("router-dispatch".into())
            .spawn(move || dispatch::dispatch(&dispatcher, &job_reply, &ctl, &notes, &req, &key));
        if let Err(e) = spawned {
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            let message = format!("router could not start the job: {e}");
            reply.send_final(shared, &failed_frame(&reply.id, elapsed_ms, &message));
        }
    }

    /// Forwarded to the first replica that answers, and its frame relayed
    /// verbatim. The `solvers` frame carries no job id, so the request
    /// takes a short-lived connection of its own.
    fn solvers_frame(&self) -> String {
        for index in self.pool.candidates(0) {
            let addr = self.pool.replicas[index].upstream.addr();
            let Ok(mut client) = Client::connect_timeout(&addr, self.config.probe_timeout) else {
                continue;
            };
            if client.send_line(&bare_command("list-solvers")).is_err() {
                continue;
            }
            while let Ok(frame) = client.read_frame() {
                if frame.frame_type() == Some("solvers") {
                    return frame.line;
                }
            }
        }
        error_frame("", "no replica answered list-solvers")
    }

    /// Cluster health, cache, and dispatch counters. `"router":true`
    /// distinguishes it from a daemon's.
    fn stats_frame(&self) -> String {
        let header = [
            ("type", "stats".into()),
            ("router", true.into()),
            ("protocol", crate::protocol::PROTOCOL_VERSION.into()),
            ("shutting_down", self.front.is_shutting_down().into()),
            ("replicas", self.pool.stats()),
            ("cache", self.cache.stats()),
            ("upstream", self.pool.upstream_stats()),
        ];
        let members = header
            .into_iter()
            .chain(self.front.stats())
            .chain(self.metrics.snapshot());
        Json::obj(members).to_string()
    }

    /// Closes every replica connection and joins its reader: their
    /// pending attempts fail, and nothing is dialled again.
    fn drain(&self) {
        for replica in &self.pool.replicas {
            replica.upstream.shut();
        }
    }
}

/// Entry point: binds and runs a router in background threads.
pub struct Router;

/// A running router. Dropping the handle shuts the router down like
/// [`RouterHandle::shutdown`] (its replicas keep running), and the drop
/// blocks until its threads have joined; to wait for a client's protocol
/// `shutdown` instead, call [`RouterHandle::join`].
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds `addr` and starts routing to `replicas`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] for an invalid config or an empty replica
    /// set, [`ServeError::Io`] if the bind fails or the prober or
    /// supervisor thread cannot be spawned (the prober is stopped first).
    pub fn start(
        config: RouterConfig,
        replicas: &[SocketAddr],
        addr: impl ToSocketAddrs,
    ) -> Result<RouterHandle> {
        config.validate()?;
        if replicas.is_empty() {
            return Err(ServeError::BadConfig {
                field: "router.replicas",
                message: "need at least one replica address".into(),
            });
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // The router's own greeting; solver inventory lives behind the
        // `list-solvers` command, which is forwarded to a replica.
        let front = FrontEnd::new(
            "router",
            &listener,
            config.max_connections,
            config.max_line_bytes,
            hello_frame(&[]),
        )?;
        let shared = Arc::new(RouterShared {
            pool: ReplicaPool::new(replicas, config.health),
            cache: ResultCache::new(config.cache_capacity),
            metrics: RouterMetrics::default(),
            config,
            front,
        });
        let prober = Arc::clone(&shared);
        shared
            .front
            .spawn_helper("router-prober".into(), move || prober_loop(&prober))?;
        let supervisor = conn::spawn_supervisor(&shared, listener)?;
        Ok(RouterHandle {
            addr,
            shared,
            supervisor: Some(supervisor),
        })
    }
}

impl RouterHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been triggered (by either side).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.front.is_shutting_down()
    }

    /// Re-points replica `index` at a new address — the cluster-level
    /// `Remap` after a replica restarts on a fresh ephemeral port. Its
    /// health is left as-is; probes re-admit it.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] for an out-of-range index.
    pub fn update_replica(&self, index: usize, addr: SocketAddr) -> Result<()> {
        match self.shared.pool.replicas.get(index) {
            Some(replica) => {
                replica.upstream.set_addr(addr);
                Ok(())
            }
            None => Err(ServeError::BadConfig {
                field: "router.replica_index",
                message: format!(
                    "index {index} out of range for {} replicas",
                    self.shared.pool.replicas.len()
                ),
            }),
        }
    }

    /// Triggers graceful shutdown and blocks until teardown completes.
    /// Replicas are left running — they belong to whoever started them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until a client-triggered shutdown completes teardown.
    pub fn join(mut self) {
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }

    /// Triggers shutdown, unless teardown already ran, and waits for it.
    fn stop(&mut self) {
        if let Some(t) = self.supervisor.take() {
            conn::shut_down(&*self.shared);
            let _ = t.join();
        }
    }
}

/// A handle dropped without `shutdown` or `join` (a test that panics,
/// say) still stops every thread it started.
impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for RouterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandle")
            .field("addr", &self.addr)
            .field("replicas", &self.shared.pool.replicas.len())
            .field("shutting_down", &self.is_shutting_down())
            .finish()
    }
}

/// Health-probe loop: one persistent probe connection per replica, a ping
/// per sweep, reconnect-in-place on transport failure, results fed into
/// the health state machine. Quarantined replicas keep receiving probes —
/// that is their road back in.
fn prober_loop(shared: &Arc<RouterShared>) {
    let n = shared.pool.replicas.len();
    let mut probes: Vec<Option<Client>> = (0..n).map(|_| None).collect();
    while !shared.front.is_shutting_down() {
        for (index, slot) in probes.iter_mut().enumerate() {
            probe_one(shared, index, slot);
        }
        shared.front.wait_for_shutdown(shared.config.probe_interval);
    }
}

fn probe_one(shared: &Arc<RouterShared>, index: usize, slot: &mut Option<Client>) {
    let replica = &shared.pool.replicas[index];
    let addr = replica.upstream.addr();
    if slot.as_ref().is_some_and(|c| c.peer_addr() != addr) {
        *slot = None; // replica moved; the old probe connection is stale
    }
    if slot.is_none() {
        match Client::connect_timeout(&addr, shared.config.probe_timeout) {
            Ok(client) => *slot = Some(client),
            Err(_) => {
                shared.pool.record_probe(index, false);
                return;
            }
        }
    }
    let client = slot.as_mut().expect("probe client present");
    match client.ping() {
        Ok(()) => shared.pool.record_probe(index, true),
        Err(e) if e.is_retriable() => {
            // One reconnect-in-place before the failure counts: an idle
            // probe socket dying is not evidence the replica is down.
            match client.reconnect().and_then(|()| client.ping()) {
                Ok(()) => shared.pool.record_probe(index, true),
                Err(_) => {
                    *slot = None;
                    shared.pool.record_probe(index, false);
                }
            }
        }
        Err(_) => {
            *slot = None;
            shared.pool.record_probe(index, false);
        }
    }
}
