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
//! and result frames byte-identical to single-daemon serving, because the
//! router forwards the client's submit line and the replica's reply lines
//! verbatim.

pub mod cache;
pub mod dispatch;
pub mod health;
pub mod metrics;
pub mod pool;
pub mod retry;

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::client::Client;
use crate::config::env_usize;
use crate::conn::{Conn, ConnTracker};
use crate::error::{Result, ServeError};
use crate::json::Json;
use crate::protocol::{
    bare_command, bare_frame, cancel_ok_frame, error_frame, hello_frame, parse_request,
    read_line_bounded, rejected_frame, Request,
};

use cache::ResultCache;
use dispatch::DispatchCtl;
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
    /// Per-line request cap, mirroring the daemon's.
    pub max_line_bytes: usize,
    /// Result-cache capacity in reports (0 disables caching).
    pub cache_capacity: usize,
    /// Gap between health-probe sweeps.
    pub probe_interval: Duration,
    /// Read timeout for one probe round-trip.
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
        if self.probe_interval.is_zero() {
            return Err(ServeError::BadConfig {
                field: "router.probe_interval",
                message: "must be positive".into(),
            });
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
    pub(crate) shutdown: AtomicBool,
    conn_count: AtomicUsize,
    conns: ConnTracker,
}

/// Entry point: binds and runs a router in background threads.
pub struct Router;

/// A running router. Dropping the handle does not stop it; call
/// [`RouterHandle::shutdown`].
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
    /// set, [`ServeError::Io`] if the bind fails.
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
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(RouterShared {
            pool: ReplicaPool::new(replicas, config.health),
            cache: ResultCache::new(config.cache_capacity),
            metrics: RouterMetrics::default(),
            config,
            shutdown: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            conns: ConnTracker::default(),
        });
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("router-prober".into())
                .spawn(move || prober_loop(&shared))
                .expect("spawn prober")
        };
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("router-supervisor".into())
                .spawn(move || supervise(&shared, &listener, prober))
                .expect("spawn supervisor")
        };
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
        self.shared.shutdown.load(Ordering::Acquire)
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
                replica.set_addr(addr);
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
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }

    /// Blocks until a client-triggered shutdown completes teardown.
    pub fn join(mut self) {
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
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

/// Accept loop plus teardown: close client sockets, join connection
/// threads and the prober. Dispatch threads are not joined — their frames
/// land on dead `Conn`s and their replica connections drop, which cancels
/// the replica-side jobs.
fn supervise(shared: &Arc<RouterShared>, listener: &TcpListener, prober: JoinHandle<()>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => accept_conn(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    shared.conns.close_all();
    let _ = prober.join();
}

fn accept_conn(shared: &Arc<RouterShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    shared.conns.reap_finished();
    // Claim-then-check: the returned prior value decides, so two accepts
    // racing at the cap cannot both slip under it.
    let prior = shared.conn_count.fetch_add(1, Ordering::AcqRel);
    if prior >= shared.config.max_connections {
        shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        let mut stream = stream;
        let _ = writeln!(stream, "{}", rejected_frame("", "too_many_connections"));
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let shared2 = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("router-conn".into())
        .spawn(move || {
            handle_conn(&shared2, stream);
            shared2.conn_count.fetch_sub(1, Ordering::AcqRel);
        })
        .expect("spawn router connection thread");
    shared.conns.add_thread(handle);
}

fn handle_conn(shared: &Arc<RouterShared>, stream: TcpStream) {
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn::new(writer));
    shared.conns.add_conn(&conn);
    // The router's own greeting; solver inventory lives behind the
    // `list-solvers` command, which is forwarded to a replica.
    conn.send(&hello_frame(&[]));
    let mut reader = BufReader::new(stream);
    // Live dispatches this connection owns, for cancel and connection-drop
    // cleanup. Shared with the dispatch threads, which remove themselves.
    let dispatches: Arc<Mutex<HashMap<String, Arc<DispatchCtl>>>> =
        Arc::new(Mutex::new(HashMap::new()));
    loop {
        let line = match read_line_bounded(&mut reader, shared.config.max_line_bytes) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                conn.send(&error_frame("", &e.to_string()));
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(e) => conn.send(&error_frame("", &e.to_string())),
            Ok(Request::Submit(req)) => handle_submit(shared, &conn, &dispatches, line, *req),
            Ok(Request::Cancel { id }) => {
                let ctl = dispatches
                    .lock()
                    .expect("dispatches lock")
                    .get(&id)
                    .cloned();
                let found = ctl.is_some();
                if let Some(ctl) = ctl {
                    ctl.cancel();
                }
                conn.send(&cancel_ok_frame(&id, found));
            }
            Ok(Request::ListSolvers) => match forward_list_solvers(shared) {
                Some(raw) => conn.send(&raw),
                None => conn.send(&error_frame("", "no replica answered list-solvers")),
            },
            Ok(Request::Stats) => conn.send(&stats_frame(shared)),
            Ok(Request::Ping) => conn.send(&bare_frame("pong")),
            Ok(Request::Shutdown) => {
                conn.send(&bare_frame("shutdown_ack"));
                shared.shutdown.store(true, Ordering::Release);
                break;
            }
        }
        if !conn.is_alive() {
            break;
        }
    }
    // Connection gone: cancel every dispatch it still owns.
    let ctls: Vec<_> = dispatches
        .lock()
        .expect("dispatches lock")
        .values()
        .cloned()
        .collect();
    for ctl in ctls {
        ctl.cancel();
    }
    conn.mark_dead();
}

fn handle_submit(
    shared: &Arc<RouterShared>,
    conn: &Arc<Conn>,
    dispatches: &Arc<Mutex<HashMap<String, Arc<DispatchCtl>>>>,
    raw_line: String,
    req: crate::protocol::SubmitRequest,
) {
    if shared.shutdown.load(Ordering::Acquire) {
        shared
            .metrics
            .rejected_shutting_down
            .fetch_add(1, Ordering::Relaxed);
        conn.send(&rejected_frame(&req.id, "shutting_down"));
        return;
    }
    // Reserve the in-flight slot before checking the cap: fetch_add
    // returns the prior value, so concurrent submits cannot both observe
    // a below-limit load and race past `max_inflight` together.
    let prior_inflight = shared.metrics.in_flight.fetch_add(1, Ordering::AcqRel);
    if prior_inflight >= shared.config.max_inflight as u64 {
        // Typed backpressure instead of unbounded queueing.
        shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared
            .metrics
            .rejected_router_busy
            .fetch_add(1, Ordering::Relaxed);
        conn.send(&rejected_frame(&req.id, "router_busy"));
        return;
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
        shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared
            .metrics
            .rejected_cluster_degraded
            .fetch_add(1, Ordering::Relaxed);
        conn.send(&rejected_frame(&req.id, "cluster_degraded"));
        return;
    }
    let ctl = Arc::new(DispatchCtl::new(&req.id));
    {
        // A submit reusing an id still in flight on this connection would
        // otherwise overwrite the first job's ctl — orphaning whichever
        // dispatch loses the race from cancel and connection-drop cleanup.
        let mut live = dispatches.lock().expect("dispatches lock");
        if live.contains_key(&req.id) {
            drop(live);
            shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
            shared
                .metrics
                .rejected_duplicate_id
                .fetch_add(1, Ordering::Relaxed);
            conn.send(&rejected_frame(&req.id, "duplicate_id"));
            return;
        }
        live.insert(req.id.clone(), Arc::clone(&ctl));
    }
    shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
    // `accepted` goes out before the dispatch thread exists, so it always
    // precedes this job's result — same ordering guarantee as the daemon.
    conn.send(&crate::protocol::accepted_frame(
        &req.id,
        prior_inflight as usize + 1,
    ));

    let shared = Arc::clone(shared);
    let conn = Arc::clone(conn);
    let dispatches = Arc::clone(dispatches);
    std::thread::Builder::new()
        .name("router-dispatch".into())
        .spawn(move || {
            dispatch::dispatch(&shared, &conn, &ctl, &raw_line, &req, &key);
            // Remove only our own entry: guards against ever dropping a
            // successor's ctl should the id be reused after this removal.
            let mut live = dispatches.lock().expect("dispatches lock");
            if live.get(&req.id).is_some_and(|cur| Arc::ptr_eq(cur, &ctl)) {
                live.remove(&req.id);
            }
            drop(live);
            shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
        })
        .expect("spawn dispatch thread");
}

/// Forwards `list-solvers` to the first replica that answers, returning
/// the raw frame for verbatim relay.
fn forward_list_solvers(shared: &Arc<RouterShared>) -> Option<String> {
    for index in shared.pool.candidates(0) {
        let replica = &shared.pool.replicas[index];
        let Ok((mut client, _)) = replica.checkout() else {
            continue;
        };
        let ok = client
            .set_read_timeout(Some(shared.config.probe_timeout))
            .and_then(|()| client.send_line(&bare_command("list-solvers")));
        if ok.is_err() {
            continue;
        }
        loop {
            match client.read_frame() {
                Ok(frame) if frame.frame_type() == Some("solvers") => {
                    replica.checkin(client);
                    return Some(frame.line);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }
    None
}

/// The router's own `stats` frame: cluster health, cache, and dispatch
/// counters. `"router":true` distinguishes it from a daemon's.
fn stats_frame(shared: &RouterShared) -> String {
    let shutting_down = shared.shutdown.load(Ordering::Acquire);
    let header = [
        ("type", "stats".into()),
        ("router", true.into()),
        ("protocol", crate::protocol::PROTOCOL_VERSION.into()),
        ("shutting_down", shutting_down.into()),
        ("replicas", shared.pool.stats()),
        ("cache", shared.cache.stats()),
    ];
    Json::obj(header.into_iter().chain(shared.metrics.snapshot())).to_string()
}

/// Health-probe loop: one persistent probe connection per replica, a ping
/// per sweep, reconnect-in-place on transport failure (the same machinery
/// dispatch uses), results fed into the health state machine. Quarantined
/// replicas keep receiving probes — that is their road back in.
fn prober_loop(shared: &Arc<RouterShared>) {
    let n = shared.pool.replicas.len();
    let mut probes: Vec<Option<Client>> = (0..n).map(|_| None).collect();
    while !shared.shutdown.load(Ordering::Acquire) {
        for (index, slot) in probes.iter_mut().enumerate() {
            probe_one(shared, index, slot);
        }
        // Shutdown-aware sleep in small slices.
        let mut remaining = shared.config.probe_interval;
        while !remaining.is_zero() && !shared.shutdown.load(Ordering::Acquire) {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining -= slice;
        }
    }
}

fn probe_one(shared: &Arc<RouterShared>, index: usize, slot: &mut Option<Client>) {
    let replica = &shared.pool.replicas[index];
    let addr = replica.addr();
    if slot.as_ref().is_some_and(|c| c.peer_addr() != addr) {
        *slot = None; // replica moved; the old probe connection is stale
    }
    if slot.is_none() {
        match Client::connect(addr) {
            Ok(mut client) => {
                if client
                    .set_read_timeout(Some(shared.config.probe_timeout))
                    .is_err()
                {
                    shared.pool.record_probe(index, false);
                    return;
                }
                *slot = Some(client);
            }
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
