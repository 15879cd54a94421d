//! In-process cluster harness: N daemon replicas plus a router, with
//! kill/restart controls for failure-injection tests and the chaos load
//! generator.
//!
//! Killing a replica exercises both retry paths the router knows:
//! in-flight jobs come back as shutdown-`cancelled` results (retriable)
//! and new dials are refused (connect failure). Restarting one lands on a
//! fresh ephemeral port, and [`LocalCluster::restart`] re-points the
//! router — the cluster-level `Remap`.

use std::net::SocketAddr;

use sophie_solve::SolverRegistry;

use crate::config::ServeConfig;
use crate::error::{Result, ServeError};
use crate::router::{Router, RouterConfig, RouterHandle};
use crate::server::{Server, ServerHandle};

/// A router fronting N in-process daemon replicas.
pub struct LocalCluster {
    router: Option<RouterHandle>,
    replicas: Vec<Option<ServerHandle>>,
    serve_config: ServeConfig,
    /// Fresh registries for restarts; solvers are not shareable across
    /// daemon instances.
    registry_factory: Box<dyn Fn() -> SolverRegistry + Send>,
}

impl LocalCluster {
    /// Starts `n` replicas with the full default solver registry, then a
    /// router over them, all on ephemeral loopback ports.
    ///
    /// # Errors
    ///
    /// Config validation and bind errors from either layer.
    pub fn start(n: usize, serve_config: ServeConfig, router_config: RouterConfig) -> Result<Self> {
        Self::start_with_registry(n, serve_config, router_config, sophie::default_registry)
    }

    /// [`LocalCluster::start`] with a caller-chosen router bind address
    /// (replicas stay on ephemeral loopback ports) — the `repro cluster`
    /// entry point.
    ///
    /// # Errors
    ///
    /// Config validation and bind errors from either layer.
    pub fn start_at(
        n: usize,
        serve_config: ServeConfig,
        router_config: RouterConfig,
        router_addr: &str,
    ) -> Result<Self> {
        Self::start_inner(
            n,
            serve_config,
            router_config,
            Box::new(sophie::default_registry),
            router_addr,
        )
    }

    /// [`LocalCluster::start`] with a custom per-replica registry factory.
    ///
    /// # Errors
    ///
    /// Config validation and bind errors from either layer.
    pub fn start_with_registry<F>(
        n: usize,
        serve_config: ServeConfig,
        router_config: RouterConfig,
        registry_factory: F,
    ) -> Result<Self>
    where
        F: Fn() -> SolverRegistry + Send + 'static,
    {
        Self::start_inner(
            n,
            serve_config,
            router_config,
            Box::new(registry_factory),
            "127.0.0.1:0",
        )
    }

    fn start_inner(
        n: usize,
        serve_config: ServeConfig,
        router_config: RouterConfig,
        registry_factory: Box<dyn Fn() -> SolverRegistry + Send>,
        router_addr: &str,
    ) -> Result<Self> {
        if n == 0 {
            return Err(ServeError::BadConfig {
                field: "cluster.replicas",
                message: "need at least one replica".into(),
            });
        }
        let mut replicas = Vec::with_capacity(n);
        for _ in 0..n {
            let handle = Server::start(serve_config, registry_factory(), "127.0.0.1:0")?;
            replicas.push(Some(handle));
        }
        let addrs: Vec<SocketAddr> = replicas
            .iter()
            .map(|r| r.as_ref().expect("replica just started").local_addr())
            .collect();
        let router = Router::start(router_config, &addrs, router_addr)?;
        Ok(LocalCluster {
            router: Some(router),
            replicas,
            serve_config,
            registry_factory,
        })
    }

    /// The router's client-facing address.
    #[must_use]
    pub fn router_addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router running").local_addr()
    }

    /// Replica `index`'s address, if it is currently running.
    #[must_use]
    pub fn replica_addr(&self, index: usize) -> Option<SocketAddr> {
        self.replicas
            .get(index)?
            .as_ref()
            .map(ServerHandle::local_addr)
    }

    /// Number of replica slots (running or killed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the cluster has no replica slots (never true after start).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The router handle, for stats connections and address updates.
    #[must_use]
    pub fn router(&self) -> &RouterHandle {
        self.router.as_ref().expect("router running")
    }

    /// Kills replica `index` (graceful daemon shutdown: queued jobs are
    /// cancelled, sockets closed). The router discovers the loss through
    /// dispatch failures and probes. Idempotent.
    pub fn kill(&mut self, index: usize) {
        if let Some(slot) = self.replicas.get_mut(index) {
            if let Some(handle) = slot.take() {
                handle.shutdown();
            }
        }
    }

    /// Restarts a killed replica on a fresh ephemeral port and re-points
    /// the router at it. Probes then re-admit it from quarantine.
    ///
    /// # Errors
    ///
    /// Bind errors, or [`ServeError::BadConfig`] for a bad index or a
    /// replica that is still running.
    pub fn restart(&mut self, index: usize) -> Result<SocketAddr> {
        let slot = self
            .replicas
            .get_mut(index)
            .ok_or_else(|| ServeError::BadConfig {
                field: "cluster.replica_index",
                message: format!("index {index} out of range"),
            })?;
        if slot.is_some() {
            return Err(ServeError::BadConfig {
                field: "cluster.replica_index",
                message: format!("replica {index} is still running"),
            });
        }
        let handle = Server::start(self.serve_config, (self.registry_factory)(), "127.0.0.1:0")?;
        let addr = handle.local_addr();
        *slot = Some(handle);
        self.router
            .as_ref()
            .expect("router running")
            .update_replica(index, addr)?;
        Ok(addr)
    }

    /// Shuts the router down first (so nothing dispatches into dying
    /// replicas), then every running replica. Dropping the cluster does
    /// the same.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until a client-triggered router shutdown completes, then
    /// stops the replicas — the daemon-mode path of `repro cluster`.
    pub fn join(mut self) {
        if let Some(router) = self.router.take() {
            router.join();
        }
        self.stop();
    }

    /// Stops whatever still runs: the router, then the replicas.
    fn stop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for slot in &mut self.replicas {
            if let Some(handle) = slot.take() {
                handle.shutdown();
            }
        }
    }
}

/// A cluster dropped without [`LocalCluster::shutdown`] (a test that
/// panics, say) still stops its router, replicas and their threads.
impl Drop for LocalCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for LocalCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalCluster")
            .field("replicas", &self.replicas.len())
            .field(
                "running",
                &self.replicas.iter().filter(|r| r.is_some()).count(),
            )
            .finish()
    }
}
