//! CLI entry points for the serving layer: `repro serve`, `repro submit`,
//! `repro ctl`, and `repro loadgen`.
//!
//! These commands have their own flag vocabulary (`--addr`, `--clients`,
//! ...) and are dispatched by the `repro` binary *before* its experiment
//! flag loop; [`cli`] receives the raw argument tail and owns parsing from
//! there. All output that machines might consume (submit frames, loadgen
//! records) is JSONL on stdout; progress goes to stderr.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use sophie_serve::{
    Client, GraphSpec, Json, LocalCluster, RouterConfig, ServeConfig, Server, SubmitArgs,
};

use crate::loadgen::{self, LoadgenOptions};

/// Usage text for the serving subcommands (appended to the main usage).
pub const USAGE: &str = "       repro serve [--addr HOST:PORT] [--queue N] [--conns N] [--workers N] [--port-file PATH]\n       repro cluster --replicas N [--addr HOST:PORT] [--queue N] [--workers N] [--cache N] [--probe-ms N] [--port-file PATH]\n       repro submit (--addr HOST:PORT | --port-file PATH) --solver NAME [--graph NAME] [--gset-file PATH] [--seed N] [--deadline-ms N] [--stream] [--config JSON]\n       repro ctl <stats|solvers|ping|shutdown> (--addr HOST:PORT | --port-file PATH)\n       repro loadgen [--addr HOST:PORT | --port-file PATH] [--cluster --replicas N [--chaos]] [--clients N] [--requests N] [--solver NAME] [--graph NAME] [--config JSON] [--rate RPS] [--deadline-ms N] [--out PATH.jsonl]";

/// True if `command` is one of the serving subcommands handled by [`cli`].
#[must_use]
pub fn is_serving_command(command: &str) -> bool {
    matches!(command, "serve" | "cluster" | "submit" | "ctl" | "loadgen")
}

/// Runs one serving subcommand with its raw argument tail.
#[must_use]
pub fn cli(command: &str, args: &[String]) -> ExitCode {
    let result = match command {
        "serve" => cmd_serve(args),
        "cluster" => cmd_cluster(args),
        "submit" => cmd_submit(args),
        "ctl" => cmd_ctl(args),
        "loadgen" => cmd_loadgen(args),
        other => Err(format!("unknown serving command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Tiny flag cursor over the argument tail.
struct Flags<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.pos)?;
        self.pos += 1;
        Some(arg)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} requires a valid value"))
    }
}

/// Waits for a daemon's `--port-file` to appear and contain an address,
/// polling with bounded exponential backoff (1 ms doubling to 100 ms).
///
/// This closes the startup race scripts used to hand-roll with fixed
/// sleeps: the daemon writes the file only after its listener is bound
/// (write-then-rename, so a reader never sees a partial line), and this
/// helper is the reader half. `repro serve`/`repro cluster` remove a
/// stale file from a previous run *before* binding, so the address read
/// here is always the live daemon's.
///
/// # Errors
///
/// A description of the timeout if no address appears in `timeout`.
pub fn wait_for_port_file(path: &Path, timeout: Duration) -> Result<String, String> {
    let deadline = std::time::Instant::now() + timeout;
    let mut backoff = Duration::from_millis(1);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(line) = text.lines().next() {
                let addr = line.trim();
                if !addr.is_empty() {
                    return Ok(addr.to_string());
                }
            }
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!(
                "no address in port file {} within {timeout:?}",
                path.display()
            ));
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(100));
    }
}

/// Publishes a bound address via `--port-file`: remove-then-write-then-
/// rename, so readers see either nothing or a complete line, never a
/// previous run's address.
fn write_port_file(path: &Path, bound: std::net::SocketAddr) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format!("{bound}\n"))
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("cannot write port file {}: {e}", path.display()))
}

/// Resolves the target address from `--addr`/`--port-file`.
fn resolve_addr(addr: Option<String>, port_file: Option<PathBuf>) -> Result<String, String> {
    match (addr, port_file) {
        (Some(addr), _) => Ok(addr),
        (None, Some(path)) => wait_for_port_file(&path, Duration::from_secs(10)),
        (None, None) => Err("need --addr or --port-file".to_string()),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<PathBuf> = None;
    let mut config = ServeConfig::default();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = flags.value("--addr")?.to_string(),
            "--port-file" => port_file = Some(PathBuf::from(flags.value("--port-file")?)),
            "--queue" => config.queue_capacity = flags.parsed("--queue")?,
            "--conns" => config.max_connections = flags.parsed("--conns")?,
            "--workers" => config.workers = flags.parsed("--workers")?,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let config = config
        .with_env_overrides()
        .map_err(|e| format!("bad serve config: {e}"))?;
    if let Some(path) = &port_file {
        // A stale file from a previous run must go before the bind, so a
        // concurrent `wait_for_port_file` reader cannot grab a dead
        // address in the window between our start and our write.
        let _ = std::fs::remove_file(path);
    }
    let handle = Server::start(config, sophie::default_registry(), addr.as_str())
        .map_err(|e| format!("cannot start daemon on {addr}: {e}"))?;
    let bound = handle.local_addr();
    eprintln!("sophie-serve listening on {bound}");
    if let Some(path) = port_file {
        write_port_file(&path, bound)?;
    }
    // Blocks until a client issues the protocol `shutdown` command.
    handle.join();
    eprintln!("sophie-serve stopped");
    Ok(())
}

/// `repro cluster`: N in-process replicas fronted by a router, running
/// until a client sends the protocol `shutdown` to the router.
fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<PathBuf> = None;
    let mut replicas = 0usize;
    let mut serve_config = ServeConfig::default();
    let mut router_config = RouterConfig::default();
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = flags.value("--addr")?.to_string(),
            "--port-file" => port_file = Some(PathBuf::from(flags.value("--port-file")?)),
            "--replicas" => replicas = flags.parsed("--replicas")?,
            "--queue" => serve_config.queue_capacity = flags.parsed("--queue")?,
            "--workers" => serve_config.workers = flags.parsed("--workers")?,
            "--cache" => router_config.cache_capacity = flags.parsed("--cache")?,
            "--probe-ms" => {
                router_config.probe_interval = Duration::from_millis(flags.parsed("--probe-ms")?);
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if replicas == 0 {
        return Err("cluster requires --replicas N (N >= 1)".to_string());
    }
    let router_config = router_config
        .with_env_overrides()
        .map_err(|e| format!("bad router config: {e}"))?;
    if let Some(path) = &port_file {
        let _ = std::fs::remove_file(path);
    }
    let cluster = LocalCluster::start_at(replicas, serve_config, router_config, addr.as_str())
        .map_err(|e| format!("cannot start cluster on {addr}: {e}"))?;
    let bound = cluster.router_addr();
    eprintln!("sophie-router listening on {bound}, {replicas} replicas");
    for i in 0..replicas {
        if let Some(replica) = cluster.replica_addr(i) {
            eprintln!("  replica {i}: {replica}");
        }
    }
    if let Some(path) = port_file {
        write_port_file(&path, bound)?;
    }
    cluster.join();
    eprintln!("sophie-router stopped");
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut solver: Option<String> = None;
    let mut graph = GraphSpec::Named("K100".to_string());
    let mut seed = 0u64;
    let mut deadline_ms: Option<u64> = None;
    let mut target: Option<f64> = None;
    let mut stream = false;
    let mut config_json: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = Some(flags.value("--addr")?.to_string()),
            "--port-file" => port_file = Some(PathBuf::from(flags.value("--port-file")?)),
            "--solver" => solver = Some(flags.value("--solver")?.to_string()),
            "--graph" => graph = GraphSpec::Named(flags.value("--graph")?.to_string()),
            "--gset-file" => {
                let path = flags.value("--gset-file")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                graph = GraphSpec::Inline(text);
            }
            "--seed" => seed = flags.parsed("--seed")?,
            "--deadline-ms" => deadline_ms = Some(flags.parsed("--deadline-ms")?),
            "--target" => target = Some(flags.parsed("--target")?),
            "--stream" => stream = true,
            "--config" => config_json = Some(flags.value("--config")?.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let addr = resolve_addr(addr, port_file).map_err(|e| format!("submit: {e}"))?;
    let solver = solver.ok_or("submit requires --solver")?;
    let mut submit = SubmitArgs::new(&solver, graph);
    submit.seed = seed;
    submit.deadline_ms = deadline_ms;
    submit.target = target;
    submit.stream = stream;
    submit.config_json = config_json;

    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let admission = client
        .submit("cli", &submit)
        .map_err(|e| format!("submit failed: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "{admission}").map_err(|e| e.to_string())?;
    if admission.get("type").and_then(Json::as_str) != Some("accepted") {
        return Err("job was not accepted".to_string());
    }
    let outcome = client
        .wait_result("cli")
        .map_err(|e| format!("waiting for result failed: {e}"))?;
    for event in &outcome.events {
        writeln!(out, "{event}").map_err(|e| e.to_string())?;
    }
    writeln!(out, "{}", outcome.frame).map_err(|e| e.to_string())?;
    if outcome.status == "done" {
        Ok(())
    } else {
        Err(format!("job finished with status {:?}", outcome.status))
    }
}

fn cmd_ctl(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut action: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = Some(flags.value("--addr")?.to_string()),
            "--port-file" => port_file = Some(PathBuf::from(flags.value("--port-file")?)),
            other if action.is_none() && !other.starts_with('-') => {
                action = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let addr = resolve_addr(addr, port_file).map_err(|e| format!("ctl: {e}"))?;
    let action = action.ok_or("ctl requires an action (stats|solvers|ping|shutdown)")?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match action.as_str() {
        "stats" => {
            let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
            println!("{stats}");
            Ok(())
        }
        "solvers" => {
            let solvers = client
                .list_solvers()
                .map_err(|e| format!("list-solvers failed: {e}"))?;
            println!("{solvers}");
            Ok(())
        }
        "ping" => {
            client.ping().map_err(|e| format!("ping failed: {e}"))?;
            println!("{}", sophie_serve::protocol::bare_frame("pong"));
            Ok(())
        }
        "shutdown" => {
            client
                .shutdown()
                .map_err(|e| format!("shutdown failed: {e}"))?;
            eprintln!("daemon at {addr} acknowledged shutdown");
            Ok(())
        }
        other => Err(format!("unknown ctl action {other:?}")),
    }
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let mut opts = LoadgenOptions::default();
    let mut port_file: Option<PathBuf> = None;
    let mut cluster = false;
    let mut replicas = 3usize;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => opts.addr = Some(flags.value("--addr")?.to_string()),
            "--port-file" => port_file = Some(PathBuf::from(flags.value("--port-file")?)),
            "--cluster" => cluster = true,
            "--replicas" => replicas = flags.parsed("--replicas")?,
            "--chaos" => opts.chaos = true,
            "--clients" => opts.clients = flags.parsed("--clients")?,
            "--requests" => opts.requests = flags.parsed("--requests")?,
            "--solver" => opts.solver = flags.value("--solver")?.to_string(),
            "--graph" => opts.graph = flags.value("--graph")?.to_string(),
            "--config" => opts.config_json = Some(flags.value("--config")?.to_string()),
            "--rate" => opts.rate = Some(flags.parsed("--rate")?),
            "--deadline-ms" => opts.deadline_ms = Some(flags.parsed("--deadline-ms")?),
            "--out" => opts.out = Some(PathBuf::from(flags.value("--out")?)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if opts.clients == 0 || opts.requests == 0 {
        return Err("--clients and --requests must be positive".to_string());
    }
    if let Some(path) = port_file {
        if opts.addr.is_some() {
            return Err("--addr and --port-file are mutually exclusive".to_string());
        }
        opts.addr = Some(wait_for_port_file(&path, Duration::from_secs(10))?);
    }
    if cluster {
        if opts.addr.is_some() {
            return Err("--cluster spawns its own replicas; drop --addr/--port-file".to_string());
        }
        if replicas == 0 {
            return Err("--replicas must be positive".to_string());
        }
        opts.cluster_replicas = Some(replicas);
    } else if opts.chaos {
        return Err("--chaos requires --cluster".to_string());
    }
    eprintln!(
        "loadgen: {} clients x {} requests, solver {} on {}, {} loop{}",
        opts.clients,
        opts.requests,
        opts.solver,
        opts.graph,
        if opts.rate.is_some() {
            "open"
        } else {
            "closed"
        },
        match (&opts.addr, opts.cluster_replicas) {
            (Some(a), _) => format!(" against {a}"),
            (None, Some(n)) => format!(
                " against in-process cluster ({n} replicas{})",
                if opts.chaos { ", chaos on" } else { "" }
            ),
            (None, None) => " against in-process daemon".to_string(),
        },
    );
    let start = std::time::Instant::now();
    let summary = loadgen::run(&opts).map_err(|e| format!("loadgen failed: {e}"))?;
    println!("{}", summary.to_json());
    eprintln!(
        "loadgen done in {:.1?}: {}/{} done, {} rejected, {} errored, {:.1} req/s, p50 {:.1} ms",
        start.elapsed(),
        summary.done,
        summary.requests,
        summary.rejected,
        summary.errored,
        summary.throughput_rps,
        summary.rtt_p50_ms,
    );
    if let Some(path) = &opts.out {
        eprintln!("per-request records in {}", path.display());
    }
    if summary.done == 0 {
        return Err("no request completed".to_string());
    }
    Ok(())
}
