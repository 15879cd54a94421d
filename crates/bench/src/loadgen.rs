//! Load generator for the solve daemon (`repro loadgen`).
//!
//! Drives a daemon — an external one by address, or an in-process one it
//! spawns itself — with concurrent clients and reports throughput and
//! latency percentiles. Two arrival models:
//!
//! * **closed loop** (default): each of `clients` connections keeps
//!   exactly one request outstanding, `requests` times — measures
//!   saturated service capacity;
//! * **open loop** (`rate` set): request start times follow a fixed
//!   arrival schedule of `rate` requests/second spread across the
//!   clients, the standard way to expose queueing delay that closed
//!   loops hide.
//!
//! Per-request records and the final summary are written as JSONL; a
//! latency that was never measured (a rejected, failed or lost request)
//! is `null`.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sophie_serve::{
    Client, GraphSpec, Json, LocalCluster, RouterConfig, ServeConfig, ServeError, Server,
    SubmitArgs,
};
use sophie_solve::stats;

/// What to run; see the module docs for the two arrival models.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Daemon address; `None` spawns an in-process server on an ephemeral
    /// port and shuts it down afterwards.
    pub addr: Option<String>,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Solver name submitted with every request.
    pub solver: String,
    /// Named benchmark instance submitted with every request.
    pub graph: String,
    /// Raw JSON config override for the solver, if any.
    pub config_json: Option<String>,
    /// Open-loop arrival rate in requests/second (all clients combined);
    /// `None` runs the closed loop.
    pub rate: Option<f64>,
    /// Per-request deadline forwarded to the daemon, if any.
    pub deadline_ms: Option<u64>,
    /// JSONL output path (`None` prints records to stdout only when
    /// verbose callers choose to; the summary is always returned).
    pub out: Option<PathBuf>,
    /// Drive an in-process router fronting this many replicas instead of
    /// a single daemon. Ignored when `addr` is set (an external cluster's
    /// router is just an address).
    pub cluster_replicas: Option<usize>,
    /// Failure injection for cluster runs: kill one replica about a
    /// quarter of the way through the workload and restart it past the
    /// sixty-percent mark, exercising failover and re-admission under
    /// load. Requires `cluster_replicas`.
    pub chaos: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: None,
            clients: 2,
            requests: 8,
            solver: "sa".to_string(),
            graph: "K60".to_string(),
            config_json: Some(r#"{"sweeps":60}"#.to_string()),
            rate: None,
            deadline_ms: None,
            out: None,
            cluster_replicas: None,
            chaos: false,
        }
    }
}

/// One request's outcome.
#[derive(Debug, Clone)]
struct Record {
    client: usize,
    seq: usize,
    status: String,
    /// Server-side submit→result latency.
    latency_ms: f64,
    /// Client-side submit→result round trip.
    rtt_ms: f64,
}

/// Aggregate results of one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenSummary {
    /// Requests attempted (clients × requests).
    pub requests: usize,
    /// Requests that completed with status `done`.
    pub done: usize,
    /// Requests rejected at admission (`queue_full`/`shutting_down`).
    pub rejected: usize,
    /// Requests that ended `cancelled` or `failed`, plus transport errors.
    pub errored: usize,
    /// Wall-clock of the whole run, seconds.
    pub wall_s: f64,
    /// Completed requests per second of wall-clock.
    pub throughput_rps: f64,
    /// Mean client-side round trip of completed requests, ms.
    pub rtt_mean_ms: f64,
    /// Round-trip percentiles of completed requests, ms.
    pub rtt_p50_ms: f64,
    /// 90th percentile round trip, ms.
    pub rtt_p90_ms: f64,
    /// 99th percentile round trip, ms.
    pub rtt_p99_ms: f64,
    /// `closed` or `open`.
    pub mode: &'static str,
    /// Replicas behind the in-process router (0 = single daemon).
    pub replicas: usize,
    /// Whether a replica was killed and restarted mid-run.
    pub chaos: bool,
}

impl LoadgenSummary {
    /// The summary as one JSONL line (`"type":"summary"`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let ms = |x: f64| Json::rounded(x, 3);
        Json::obj([
            ("type", "summary".into()),
            ("mode", self.mode.into()),
            ("requests", self.requests.into()),
            ("done", self.done.into()),
            ("rejected", self.rejected.into()),
            ("errored", self.errored.into()),
            ("wall_s", Json::rounded(self.wall_s, 3)),
            ("throughput_rps", Json::rounded(self.throughput_rps, 2)),
            ("rtt_mean_ms", ms(self.rtt_mean_ms)),
            ("rtt_p50_ms", ms(self.rtt_p50_ms)),
            ("rtt_p90_ms", ms(self.rtt_p90_ms)),
            ("rtt_p99_ms", ms(self.rtt_p99_ms)),
            ("replicas", self.replicas.into()),
            ("chaos", self.chaos.into()),
        ])
        .to_string()
    }
}

impl Record {
    /// The record as one JSONL line (`"type":"request"`).
    fn json(&self, opts: &LoadgenOptions) -> Json {
        Json::obj([
            ("type", "request".into()),
            ("client", self.client.into()),
            ("seq", self.seq.into()),
            ("solver", opts.solver.as_str().into()),
            ("graph", opts.graph.as_str().into()),
            ("status", self.status.as_str().into()),
            ("latency_ms", Json::rounded(self.latency_ms, 3)),
            ("rtt_ms", Json::rounded(self.rtt_ms, 3)),
        ])
    }
}

/// Runs the load generator to completion.
///
/// # Errors
///
/// [`ServeError`] for server spawn/connect failures or an unwritable
/// `out` path. Individual request failures are *counted*, not fatal.
pub fn run(opts: &LoadgenOptions) -> Result<LoadgenSummary, ServeError> {
    let serve_config = ServeConfig {
        // Saturation headroom: every loadgen client can be queued.
        queue_capacity: (opts.clients * 2).max(8),
        workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
        ..ServeConfig::default()
    };
    // Target priority: an external address, an in-process cluster, an
    // in-process single daemon.
    let (addr, server, cluster) = match (&opts.addr, opts.cluster_replicas) {
        (Some(addr), _) => (addr.clone(), None, None),
        (None, Some(n)) => {
            let router_config = RouterConfig {
                // Distinct seeds make every request a cache miss anyway;
                // disabling the cache keeps that explicit.
                cache_capacity: 0,
                probe_interval: Duration::from_millis(100),
                ..RouterConfig::default()
            };
            let cluster = LocalCluster::start(n.max(1), serve_config, router_config)?;
            (cluster.router_addr().to_string(), None, Some(cluster))
        }
        (None, None) => {
            let handle = Server::start(serve_config, sophie::default_registry(), "127.0.0.1:0")?;
            (handle.local_addr().to_string(), Some(handle), None)
        }
    };

    let total = opts.clients * opts.requests;
    let start = Instant::now();
    // Open loop: a shared arrival index; each worker claims the next
    // scheduled arrival and sleeps until its start time.
    let arrivals = Arc::new(AtomicUsize::new(0));
    // Completed-request count, shared with the chaos injector so the kill
    // and restart land at fixed workload fractions, not wall-clock guesses.
    let completed = Arc::new(AtomicUsize::new(0));
    let chaos_handle = cluster.map(|cluster| {
        let inject = opts.chaos && cluster.len() > 1;
        let completed = Arc::clone(&completed);
        std::thread::spawn(move || chaos_loop(cluster, inject, total, &completed))
    });
    let workers: Vec<std::thread::JoinHandle<Vec<Record>>> = (0..opts.clients)
        .map(|client_idx| {
            let opts = opts.clone();
            let addr = addr.clone();
            let arrivals = Arc::clone(&arrivals);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                client_loop(client_idx, &opts, &addr, &arrivals, &completed, start)
            })
        })
        .collect();
    let mut records: Vec<Record> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap_or_default())
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    records.sort_by_key(|r| (r.client, r.seq));
    // Workers are drained; release the chaos thread (it owns the cluster
    // and shuts it down on exit).
    completed.store(total.max(1), Ordering::Release);
    if let Some(handle) = chaos_handle {
        let _ = handle.join();
    }

    if let Some(path) = &opts.out {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &records {
            writeln!(file, "{}", r.json(opts))?;
        }
        let summary = summarize(opts, total, &records, wall_s);
        writeln!(file, "{}", summary.to_json())?;
        file.flush()?;
        if let Some(server) = server {
            server.shutdown();
        }
        return Ok(summary);
    }

    let summary = summarize(opts, total, &records, wall_s);
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(summary)
}

/// Kill/restart injector for cluster runs; owns the cluster either way so
/// teardown happens after the workload drains.
fn chaos_loop(mut cluster: LocalCluster, inject: bool, total: usize, completed: &AtomicUsize) {
    let kill_at = (total / 4).max(1);
    let restart_at = (total * 3 / 5).max(2);
    let mut killed = false;
    let mut restarted = false;
    loop {
        let done = completed.load(Ordering::Acquire);
        if done >= total {
            break;
        }
        if inject && !killed && done >= kill_at {
            cluster.kill(0);
            killed = true;
        }
        if killed && !restarted && done >= restart_at {
            restarted = cluster.restart(0).is_ok();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.shutdown();
}

fn client_loop(
    client_idx: usize,
    opts: &LoadgenOptions,
    addr: &str,
    arrivals: &AtomicUsize,
    completed: &AtomicUsize,
    start: Instant,
) -> Vec<Record> {
    let total = opts.clients * opts.requests;
    let mut records = Vec::with_capacity(opts.requests);
    let Ok(mut client) = Client::connect(addr) else {
        return records;
    };
    let mut args = SubmitArgs::new(&opts.solver, GraphSpec::Named(opts.graph.clone()));
    args.config_json = opts.config_json.clone();
    args.deadline_ms = opts.deadline_ms;
    for seq in 0..opts.requests {
        // Open loop: claim the next global arrival slot and honor its
        // scheduled start time; closed loop: fire immediately.
        if let Some(rate) = opts.rate {
            let slot = arrivals.fetch_add(1, Ordering::Relaxed);
            if slot >= total {
                break;
            }
            let due = start + Duration::from_secs_f64(slot as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        args.seed = (client_idx * opts.requests + seq) as u64;
        let id = format!("c{client_idx}-r{seq}");
        let sent = Instant::now();
        let record = match client.submit(&id, &args) {
            Err(_) => Record {
                client: client_idx,
                seq,
                status: "transport_error".into(),
                latency_ms: f64::NAN,
                rtt_ms: f64::NAN,
            },
            Ok(frame) => match frame.get("type").and_then(Json::as_str) {
                Some("accepted") => match client.wait_result(&id) {
                    Ok(outcome) => Record {
                        client: client_idx,
                        seq,
                        status: outcome.status,
                        latency_ms: outcome.latency_ms,
                        rtt_ms: sent.elapsed().as_secs_f64() * 1e3,
                    },
                    Err(_) => Record {
                        client: client_idx,
                        seq,
                        status: "transport_error".into(),
                        latency_ms: f64::NAN,
                        rtt_ms: f64::NAN,
                    },
                },
                Some("rejected") => Record {
                    client: client_idx,
                    seq,
                    status: frame
                        .get("reason")
                        .and_then(Json::as_str)
                        .unwrap_or("rejected")
                        .to_string(),
                    latency_ms: f64::NAN,
                    rtt_ms: sent.elapsed().as_secs_f64() * 1e3,
                },
                _ => Record {
                    client: client_idx,
                    seq,
                    status: "error".into(),
                    latency_ms: f64::NAN,
                    rtt_ms: f64::NAN,
                },
            },
        };
        records.push(record);
        completed.fetch_add(1, Ordering::AcqRel);
    }
    records
}

fn summarize(
    opts: &LoadgenOptions,
    total: usize,
    records: &[Record],
    wall_s: f64,
) -> LoadgenSummary {
    let mut rtts: Vec<f64> = records
        .iter()
        .filter(|r| r.status == "done")
        .map(|r| r.rtt_ms)
        .collect();
    rtts.sort_by(f64::total_cmp);
    let done = rtts.len();
    let rejected = records
        .iter()
        .filter(|r| {
            matches!(
                r.status.as_str(),
                // Daemon admission rejections plus the router's typed
                // degradation/backpressure rejections.
                "queue_full" | "shutting_down" | "cluster_degraded" | "router_busy" | "rejected"
            )
        })
        .count();
    let quantile = |q: f64| -> f64 {
        match stats::quantile_index(rtts.len(), q) {
            Ok(i) => rtts[i],
            Err(_) => f64::NAN,
        }
    };
    LoadgenSummary {
        requests: total,
        done,
        rejected,
        errored: records.len().saturating_sub(done + rejected),
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            done as f64 / wall_s
        } else {
            0.0
        },
        rtt_mean_ms: stats::mean(rtts.iter().copied()),
        rtt_p50_ms: quantile(0.50),
        rtt_p90_ms: quantile(0.90),
        rtt_p99_ms: quantile(0.99),
        mode: if opts.rate.is_some() {
            "open"
        } else {
            "closed"
        },
        replicas: if opts.addr.is_none() {
            opts.cluster_replicas.unwrap_or(0)
        } else {
            0
        },
        chaos: opts.chaos && opts.addr.is_none() && opts.cluster_replicas.unwrap_or(0) > 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_against_in_process_server() {
        let opts = LoadgenOptions {
            clients: 2,
            requests: 3,
            graph: "K20".to_string(),
            config_json: Some(r#"{"sweeps":10}"#.to_string()),
            ..LoadgenOptions::default()
        };
        let summary = run(&opts).expect("loadgen runs");
        assert_eq!(summary.requests, 6);
        assert_eq!(summary.done, 6);
        assert_eq!(summary.rejected + summary.errored, 0);
        assert!(summary.throughput_rps > 0.0);
        assert!(summary.rtt_p50_ms <= summary.rtt_p99_ms);
        assert!(summary.to_json().contains("\"mode\":\"closed\""));
    }

    #[test]
    fn cluster_chaos_run_completes_every_request() {
        let opts = LoadgenOptions {
            cluster_replicas: Some(2),
            chaos: true,
            clients: 2,
            requests: 4,
            graph: "K20".to_string(),
            config_json: Some(r#"{"sweeps":200}"#.to_string()),
            ..LoadgenOptions::default()
        };
        let summary = run(&opts).expect("cluster loadgen runs");
        assert_eq!(summary.requests, 8);
        assert_eq!(summary.done, 8, "failover must hide the replica kill");
        assert_eq!(summary.replicas, 2);
        assert!(summary.chaos);
        assert!(summary.to_json().contains("\"replicas\":2"));
    }

    /// Requests that never complete have no latency: their records and
    /// the summary's quantiles must still be JSON (`null`, not `NaN`).
    #[test]
    fn unmeasured_latencies_render_as_null() {
        let dir = std::env::temp_dir().join(format!("sophie_loadgen_null_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loadgen.jsonl");
        let opts = LoadgenOptions {
            clients: 1,
            requests: 3,
            solver: "no-such-solver".to_string(),
            graph: "K16".to_string(),
            out: Some(path.clone()),
            ..LoadgenOptions::default()
        };
        let summary = run(&opts).expect("loadgen runs");
        assert_eq!((summary.done, summary.errored), (0, 3));
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = body
            .lines()
            .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}")))
            .collect();
        assert_eq!(lines.len(), 4);
        for request in &lines[..3] {
            assert_eq!(request.get("status").and_then(Json::as_str), Some("error"));
            assert_eq!(request.get("latency_ms"), Some(&Json::Null));
        }
        assert_eq!(lines[3].get("rtt_p50_ms"), Some(&Json::Null));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_loop_writes_jsonl_report() {
        let dir = std::env::temp_dir().join("sophie_loadgen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loadgen.jsonl");
        let opts = LoadgenOptions {
            clients: 2,
            requests: 2,
            graph: "K16".to_string(),
            config_json: Some(r#"{"sweeps":5}"#.to_string()),
            rate: Some(200.0),
            out: Some(path.clone()),
            ..LoadgenOptions::default()
        };
        let summary = run(&opts).expect("loadgen runs");
        assert_eq!(summary.mode, "open");
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        // 4 request records + 1 summary, every line valid JSON.
        assert_eq!(lines.len(), 5);
        for line in &lines {
            sophie_serve::Json::parse(line).expect("valid JSONL");
        }
        assert!(lines.last().unwrap().contains("\"type\":\"summary\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
