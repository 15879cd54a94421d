//! Content-addressed result cache and job placement hashing.
//!
//! Every solver in the registry is deterministic in `(solver, graph,
//! seed, config, budget)` — the serving layer has relied on that for
//! byte-identical replay since the beginning — so a completed report can
//! be keyed by the job's *content* and replayed verbatim. The same key
//! drives placement: identical submissions hash to the same home replica,
//! which keeps replica-side instance caches warm.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::protocol::{GraphSpec, SubmitRequest};

/// FNV-1a 64 over the graph spec — the digest the issue's placement key
/// is built on. Named and inline specs are tagged so `named:G1` can never
/// collide with an inline document that happens to read `G1`.
#[must_use]
pub fn graph_digest(graph: &GraphSpec) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    match graph {
        GraphSpec::Named(name) => {
            eat(b"named:");
            eat(name.as_bytes());
        }
        GraphSpec::Inline(gset) => {
            eat(b"gset:");
            eat(gset.as_bytes());
        }
    }
    h
}

/// Whether a submission's completed report may be cached and replayed.
///
/// Streamed jobs run every time (their value is the event stream, which
/// the cache does not hold). Deadline-carrying jobs are excluded in both
/// directions: the replica cooperatively stops them at their wall-clock
/// `time_limit` and still reports `done`, so the report depends on host
/// speed and load, not content — caching one would replay a truncated,
/// timing-dependent answer to later identical submissions.
#[must_use]
pub fn cacheable(req: &SubmitRequest) -> bool {
    !req.stream && req.deadline_ms.is_none()
}

/// The content key of a submission: everything that determines the report
/// bytes — solver, instance identity (graph digest, or the canonical
/// rendering of a `problem` payload: problem compilation is seed-pinned
/// and deterministic, and the decoded metrics spliced into the report
/// depend on the full payload), seed, budget knobs, canonical config.
/// The client-chosen `id` and `stream` flag are deliberately excluded, as
/// is `deadline_ms`: deadline'd jobs never enter the cache (see
/// [`cacheable`]), so the key only ever addresses deterministic reports.
#[must_use]
pub fn job_key(req: &SubmitRequest) -> String {
    // Documents are keyed in canonical form: keys sorted at every level,
    // so member order never splits one job across two keys.
    let canonical = |doc: &Json| {
        let mut doc = doc.clone();
        doc.sort_keys();
        doc.to_string()
    };
    let instance = match (&req.graph, &req.problem) {
        (Some(graph), _) => format!("{:016x}", graph_digest(graph)),
        (None, Some(problem)) => format!("problem:{}", canonical(problem)),
        (None, None) => "-".to_string(),
    };
    format!(
        "{}|{}|{}|{}|{}|{}",
        req.solver,
        instance,
        req.seed,
        req.target
            .map_or_else(|| "-".to_string(), |t| t.to_bits().to_string()),
        req.max_iterations
            .map_or_else(|| "-".to_string(), |n| n.to_string()),
        req.config
            .as_ref()
            .map_or_else(|| "-".to_string(), canonical),
    )
}

/// Placement hash of a job key: FNV-1a of the key pushed through a
/// SplitMix64 finalizer so consecutive seeds spread across replicas.
#[must_use]
pub fn placement_hash(key: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Slices the raw `report` JSON out of a raw `result` frame line, exactly
/// as the replica rendered it — the bytes the cache stores and replays.
///
/// Relies on `report` being the final key of
/// [`crate::protocol::result_frame`]'s fixed layout.
#[must_use]
pub fn report_slice(result_line: &str) -> Option<&str> {
    let marker = ",\"report\":";
    let start = result_line.find(marker)? + marker.len();
    let line = result_line.trim_end();
    if !line.ends_with('}') || start >= line.len() {
        return None;
    }
    Some(&line[start..line.len() - 1])
}

/// A completed job's replayable outcome.
#[derive(Debug, Clone)]
struct Entry {
    /// The report JSON exactly as the replica rendered it.
    report_json: String,
}

/// Bounded content-addressed cache of completed reports, FIFO-evicted.
/// Only `done` results are cached — failed and cancelled outcomes depend
/// on wall-clock and shutdown timing, not content.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<String, Entry>,
    /// Insertion order for FIFO eviction.
    order: std::collections::VecDeque<String>,
}

impl ResultCache {
    /// A cache holding at most `capacity` reports (0 disables caching).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a job key, counting the hit or miss.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<String> {
        if self.capacity == 0 {
            return None;
        }
        let inner = self.inner.lock().expect("cache lock");
        match inner.map.get(key) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.report_json.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a key is present, without counting a hit or miss — the
    /// admission path peeks to decide if a degraded cluster can still
    /// serve a submission; only the actual replay counts as a hit.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.capacity != 0 && self.inner.lock().expect("cache lock").map.contains_key(key)
    }

    /// Stores a completed report under its job key, evicting the oldest
    /// entry when full. Re-inserting an existing key refreshes nothing —
    /// the report bytes are deterministic, so the first insert wins.
    pub fn insert(&self, key: &str, report_json: &str) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.map.contains_key(key) {
            return;
        }
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key.to_string(),
            Entry {
                report_json: report_json.to_string(),
            },
        );
        inner.order.push_back(key.to_string());
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Stats block for the router's `stats` frame.
    #[must_use]
    pub fn stats(&self) -> Json {
        let entries = self.inner.lock().expect("cache lock").map.len();
        let get = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        Json::obj([
            ("capacity", self.capacity.into()),
            ("entries", entries.into()),
            ("hits", get(&self.hits)),
            ("misses", get(&self.misses)),
            ("inserts", get(&self.inserts)),
            ("evictions", get(&self.evictions)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(extra: &str) -> SubmitRequest {
        let line = format!(
            "{{\"cmd\":\"submit\",\"id\":\"j\",\"solver\":\"sa\",\"graph\":{{\"named\":\"K40\"}}{extra}}}"
        );
        match crate::protocol::parse_request(&line).unwrap() {
            crate::protocol::Request::Submit(req) => *req,
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn key_ignores_id_and_stream_but_not_content() {
        let a = submit(",\"seed\":7,\"stream\":true");
        let mut b = a.clone();
        b.id = "other".into();
        b.stream = false;
        assert_eq!(job_key(&a), job_key(&b));
        let mut c = a.clone();
        c.seed = 8;
        assert_ne!(job_key(&a), job_key(&c));
        let mut d = a.clone();
        d.graph = Some(GraphSpec::Named("K41".into()));
        assert_ne!(job_key(&a), job_key(&d));
    }

    #[test]
    fn problem_identity_reaches_the_key() {
        let submit_problem = |payload: &str| {
            let line = format!(
                "{{\"cmd\":\"submit\",\"id\":\"j\",\"solver\":\"sa\",\"problem\":{payload}}}"
            );
            match crate::protocol::parse_request(&line).unwrap() {
                crate::protocol::Request::Submit(req) => *req,
                other => panic!("expected submit, got {other:?}"),
            }
        };
        let a =
            submit_problem(r#"{"kind":"ldpc","random":{"n":12,"wc":2,"wr":3,"flips":1,"seed":1}}"#);
        // Key order inside the payload must not matter...
        let b =
            submit_problem(r#"{"random":{"n":12,"wc":2,"wr":3,"flips":1,"seed":1},"kind":"ldpc"}"#);
        assert_eq!(job_key(&a), job_key(&b));
        // ...but any content change (here the channel seed, which changes
        // the decoded metrics) must produce a different key.
        let c =
            submit_problem(r#"{"kind":"ldpc","random":{"n":12,"wc":2,"wr":3,"flips":1,"seed":2}}"#);
        assert_ne!(job_key(&a), job_key(&c));
        // And a problem key can never collide with a graph key.
        assert_ne!(job_key(&a), job_key(&submit(",\"seed\":0")));
    }

    /// Exact key bytes: nested objects sorted at every level, arrays kept
    /// in order, numbers and escaped strings as the parser read them.
    #[test]
    fn job_key_bytes_are_pinned() {
        let parse = |line: &str| match crate::protocol::parse_request(line).unwrap() {
            crate::protocol::Request::Submit(req) => *req,
            other => panic!("expected submit, got {other:?}"),
        };
        let problem = parse(
            &r#"{"cmd":"submit","id":"j","solver":"sophie","seed":9007199254740993,
                "problem":{"kind":"coloring","random":{"seed":3,"nodes":6,"edges":9,"colors":3},
                    "zeta":[{"b":2.50,"a":"x\"y\u00e9\n"},1e21,0.1,-7,true,null]},
                "target":0.30000000000000004,"max_iterations":50,
                "config":{"sweeps":10,"beta1":3.0,"beta0":0.5,"nested":{"z":[],"a":{}}}}"#
                .replace('\n', " "),
        );
        let graph = parse(
            r#"{"cmd":"submit","id":"g","solver":"sa","graph":{"named":"K40"},"seed":7,
                "config":{"sweeps":10,"beta0":0.5}}"#,
        );
        assert_eq!(vec![job_key(&problem), job_key(&graph)], [
            "sophie|problem:{\"kind\":\"coloring\",\"random\":{\"colors\":3,\"edges\":9,\"nodes\":6,\
            \"seed\":3},\"zeta\":[{\"a\":\"x\\\"yé\\n\",\"b\":2.5},1000000000000000000000,0.1,\
            -7,true,null]}|9007199254740992|4599075939470750516|50|{\"beta0\":0.5,\"beta1\":3,\
            \"nested\":{\"a\":{},\"z\":[]},\"sweeps\":10}",
            "sa|a6f627223a6a8fd1|7|-|-|{\"beta0\":0.5,\"sweeps\":10}",
        ]);
    }

    #[test]
    fn config_key_order_does_not_matter() {
        let a = submit(",\"config\":{\"sweeps\":10,\"beta0\":0.5}");
        let b = submit(",\"config\":{\"beta0\":0.5,\"sweeps\":10}");
        assert_eq!(job_key(&a), job_key(&b));
        let c = submit(",\"config\":{\"sweeps\":11,\"beta0\":0.5}");
        assert_ne!(job_key(&a), job_key(&c));
    }

    #[test]
    fn streamed_and_deadlined_jobs_are_not_cacheable() {
        assert!(cacheable(&submit(",\"seed\":7")));
        assert!(!cacheable(&submit(",\"seed\":7,\"stream\":true")));
        // A deadline'd run is stopped at wall-clock time, so its report is
        // timing-dependent — it must never be cached or replayed.
        assert!(!cacheable(&submit(",\"seed\":7,\"deadline_ms\":250")));
    }

    #[test]
    fn named_and_inline_graphs_cannot_collide() {
        assert_ne!(
            graph_digest(&GraphSpec::Named("G1".into())),
            graph_digest(&GraphSpec::Inline("G1".into()))
        );
    }

    #[test]
    fn report_slice_recovers_the_report_bytes() {
        let report = r#"{"best_cut":10,"nested":{"report":true}}"#;
        let line = crate::protocol::result_frame("j1", "done", 12.345, Json::Raw(report.into()));
        assert_eq!(report_slice(&line), Some(report));
        assert_eq!(report_slice("{\"type\":\"pong\"}"), None);
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let cache = ResultCache::new(2);
        assert_eq!(cache.lookup("k1"), None);
        cache.insert("k1", "{\"best_cut\":1}");
        assert_eq!(cache.lookup("k1").as_deref(), Some("{\"best_cut\":1}"));
        let stats = cache.stats().to_string();
        assert!(
            stats.contains("\"hits\":1") && stats.contains("\"misses\":1"),
            "{stats}"
        );
    }

    #[test]
    fn cache_evicts_fifo_at_capacity() {
        let cache = ResultCache::new(2);
        cache.insert("k1", "a");
        cache.insert("k2", "b");
        cache.insert("k3", "c");
        assert_eq!(cache.lookup("k1"), None, "oldest evicted");
        assert!(cache.lookup("k2").is_some() && cache.lookup("k3").is_some());
        assert!(cache.stats().to_string().contains("\"evictions\":1"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert("k", "v");
        assert_eq!(cache.lookup("k"), None);
        assert!(cache.stats().to_string().contains("\"entries\":0"));
    }
}
