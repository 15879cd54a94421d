//! The versioned JSON-lines wire protocol.
//!
//! Every frame — in both directions — is one JSON object on one line.
//! Requests carry a `cmd` discriminator; responses carry `type`. The
//! server greets each connection with a `hello` frame naming
//! [`PROTOCOL_VERSION`] so clients can refuse servers they don't
//! understand. See `EXPERIMENTS.md` for the full schema and example
//! transcripts.

use std::io::BufRead;

use crate::error::{Result, ServeError};
use crate::json::Json;

/// Wire protocol version announced in the `hello` frame. Bumped on any
/// incompatible change to frame shapes.
pub const PROTOCOL_VERSION: u64 = 1;

/// Where a submitted job's instance comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// A benchmark instance by name (`"G1"`, `"G22"`, `"K100"`, `"K<n>"`),
    /// generated server-side with the benchmark harness's seed and cached.
    Named(String),
    /// An inline GSET document, parsed under the server's size limits.
    Inline(String),
}

/// One `submit` command, parsed and validated.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen job id; echoed on every frame about this job.
    pub id: String,
    /// Registry name of the solver to run.
    pub solver: String,
    /// The instance to solve. Exactly one of `graph` and `problem` is
    /// set — enforced at parse time.
    pub graph: Option<GraphSpec>,
    /// A problem-compiler payload (object with a `kind` field), lowered
    /// server-side to the instance and decoded on the result frame. The
    /// raw document is kept verbatim so the router can fold it into the
    /// content-addressed job key without compiling.
    pub problem: Option<Json>,
    /// Job seed (default 0).
    pub seed: u64,
    /// Optional convergence target (cut value).
    pub target: Option<f64>,
    /// Optional deadline, mapped to `JobBudget::time_limit`.
    pub deadline_ms: Option<u64>,
    /// Optional iteration cap, mapped to `JobBudget::max_iterations`.
    pub max_iterations: Option<usize>,
    /// Stream `SolveEvent`s back as `event` frames while the job runs.
    pub stream: bool,
    /// Solver-specific config overrides (applied to the config type's
    /// defaults); `None` runs the registry default.
    pub config: Option<Json>,
}

impl SubmitRequest {
    /// The submit frame for this request under job id `id` (the request's
    /// own `id` is not rendered): every field the parser reads, in the
    /// order [`crate::client::SubmitArgs::to_frame`] writes them. Parsing
    /// the frame gives back this request with `id` replaced, which is how
    /// the router forwards a submit under an upstream id.
    #[must_use]
    pub fn to_frame(&self, id: &str) -> String {
        let mut frame = vec![
            ("cmd", "submit".into()),
            ("id", id.into()),
            ("solver", self.solver.as_str().into()),
        ];
        match &self.graph {
            Some(GraphSpec::Named(name)) => {
                frame.push(("graph", Json::obj([("named", name.as_str().into())])));
            }
            Some(GraphSpec::Inline(gset)) => {
                frame.push(("graph", Json::obj([("gset", gset.as_str().into())])));
            }
            None => {}
        }
        if let Some(problem) = &self.problem {
            frame.push(("problem", problem.clone()));
        }
        frame.push(("seed", self.seed.into()));
        if let Some(t) = self.target {
            frame.push(("target", t.into()));
        }
        if let Some(d) = self.deadline_ms {
            frame.push(("deadline_ms", d.into()));
        }
        if let Some(m) = self.max_iterations {
            frame.push(("max_iterations", m.into()));
        }
        if self.stream {
            frame.push(("stream", true.into()));
        }
        if let Some(config) = &self.config {
            frame.push(("config", config.clone()));
        }
        Json::obj(frame).to_string()
    }
}

/// Any client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for execution.
    Submit(Box<SubmitRequest>),
    /// Cancel a previously submitted job on this connection.
    Cancel {
        /// Id of the job to cancel.
        id: String,
    },
    /// List registered solvers.
    ListSolvers,
    /// Service counters and latency quantiles.
    Stats,
    /// Liveness probe.
    Ping,
    /// Gracefully shut the daemon down.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// [`ServeError::Protocol`] for syntactically invalid JSON, a missing or
/// unknown `cmd`, missing required fields, or mistyped optional ones.
pub fn parse_request(line: &str) -> Result<Request> {
    let doc = Json::parse(line)?;
    let cmd = require_str(&doc, "cmd")?;
    match cmd {
        "submit" => parse_submit(&doc).map(Box::new).map(Request::Submit),
        "cancel" => Ok(Request::Cancel {
            id: require_str(&doc, "id")?.to_string(),
        }),
        "list-solvers" => Ok(Request::ListSolvers),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::Protocol {
            message: format!("unknown cmd {other:?}"),
        }),
    }
}

fn parse_submit(doc: &Json) -> Result<SubmitRequest> {
    let id = require_str(doc, "id")?.to_string();
    if id.is_empty() {
        return Err(ServeError::Protocol {
            message: "`id` must be non-empty".into(),
        });
    }
    let solver = require_str(doc, "solver")?.to_string();
    let graph = match doc.get("graph") {
        Some(g) => {
            if let Some(name) = g.get("named").and_then(Json::as_str) {
                Some(GraphSpec::Named(name.to_string()))
            } else if let Some(gset) = g.get("gset").and_then(Json::as_str) {
                Some(GraphSpec::Inline(gset.to_string()))
            } else {
                return Err(ServeError::Protocol {
                    message: "`graph` must be {\"named\": ...} or {\"gset\": ...}".into(),
                });
            }
        }
        None => None,
    };
    let problem = match doc.get("problem") {
        Some(p) => {
            if p.get("kind").and_then(Json::as_str).is_none() {
                return Err(ServeError::Protocol {
                    message: "`problem` must be an object with a string `kind`".into(),
                });
            }
            Some(p.clone())
        }
        None => None,
    };
    match (&graph, &problem) {
        (None, None) => {
            return Err(ServeError::Protocol {
                message: "submit requires `graph` or `problem`".into(),
            })
        }
        (Some(_), Some(_)) => {
            return Err(ServeError::Protocol {
                message: "submit takes `graph` or `problem`, not both".into(),
            })
        }
        _ => {}
    }
    Ok(SubmitRequest {
        id,
        solver,
        graph,
        problem,
        seed: optional_u64(doc, "seed")?.unwrap_or(0),
        target: optional_f64(doc, "target")?,
        deadline_ms: optional_u64(doc, "deadline_ms")?,
        max_iterations: optional_u64(doc, "max_iterations")?.map(|n| n as usize),
        stream: match doc.get("stream") {
            None => false,
            Some(v) => v.as_bool().ok_or_else(|| ServeError::Protocol {
                message: "`stream` must be a boolean".into(),
            })?,
        },
        config: doc.get("config").cloned(),
    })
}

fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::Protocol {
            message: format!("missing or non-string `{key}`"),
        })
}

fn optional_u64(doc: &Json, key: &str) -> Result<Option<u64>> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| ServeError::Protocol {
            message: format!("`{key}` must be a non-negative integer"),
        }),
    }
}

fn optional_f64(doc: &Json, key: &str) -> Result<Option<f64>> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| ServeError::Protocol {
            message: format!("`{key}` must be a number"),
        }),
    }
}

// ---- response frame builders (single-line JSON strings) ----

/// The greeting the server writes on every new connection.
#[must_use]
pub fn hello_frame(solvers: &[&str]) -> String {
    Json::obj([
        ("type", "hello".into()),
        ("protocol", PROTOCOL_VERSION.into()),
        ("solvers", solvers.iter().map(|&s| s.into()).collect()),
    ])
    .to_string()
}

/// A frame carrying nothing but its `type` (`pong`, `shutdown_ack`).
#[must_use]
pub fn bare_frame(frame_type: &str) -> String {
    Json::obj([("type", frame_type.into())]).to_string()
}

/// A command carrying nothing but its `cmd` (`stats`, `list-solvers`,
/// `ping`, `shutdown`).
#[must_use]
pub fn bare_command(cmd: &str) -> String {
    Json::obj([("cmd", cmd.into())]).to_string()
}

/// A response frame about job `id`: `type`, `id`, then `members`.
fn job_frame<'k>(
    frame_type: &str,
    id: &str,
    members: impl IntoIterator<Item = (&'k str, Json)>,
) -> String {
    let head = [("type", frame_type.into()), ("id", id.into())];
    Json::obj(head.into_iter().chain(members)).to_string()
}

/// Job admitted; `queue_depth` is the depth after admission.
#[must_use]
pub fn accepted_frame(id: &str, queue_depth: usize) -> String {
    job_frame("accepted", id, [("queue_depth", queue_depth.into())])
}

/// Job refused; `reason` is one of `queue_full`, `too_many_connections`,
/// `shutting_down`.
#[must_use]
pub fn rejected_frame(id: &str, reason: &str) -> String {
    job_frame("rejected", id, [("reason", reason.into())])
}

/// A malformed or unserviceable request (`id` empty when unknown).
#[must_use]
pub fn error_frame(id: &str, message: &str) -> String {
    job_frame("error", id, [("message", message.into())])
}

/// One streamed `SolveEvent`, as [`SolveEvent::json`](sophie_solve::SolveEvent::json)
/// renders it.
#[must_use]
pub fn event_frame(id: &str, event: Json) -> String {
    job_frame("event", id, [("event", event)])
}

/// Terminal frame for a job that produced a report; `status` is `done`
/// or `cancelled`. `report` is the last member, which the router's cache
/// relies on to slice the report bytes back out.
#[must_use]
pub fn result_frame(id: &str, status: &str, latency_ms: f64, report: Json) -> String {
    let latency = Json::rounded(latency_ms, 3);
    job_frame(
        "result",
        id,
        [
            ("status", status.into()),
            ("latency_ms", latency),
            ("report", report),
        ],
    )
}

/// Terminal frame for a job whose solver failed.
#[must_use]
pub fn failed_frame(id: &str, latency_ms: f64, message: &str) -> String {
    let latency = Json::rounded(latency_ms, 3);
    job_frame(
        "result",
        id,
        [
            ("status", "failed".into()),
            ("latency_ms", latency),
            ("error", message.into()),
        ],
    )
}

/// Acknowledges a `cancel`; `found` says whether the id named a live job
/// on this connection.
#[must_use]
pub fn cancel_ok_frame(id: &str, found: bool) -> String {
    job_frame("cancel_ok", id, [("found", found.into())])
}

/// Reads one `\n`-terminated line without ever buffering more than `max`
/// bytes, the guard that keeps untrusted sockets from ballooning memory.
///
/// Returns `Ok(None)` on clean EOF before any byte of a new line.
///
/// # Errors
///
/// I/O errors from the reader; [`std::io::ErrorKind::InvalidData`] when a
/// line exceeds `max` bytes or is not UTF-8.
pub fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    max: usize,
) -> std::io::Result<Option<String>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            break; // EOF terminates the final unterminated line
        }
        let (consumed, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&chunk[..pos]);
                (pos + 1, true)
            }
            None => {
                line.extend_from_slice(chunk);
                (chunk.len(), false)
            }
        };
        reader.consume(consumed);
        if line.len() > max {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line exceeds {max} bytes"),
            ));
        }
        if done {
            break;
        }
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "line is not utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_submit() {
        let line = r#"{"cmd":"submit","id":"j1","solver":"sa","graph":{"named":"K100"},
            "seed":7,"target":190.5,"deadline_ms":250,"max_iterations":50,"stream":true,
            "config":{"sweeps":10}}"#
            .replace('\n', " ");
        match parse_request(&line).unwrap() {
            Request::Submit(req) => {
                assert_eq!(req.id, "j1");
                assert_eq!(req.solver, "sa");
                assert_eq!(req.graph, Some(GraphSpec::Named("K100".into())));
                assert_eq!(req.problem, None);
                assert_eq!(req.seed, 7);
                assert_eq!(req.target, Some(190.5));
                assert_eq!(req.deadline_ms, Some(250));
                assert_eq!(req.max_iterations, Some(50));
                assert!(req.stream);
                assert!(req.config.is_some());
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn submit_defaults_are_minimal() {
        let line = r#"{"cmd":"submit","id":"j","solver":"sa","graph":{"gset":"2 1\n1 2 1\n"}}"#;
        match parse_request(line).unwrap() {
            Request::Submit(req) => {
                assert_eq!(req.seed, 0);
                assert!(!req.stream);
                assert!(req.target.is_none() && req.deadline_ms.is_none());
                assert!(matches!(req.graph, Some(GraphSpec::Inline(_))));
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn problem_submits_carry_the_raw_payload() {
        let line = r#"{"cmd":"submit","id":"p1","solver":"sa",
            "problem":{"kind":"coloring","random":{"nodes":6,"edges":9,"colors":3,"seed":1}}}"#
            .replace('\n', " ");
        match parse_request(&line).unwrap() {
            Request::Submit(req) => {
                assert_eq!(req.graph, None);
                let p = req.problem.expect("problem payload");
                assert_eq!(p.get("kind").and_then(Json::as_str), Some("coloring"));
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn other_commands_parse() {
        assert_eq!(
            parse_request(r#"{"cmd":"cancel","id":"x"}"#).unwrap(),
            Request::Cancel { id: "x".into() }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"list-solvers"}"#).unwrap(),
            Request::ListSolvers
        );
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_typed_protocol_errors() {
        for bad in [
            "not json",
            r#"{"cmd":"warp"}"#,
            r#"{"id":"j"}"#,
            r#"{"cmd":"submit","id":"","solver":"sa","graph":{"named":"G1"}}"#,
            r#"{"cmd":"submit","id":"j","solver":"sa"}"#,
            r#"{"cmd":"submit","id":"j","solver":"sa","graph":{}}"#,
            r#"{"cmd":"submit","id":"j","solver":"sa","problem":{"no_kind":1}}"#,
            r#"{"cmd":"submit","id":"j","solver":"sa","problem":{"kind":7}}"#,
            r#"{"cmd":"submit","id":"j","solver":"sa","graph":{"named":"G1"},"problem":{"kind":"qubo"}}"#,
            r#"{"cmd":"submit","id":"j","solver":"sa","graph":{"named":"G1"},"seed":-1}"#,
            r#"{"cmd":"submit","id":"j","solver":"sa","graph":{"named":"G1"},"stream":1}"#,
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServeError::Protocol { .. })),
                "{bad} should be a protocol error"
            );
        }
    }

    /// An id and message carrying every character class the escaper
    /// handles: quote, backslash, newline, a raw control byte, non-ASCII.
    const ODD: &str = "j\"1\\\n\u{1}é✓";

    /// Exact bytes of every frame builder.
    #[test]
    fn frame_bytes_are_pinned() {
        let report = sophie_solve::SolveReport {
            solver: "sa".to_string(),
            best_cut: 10.5,
            ..sophie_solve::SolveReport::default()
        };
        let event = sophie_solve::SolveEvent::TargetReached {
            round: 1,
            cut: 0.1 + 0.2,
        };
        let got = vec![
            hello_frame(&["sa", ODD]),
            accepted_frame(ODD, 3),
            rejected_frame(ODD, "queue_full"),
            error_frame(ODD, ODD),
            event_frame(ODD, event.json()),
            result_frame(ODD, "done", 12.345, report.json()),
            result_frame(ODD, "cancelled", 0.125, Json::Null),
            failed_frame(ODD, 12.345, ODD),
            cancel_ok_frame(ODD, true),
            bare_frame("pong"),
            bare_command("list-solvers"),
        ];
        assert_eq!(got, [
            "{\"type\":\"hello\",\"protocol\":1,\"solvers\":[\"sa\",\"j\\\"1\\\\\\n\\u0001é✓\"]}",
            "{\"type\":\"accepted\",\"id\":\"j\\\"1\\\\\\n\\u0001é✓\",\"queue_depth\":3}",
            "{\"type\":\"rejected\",\"id\":\"j\\\"1\\\\\\n\\u0001é✓\",\"reason\":\"queue_full\"}",
            "{\"type\":\"error\",\"id\":\"j\\\"1\\\\\\n\\u0001é✓\",\"message\":\"j\\\"1\\\\\\n\\u0001é✓\"}",
            "{\"type\":\"event\",\"id\":\"j\\\"1\\\\\\n\\u0001é✓\",\"event\":{\"event\":\"target_reached\",\
            \"round\":1,\"cut\":0.30000000000000004}}",
            "{\"type\":\"result\",\"id\":\"j\\\"1\\\\\\n\\u0001é✓\",\"status\":\"done\",\"latency_ms\":12.345,\
            \"report\":{\"solver\":\"sa\",\"dimension\":0,\"planned_iterations\":0,\"seed\":0,\
            \"target\":null,\"best_cut\":10.5,\"best_iteration\":0,\"iterations_run\":0,\"iterations_to_target\":null,\
            \"cut_trace_len\":0,\"activity_trace_len\":0,\"faults_injected\":0,\"faults_detected\":0,\
            \"tiles_recovered\":0,\"recoveries_exhausted\":0,\"ops\":{\"tile_mvms_1bit\":0,\"tile_mvms_8bit\":0,\
            \"eo_input_bits\":0,\"adc_1bit_samples\":0,\"adc_8bit_samples\":0,\"noise_injections\":0,\
            \"glue_adds\":0,\"spin_broadcast_bits\":0,\"partial_sum_bits\":0,\"pairs_executed\":0,\
            \"global_syncs\":0,\"tiles_programmed\":0,\"probe_mvms\":0,\"recovery_reprograms\":0,\
            \"units_remapped\":0,\"pairs_quarantined\":0,\"sparse_spin_flips\":0,\"sparse_field_updates\":0,\
            \"sparse_delta_macs\":0}}}",
            "{\"type\":\"result\",\"id\":\"j\\\"1\\\\\\n\\u0001é✓\",\"status\":\"cancelled\",\
            \"latency_ms\":0.125,\"report\":null}",
            "{\"type\":\"result\",\"id\":\"j\\\"1\\\\\\n\\u0001é✓\",\"status\":\"failed\",\"latency_ms\":12.345,\
            \"error\":\"j\\\"1\\\\\\n\\u0001é✓\"}",
            "{\"type\":\"cancel_ok\",\"id\":\"j\\\"1\\\\\\n\\u0001é✓\",\"found\":true}",
            "{\"type\":\"pong\"}",
            "{\"cmd\":\"list-solvers\"}",
        ]);
        for frame in got {
            Json::parse(&frame).unwrap_or_else(|e| panic!("{frame}: {e}"));
        }
    }

    #[test]
    fn bounded_reader_enforces_the_cap() {
        let mut input = std::io::BufReader::new("short\nlonger line\n".as_bytes());
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap().as_deref(),
            Some("short")
        );
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap().as_deref(),
            Some("longer line")
        );
        assert_eq!(read_line_bounded(&mut input, 64).unwrap(), None);

        let mut oversized = std::io::BufReader::new([b'a'; 100].as_slice());
        let err = read_line_bounded(&mut oversized, 10).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // EOF without a trailing newline still yields the last line.
        let mut tailless = std::io::BufReader::new("no newline".as_bytes());
        assert_eq!(
            read_line_bounded(&mut tailless, 64).unwrap().as_deref(),
            Some("no newline")
        );
    }
}
