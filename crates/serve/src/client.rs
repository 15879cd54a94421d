//! Blocking JSONL client for the solve daemon.
//!
//! Used by `repro submit`/`repro ctl`, the load generator, the router's
//! replica connections and health prober, the CI smoke test, and the
//! integration suite.
//! One [`Client`] owns one connection; frames about different jobs may
//! interleave on it, so the client keeps an internal pending buffer and
//! [`Client::wait_result`] hands back exactly the frames that belong to
//! the requested job id.
//!
//! Errors are typed by *retriability* ([`ClientError`]): transport
//! trouble (connect failures, broken pipes, timeouts, garbled frames) is
//! distinguishable from semantic protocol errors, so retry layers — the
//! router's dispatcher above all — can fail over without guessing from
//! error strings. A broken connection can be re-established in place with
//! [`Client::reconnect`].
//!
//! Frames are kept in *raw* form ([`RawFrame`]) next to their parsed
//! value: the router forwards replica bytes with only the job id
//! replaced, which is what makes routed results byte-identical to
//! single-daemon serving.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::ClientError;
use crate::json::Json;
use crate::protocol::{
    bare_command, read_line_bounded, GraphSpec, SubmitRequest, PROTOCOL_VERSION,
};

/// Reply cap mirroring the server's request cap; server frames are small
/// except streamed reports, which stay far below this.
const MAX_REPLY_BYTES: usize = 16 << 20;

/// One received frame: the raw wire line plus its parsed value.
///
/// The raw line matters wherever byte-identity does — the router forwards
/// `line` with only the job id replaced, so a routed result is
/// indistinguishable from a direct one; tests compare `line` bytes, not
/// re-serializations.
#[derive(Debug, Clone)]
pub struct RawFrame {
    /// The frame exactly as it arrived (no trailing newline).
    pub line: String,
    /// The parsed value of `line`.
    pub json: Json,
}

impl RawFrame {
    /// Shorthand for `self.json.get(key)`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.json.get(key)
    }

    /// The frame's `type` field, if present and a string.
    #[must_use]
    pub fn frame_type(&self) -> Option<&str> {
        self.json.get("type").and_then(Json::as_str)
    }

    /// The frame's `id` field, if present and a string.
    #[must_use]
    pub fn id(&self) -> Option<&str> {
        self.json.get("id").and_then(Json::as_str)
    }
}

impl std::fmt::Display for RawFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.line)
    }
}

/// What to submit; mirrors the submit frame minus the id.
#[derive(Debug, Clone)]
pub struct SubmitArgs {
    /// Registry solver name.
    pub solver: String,
    /// Instance to solve (`None` for problem-typed submits).
    pub graph: Option<GraphSpec>,
    /// Raw JSON for the `problem` field (already valid JSON), if any.
    pub problem_json: Option<String>,
    /// Job seed.
    pub seed: u64,
    /// Optional convergence target.
    pub target: Option<f64>,
    /// Optional deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Optional iteration cap.
    pub max_iterations: Option<usize>,
    /// Stream `SolveEvent` frames while running.
    pub stream: bool,
    /// Raw JSON for the `config` field (already valid JSON), if any.
    pub config_json: Option<String>,
}

impl SubmitArgs {
    /// A minimal job: named solver on a named instance, defaults elsewhere.
    #[must_use]
    pub fn new(solver: &str, graph: GraphSpec) -> Self {
        SubmitArgs {
            solver: solver.to_string(),
            graph: Some(graph),
            problem_json: None,
            seed: 0,
            target: None,
            deadline_ms: None,
            max_iterations: None,
            stream: false,
            config_json: None,
        }
    }

    /// A problem-typed job: the named solver on a compiled problem;
    /// `problem_json` is the raw `problem` payload (already valid JSON).
    #[must_use]
    pub fn for_problem(solver: &str, problem_json: &str) -> Self {
        SubmitArgs {
            solver: solver.to_string(),
            graph: None,
            problem_json: Some(problem_json.to_string()),
            seed: 0,
            target: None,
            deadline_ms: None,
            max_iterations: None,
            stream: false,
            config_json: None,
        }
    }

    /// Renders the submit frame for job `id` (also used by the router's
    /// cache keying tests). `problem_json` and `config_json` are the
    /// caller's JSON text and go on the wire verbatim.
    #[must_use]
    pub fn to_frame(&self, id: &str) -> String {
        let request = SubmitRequest {
            id: id.to_string(),
            solver: self.solver.clone(),
            graph: self.graph.clone(),
            problem: self.problem_json.clone().map(Json::Raw),
            seed: self.seed,
            target: self.target,
            deadline_ms: self.deadline_ms,
            max_iterations: self.max_iterations,
            stream: self.stream,
            config: self.config_json.clone().map(Json::Raw),
        };
        request.to_frame(id)
    }
}

/// The `cancel` command for job `id`.
pub(crate) fn cancel_frame(id: &str) -> String {
    Json::obj([("cmd", "cancel".into()), ("id", id.into())]).to_string()
}

/// The terminal outcome of one job, as the wire reported it.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// `done`, `cancelled`, or `failed`.
    pub status: String,
    /// Submit-to-result latency measured server-side, in milliseconds.
    pub latency_ms: f64,
    /// The full `result` frame (raw line + parsed value).
    pub frame: RawFrame,
    /// Streamed `event` frames for this job, in emission order.
    pub events: Vec<RawFrame>,
}

/// A blocking connection to a solve daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pending: VecDeque<RawFrame>,
    /// The peer we connected to; [`Client::reconnect`] dials it again.
    peer: SocketAddr,
    read_timeout: Option<Duration>,
    /// The server's `hello` frame.
    pub hello: Json,
}

impl Client {
    /// Connects and consumes the `hello` frame, refusing protocol
    /// mismatches.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] if the dial fails,
    /// [`ClientError::Rejected`] if the server turned the connection away,
    /// [`ClientError::Protocol`] for a missing/invalid greeting or an
    /// unsupported protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Connect)?;
        Self::from_stream(stream)
    }

    /// [`Client::connect`] with `timeout` on the TCP connect, on the wait
    /// for the greeting and, as the read timeout, on every later frame.
    ///
    /// # Errors
    ///
    /// The errors of [`Client::connect`]; a greeting that does not come in
    /// time is a [`ClientError::Transport`].
    pub(crate) fn connect_timeout(
        addr: &SocketAddr,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(addr, timeout).map_err(ClientError::Connect)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(ClientError::Connect)?;
        let mut client = Self::from_stream(stream)?;
        client.read_timeout = Some(timeout);
        Ok(client)
    }

    fn from_stream(stream: TcpStream) -> Result<Client, ClientError> {
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr().map_err(ClientError::Connect)?;
        let writer = stream.try_clone().map_err(ClientError::Connect)?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            pending: VecDeque::new(),
            peer,
            read_timeout: None,
            hello: Json::Null,
        };
        let hello = client.read_frame_from_socket()?;
        match hello.frame_type() {
            Some("hello") => {}
            Some("rejected") => {
                return Err(ClientError::Rejected {
                    reason: hello
                        .get("reason")
                        .and_then(Json::as_str)
                        .unwrap_or("too_many_connections")
                        .to_string(),
                })
            }
            _ => {
                return Err(ClientError::Protocol {
                    message: "server did not send a hello frame".into(),
                })
            }
        }
        let version = hello.get("protocol").and_then(Json::as_u64);
        if version != Some(PROTOCOL_VERSION) {
            return Err(ClientError::Protocol {
                message: format!("unsupported protocol version {version:?}"),
            });
        }
        client.hello = hello.json;
        Ok(client)
    }

    /// The address this client dialed.
    #[must_use]
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Re-establishes the connection to the same peer after a transport
    /// error (broken pipe, reset, timeout), discarding any buffered frames
    /// — they belonged to the dead connection's jobs, which the server
    /// cancelled when the socket dropped. A read timeout, if set, carries
    /// over and bounds the dial as `Client::connect_timeout`'s does.
    ///
    /// # Errors
    ///
    /// The same errors as [`Client::connect`].
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        *self = match self.read_timeout {
            Some(timeout) => Client::connect_timeout(&self.peer, timeout)?,
            None => Client::connect(self.peer)?,
        };
        Ok(())
    }

    /// Sets a read timeout for subsequent frames (`None` blocks forever).
    /// The timeout survives [`Client::reconnect`].
    ///
    /// # Errors
    ///
    /// The underlying socket error, if any.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.read_timeout = timeout;
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::transport("set_read_timeout", e))
    }

    /// A second handle on this connection's socket, for writing lines and
    /// shutting it down from another thread while this client blocks in
    /// [`Client::read_frame`] (the router's replica connections).
    pub(crate) fn socket(&self) -> std::io::Result<TcpStream> {
        self.writer.try_clone()
    }

    /// Sends one raw line.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on socket write errors.
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| ClientError::transport("send_line", e))
    }

    /// Reads the next frame (buffered frames first).
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on socket errors or EOF,
    /// [`ClientError::MalformedFrame`] for an unparsable frame.
    pub fn read_frame(&mut self) -> Result<RawFrame, ClientError> {
        if let Some(frame) = self.pending.pop_front() {
            return Ok(frame);
        }
        self.read_frame_from_socket()
    }

    fn read_frame_from_socket(&mut self) -> Result<RawFrame, ClientError> {
        match read_line_bounded(&mut self.reader, MAX_REPLY_BYTES) {
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                Err(ClientError::MalformedFrame {
                    message: e.to_string(),
                })
            }
            Err(e) => Err(ClientError::transport("read_frame", e)),
            Ok(None) => Err(ClientError::transport(
                "read_frame",
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ),
            )),
            Ok(Some(line)) => match Json::parse(&line) {
                Ok(json) => Ok(RawFrame { line, json }),
                Err(e) => Err(ClientError::MalformedFrame {
                    message: e.to_string(),
                }),
            },
        }
    }

    /// Submits a job and returns the admission frame (`accepted`,
    /// `rejected`, or `error`).
    ///
    /// # Errors
    ///
    /// Socket and framing errors; admission *rejections* are returned as
    /// frames, not errors.
    pub fn submit(&mut self, id: &str, args: &SubmitArgs) -> Result<RawFrame, ClientError> {
        self.send_line(&args.to_frame(id))?;
        // The admission reply is written under the server's writer lock
        // before any worker frame, but frames for *other* jobs may arrive
        // first; buffer those.
        loop {
            let frame = self.read_frame_from_socket()?;
            let about_this = frame.id() == Some(id)
                && matches!(frame.frame_type(), Some("accepted" | "rejected" | "error"));
            if about_this {
                return Ok(frame);
            }
            self.pending.push_back(frame);
        }
    }

    /// Blocks until job `id`'s terminal `result` frame, collecting its
    /// streamed events along the way. Frames for other jobs are buffered
    /// for later calls.
    ///
    /// # Errors
    ///
    /// Socket and framing errors, or an `error` frame about this job.
    pub fn wait_result(&mut self, id: &str) -> Result<JobOutcome, ClientError> {
        let mut events = Vec::new();
        // Scan buffered frames first.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].id() == Some(id) {
                let frame = self.pending.remove(i).expect("index in range");
                if let Some(outcome) = Self::absorb(frame, &mut events)? {
                    return Ok(outcome);
                }
            } else {
                i += 1;
            }
        }
        loop {
            let frame = self.read_frame_from_socket()?;
            if frame.id() == Some(id) {
                if let Some(outcome) = Self::absorb(frame, &mut events)? {
                    return Ok(outcome);
                }
            } else {
                self.pending.push_back(frame);
            }
        }
    }

    /// Folds one frame about a job into its event list, or completes it.
    fn absorb(
        frame: RawFrame,
        events: &mut Vec<RawFrame>,
    ) -> Result<Option<JobOutcome>, ClientError> {
        match frame.frame_type() {
            Some("event") => {
                events.push(frame);
                Ok(None)
            }
            Some("result") => {
                let status = frame
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                let latency_ms = frame
                    .get("latency_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                Ok(Some(JobOutcome {
                    status,
                    latency_ms,
                    frame,
                    events: std::mem::take(events),
                }))
            }
            Some("error") => Err(ClientError::Protocol {
                message: frame
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string(),
            }),
            // A post-acceptance rejection (a routed job whose upstream
            // replicas all rejected it) is terminal — waiting on would hang.
            Some("rejected") => Ok(Some(JobOutcome {
                status: "rejected".to_string(),
                latency_ms: f64::NAN,
                frame,
                events: std::mem::take(events),
            })),
            // accepted frames can land here when submit was issued raw
            Some("accepted" | "cancel_ok") => Ok(None),
            _ => Ok(None),
        }
    }

    /// Requests cancellation of job `id`; returns whether the server knew
    /// the job.
    ///
    /// # Errors
    ///
    /// Socket and framing errors.
    pub fn cancel(&mut self, id: &str) -> Result<bool, ClientError> {
        self.send_line(&cancel_frame(id))?;
        loop {
            let frame = self.read_frame_from_socket()?;
            if frame.frame_type() == Some("cancel_ok") {
                return Ok(frame.get("found").and_then(Json::as_bool).unwrap_or(false));
            }
            self.pending.push_back(frame);
        }
    }

    /// Fetches the `stats` frame.
    ///
    /// # Errors
    ///
    /// Socket and framing errors.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.send_line(&bare_command("stats"))?;
        self.wait_type("stats").map(|f| f.json)
    }

    /// Fetches the `solvers` listing frame.
    ///
    /// # Errors
    ///
    /// Socket and framing errors.
    pub fn list_solvers(&mut self) -> Result<Json, ClientError> {
        self.send_line(&bare_command("list-solvers"))?;
        self.wait_type("solvers").map(|f| f.json)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Socket and framing errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send_line(&bare_command("ping"))?;
        self.wait_type("pong").map(|_| ())
    }

    /// Asks the daemon to shut down gracefully; returns after the ack.
    ///
    /// # Errors
    ///
    /// Socket and framing errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send_line(&bare_command("shutdown"))?;
        self.wait_type("shutdown_ack").map(|_| ())
    }

    fn wait_type(&mut self, frame_type: &str) -> Result<RawFrame, ClientError> {
        loop {
            let frame = self.read_frame_from_socket()?;
            if frame.frame_type() == Some(frame_type) {
                return Ok(frame);
            }
            self.pending.push_back(frame);
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.peer)
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_frames_round_trip_through_the_parser() {
        let mut args = SubmitArgs::new("sa", GraphSpec::Named("K100".into()));
        args.seed = 9;
        args.target = Some(42.5);
        args.deadline_ms = Some(100);
        args.max_iterations = Some(7);
        args.stream = true;
        args.config_json = Some(r#"{"sweeps":5}"#.into());
        let frame = args.to_frame("job-1");
        match crate::protocol::parse_request(&frame).unwrap() {
            crate::protocol::Request::Submit(req) => {
                assert_eq!(req.id, "job-1");
                assert_eq!(req.seed, 9);
                assert_eq!(req.target, Some(42.5));
                assert_eq!(req.max_iterations, Some(7));
                assert!(req.stream);
                assert!(req.config.is_some());
            }
            other => panic!("expected Submit, got {other:?}"),
        }

        let inline = SubmitArgs::new("sa", GraphSpec::Inline("2 1\n1 2 1\n".into()));
        let frame = inline.to_frame("j2");
        match crate::protocol::parse_request(&frame).unwrap() {
            crate::protocol::Request::Submit(req) => {
                assert_eq!(req.graph, Some(GraphSpec::Inline("2 1\n1 2 1\n".into())));
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    /// Exact submit-frame bytes: every field set (caller-supplied
    /// `problem`/`config` text kept verbatim, whitespace included), then
    /// minimal graph and problem submits.
    #[test]
    fn submit_frame_bytes_are_pinned() {
        let mut args = SubmitArgs::new("sa", GraphSpec::Inline("2 1\n1 2 \"1\"\n".into()));
        args.problem_json = Some(r#"{ "kind" : "qubo", "n": 2 }"#.into());
        args.seed = u64::MAX;
        args.target = Some(0.1 + 0.2);
        args.deadline_ms = Some(250);
        args.max_iterations = Some(7);
        args.stream = true;
        args.config_json = Some("{ \"sweeps\" :\t5 ,\n \"beta0\": 0.5 }".into());
        let minimal = SubmitArgs::for_problem("sophie", r#"{"kind":"max-cut"}"#);
        let got = vec![
            args.to_frame("j\"1\\\n\u{1}é"),
            SubmitArgs::new("sa", GraphSpec::Named("K100".into())).to_frame("n"),
            minimal.to_frame("p"),
        ];
        assert_eq!(got, [
            "{\"cmd\":\"submit\",\"id\":\"j\\\"1\\\\\\n\\u0001é\",\"solver\":\"sa\",\"graph\":{\"gset\":\"2 1\\n1 2 \\\"1\\\"\\n\"},\
            \"problem\":{ \"kind\" : \"qubo\", \"n\": 2 },\"seed\":18446744073709551615,\"target\":0.30000000000000004,\
            \"deadline_ms\":250,\"max_iterations\":7,\"stream\":true,\"config\":{ \"sweeps\" :\t5 ,\
            \n \"beta0\": 0.5 }}",
            "{\"cmd\":\"submit\",\"id\":\"n\",\"solver\":\"sa\",\"graph\":{\"named\":\"K100\"},\
            \"seed\":0}",
            "{\"cmd\":\"submit\",\"id\":\"p\",\"solver\":\"sophie\",\"problem\":{\"kind\":\"max-cut\"},\
            \"seed\":0}",
        ]);
    }

    /// Both cancel writers (`Client::cancel` and the router's replica
    /// connections, through `cancel_frame`) send the same line, pinned
    /// byte for byte against a scripted peer.
    #[test]
    fn cancel_line_bytes_are_pinned() {
        use std::io::{BufRead, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            writeln!(
                writer,
                "{{\"type\":\"hello\",\"protocol\":1,\"solvers\":[]}}"
            )
            .unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            writeln!(
                writer,
                "{{\"type\":\"cancel_ok\",\"id\":\"x\",\"found\":true}}"
            )
            .unwrap();
            line
        });
        let id = "c\"1\\\n\u{1}é";
        let mut client = Client::connect(addr).unwrap();
        assert!(client.cancel(id).unwrap());
        let pinned = "{\"cmd\":\"cancel\",\"id\":\"c\\\"1\\\\\\n\\u0001é\"}";
        assert_eq!(peer.join().unwrap(), format!("{pinned}\n"));
        assert_eq!(cancel_frame(id), pinned);
    }

    #[test]
    fn raw_frames_preserve_the_wire_bytes() {
        let line = r#"{"type":"result","id":"j","status":"done","latency_ms":1.250,"report":{"best_cut":10.5}}"#;
        let frame = RawFrame {
            line: line.to_string(),
            json: Json::parse(line).unwrap(),
        };
        assert_eq!(frame.to_string(), line);
        assert_eq!(frame.frame_type(), Some("result"));
        assert_eq!(frame.id(), Some("j"));
    }
}
