//! The benchmark's own load generators.
//!
//! * **Closed loop** — each of `clients` connections keeps one request
//!   outstanding: submit, wait for `accepted`, wait for the result, repeat.
//!   It measures capacity; a request is due when it is sent.
//! * **Open loop** — one paced sender thread writes submit lines on a fixed
//!   schedule and one reader thread collects the replies, over a single
//!   pipelined connection. Every latency is timed from when the request was
//!   *due*, so a stall is charged to every request scheduled behind it, and
//!   the sender's own lateness is recorded next to it.

use std::io::{BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sophie_serve::protocol::read_line_bounded;
use sophie_serve::{Client, Json, SubmitArgs};

use crate::trace::Tracer;

/// Reply-line cap, matching the daemon's own request cap.
const MAX_FRAME_BYTES: usize = 16 << 20;

/// How long a client waits for outstanding replies: the open loop once its
/// sender has finished, the closed loop for any one reply.
const DRAIN: Duration = Duration::from_secs(20);

/// Where the requests of a phase come from: request `index` is always the
/// same submit, so a seed fixes the whole stream.
pub trait Source: Sync {
    fn args(&self, index: usize) -> SubmitArgs;
    /// Whether to keep the raw report of request `index` for checking.
    fn keep_report(&self, index: usize) -> bool;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Pending,
    Done,
    Rejected,
    Failed,
    Cancelled,
    Transport,
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub index: usize,
    pub due: Instant,
    pub sent: Option<Instant>,
    pub accepted: Option<Instant>,
    pub done: Option<Instant>,
    pub status: Status,
    /// Server-side submit-to-result time from the result frame.
    pub server_ms: f64,
    pub best_cut: f64,
    /// The result frame's raw `report` object, for sampled requests.
    pub report: Option<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Record {
    fn new(index: usize, due: Instant) -> Self {
        Record {
            index,
            due,
            sent: None,
            accepted: None,
            done: None,
            status: Status::Pending,
            server_ms: f64::NAN,
            best_cut: f64::NAN,
            report: None,
        }
    }

    /// Due-to-result latency of a completed request.
    #[must_use]
    pub fn latency_ms(&self) -> Option<f64> {
        if self.status != Status::Done {
            return None;
        }
        Some(ms(self.done?.saturating_duration_since(self.due)))
    }

    /// How late the generator sent the request.
    #[must_use]
    pub fn lateness_ms(&self) -> Option<f64> {
        Some(ms(self.sent?.saturating_duration_since(self.due)))
    }

    /// Send-to-`accepted` time.
    #[must_use]
    pub fn admit_ms(&self) -> Option<f64> {
        Some(ms(self.accepted?.saturating_duration_since(self.sent?)))
    }

    /// Send-to-result round trip minus the server's own latency: sockets,
    /// framing, and any hop in front of the daemon.
    #[must_use]
    pub fn outside_ms(&self) -> Option<f64> {
        if self.status != Status::Done {
            return None;
        }
        let rtt = ms(self.done?.saturating_duration_since(self.sent?));
        self.server_ms.is_finite().then_some(rtt - self.server_ms)
    }

    /// Folds in one frame about this request, received at `now`; returns
    /// whether it ended the request (a result, a rejection or an error).
    fn absorb(&mut self, line: &str, frame: &Json, now: Instant, keep_report: bool) -> bool {
        if self.done.is_some() {
            return false;
        }
        self.status = match frame.get("type").and_then(Json::as_str) {
            Some("accepted") => {
                self.accepted = Some(now);
                return false;
            }
            Some("result") => {
                self.server_ms = frame
                    .get("latency_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                self.best_cut = frame
                    .get("report")
                    .and_then(|r| r.get("best_cut"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                if keep_report {
                    self.report = report_slice(line).map(str::to_string);
                }
                match frame.get("status").and_then(Json::as_str) {
                    Some("done") => Status::Done,
                    Some("cancelled") => Status::Cancelled,
                    Some("rejected") => Status::Rejected,
                    _ => Status::Failed,
                }
            }
            Some("rejected") => Status::Rejected,
            Some("error") => Status::Failed,
            _ => return false,
        };
        self.done = Some(now);
        true
    }
}

/// The request index a frame is about (ids are `r<index>`).
fn frame_index(frame: &Json) -> Option<usize> {
    frame.get("id")?.as_str()?.strip_prefix('r')?.parse().ok()
}

/// The raw bytes of a result frame's `report` object (the frame's last
/// member), exactly as the daemon wrote them.
#[must_use]
pub fn report_slice(line: &str) -> Option<&str> {
    const KEY: &str = ",\"report\":";
    let start = line.find(KEY)? + KEY.len();
    line.get(start..line.len().checked_sub(1)?)
}

fn request_id(index: usize) -> String {
    format!("r{index}")
}

/// Records the spans of one finished request: the root spans from when it
/// was due to its result, with the generator's lateness, the admission
/// round trip and the server's own latency (placed to end at the result)
/// as children.
pub fn trace_request(tracer: &Tracer, r: &Record) {
    if !tracer.enabled() {
        return;
    }
    let (Some(sent), Some(done)) = (r.sent, r.done) else {
        return;
    };
    let root = tracer.next_id();
    let request = r.index as u64;
    if sent > r.due {
        tracer.record("client.late", root, request, r.due, sent);
    }
    if let Some(accepted) = r.accepted {
        tracer.record("serve.admit", root, request, sent, accepted);
    }
    if r.server_ms.is_finite() {
        let server = Duration::from_secs_f64(r.server_ms.max(0.0) / 1e3);
        let start = done.checked_sub(server).unwrap_or(sent).max(sent);
        tracer.record("serve.server", root, request, start, done);
    }
    tracer.record_as(root, "request", 0, request, r.due, done);
}

/// Runs a closed loop of `clients` connections for `duration`, numbering
/// requests from `first` and sending none numbered `last` or more. Returns
/// the records (in index order) and the instant the loop started.
///
/// # Errors
///
/// A client that cannot connect.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    duration: Duration,
    first: usize,
    last: usize,
    source: &dyn Source,
    tracer: &Tracer,
) -> Result<(Vec<Record>, Instant), String> {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let end = start + duration;
    let per_client: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| closed_client(addr, end, last, &next, source, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut records = Vec::new();
    for r in per_client {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.index);
    Ok((records, start))
}

/// `(sent, done, 1)` of each completed request, in seconds from `start`:
/// the work [`stats::window_rates`](crate::stats::window_rates) counts.
#[must_use]
pub fn completed_spans(records: &[Record], start: Instant) -> Vec<(f64, f64, f64)> {
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    records
        .iter()
        .filter(|r| r.status == Status::Done)
        .filter_map(|r| Some((secs(r.sent?), secs(r.done?), 1.0)))
        .collect()
}

/// `(due, latency)` of each completed request, in seconds from `start`
/// and milliseconds.
#[must_use]
pub fn due_latencies(records: &[Record], start: Instant) -> Vec<(f64, f64)> {
    records
        .iter()
        .filter_map(|r| {
            Some((
                r.due.saturating_duration_since(start).as_secs_f64(),
                r.latency_ms()?,
            ))
        })
        .collect()
}

fn closed_client(
    addr: SocketAddr,
    end: Instant,
    last: usize,
    next: &AtomicUsize,
    source: &dyn Source,
    tracer: &Tracer,
) -> Result<Vec<Record>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client
        .set_read_timeout(Some(DRAIN))
        .map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    while Instant::now() < end {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= last {
            break;
        }
        let sent = Instant::now();
        let mut r = Record::new(index, sent);
        r.sent = Some(sent);
        let keep = source.keep_report(index);
        let mut broken = client
            .send_line(&source.args(index).to_frame(&request_id(index)))
            .is_err();
        while !broken {
            match client.read_frame() {
                Err(_) => broken = true,
                Ok(frame) if frame_index(&frame.json) == Some(index) => {
                    if r.absorb(&frame.line, &frame.json, Instant::now(), keep) {
                        break;
                    }
                }
                // A request the daemon could not even parse is answered
                // without its id; it is the one outstanding request.
                Ok(frame) if frame.frame_type() == Some("error") => {
                    r.status = Status::Failed;
                    r.done = Some(Instant::now());
                    break;
                }
                Ok(_) => {}
            }
        }
        if broken {
            r.status = Status::Transport;
        }
        trace_request(tracer, &r);
        records.push(r);
        if broken {
            break;
        }
    }
    Ok(records)
}

/// Runs an open loop at `rate` requests per second for `duration` over one
/// connection, numbering requests from `first`, then waits for every reply.
/// Requests that never get a terminal frame end as `Transport` errors.
///
/// # Errors
///
/// Connection set-up failures.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    first: usize,
    source: &dyn Source,
    tracer: &Tracer,
) -> Result<Vec<Record>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let hello = read_line_bounded(&mut reader, MAX_FRAME_BYTES)
        .map_err(|e| format!("reading hello: {e}"))?
        .ok_or("server closed the connection before hello")?;
    if !hello.contains("\"type\":\"hello\"") {
        return Err(format!("expected a hello frame, got {hello}"));
    }
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;

    let total = (rate * duration.as_secs_f64()).floor() as usize;
    // Rendering happens before the clock starts, so the sender only sleeps
    // and writes.
    let lines: Vec<String> = (0..total)
        .map(|k| source.args(first + k).to_frame(&request_id(first + k)) + "\n")
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let records: Mutex<Vec<Record>> =
        Mutex::new((0..total).map(|k| Record::new(first + k, due(k))).collect());
    let resolved = AtomicUsize::new(0);
    let sent_count = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            for (k, line) in lines.iter().enumerate() {
                let now = Instant::now();
                if due(k) > now {
                    std::thread::sleep(due(k) - now);
                }
                // Stamp before writing: the reply can never beat the stamp.
                records.lock().expect("records lock")[k].sent = Some(Instant::now());
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
                sent_count.fetch_add(1, Ordering::Release);
            }
        });
        let receiver = scope.spawn(|| {
            read_replies(&mut reader, &records, first, source, tracer, &resolved);
        });
        sender.join().expect("open-loop sender panicked");
        let deadline = Instant::now() + DRAIN;
        while resolved.load(Ordering::Acquire) < sent_count.load(Ordering::Acquire)
            && Instant::now() < deadline
            && !receiver.is_finished()
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Wakes the reader from its blocking read.
        let _ = stream.shutdown(Shutdown::Both);
        receiver.join().expect("open-loop reader panicked");
    });

    let mut records = records.into_inner().expect("records lock");
    for r in &mut records {
        if r.status == Status::Pending {
            r.status = Status::Transport;
        }
    }
    Ok(records)
}

fn read_replies(
    reader: &mut BufReader<TcpStream>,
    records: &Mutex<Vec<Record>>,
    first: usize,
    source: &dyn Source,
    tracer: &Tracer,
    resolved: &AtomicUsize,
) {
    while let Ok(Some(line)) = read_line_bounded(reader, MAX_FRAME_BYTES) {
        let now = Instant::now();
        let Ok(frame) = Json::parse(&line) else {
            continue;
        };
        let Some(index) = frame_index(&frame) else {
            continue;
        };
        let mut guard = records.lock().expect("records lock");
        let Some(r) = index.checked_sub(first).and_then(|k| guard.get_mut(k)) else {
            continue;
        };
        if r.absorb(&line, &frame, now, source.keep_report(index)) {
            trace_request(tracer, r);
            resolved.fetch_add(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead as _;
    use std::net::TcpListener;

    use sophie_serve::GraphSpec;

    struct Fixed;

    impl Source for Fixed {
        fn args(&self, index: usize) -> SubmitArgs {
            let mut args = SubmitArgs::new("sa", GraphSpec::Named("K4".into()));
            args.seed = index as u64;
            args
        }
        fn keep_report(&self, index: usize) -> bool {
            index.is_multiple_of(2)
        }
    }

    /// A fake daemon that answers every submit at once, except that it
    /// stops reading for `stall` just before handling request `stall_at`.
    fn fake_server(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            writeln!(
                out,
                "{{\"type\":\"hello\",\"protocol\":1,\"solvers\":[\"sa\"]}}"
            )
            .unwrap();
            for (n, line) in BufReader::new(stream).lines().enumerate() {
                let Ok(line) = line else { break };
                let id = Json::parse(&line)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string();
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = format!(
                    "{{\"type\":\"accepted\",\"id\":\"{id}\",\"queue_depth\":0}}\n\
                     {{\"type\":\"result\",\"id\":\"{id}\",\"status\":\"done\",\"latency_ms\":0.010,\"report\":{{\"best_cut\":4}}}}\n"
                );
                if out.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_behind_it() {
        let stall = Duration::from_millis(150);
        let (addr, server) = fake_server(10, stall);
        let tracer = Tracer::new(true);
        // 400/s for 0.25 s: 100 requests, one due every 2.5 ms.
        let records =
            open_loop(addr, 400.0, Duration::from_millis(250), 7, &Fixed, &tracer).unwrap();
        server.join().unwrap();
        assert_eq!(records.len(), 100);
        assert!(records.iter().all(|r| r.status == Status::Done));
        assert_eq!(records[0].index, 7);
        // The sender is never held up by the stalled server...
        let late: Vec<f64> = records.iter().filter_map(Record::lateness_ms).collect();
        assert!(late.iter().all(|&l| l < 40.0), "sender ran late: {late:?}");
        // ...but every request due during the stall waits out the rest of
        // it, measured from its due time rather than from a later send.
        for r in &records[10..60] {
            let due_after_stall_start = 2.5 * (r.index - 7 - 10) as f64;
            let floor = 150.0 - due_after_stall_start - 5.0;
            let latency = r.latency_ms().unwrap();
            assert!(
                latency >= floor,
                "request {} latency {latency} < {floor}",
                r.index
            );
        }
        // Requests due well after the stall are served promptly again.
        assert!(records[99].latency_ms().unwrap() < 100.0);
        // Sampled reports are kept byte-for-byte; others are not.
        assert_eq!(records[1].report.as_deref(), Some("{\"best_cut\":4}"));
        assert_eq!(records[0].report, None);
        assert_eq!(records[3].best_cut, 4.0);
        // Each finished request left a root span with children.
        let roots = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "request")
            .count();
        assert_eq!(roots, 100);
    }

    #[test]
    fn latency_counts_from_due_not_from_send() {
        let due = Instant::now();
        let mut r = Record::new(3, due);
        r.sent = Some(due + Duration::from_millis(4));
        r.accepted = Some(due + Duration::from_millis(5));
        r.done = Some(due + Duration::from_millis(10));
        assert_eq!(
            r.latency_ms(),
            None,
            "only completed requests have a latency"
        );
        r.status = Status::Done;
        r.server_ms = 2.0;
        assert!((r.latency_ms().unwrap() - 10.0).abs() < 1e-9);
        assert!((r.lateness_ms().unwrap() - 4.0).abs() < 1e-9);
        assert!((r.admit_ms().unwrap() - 1.0).abs() < 1e-9);
        assert!((r.outside_ms().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn report_slices_are_the_raw_report_bytes() {
        let line = r#"{"type":"result","id":"r1","status":"done","latency_ms":1.250,"report":{"best_cut":10.5,"ops":{"a":1}}}"#;
        assert_eq!(
            report_slice(line),
            Some(r#"{"best_cut":10.5,"ops":{"a":1}}"#)
        );
        assert_eq!(report_slice(r#"{"type":"result","status":"failed"}"#), None);
    }
}
