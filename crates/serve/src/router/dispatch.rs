//! One job's journey through the cluster: cache fast path, placement,
//! attempt threads with deadline-aware retry, hedging, failover, and
//! verbatim frame forwarding.
//!
//! Byte-identity contract: the router sends the client's original submit
//! line to the replica unchanged (so replica frames carry the client's
//! job id), and forwards the replica's `event`/`result`/`error` lines
//! back byte-for-byte. A job that completes without a retry is therefore
//! indistinguishable on the wire from one served by a single daemon.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::client::{CancelSender, Client};
use crate::conn::{Cancel, Conn};
use crate::error::ClientError;
use crate::json::Json;
use crate::protocol::{failed_frame, rejected_frame, result_frame, SubmitRequest};

use super::cache::{cacheable, placement_hash, report_slice};
use super::RouterShared;

/// Upper bound on a single dispatcher wait when nothing else bounds it;
/// attempt threads carry their own read timeouts and always report back.
const LONG_WAIT: Duration = Duration::from_secs(3600);

/// Cancellation plumbing for one dispatched job: the client-side `cancel`
/// (or the client's death) must reach whichever replica connections are
/// currently carrying an attempt.
pub(crate) struct DispatchCtl {
    id: String,
    cancelled: AtomicBool,
    senders: Mutex<Vec<Option<CancelSender>>>,
}

impl DispatchCtl {
    pub(crate) fn new(id: &str) -> Self {
        DispatchCtl {
            id: id.to_string(),
            cancelled: AtomicBool::new(false),
            senders: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Marks the job cancelled and pushes a `cancel` frame onto every
    /// replica connection still carrying an attempt.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        let mut senders = self.senders.lock().expect("ctl senders lock");
        for sender in senders.iter_mut().flatten() {
            let _ = sender.send_cancel(&self.id);
        }
    }

    /// Registers a live attempt's cancel handle; if the job was already
    /// cancelled, the cancel is forwarded immediately.
    fn register(&self, mut sender: CancelSender) -> usize {
        if self.is_cancelled() {
            let _ = sender.send_cancel(&self.id);
        }
        let mut senders = self.senders.lock().expect("ctl senders lock");
        senders.push(Some(sender));
        senders.len() - 1
    }

    fn deregister(&self, slot: usize) {
        let mut senders = self.senders.lock().expect("ctl senders lock");
        if let Some(entry) = senders.get_mut(slot) {
            *entry = None;
        }
    }
}

impl Cancel for Arc<DispatchCtl> {
    fn cancel(&self) {
        DispatchCtl::cancel(self);
    }
}

/// A router client's connection, whose job map holds dispatch controls.
pub(crate) type ClientConn = Conn<Arc<DispatchCtl>>;

/// The client end of one routed job: the connection its frames go to and
/// the client's job id.
#[derive(Clone)]
pub(crate) struct Reply {
    pub(crate) conn: Arc<ClientConn>,
    pub(crate) id: String,
}

impl Reply {
    /// Settles the job, then writes its terminal frame. It leaves its
    /// connection's map and gives back its in-flight slot first: a client
    /// that has read this frame must not be told `duplicate_id` when it
    /// reuses the id, nor see the job still in flight in `stats`. The
    /// caller has already counted the outcome.
    pub(crate) fn send_final(&self, shared: &RouterShared, frame: &str) {
        self.conn.jobs.remove(&self.id);
        shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.conn.send(frame);
    }
}

/// How one attempt against one replica ended.
enum AttemptEnd {
    /// The replica produced a terminal frame for this job; `raw_line` is
    /// forwarded verbatim. `status` is the frame's status (or `"error"`
    /// for an upstream error frame).
    Completed { raw_line: String, status: String },
    /// The replica refused the job for capacity reasons — failover
    /// without a health penalty.
    Rejected { reason: String },
    /// Transport-level failure (connect, broken pipe, timeout, garbled
    /// frame, or a shutdown-cancelled job) — retriable, health penalty.
    Failed { error: ClientError },
}

/// Routes one submitted job to completion. The caller has already sent
/// `accepted`, holds the in-flight slot and computed the job's content
/// `key` ([`job_key`](super::cache::job_key)) at admission; this function
/// always ends the job with exactly one terminal frame through
/// [`Reply::send_final`] (result/rejected), or a failed result when the
/// budget dies with attempts still pending.
pub(crate) fn dispatch(
    shared: &Arc<RouterShared>,
    reply: &Reply,
    ctl: &Arc<DispatchCtl>,
    raw_line: &str,
    req: &SubmitRequest,
    key: &str,
) {
    let start = Instant::now();
    let metrics = &shared.metrics;

    // Cache fast path: identical completed submissions replay in
    // microseconds without touching a replica. Streamed and deadline'd
    // jobs always run — see `cacheable` for why neither may replay.
    // Metrics are bumped *before* the terminal frame goes out, here and in
    // every terminal path below: a client that has seen its result must
    // see the job reflected in `stats`, even when it asks immediately.
    if cacheable(req) {
        if let Some(report) = shared.cache.lookup(key) {
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            metrics.done.fetch_add(1, Ordering::Relaxed);
            // The replica rendered these bytes; they replay verbatim.
            let report = Json::Raw(report);
            reply.send_final(shared, &result_frame(&req.id, "done", elapsed_ms, report));
            return;
        }
    }

    let hash = placement_hash(key);
    let n = shared.pool.replicas.len();
    let home = if n == 0 {
        0
    } else {
        (hash % n as u64) as usize
    };
    let candidates = shared.pool.candidates(home);
    if candidates.is_empty() {
        // Graceful degradation: every replica is quarantined (or none are
        // configured). Typed backpressure, never unbounded queueing.
        metrics
            .rejected_cluster_degraded
            .fetch_add(1, Ordering::Relaxed);
        reply.send_final(shared, &rejected_frame(&req.id, "cluster_degraded"));
        return;
    }

    let deadline = req.deadline_ms.map(Duration::from_millis);
    // The replica enforces the solve deadline itself; the router's budget
    // adds headroom for queueing and transport so a deadline'd job is not
    // killed mid-handoff.
    let budget = deadline.map(|d| d + d.max(Duration::from_secs(1)));
    let deadline_at = budget.map(|b| start + b);
    let plan = shared.config.retry.plan(hash, budget);

    if req.stream {
        dispatch_stream(
            shared,
            reply,
            ctl,
            raw_line,
            req,
            &candidates,
            &plan,
            deadline_at,
            start,
        );
    } else {
        dispatch_unary(
            shared,
            reply,
            ctl,
            raw_line,
            req,
            key,
            &candidates,
            &plan,
            deadline,
            deadline_at,
            start,
        );
    }
}

/// Non-streamed dispatch: attempts run in worker threads reporting over a
/// channel, which is what makes hedging (a second racing attempt near the
/// deadline) and prompt failover possible.
#[allow(clippy::too_many_arguments)]
fn dispatch_unary(
    shared: &Arc<RouterShared>,
    reply: &Reply,
    ctl: &Arc<DispatchCtl>,
    raw_line: &str,
    req: &SubmitRequest,
    key: &str,
    candidates: &[usize],
    plan: &super::retry::AttemptPlan,
    deadline: Option<Duration>,
    deadline_at: Option<Instant>,
    start: Instant,
) {
    let metrics = &shared.metrics;
    let (tx, rx) = mpsc::channel::<(usize, bool, AttemptEnd)>();
    let hedge_at = shared.config.retry.hedge_delay(deadline).map(|d| start + d);
    // One extra slot beyond the plan when hedging is armed.
    let max_attempts = plan.attempts() + usize::from(hedge_at.is_some());

    let mut launched = 0usize;
    let mut inflight = 0usize;
    let mut hedged = false;
    let mut prev_replica: Option<usize> = None;
    let mut last_error: Option<String> = None;
    let mut last_reject: Option<String> = None;

    let launch = |launched: &mut usize,
                  inflight: &mut usize,
                  prev_replica: &mut Option<usize>,
                  is_hedge: bool| {
        let replica_idx = candidates[*launched % candidates.len()];
        if prev_replica.is_some_and(|p| p != replica_idx) {
            metrics.failovers.fetch_add(1, Ordering::Relaxed);
        }
        *prev_replica = Some(replica_idx);
        *launched += 1;
        *inflight += 1;
        let shared = Arc::clone(shared);
        let ctl = Arc::clone(ctl);
        let tx = tx.clone();
        let raw_line = raw_line.to_string();
        let id = req.id.clone();
        std::thread::spawn(move || {
            let end = run_attempt(&shared, replica_idx, &raw_line, &id, deadline_at, &ctl);
            shared
                .pool
                .record_dispatch(replica_idx, !matches!(end, AttemptEnd::Failed { .. }));
            let _ = tx.send((replica_idx, is_hedge, end));
        });
    };

    launch(&mut launched, &mut inflight, &mut prev_replica, false);

    loop {
        let now = Instant::now();
        if deadline_at.is_some_and(|at| now >= at) {
            break; // budget exhausted with attempts still pending
        }
        let mut wait = deadline_at.map_or(LONG_WAIT, |at| at - now);
        let hedge_due = !hedged && launched < max_attempts && candidates.len() > 1;
        if hedge_due {
            if let Some(h_at) = hedge_at {
                if now >= h_at {
                    hedged = true;
                    metrics.hedges.fetch_add(1, Ordering::Relaxed);
                    launch(&mut launched, &mut inflight, &mut prev_replica, true);
                    continue;
                }
                wait = wait.min(h_at - now);
            }
        }

        let (_replica_idx, is_hedge, end) = match rx.recv_timeout(wait) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => continue, // re-evaluate hedge/budget
            Err(RecvTimeoutError::Disconnected) => break,
        };
        inflight -= 1;

        match end {
            AttemptEnd::Completed { raw_line, status } => {
                if status == "done" && cacheable(req) {
                    if let Some(report) = report_slice(&raw_line) {
                        shared.cache.insert(key, report);
                    }
                }
                count_terminal(metrics, &status);
                if is_hedge {
                    metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                reply.send_final(shared, &raw_line);
                if inflight > 0 {
                    // A hedge partner is still running the same job; stop it.
                    ctl.cancel();
                }
                return;
            }
            AttemptEnd::Rejected { reason } => {
                // Capacity rejection: fail over immediately, no backoff,
                // no health penalty — the replica is alive, just full. The
                // reason is kept even when a hedge is still in flight, so
                // a later transport failure cannot erase the typed answer.
                last_reject = Some(reason);
                if launched < max_attempts {
                    metrics.retries.fetch_add(1, Ordering::Relaxed);
                    launch(&mut launched, &mut inflight, &mut prev_replica, false);
                } else if inflight == 0 {
                    emit_unary_failure(
                        shared,
                        reply,
                        req,
                        launched,
                        start,
                        &last_error,
                        &last_reject,
                    );
                    return;
                }
            }
            AttemptEnd::Failed { error } => {
                last_error = Some(error.to_string());
                if launched < max_attempts {
                    let delay = plan
                        .delays
                        .get(launched.saturating_sub(1))
                        .copied()
                        .unwrap_or(Duration::ZERO);
                    if inflight == 0 && !delay.is_zero() {
                        let clamped = deadline_at.map_or(delay, |at| {
                            delay.min(at.saturating_duration_since(Instant::now()))
                        });
                        std::thread::sleep(clamped);
                    }
                    metrics.retries.fetch_add(1, Ordering::Relaxed);
                    launch(&mut launched, &mut inflight, &mut prev_replica, false);
                } else if inflight == 0 {
                    emit_unary_failure(
                        shared,
                        reply,
                        req,
                        launched,
                        start,
                        &last_error,
                        &last_reject,
                    );
                    return;
                }
            }
        }
    }

    // Budget exhausted (or channel died) with attempts unresolved: cancel
    // whatever is still running and fail the job explicitly.
    ctl.cancel();
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let message = format!(
        "deadline exceeded in router after {launched} attempt(s){}",
        last_error
            .as_deref()
            .map(|e| format!("; last error: {e}"))
            .unwrap_or_default()
    );
    metrics.failed.fetch_add(1, Ordering::Relaxed);
    reply.send_final(shared, &failed_frame(&req.id, elapsed_ms, &message));
}

/// Terminal emission when a unary job's attempt budget is exhausted with
/// nothing in flight. A typed upstream rejection, when one was observed,
/// beats a generic transport failure: it is a replica's actual answer
/// about the job (retry later), where the transport error only says a
/// socket died — even a hedge dying after the rejection arrived must not
/// downgrade the frame the client sees.
fn emit_unary_failure(
    shared: &Arc<RouterShared>,
    reply: &Reply,
    req: &SubmitRequest,
    launched: usize,
    start: Instant,
    last_error: &Option<String>,
    last_reject: &Option<String>,
) {
    let metrics = &shared.metrics;
    if let Some(reason) = last_reject {
        metrics.rejected_upstream.fetch_add(1, Ordering::Relaxed);
        reply.send_final(shared, &rejected_frame(&req.id, reason));
        return;
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let message = format!(
        "job failed after {launched} attempt(s): {}",
        last_error.as_deref().unwrap_or("unknown transport error")
    );
    metrics.failed.fetch_add(1, Ordering::Relaxed);
    reply.send_final(shared, &failed_frame(&req.id, elapsed_ms, &message));
}

/// Streamed dispatch: attempts are strictly sequential (no hedge — two
/// replicas would double-emit events) and already-forwarded events are
/// skipped on retry, so the client sees each deterministic event exactly
/// once even when the job moves replicas mid-stream.
#[allow(clippy::too_many_arguments)]
fn dispatch_stream(
    shared: &Arc<RouterShared>,
    reply: &Reply,
    ctl: &Arc<DispatchCtl>,
    raw_line: &str,
    req: &SubmitRequest,
    candidates: &[usize],
    plan: &super::retry::AttemptPlan,
    deadline_at: Option<Instant>,
    start: Instant,
) {
    let metrics = &shared.metrics;
    let mut forwarded_events = 0usize;
    let mut last_error: Option<String> = None;
    let mut last_reject: Option<String> = None;
    let mut prev_replica: Option<usize> = None;

    for attempt in 0..plan.attempts() {
        if deadline_at.is_some_and(|at| Instant::now() >= at) {
            break;
        }
        if attempt > 0 {
            metrics.retries.fetch_add(1, Ordering::Relaxed);
            // Back off only after transport failures; capacity rejections
            // fail over immediately (last_error is None then).
            if last_error.is_some() {
                let delay = plan
                    .delays
                    .get(attempt - 1)
                    .copied()
                    .unwrap_or(Duration::ZERO);
                let clamped = deadline_at.map_or(delay, |at| {
                    delay.min(at.saturating_duration_since(Instant::now()))
                });
                std::thread::sleep(clamped);
            }
        }
        let replica_idx = candidates[attempt % candidates.len()];
        if prev_replica.is_some_and(|p| p != replica_idx) {
            metrics.failovers.fetch_add(1, Ordering::Relaxed);
        }
        prev_replica = Some(replica_idx);

        let end = run_stream_attempt(
            shared,
            replica_idx,
            raw_line,
            &req.id,
            deadline_at,
            ctl,
            &reply.conn,
            &mut forwarded_events,
        );
        shared
            .pool
            .record_dispatch(replica_idx, !matches!(end, AttemptEnd::Failed { .. }));
        match end {
            AttemptEnd::Completed { raw_line, status } => {
                count_terminal(metrics, &status);
                reply.send_final(shared, &raw_line);
                return;
            }
            AttemptEnd::Rejected { reason } => {
                last_reject = Some(reason);
                last_error = None;
            }
            AttemptEnd::Failed { error } => {
                last_error = Some(error.to_string());
            }
        }
    }

    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    match (&last_error, &last_reject) {
        (None, Some(reason)) => {
            metrics.rejected_upstream.fetch_add(1, Ordering::Relaxed);
            reply.send_final(shared, &rejected_frame(&req.id, reason));
        }
        _ => {
            let message = format!(
                "stream job failed: {}",
                last_error.as_deref().unwrap_or("retry budget exhausted")
            );
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            reply.send_final(shared, &failed_frame(&req.id, elapsed_ms, &message));
        }
    }
}

fn count_terminal(metrics: &super::metrics::RouterMetrics, status: &str) {
    match status {
        "done" => metrics.done.fetch_add(1, Ordering::Relaxed),
        "cancelled" => metrics.cancelled.fetch_add(1, Ordering::Relaxed),
        _ => metrics.failed.fetch_add(1, Ordering::Relaxed),
    };
}

/// One non-streamed attempt against one replica, synchronously.
fn run_attempt(
    shared: &Arc<RouterShared>,
    replica_idx: usize,
    raw_line: &str,
    id: &str,
    deadline_at: Option<Instant>,
    ctl: &DispatchCtl,
) -> AttemptEnd {
    let replica = &shared.pool.replicas[replica_idx];
    replica.dispatched.fetch_add(1, Ordering::Relaxed);
    let (mut client, pooled) = match replica.checkout() {
        Ok(pair) => pair,
        Err(error) => return AttemptEnd::Failed { error },
    };
    // A pooled connection may have died while idle (replica restarted);
    // give it one in-place reconnect before charging the replica's health.
    match attempt_on(&mut client, shared, raw_line, id, deadline_at, ctl, None) {
        Ok(end) => {
            finish_attempt(replica, client, &end);
            end
        }
        Err(error) if pooled && error.is_retriable() && client.reconnect().is_ok() => {
            match attempt_on(&mut client, shared, raw_line, id, deadline_at, ctl, None) {
                Ok(end) => {
                    finish_attempt(replica, client, &end);
                    end
                }
                Err(error) => AttemptEnd::Failed { error },
            }
        }
        Err(error) => AttemptEnd::Failed { error },
    }
}

/// One streamed attempt; forwards fresh events as they arrive.
#[allow(clippy::too_many_arguments)]
fn run_stream_attempt(
    shared: &Arc<RouterShared>,
    replica_idx: usize,
    raw_line: &str,
    id: &str,
    deadline_at: Option<Instant>,
    ctl: &DispatchCtl,
    conn: &Arc<ClientConn>,
    forwarded_events: &mut usize,
) -> AttemptEnd {
    let replica = &shared.pool.replicas[replica_idx];
    replica.dispatched.fetch_add(1, Ordering::Relaxed);
    let (mut client, pooled) = match replica.checkout() {
        Ok(pair) => pair,
        Err(error) => return AttemptEnd::Failed { error },
    };
    match attempt_on(
        &mut client,
        shared,
        raw_line,
        id,
        deadline_at,
        ctl,
        Some((conn, &mut *forwarded_events)),
    ) {
        Ok(end) => {
            finish_attempt(replica, client, &end);
            end
        }
        Err(error) if pooled && error.is_retriable() => {
            // Reconnect-and-restart is only safe before any event was
            // forwarded on this attempt; the skip counter covers earlier
            // attempts, and a dead pooled socket fails before any frame.
            if client.reconnect().is_ok() {
                match attempt_on(
                    &mut client,
                    shared,
                    raw_line,
                    id,
                    deadline_at,
                    ctl,
                    Some((conn, &mut *forwarded_events)),
                ) {
                    Ok(end) => {
                        finish_attempt(replica, client, &end);
                        end
                    }
                    Err(error) => AttemptEnd::Failed { error },
                }
            } else {
                AttemptEnd::Failed { error }
            }
        }
        Err(error) => AttemptEnd::Failed { error },
    }
}

/// Returns a clean connection to the idle pool after a decisive attempt.
fn finish_attempt(replica: &super::pool::Replica, client: Client, end: &AttemptEnd) {
    if matches!(
        end,
        AttemptEnd::Completed { .. } | AttemptEnd::Rejected { .. }
    ) {
        replica.checkin(client);
    }
}

/// Drives one submit over an established connection until a decisive
/// frame. `Ok` carries decisive outcomes; `Err` carries transport errors
/// eligible for the pooled-connection reconnect.
fn attempt_on(
    client: &mut Client,
    shared: &Arc<RouterShared>,
    raw_line: &str,
    id: &str,
    deadline_at: Option<Instant>,
    ctl: &DispatchCtl,
    mut stream: Option<(&Arc<ClientConn>, &mut usize)>,
) -> Result<AttemptEnd, ClientError> {
    let timeout = deadline_at.map_or(shared.config.default_attempt_timeout, |at| {
        at.saturating_duration_since(Instant::now())
            .max(Duration::from_millis(10))
    });
    client.set_read_timeout(Some(timeout))?;
    client.send_line(raw_line)?;
    let slot = ctl.register(client.cancel_sender()?);
    let result = attempt_frames(client, id, ctl, &mut stream);
    ctl.deregister(slot);
    result
}

fn attempt_frames(
    client: &mut Client,
    id: &str,
    ctl: &DispatchCtl,
    stream: &mut Option<(&Arc<ClientConn>, &mut usize)>,
) -> Result<AttemptEnd, ClientError> {
    let mut seen_events = 0usize;
    loop {
        let frame = client.read_frame()?;
        if frame.id() != Some(id) {
            continue; // stale frame from a previous tenant of this socket
        }
        match frame.frame_type() {
            Some("accepted") => {}
            Some("rejected") => {
                return Ok(AttemptEnd::Rejected {
                    reason: frame
                        .get("reason")
                        .and_then(Json::as_str)
                        .unwrap_or("queue_full")
                        .to_string(),
                })
            }
            Some("error") => {
                // Deterministic request-level failure: forwarding it to
                // another replica would fail identically.
                return Ok(AttemptEnd::Completed {
                    raw_line: frame.line,
                    status: "error".into(),
                });
            }
            Some("event") => {
                seen_events += 1;
                if let Some((conn, forwarded)) = stream {
                    if seen_events > **forwarded {
                        conn.send(&frame.line);
                        **forwarded += 1;
                    }
                }
            }
            Some("result") => {
                let status = frame
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                if status == "cancelled" && !ctl.is_cancelled() {
                    // Nobody asked for this cancel: the replica is
                    // shutting down and drained its queue. Retriable.
                    return Err(ClientError::transport(
                        "dispatch",
                        std::io::Error::other("replica cancelled the job while shutting down"),
                    ));
                }
                return Ok(AttemptEnd::Completed {
                    raw_line: frame.line,
                    status,
                });
            }
            _ => {} // pong / stats / cancel_ok — not ours to forward
        }
    }
}
