//! One job's journey through the cluster: the cache fast path, placement,
//! and one loop that runs the job's attempts, for unary and streamed jobs
//! alike: retries with deadline-aware backoff, failover, and for unary
//! jobs a hedge near the deadline.
//!
//! An attempt is a message, not a thread: a submit on one of its
//! replica's shared connections ([`upstream`](super::upstream)) under a
//! router-assigned upstream id. The job's one dispatch thread waits on one
//! channel for its attempts' frames, the loss of their connections and the
//! client's cancel. The wait ends at the earliest of the budget deadline,
//! the hedge time, the next backoff launch and, for a job without a
//! deadline, the idle limit of a live attempt. A hedge loser and a
//! cancelled job are both stopped by a `cancel` frame carrying the
//! attempt's upstream id, sent on its connection.
//!
//! Byte-identity contract: the upstream submit is rendered from the
//! parsed request with only `id` replaced, and a daemon acts on the parsed
//! request alone. On the way back the client's id, rendered by [`Json`],
//! is spliced over the upstream id in `event`, `result` and `error`
//! frames, and every other byte is kept, `report` included. A job that
//! completes without a retry is therefore indistinguishable on the wire
//! from one served by a single daemon.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::RawFrame;
use crate::conn::{Cancel, Conn};
use crate::error::ClientError;
use crate::json::Json;
use crate::protocol::{failed_frame, rejected_frame, result_frame, SubmitRequest};

use super::cache::{cacheable, placement_hash, report_slice};
use super::retry::AttemptPlan;
use super::upstream::{wire_id, Link, Note};
use super::RouterShared;

/// Upper bound on a single dispatcher wait when nothing else bounds it.
const LONG_WAIT: Duration = Duration::from_secs(3600);

/// One dispatched job's cancel handle: it marks the job cancelled and
/// wakes its dispatch thread, which sends a `cancel` for each live
/// attempt on that attempt's connection.
pub(crate) struct DispatchCtl {
    cancelled: AtomicBool,
    notes: Sender<Note>,
}

impl DispatchCtl {
    /// A handle that wakes the dispatch thread reading `notes`' channel.
    pub(crate) fn new(notes: Sender<Note>) -> Self {
        DispatchCtl {
            cancelled: AtomicBool::new(false),
            notes,
        }
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

impl Cancel for Arc<DispatchCtl> {
    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        let _ = self.notes.send(Note::Cancel);
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
    /// forwarded with the client's id restored. `status` is the frame's
    /// status (or `"error"` for an upstream error frame).
    Completed { raw_line: String, status: String },
    /// The replica refused the job for capacity reasons: failover
    /// without a health penalty.
    Rejected { reason: String },
    /// Transport-level failure (idle limit, a job the replica cancelled
    /// while shutting down, or no connection to submit on): retriable,
    /// with a health penalty.
    Failed { error: ClientError },
    /// The connection carrying the attempt died (or its dial failed):
    /// retriable. The loss is one health penalty, booked by the first of
    /// the connection's attempts to end this way.
    Lost { error: ClientError },
}

/// One attempt in flight.
struct Attempt {
    id: u64,
    replica: usize,
    link: Arc<Link>,
    hedge: bool,
    /// Events this attempt has produced (streamed jobs).
    events: usize,
    /// When its last frame arrived, for the idle limit.
    heard: Instant,
}

/// What the loop does after an attempt ends.
enum Step {
    /// The job has sent its terminal frame.
    Done,
    /// Launch the next attempt at this time.
    Retry(Instant),
    /// Another attempt is still in flight.
    Wait,
}

/// Routes one submitted job to completion. The caller has already sent
/// `accepted`, holds the in-flight slot and computed the job's content
/// `key` ([`job_key`](super::cache::job_key)) at admission; `notes` is
/// the channel `ctl` wakes. The job always ends with exactly one terminal
/// frame through [`Reply::send_final`].
pub(crate) fn dispatch(
    shared: &Arc<RouterShared>,
    reply: &Reply,
    ctl: &Arc<DispatchCtl>,
    notes: &Receiver<Note>,
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
    let home = (hash % shared.pool.replicas.len() as u64) as usize;
    let candidates = shared.pool.candidates(home);
    if candidates.is_empty() {
        // Graceful degradation: every replica is quarantined. Typed
        // backpressure, never unbounded queueing.
        metrics
            .rejected_cluster_degraded
            .fetch_add(1, Ordering::Relaxed);
        metrics
            .rejected_after_accept
            .fetch_add(1, Ordering::Relaxed);
        reply.send_final(shared, &rejected_frame(&req.id, "cluster_degraded"));
        return;
    }

    let deadline = req.deadline_ms.map(Duration::from_millis);
    // The replica enforces the solve deadline itself; the router's budget
    // adds headroom for queueing and transport so a deadline'd job is not
    // killed mid-handoff.
    let budget = deadline.map(|d| d + d.max(Duration::from_secs(1)));
    // Two replicas would both emit a streamed job's events: no hedge.
    let hedge_at = match req.stream {
        true => None,
        false => shared.config.retry.hedge_delay(deadline).map(|d| start + d),
    };
    let plan = shared.config.retry.plan(hash, budget);
    let mut job = Job {
        shared,
        reply,
        ctl,
        req,
        key,
        // One extra attempt beyond the plan when hedging is armed.
        max_attempts: plan.attempts() + usize::from(hedge_at.is_some()),
        plan,
        candidates,
        deadline_at: budget.map(|b| start + b),
        start,
        live: Vec::new(),
        launched: 0,
        last_error: None,
        last_reject: None,
        forwarded: 0,
    };
    job.run(hedge_at, notes);
}

/// The state of one job's attempts.
struct Job<'a> {
    shared: &'a Arc<RouterShared>,
    reply: &'a Reply,
    ctl: &'a Arc<DispatchCtl>,
    req: &'a SubmitRequest,
    key: &'a str,
    plan: AttemptPlan,
    max_attempts: usize,
    candidates: Vec<usize>,
    deadline_at: Option<Instant>,
    start: Instant,
    live: Vec<Attempt>,
    launched: usize,
    last_error: Option<String>,
    last_reject: Option<String>,
    /// Events already sent to the client: a retry skips that many.
    forwarded: usize,
}

impl Job<'_> {
    fn run(&mut self, hedge_at: Option<Instant>, notes: &Receiver<Note>) {
        let idle_limit = self.shared.config.default_attempt_timeout;
        let mut launch_at = Some(self.start);
        let mut hedge_at = hedge_at.filter(|_| self.candidates.len() > 1);
        loop {
            let now = Instant::now();
            if self.deadline_at.is_some_and(|at| now >= at) {
                return self.fail_at_deadline();
            }
            let step = if launch_at.is_some_and(|at| now >= at) {
                launch_at = None;
                self.launch(false)
            } else if hedge_at.is_some_and(|at| now >= at) {
                hedge_at = None;
                if self.launched < self.max_attempts {
                    self.shared.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                    self.launch(true)
                } else {
                    Step::Wait
                }
            } else {
                self.wait(notes, now, [launch_at, hedge_at], idle_limit)
            };
            match step {
                Step::Done => return,
                Step::Retry(at) => launch_at = Some(launch_at.map_or(at, |t| t.min(at))),
                Step::Wait => {}
            }
        }
    }

    /// Waits for the next note, or until `timers` or an idle limit fall
    /// due, and books the attempt end it brings.
    fn wait(
        &mut self,
        notes: &Receiver<Note>,
        now: Instant,
        timers: [Option<Instant>; 2],
        idle_limit: Duration,
    ) -> Step {
        let mut wake = self.deadline_at.unwrap_or(now + LONG_WAIT);
        for at in timers.into_iter().flatten() {
            wake = wake.min(at);
        }
        // Without a deadline, an attempt silent past the idle limit has
        // failed.
        if self.deadline_at.is_none() {
            if let Some(i) = self.live.iter().position(|a| now >= a.heard + idle_limit) {
                let attempt = self.live.swap_remove(i);
                attempt.link.abandon(attempt.id);
                let silent = std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no frame within the attempt timeout",
                );
                let error = ClientError::transport("read_frame", silent);
                return self.end(
                    attempt.replica,
                    Some(&attempt),
                    AttemptEnd::Failed { error },
                );
            }
            for attempt in &self.live {
                wake = wake.min(attempt.heard + idle_limit);
            }
        }
        let (id, end) = match notes.recv_timeout(wake.saturating_duration_since(now)) {
            Ok(Note::Cancel) if self.live.is_empty() => {
                self.finish_cancelled();
                return Step::Done;
            }
            Ok(Note::Cancel) => {
                for attempt in &self.live {
                    attempt.link.cancel(attempt.id);
                }
                return Step::Wait;
            }
            Ok(Note::Lost(id, error)) => (id, AttemptEnd::Lost { error }),
            Ok(Note::Frame(id, frame)) => match self.read(id, frame) {
                Some(end) => (id, end),
                None => return Step::Wait,
            },
            // The job holds a sender through `ctl`, so the channel never
            // disconnects; a timeout re-checks the timers.
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return Step::Wait,
        };
        let Some(i) = self.live.iter().position(|a| a.id == id) else {
            return Step::Wait; // an attempt that already ended
        };
        let attempt = self.live.swap_remove(i);
        self.end(attempt.replica, Some(&attempt), end)
    }

    /// Submits the next attempt on the next candidate replica.
    fn launch(&mut self, hedge: bool) -> Step {
        let metrics = &self.shared.metrics;
        let index = self.candidates[self.launched % self.candidates.len()];
        // Attempts walk the candidates in turn, so with more than one
        // every attempt after the first moves to another replica.
        if self.launched > 0 && self.candidates.len() > 1 {
            metrics.failovers.fetch_add(1, Ordering::Relaxed);
        }
        if self.launched > 0 && !hedge {
            metrics.retries.fetch_add(1, Ordering::Relaxed);
        }
        self.launched += 1;
        let replica = &self.shared.pool.replicas[index];
        replica.dispatched.fetch_add(1, Ordering::Relaxed);
        let id = self.shared.pool.next_id();
        let line = self.req.to_frame(&wire_id(id));
        let dial_timeout = self.shared.config.probe_timeout;
        let submitted = replica.upstream.link(dial_timeout).and_then(|link| {
            link.submit(id, &line, self.ctl.notes.clone())?;
            Ok(link)
        });
        match submitted {
            Ok(link) => {
                if self.ctl.is_cancelled() {
                    link.cancel(id);
                }
                let heard = Instant::now();
                let events = 0;
                self.live.push(Attempt {
                    id,
                    replica: index,
                    link,
                    hedge,
                    events,
                    heard,
                });
                Step::Wait
            }
            Err(error) => self.end(index, None, AttemptEnd::Failed { error }),
        }
    }

    /// Reads one frame of attempt `id`: `Some` when it ends the attempt.
    /// Fresh events of a streamed job go to the client as they arrive.
    fn read(&mut self, id: u64, frame: RawFrame) -> Option<AttemptEnd> {
        let attempt = self.live.iter_mut().find(|a| a.id == id)?;
        attempt.heard = Instant::now();
        match frame.frame_type() {
            Some("rejected") => Some(AttemptEnd::Rejected {
                reason: frame
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("queue_full")
                    .to_string(),
            }),
            // Deterministic request-level failure: forwarding it to
            // another replica would fail identically.
            Some("error") => Some(AttemptEnd::Completed {
                raw_line: frame.line,
                status: "error".into(),
            }),
            Some("event") => {
                attempt.events += 1;
                if attempt.events > self.forwarded {
                    let line = restore_id(&frame.line, id, &self.req.id);
                    self.reply.conn.send(&line);
                    self.forwarded += 1;
                }
                None
            }
            Some("result") => {
                let status = frame
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                if status == "cancelled" && !self.ctl.is_cancelled() {
                    // Nobody asked for this cancel: the replica is
                    // shutting down and drained its queue. Retriable.
                    let drained =
                        std::io::Error::other("replica cancelled the job while shutting down");
                    return Some(AttemptEnd::Failed {
                        error: ClientError::transport("dispatch", drained),
                    });
                }
                Some(AttemptEnd::Completed {
                    raw_line: frame.line,
                    status,
                })
            }
            _ => None,
        }
    }

    /// Books an attempt on replica `index` that ended (`attempt` is `None`
    /// when it could not be submitted) and decides what comes next.
    fn end(&mut self, index: usize, attempt: Option<&Attempt>, end: AttemptEnd) -> Step {
        let pool = &self.shared.pool;
        if matches!(end, AttemptEnd::Lost { .. }) && !attempt.is_some_and(|a| a.link.book_loss()) {
            pool.replicas[index].failed.fetch_add(1, Ordering::Relaxed);
        } else {
            let ok = matches!(
                end,
                AttemptEnd::Completed { .. } | AttemptEnd::Rejected { .. }
            );
            pool.record_dispatch(index, ok);
        }
        let delay = match end {
            AttemptEnd::Completed { raw_line, status } => {
                let attempt = attempt.expect("a completed attempt was submitted");
                self.complete(attempt, &raw_line, &status);
                return Step::Done;
            }
            // Capacity rejection: fail over at once, no backoff, no
            // health penalty — the replica is alive, just full.
            AttemptEnd::Rejected { reason } => {
                self.last_reject = Some(reason);
                Duration::ZERO
            }
            // Back off only when nothing else is in flight.
            AttemptEnd::Failed { error } | AttemptEnd::Lost { error } => {
                self.last_error = Some(error.to_string());
                let delay = self.plan.delays.get(self.launched.saturating_sub(1));
                match self.live.is_empty() {
                    true => delay.copied().unwrap_or(Duration::ZERO),
                    false => Duration::ZERO,
                }
            }
        };
        let spent = self.launched >= self.max_attempts;
        if !spent && !self.ctl.is_cancelled() {
            return Step::Retry(Instant::now() + delay);
        }
        if !self.live.is_empty() {
            return Step::Wait;
        }
        // The client asked to stop: a cancelled job is not retried.
        match spent && !self.ctl.is_cancelled() {
            true => self.fail_exhausted(),
            false => self.finish_cancelled(),
        }
        Step::Done
    }

    /// Forwards a terminal frame, caches a done report, and stops the
    /// attempts still in flight (a hedge partner).
    fn complete(&mut self, attempt: &Attempt, raw_line: &str, status: &str) {
        let metrics = &self.shared.metrics;
        if status == "done" && cacheable(self.req) {
            if let Some(report) = report_slice(raw_line) {
                self.shared.cache.insert(self.key, report);
            }
        }
        match status {
            "done" => metrics.done.fetch_add(1, Ordering::Relaxed),
            "cancelled" => metrics.cancelled.fetch_add(1, Ordering::Relaxed),
            _ => metrics.failed.fetch_add(1, Ordering::Relaxed),
        };
        if attempt.hedge {
            metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
        }
        let line = restore_id(raw_line, attempt.id, &self.req.id);
        self.reply.send_final(self.shared, &line);
        for loser in self.live.drain(..) {
            loser.link.abandon(loser.id);
            self.shared.pool.record_dispatch(loser.replica, true);
        }
    }

    /// Budget exhausted with attempts unresolved: stop whatever is still
    /// running and fail the job.
    fn fail_at_deadline(&mut self) {
        for attempt in self.live.drain(..) {
            attempt.link.abandon(attempt.id);
            self.shared.pool.record_dispatch(attempt.replica, false);
        }
        let message = format!(
            "deadline exceeded in router after {} attempt(s){}",
            self.launched,
            self.last_error
                .as_deref()
                .map(|e| format!("; last error: {e}"))
                .unwrap_or_default()
        );
        self.fail(&message);
    }

    /// Every attempt was spent and none is in flight. A typed upstream
    /// rejection, when one was observed, beats a generic transport
    /// failure: it is a replica's actual answer about the job (retry
    /// later), where the transport error only says a socket died.
    fn fail_exhausted(&mut self) {
        let metrics = &self.shared.metrics;
        if let Some(reason) = &self.last_reject {
            metrics.rejected_upstream.fetch_add(1, Ordering::Relaxed);
            metrics
                .rejected_after_accept
                .fetch_add(1, Ordering::Relaxed);
            let frame = rejected_frame(&self.req.id, reason);
            self.reply.send_final(self.shared, &frame);
            return;
        }
        let message = format!(
            "job failed after {} attempt(s): {}",
            self.launched,
            self.last_error
                .as_deref()
                .unwrap_or("unknown transport error")
        );
        self.fail(&message);
    }

    /// The client cancelled the job while none of its attempts was in
    /// flight: it ends as a daemon ends a job cancelled in its queue.
    fn finish_cancelled(&self) {
        let elapsed_ms = self.start.elapsed().as_secs_f64() * 1e3;
        self.shared
            .metrics
            .cancelled
            .fetch_add(1, Ordering::Relaxed);
        let frame = result_frame(&self.req.id, "cancelled", elapsed_ms, Json::Null);
        self.reply.send_final(self.shared, &frame);
    }

    fn fail(&self, message: &str) {
        let elapsed_ms = self.start.elapsed().as_secs_f64() * 1e3;
        self.shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
        let frame = failed_frame(&self.req.id, elapsed_ms, message);
        self.reply.send_final(self.shared, &frame);
    }
}

/// `line` with upstream id `id` replaced by the client's id, rendered by
/// [`Json`]; every other byte is kept.
fn restore_id(line: &str, id: u64, client_id: &str) -> String {
    let upstream = format!("\"id\":\"{}\"", wire_id(id));
    let Some(at) = line.find(&upstream) else {
        return line.to_string();
    };
    let client = Json::from(client_id).to_string();
    let mut restored = String::with_capacity(line.len() + client.len());
    restored.push_str(&line[..at]);
    restored.push_str("\"id\":");
    restored.push_str(&client);
    restored.push_str(&line[at + upstream.len()..]);
    restored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{error_frame, event_frame};

    /// Restoring the client's id gives the bytes a daemon would have sent
    /// under that id, whatever characters the id holds, and leaves an
    /// `"id"` inside the report alone.
    #[test]
    fn restored_frames_equal_frames_rendered_under_the_client_id() {
        let report = Json::obj([("best_cut", 10.5.into()), ("id", "r7".into())]);
        let event = Json::obj([("event", "run_started".into())]);
        for client in ["job-1", "j\"1\\\n\u{1}é✓", "r7"] {
            let upstream = wire_id(7);
            for (sent, want) in [
                (
                    result_frame(&upstream, "done", 1.5, report.clone()),
                    result_frame(client, "done", 1.5, report.clone()),
                ),
                (
                    event_frame(&upstream, event.clone()),
                    event_frame(client, event.clone()),
                ),
                (error_frame(&upstream, "bad"), error_frame(client, "bad")),
            ] {
                assert_eq!(restore_id(&sent, 7, client), want);
            }
        }
    }
}
