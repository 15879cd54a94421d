//! The connection front end run by both the solve daemon
//! ([`server`](crate::server)) and the cluster router
//! ([`router`](crate::router)): everything between a bound listener and a
//! parsed request.
//!
//! * **Accept.** The supervisor thread blocks in `accept`. Shutdown (the
//!   protocol command or a handle's `shutdown`) wakes it by connecting to
//!   the listener's own address, or to loopback of the same family when
//!   the listener is bound to an unspecified address. Only accept *errors*
//!   (for example `EMFILE`) make the loop back off; an idle listener costs
//!   nothing.
//! * **Connection cap.** A connection claims a slot before the cap is
//!   checked. Past the cap, or when its thread cannot be spawned, it gets
//!   one `rejected`/`too_many_connections` frame and is closed.
//! * **Read loop.** One thread per connection greets with `hello`, reads
//!   bounded lines, answers `cancel`, `ping`, `list-solvers`, `stats` and
//!   `shutdown`, and hands submits to the layer ([`Service::submit`]).
//! * **Job map.** Each connection keeps its in-flight jobs by id
//!   ([`JobMap`]), generic over the layer's cancel handle. A reused live
//!   id is refused, `cancel` finds a job by id, and closing the connection
//!   or shutting down cancels every job still in the map. A job leaves the
//!   map before its final frame is written, so its id is free again once
//!   the client has read its result.
//! * **Teardown.** Once the accept loop ends, the supervisor joins the
//!   layer's helper threads (the daemon's workers, the router's prober),
//!   then closes every connection and joins its thread. The shutdown
//!   signal also wakes the prober ([`FrontEnd::wait_for_shutdown`]).
//!
//! Several threads (connection reader, job workers, dispatchers) write
//! frames to the same client through one [`Conn`]: its mutex keeps frames
//! from interleaving, and a failed write latches the connection dead so
//! later frames, and streaming observers, stop trying.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use sophie_solve::{CancelToken, Json};

use crate::protocol::{
    bare_frame, cancel_ok_frame, error_frame, parse_request, read_line_bounded, rejected_frame,
    Request, SubmitRequest,
};

/// Pause after a failed `accept`: errors such as `EMFILE` persist until
/// descriptors free up, and retrying at once would spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// A layer served by the front end: the solve daemon or the router.
pub(crate) trait Service: Send + Sync + 'static {
    /// Cancel handle of one in-flight job, kept in its connection's
    /// [`JobMap`].
    type Job: Cancel;

    /// The layer's front-end state.
    fn front(&self) -> &FrontEnd<Self::Job>;

    /// Admits or refuses one submit read from `conn`. An admitted job
    /// enters `conn.jobs` and leaves it before its final frame is
    /// written.
    fn submit(service: &Arc<Self>, conn: &Arc<Conn<Self::Job>>, req: SubmitRequest);

    /// The answer to `list-solvers`.
    fn solvers_frame(&self) -> String;

    /// The answer to `stats`.
    fn stats_frame(&self) -> String;

    /// Runs once when shutdown begins, before every connection's jobs are
    /// cancelled and the accept loop is woken.
    fn drain(&self) {}

    /// Counts a connection turned away with `too_many_connections`.
    fn refused(&self) {}
}

/// Cancels one in-flight job.
pub(crate) trait Cancel: Clone + Send + Sync + 'static {
    /// Asks the job to stop; its final frame still follows.
    fn cancel(&self);
}

impl Cancel for CancelToken {
    fn cancel(&self) {
        CancelToken::cancel(self);
    }
}

/// One connection's in-flight jobs by client id.
pub(crate) struct JobMap<C>(Mutex<HashMap<String, C>>);

impl<C: Cancel> JobMap<C> {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, C>> {
        self.0.lock().expect("connection job map lock")
    }

    /// Adds job `id`; `false`, with the map unchanged, when `id` is still
    /// in flight. Replacing it would leave the first job's handle
    /// unreachable by `cancel` and by the connection's close.
    pub(crate) fn insert(&self, id: &str, job: C) -> bool {
        let mut jobs = self.lock();
        if jobs.contains_key(id) {
            return false;
        }
        jobs.insert(id.to_string(), job);
        true
    }

    /// Takes job `id` out of the map.
    pub(crate) fn remove(&self, id: &str) {
        self.lock().remove(id);
    }

    /// Cancels job `id`; returns whether it was in flight. Handles are
    /// cancelled outside the lock: the router's cancel writes to replicas.
    fn cancel(&self, id: &str) -> bool {
        let job = self.lock().get(id).cloned();
        job.map(|job| job.cancel()).is_some()
    }

    /// Cancels every job still in the map.
    fn cancel_all(&self) {
        let jobs: Vec<C> = self.lock().values().cloned().collect();
        for job in jobs {
            job.cancel();
        }
    }

    /// Jobs in the map.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

/// The front-end state of one daemon or router: its limits and greeting,
/// the shutdown signal, the connections and the threads to join at
/// teardown.
pub(crate) struct FrontEnd<C> {
    /// Prefix of the layer's thread names (`serve`, `router`).
    role: &'static str,
    /// The listener's address, loopback in place of an unspecified IP:
    /// where the shutdown wake-up connects.
    wake_addr: SocketAddr,
    max_connections: usize,
    max_line_bytes: usize,
    hello: String,
    shutdown: Mutex<bool>,
    woken: Condvar,
    pub(crate) conn_count: AtomicUsize,
    /// Live connections, and the threads serving them. Entries of
    /// finished connections are reaped on every accept, so a long-running
    /// daemon or router tracks its *live* connections rather than one
    /// entry per connection it ever served.
    conns: Mutex<Vec<Weak<Conn<C>>>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Threads joined at teardown before connections close: the daemon's
    /// workers, the router's prober.
    helpers: Mutex<Vec<JoinHandle<()>>>,
}

impl<C: Cancel> FrontEnd<C> {
    /// Front end for `listener`, greeting each connection with `hello`.
    pub(crate) fn new(
        role: &'static str,
        listener: &TcpListener,
        max_connections: usize,
        max_line_bytes: usize,
        hello: String,
    ) -> std::io::Result<Self> {
        let mut wake_addr = listener.local_addr()?;
        match wake_addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => wake_addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => wake_addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        Ok(FrontEnd {
            role,
            wake_addr,
            max_connections,
            max_line_bytes,
            hello,
            shutdown: Mutex::new(false),
            woken: Condvar::new(),
            conn_count: AtomicUsize::new(0),
            conns: Mutex::default(),
            conn_threads: Mutex::default(),
            helpers: Mutex::default(),
        })
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_shutting_down(&self) -> bool {
        *self.shutdown.lock().expect("shutdown lock")
    }

    /// Sleeps for `timeout`, or until shutdown begins if that is sooner.
    pub(crate) fn wait_for_shutdown(&self, timeout: Duration) {
        let flag = self.shutdown.lock().expect("shutdown lock");
        let _ = self.woken.wait_timeout_while(flag, timeout, |down| !*down);
    }

    /// Starts a thread that teardown joins before closing connections.
    pub(crate) fn spawn_helper(
        &self,
        name: String,
        f: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<()> {
        let handle = std::thread::Builder::new().name(name).spawn(f)?;
        self.helpers.lock().expect("helpers lock").push(handle);
        Ok(())
    }

    fn join_helpers(&self) {
        let helpers = std::mem::take(&mut *self.helpers.lock().expect("helpers lock"));
        for helper in helpers {
            let _ = helper.join();
        }
    }

    /// Tracks a newly accepted connection and the thread serving it.
    fn track(&self, conn: &Arc<Conn<C>>, thread: JoinHandle<()>) {
        self.conns
            .lock()
            .expect("conns lock")
            .push(Arc::downgrade(conn));
        self.conn_threads
            .lock()
            .expect("conn threads lock")
            .push(thread);
    }

    /// Joins connection threads that have exited and drops `Weak`s to
    /// conns that are gone. Joining a finished thread does not block.
    fn reap_finished(&self) {
        let mut threads = self.conn_threads.lock().expect("conn threads lock");
        for t in std::mem::take(&mut *threads) {
            if t.is_finished() {
                let _ = t.join();
            } else {
                threads.push(t);
            }
        }
        drop(threads);
        self.conns
            .lock()
            .expect("conns lock")
            .retain(|w| w.strong_count() > 0);
    }

    fn live_conns(&self) -> Vec<Arc<Conn<C>>> {
        let conns = self.conns.lock().expect("conns lock");
        conns.iter().filter_map(Weak::upgrade).collect()
    }

    /// The `connections` and `jobs_tracked` members of a `stats` frame:
    /// live connections, and the jobs in their maps.
    pub(crate) fn stats(&self) -> [(&'static str, Json); 2] {
        let jobs: usize = self.live_conns().iter().map(|c| c.jobs.len()).sum();
        [
            (
                "connections",
                self.conn_count.load(Ordering::Acquire).into(),
            ),
            ("jobs_tracked", jobs.into()),
        ]
    }

    /// Shutdown sweep: half-closes every live connection so its thread's
    /// blocking read returns, then joins every connection thread.
    fn close_all(&self) {
        for conn in self.live_conns() {
            conn.close();
        }
        let threads = std::mem::take(&mut *self.conn_threads.lock().expect("conn threads lock"));
        for t in threads {
            let _ = t.join();
        }
    }

    /// `(tracked threads, tracked write halves)`.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> (usize, usize) {
        (
            self.conn_threads.lock().expect("conn threads lock").len(),
            self.conns.lock().expect("conns lock").len(),
        )
    }
}

/// Begins shutdown once: raises the flag, runs the layer's
/// [`Service::drain`], cancels every connection's jobs, then wakes the
/// prober and the accept loop.
pub(crate) fn shut_down<S: Service>(service: &S) {
    let front = service.front();
    if std::mem::replace(&mut *front.shutdown.lock().expect("shutdown lock"), true) {
        return;
    }
    service.drain();
    for conn in front.live_conns() {
        conn.jobs.cancel_all();
    }
    front.woken.notify_all();
    // The accept loop sees the flag once this connection reaches it; if
    // the connect fails, the listener is already gone. The timeout keeps a
    // listener that cannot take it from stalling this thread.
    let _ = TcpStream::connect_timeout(&front.wake_addr, Duration::from_secs(1));
}

/// Starts `service`'s supervisor: the accept loop until shutdown, then
/// teardown (join the helpers, then close every connection and join its
/// thread).
///
/// # Errors
///
/// The spawn error, after shutting the service down and joining the
/// helpers it already started.
pub(crate) fn spawn_supervisor<S: Service>(
    service: &Arc<S>,
    listener: TcpListener,
) -> std::io::Result<JoinHandle<()>> {
    let supervised = Arc::clone(service);
    std::thread::Builder::new()
        .name(format!("{}-supervisor", service.front().role))
        .spawn(move || {
            accept_loop(&supervised, &listener);
            let front = supervised.front();
            front.join_helpers();
            front.close_all();
        })
        .inspect_err(|_| abort(&**service))
}

/// Stops a service whose start failed: shuts it down and joins the
/// helpers already running.
pub(crate) fn abort<S: Service>(service: &S) {
    shut_down(service);
    service.front().join_helpers();
}

fn accept_loop<S: Service>(service: &Arc<S>, listener: &TcpListener) {
    let front = service.front();
    while !front.is_shutting_down() {
        match listener.accept() {
            // The wake-up connection, or a client racing shutdown.
            Ok(_) if front.is_shutting_down() => break,
            Ok((stream, _peer)) => open(service, stream),
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Hands an accepted stream to a new connection thread, or refuses it.
fn open<S: Service>(service: &Arc<S>, stream: TcpStream) {
    let front = service.front();
    let _ = stream.set_nodelay(true);
    front.reap_finished();
    // Claim-then-check: the prior count decides, so the slot is held
    // before any other thread can see the count below the cap.
    let claimed = front.conn_count.fetch_add(1, Ordering::AcqRel) < front.max_connections;
    let Some(writer) = claimed.then(|| stream.try_clone().ok()).flatten() else {
        front.conn_count.fetch_sub(1, Ordering::AcqRel);
        return refuse(&**service, &Conn::new(stream));
    };
    let conn = Arc::new(Conn::new(writer));
    let (served, reader) = (Arc::clone(service), Arc::clone(&conn));
    let spawned = std::thread::Builder::new()
        .name(format!("{}-conn", front.role))
        .spawn(move || {
            read_loop(&served, &reader, stream);
            served.front().conn_count.fetch_sub(1, Ordering::AcqRel);
        });
    match spawned {
        Ok(handle) => front.track(&conn, handle),
        Err(_) => {
            front.conn_count.fetch_sub(1, Ordering::AcqRel);
            refuse(&**service, &conn);
        }
    }
}

fn refuse<S: Service>(service: &S, conn: &Conn<S::Job>) {
    service.refused();
    conn.send(&rejected_frame("", "too_many_connections"));
    conn.close();
}

/// Serves one connection's requests until it closes, its writer dies or
/// it asks for shutdown; then cancels every job still in its map.
pub(crate) fn read_loop<S: Service>(service: &Arc<S>, conn: &Arc<Conn<S::Job>>, stream: TcpStream) {
    let front = service.front();
    conn.send(&front.hello);
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, front.max_line_bytes) {
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
            Ok(Request::Submit(req)) => S::submit(service, conn, *req),
            Ok(Request::Cancel { id }) => conn.send(&cancel_ok_frame(&id, conn.jobs.cancel(&id))),
            Ok(Request::ListSolvers) => conn.send(&service.solvers_frame()),
            Ok(Request::Stats) => conn.send(&service.stats_frame()),
            Ok(Request::Ping) => conn.send(&bare_frame("pong")),
            Ok(Request::Shutdown) => {
                conn.send(&bare_frame("shutdown_ack"));
                shut_down(&**service);
                break;
            }
        }
        if !conn.is_alive() {
            break;
        }
    }
    conn.jobs.cancel_all();
    conn.mark_dead();
}

/// One accepted client connection: its shared write half and its
/// in-flight jobs.
pub(crate) struct Conn<C> {
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
    /// The jobs submitted on this connection and not yet finished.
    pub(crate) jobs: JobMap<C>,
}

impl<C> Conn<C> {
    /// Wraps the write half of an accepted stream.
    pub(crate) fn new(writer: TcpStream) -> Self {
        Conn {
            writer: Mutex::new(writer),
            alive: AtomicBool::new(true),
            jobs: JobMap(Mutex::default()),
        }
    }

    /// Whether the last write succeeded (i.e. someone is still listening).
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Marks the connection dead without touching the socket.
    pub(crate) fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Writes one frame line; a failed write latches the connection dead
    /// so later frames (and streaming observers) stop trying.
    pub(crate) fn send(&self, frame: &str) {
        if self.is_alive() {
            self.send_locked(|| frame);
        }
    }

    /// Runs `f` under the writer lock — for callers that must couple a
    /// state change with the frame write (e.g. queue push + `accepted`).
    /// Returns whether the write succeeded.
    pub(crate) fn send_locked<T: std::fmt::Display>(&self, f: impl FnOnce() -> T) -> bool {
        let mut w = self.writer.lock().expect("conn writer lock");
        let frame = f();
        let ok = writeln!(w, "{frame}").and_then(|()| w.flush()).is_ok();
        if !ok {
            self.mark_dead();
        }
        ok
    }

    /// Half-closes the socket so the connection thread's blocking read
    /// returns; used by the shutdown sequence.
    pub(crate) fn close(&self) {
        self.mark_dead();
        if let Ok(w) = self.writer.lock() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}
