//! The router's connections to one replica.
//!
//! A replica gets at most [`LINKS`] long-lived connections, taken in turn
//! by successive attempts. A connection carries any number of attempts at
//! once, told apart by a router-assigned upstream id that stands in for
//! the client's job id. Each connection has one thread, which dials it
//! through `Client::connect_timeout` (the greeting and the protocol
//! version are checked; the TCP connect and the greeting are bounded by
//! the router's `probe_timeout`) and then hands each frame to the job
//! waiting on that id. Submits made while the dial is under way wait in
//! the connection and go out after the greeting, so no dispatch thread
//! ever waits on a dial: its deadline, its hedge and its client's cancel
//! keep their times. When the dial fails, or the reader meets EOF, a reset
//! or a malformed line, every attempt pending on the connection fails as a
//! retriable transport error, and the next attempt to take that slot
//! dials again.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::client::{cancel_frame, Client, RawFrame};
use crate::error::ClientError;

/// Connections the router keeps to each replica. Measured against 1 in a
/// closed loop (EXPERIMENTS.md § Serving): two carried more jobs a second
/// in 19 of 20 pairs, at the same CPU per job.
pub const LINKS: usize = 2;

/// What a job's dispatch thread waits for.
pub(crate) enum Note {
    /// A frame about the attempt with this upstream id.
    Frame(u64, RawFrame),
    /// The connection carrying the attempt with this upstream id died.
    Lost(u64, ClientError),
    /// The client cancelled the job.
    Cancel,
}

/// The wire form of upstream id `id`: it needs no escaping, so the
/// router can find it in a frame's bytes.
pub(crate) fn wire_id(id: u64) -> String {
    format!("r{id}")
}

fn parse_wire_id(id: &str) -> Option<u64> {
    id.strip_prefix('r')?.parse().ok()
}

fn not_connected(during: &'static str) -> ClientError {
    ClientError::transport(during, std::io::ErrorKind::NotConnected.into())
}

/// A connection's write half.
enum Writer {
    /// The dial is under way: lines wait to go out after the greeting.
    Dialling(Vec<String>),
    Open(TcpStream),
    /// The dial failed, the reader stopped or the connection was closed:
    /// lines are dropped.
    Closed,
}

/// One long-lived connection: its write half and the attempts whose
/// frames it routes.
pub(crate) struct Link {
    writer: Mutex<Writer>,
    /// Each pending attempt's job, by upstream id; `None` once the reader
    /// has stopped.
    routes: Mutex<Option<HashMap<u64, Sender<Note>>>>,
    reader: Mutex<Option<JoinHandle<()>>>,
    /// Set by the first attempt that books this connection's loss against
    /// its replica's health: one lost connection is one failure, however
    /// many attempts it carried.
    loss_booked: AtomicBool,
}

impl Link {
    /// Starts a connection to `addr`: its thread dials, with `timeout` on
    /// the connect and on the greeting, then reads.
    fn start(addr: SocketAddr, timeout: Duration) -> Result<Arc<Link>, ClientError> {
        let link = Arc::new(Link {
            writer: Mutex::new(Writer::Dialling(Vec::new())),
            routes: Mutex::new(Some(HashMap::new())),
            reader: Mutex::new(None),
            loss_booked: AtomicBool::new(false),
        });
        let reading = Arc::clone(&link);
        let reader = std::thread::Builder::new()
            .name("router-link".into())
            .spawn(move || reading.run(addr, timeout))
            .map_err(|e| ClientError::transport("dial", e))?;
        *link.reader.lock().expect("link reader lock") = Some(reader);
        Ok(link)
    }

    fn writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().expect("link writer lock")
    }

    fn routes(&self) -> MutexGuard<'_, Option<HashMap<u64, Sender<Note>>>> {
        self.routes.lock().expect("link routes lock")
    }

    /// Dials, routes frames until the connection fails, then fails every
    /// attempt still pending on it.
    fn run(&self, addr: SocketAddr, timeout: Duration) {
        let error = match self.open(addr, timeout) {
            Ok(mut client) => loop {
                match client.read_frame() {
                    Ok(frame) => self.route(frame),
                    Err(error) => break error,
                }
            },
            Err(error) => error,
        };
        *self.writer() = Writer::Closed;
        for (id, job) in self.routes().take().unwrap_or_default() {
            let lost = std::io::Error::other(error.to_string());
            let _ = job.send(Note::Lost(id, ClientError::transport("upstream", lost)));
        }
    }

    /// Dials and sends the lines that waited for the greeting.
    fn open(&self, addr: SocketAddr, timeout: Duration) -> Result<Client, ClientError> {
        let mut client = Client::connect_timeout(&addr, timeout)?;
        client.set_read_timeout(None)?;
        let socket = client
            .socket()
            .map_err(|e| ClientError::transport("dial", e))?;
        let mut writer = self.writer();
        let Writer::Dialling(lines) = std::mem::replace(&mut *writer, Writer::Open(socket)) else {
            *writer = Writer::Closed; // closed while dialling
            return Err(not_connected("dial"));
        };
        for line in lines {
            write_line(&mut writer, &line);
        }
        Ok(client)
    }

    /// Hands an `event` or a terminal frame to its attempt's job; a
    /// terminal frame ends the route. `accepted` and `cancel_ok` wake no
    /// job, and frames for ids no job waits on (an abandoned attempt's)
    /// are dropped.
    fn route(&self, frame: RawFrame) {
        let terminal = match frame.frame_type() {
            Some("result" | "error" | "rejected") => true,
            Some("event") => false,
            _ => return,
        };
        let Some(id) = frame.id().and_then(parse_wire_id) else {
            return;
        };
        let mut routes = self.routes();
        let Some(routes) = routes.as_mut() else {
            return;
        };
        if terminal {
            if let Some(job) = routes.remove(&id) {
                let _ = job.send(Note::Frame(id, frame));
            }
        } else if let Some(job) = routes.get(&id) {
            let _ = job.send(Note::Frame(id, frame));
        }
    }

    /// Sends `line`, the submit of attempt `id`, whose frames go to `job`.
    ///
    /// # Errors
    ///
    /// A transport error when the reader has already stopped. A failed
    /// write shuts the socket, and the reader then fails the attempt.
    pub(crate) fn submit(&self, id: u64, line: &str, job: Sender<Note>) -> Result<(), ClientError> {
        match self.routes().as_mut() {
            Some(routes) => routes.insert(id, job),
            None => return Err(not_connected("submit")),
        };
        write_line(&mut self.writer(), line);
        Ok(())
    }

    /// Asks the replica to stop attempt `id`; its final frame still
    /// comes back.
    pub(crate) fn cancel(&self, id: u64) {
        write_line(&mut self.writer(), &cancel_frame(&wire_id(id)));
    }

    /// Stops attempt `id` and drops whatever it still sends.
    pub(crate) fn abandon(&self, id: u64) {
        if let Some(routes) = self.routes().as_mut() {
            routes.remove(&id);
        }
        self.cancel(id);
    }

    /// Whether this call is the first to book the connection's loss.
    pub(crate) fn book_loss(&self) -> bool {
        !self.loss_booked.swap(true, Ordering::AcqRel)
    }

    /// Attempts pending on this connection; `None` once its reader has
    /// stopped.
    fn pending(&self) -> Option<usize> {
        self.routes().as_ref().map(HashMap::len)
    }

    /// Shuts the socket, which stops the reader, and joins it. A reader
    /// still dialling stops within its dial timeout.
    fn close(&self) {
        if let Writer::Open(socket) = std::mem::replace(&mut *self.writer(), Writer::Closed) {
            let _ = socket.shutdown(Shutdown::Both);
        }
        let reader = self.reader.lock().expect("link reader lock").take();
        if let Some(reader) = reader {
            let _ = reader.join();
        }
    }
}

/// Writes one line, or queues it while the dial is under way. A failed
/// write shuts the socket, which stops the reader.
fn write_line(writer: &mut Writer, line: &str) {
    match writer {
        Writer::Dialling(lines) => lines.push(line.to_string()),
        Writer::Open(socket) => {
            if writeln!(socket, "{line}").is_err() {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        Writer::Closed => {}
    }
}

/// One replica's address and connections.
pub(crate) struct Upstream {
    addr: Mutex<SocketAddr>,
    slots: [Mutex<Option<Arc<Link>>>; LINKS],
    turn: AtomicUsize,
    /// Set at shutdown: no connection is dialled after it.
    closed: AtomicBool,
}

impl Upstream {
    pub(crate) fn new(addr: SocketAddr) -> Self {
        Upstream {
            addr: Mutex::new(addr),
            slots: Default::default(),
            turn: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Current dial address.
    pub(crate) fn addr(&self) -> SocketAddr {
        *self.addr.lock().expect("replica addr lock")
    }

    /// Re-points the replica and closes its connections to the old
    /// address; their pending attempts fail and are retried.
    pub(crate) fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().expect("replica addr lock") = addr;
        self.close_links();
    }

    /// The next connection in turn. An empty slot, or one whose reader has
    /// stopped, gets a new connection, whose dial (bounded by
    /// `dial_timeout`) runs on its own thread: this call never waits on
    /// the network.
    ///
    /// # Errors
    ///
    /// A transport error after shutdown or when the connection's thread
    /// cannot be started.
    pub(crate) fn link(&self, dial_timeout: Duration) -> Result<Arc<Link>, ClientError> {
        let turn = self.turn.fetch_add(1, Ordering::Relaxed) % LINKS;
        let mut slot = self.slots[turn].lock().expect("link slot lock");
        if self.closed.load(Ordering::Acquire) {
            return Err(not_connected("dial"));
        }
        if let Some(link) = slot.as_ref().filter(|l| l.pending().is_some()) {
            return Ok(Arc::clone(link));
        }
        if let Some(dead) = slot.take() {
            dead.close(); // its reader has stopped: the join is immediate
        }
        let link = Link::start(self.addr(), dial_timeout)?;
        *slot = Some(Arc::clone(&link));
        Ok(link)
    }

    fn close_links(&self) {
        for slot in &self.slots {
            let link = slot.lock().expect("link slot lock").take();
            if let Some(link) = link {
                link.close();
            }
        }
    }

    /// Closes every connection for good (router shutdown).
    pub(crate) fn shut(&self) {
        self.closed.store(true, Ordering::Release);
        self.close_links();
    }

    /// `(live connections, attempts pending on them)`.
    pub(crate) fn load(&self) -> (usize, usize) {
        let pending = self.slots.iter().filter_map(|slot| {
            let link = slot.lock().expect("link slot lock");
            link.as_ref()?.pending()
        });
        pending.fold((0, 0), |(links, attempts), p| (links + 1, attempts + p))
    }
}
