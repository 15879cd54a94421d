//! One client connection's shared write half, and the bookkeeping of an
//! accept loop's connections, used by both the solve daemon
//! ([`server`](crate::server)) and the cluster router
//! ([`router`](crate::router)).
//!
//! Multiple threads (connection reader, job workers, dispatchers) write
//! frames to the same client; the mutex keeps frames from interleaving,
//! and a failed write latches the connection dead so later frames — and
//! streaming observers — stop trying.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;

/// Shared write half of one accepted client connection.
pub(crate) struct Conn {
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl Conn {
    /// Wraps the write half of an accepted stream.
    pub(crate) fn new(writer: TcpStream) -> Self {
        Conn {
            writer: Mutex::new(writer),
            alive: AtomicBool::new(true),
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
        if !self.is_alive() {
            return;
        }
        let mut w = self.writer.lock().expect("conn writer lock");
        if writeln!(w, "{frame}").and_then(|()| w.flush()).is_err() {
            self.mark_dead();
        }
    }

    /// Runs `f` under the writer lock — for callers that must couple a
    /// state change with the frame write (e.g. queue push + `accepted`).
    /// Returns whether the write succeeded.
    pub(crate) fn send_locked<F: FnOnce() -> String>(&self, f: F) -> bool {
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

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("alive", &self.is_alive())
            .finish()
    }
}

/// The connections an accept loop has handed to threads: their write
/// halves, for the shutdown sweep, and the threads serving them.
///
/// Entries of finished connections are reaped on every accept, so a
/// long-running daemon or router tracks its *live* connections rather
/// than one entry per connection it ever served.
#[derive(Default)]
pub(crate) struct ConnTracker {
    conns: Mutex<Vec<Weak<Conn>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ConnTracker {
    /// Tracks the thread serving a newly accepted connection.
    pub(crate) fn add_thread(&self, handle: JoinHandle<()>) {
        self.threads.lock().expect("conn threads lock").push(handle);
    }

    /// Tracks a connection's write half for the shutdown sweep.
    pub(crate) fn add_conn(&self, conn: &Arc<Conn>) {
        self.conns
            .lock()
            .expect("conns lock")
            .push(Arc::downgrade(conn));
    }

    /// Joins connection threads that have exited and drops `Weak`s to
    /// conns that are gone. Joining a finished thread does not block.
    pub(crate) fn reap_finished(&self) {
        let finished: Vec<JoinHandle<()>> = {
            let mut threads = self.threads.lock().expect("conn threads lock");
            let (done, live): (Vec<_>, Vec<_>) =
                threads.drain(..).partition(JoinHandle::is_finished);
            *threads = live;
            done
        };
        for t in finished {
            let _ = t.join();
        }
        self.conns
            .lock()
            .expect("conns lock")
            .retain(|w| w.strong_count() > 0);
    }

    /// Shutdown sweep: half-closes every live connection so its thread's
    /// blocking read returns, then joins every connection thread.
    pub(crate) fn close_all(&self) {
        let conns: Vec<_> = self.conns.lock().expect("conns lock").drain(..).collect();
        for conn in conns.iter().filter_map(Weak::upgrade) {
            conn.close();
        }
        let threads: Vec<_> = self
            .threads
            .lock()
            .expect("conn threads lock")
            .drain(..)
            .collect();
        for t in threads {
            let _ = t.join();
        }
    }

    /// `(tracked threads, tracked write halves)`.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> (usize, usize) {
        (
            self.threads.lock().expect("conn threads lock").len(),
            self.conns.lock().expect("conns lock").len(),
        )
    }
}
