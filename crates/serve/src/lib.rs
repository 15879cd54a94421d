//! Networked solve service: a JSONL-over-TCP daemon for the workspace's
//! solvers, with admission control, deadlines, and streaming results.
//!
//! The batch entry points (`repro`, the scheduler) run a fixed workload
//! and exit; this crate turns the same [`Solver`](sophie_solve::Solver)
//! registry into a long-running service. Design pillars:
//!
//! * **One protocol, one line per frame.** Requests and responses are
//!   single-line JSON objects ([`protocol`]); the protocol is versioned
//!   via the `hello` greeting ([`PROTOCOL_VERSION`]).
//! * **Explicit backpressure.** Admission goes through a bounded queue
//!   ([`AdmissionQueue`]); a submit beyond capacity is *rejected* with a
//!   typed `queue_full` frame, never buffered unboundedly. Connection
//!   count and request-line size are capped the same way
//!   ([`ServeConfig`]).
//! * **Deadlines and cancellation map onto the job layer.** A request
//!   `deadline_ms` becomes `JobBudget::time_limit`; every job gets a
//!   [`CancelToken`](sophie_solve::CancelToken), fired by the client's
//!   `cancel` command, by connection drop, and by shutdown — solvers
//!   wind down within one iteration (cooperative cancellation).
//! * **Streaming is the observer layer over a socket.** `stream: true`
//!   attaches a [`FnObserver`](sophie_solve::FnObserver) that forwards
//!   each [`SolveEvent`](sophie_solve::SolveEvent) as an `event` frame,
//!   exactly the stream `repro trace` writes to disk.
//! * **No async runtime, no signals.** Everything is `std` threads +
//!   mutex/condvar ([`server`] documents the thread model); graceful
//!   shutdown is a protocol command.
//!
//! Untrusted input is handled at every boundary: bounded line reads,
//! depth-limited, linear-time JSON parsing ([`json`]), and GSET uploads
//! parsed under [`ParseLimits`](sophie_graph::io::ParseLimits) so a
//! hostile header cannot size an allocation. Every frame is built as a
//! [`Json`] value and rendered by its one `Display`; the only JSON text
//! passed through unrendered is a router's cached report bytes and a
//! client's caller-supplied `config`/`problem` text.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod config;
pub mod configs;
mod conn;
mod error;
pub mod metrics;
pub mod problems;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod server;

pub use client::{Client, JobOutcome, RawFrame, SubmitArgs};
pub use cluster::LocalCluster;
pub use config::ServeConfig;
pub use error::{ClientError, ServeError};
pub use metrics::Metrics;
pub use protocol::{GraphSpec, Request, SubmitRequest, PROTOCOL_VERSION};
pub use queue::AdmissionQueue;
pub use router::health::{HealthPolicy, ReplicaState};
pub use router::retry::{AttemptPlan, RetryPolicy};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerHandle};
/// The workspace's JSON value type, parser and escaper, from
/// `sophie-solve`: every frame this crate writes is rendered by it.
pub use sophie_solve::json;
pub use sophie_solve::Json;
