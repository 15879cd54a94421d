//! Error types for the serve layer.

use std::error::Error;
use std::fmt;

use sophie_graph::GraphError;
use sophie_solve::{JsonError, SolveError};

/// Errors produced by the serve layer: configuration validation, protocol
/// violations, and wrapped solver/graph/I/O failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A [`ServeConfig`](crate::ServeConfig) field (or its environment
    /// override) failed validation. Named after the first offending field,
    /// matching the `HealthConfig` validation style.
    BadConfig {
        /// The offending field or environment variable.
        field: &'static str,
        /// What was wrong with it.
        message: String,
    },
    /// A client frame violated the wire protocol (bad JSON, missing or
    /// mistyped fields, unknown command or config key).
    Protocol {
        /// Human-readable description of the violation.
        message: String,
    },
    /// The server rejected a request for capacity reasons; `reason` is the
    /// wire-level rejection code (`queue_full`, `too_many_connections`,
    /// `shutting_down`).
    Rejected {
        /// Wire-level rejection code.
        reason: &'static str,
    },
    /// A graph upload or named-instance lookup failed.
    Graph(GraphError),
    /// A solver build or run failed.
    Solve(SolveError),
    /// An underlying socket or file I/O error.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadConfig { field, message } => {
                write!(f, "invalid serve config `{field}`: {message}")
            }
            ServeError::Protocol { message } => write!(f, "protocol error: {message}"),
            ServeError::Rejected { reason } => write!(f, "request rejected: {reason}"),
            ServeError::Graph(e) => write!(f, "graph error: {e}"),
            ServeError::Solve(e) => write!(f, "solve error: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Graph(e) => Some(e),
            ServeError::Solve(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ServeError {
    fn from(e: GraphError) -> Self {
        ServeError::Graph(e)
    }
}

impl From<JsonError> for ServeError {
    /// A syntax error in a client frame is a protocol violation; the
    /// message text is kept as is.
    fn from(e: JsonError) -> Self {
        ServeError::Protocol { message: e.message }
    }
}

impl From<SolveError> for ServeError {
    fn from(e: SolveError) -> Self {
        ServeError::Solve(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Errors a [`Client`](crate::Client) can hit, split by *retriability*.
///
/// A dropped TCP connection used to surface as an opaque io error
/// mid-stream; the split matters to the router's retry layer, which must
/// fail a dispatch over to another replica on transport trouble but must
/// *not* retry semantic protocol errors (they are deterministic and would
/// fail identically everywhere). [`ClientError::is_retriable`] encodes
/// the policy in one place.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The connection could not be established. Retriable: the peer may be
    /// restarting, or another replica can take the job.
    Connect(std::io::Error),
    /// The connection broke while in use (broken pipe, reset, timeout,
    /// unexpected EOF). `during` names the operation that was in flight.
    /// Retriable on a fresh connection or another replica.
    Transport {
        /// What the client was doing when the transport failed.
        during: &'static str,
        /// The underlying socket error.
        source: std::io::Error,
    },
    /// The peer sent a frame that does not parse as JSON (or violates the
    /// line cap). Retriable: a garbled peer is treated like a dead one.
    MalformedFrame {
        /// What was wrong with the frame.
        message: String,
    },
    /// A semantic protocol violation: wrong greeting, unsupported version,
    /// or an `error` frame. NOT retriable — the request would fail the
    /// same way against any replica.
    Protocol {
        /// Human-readable description of the violation.
        message: String,
    },
    /// The peer refused the connection or request for capacity reasons.
    /// Not retriable on the *same* peer, but the caller may try another.
    Rejected {
        /// Wire-level rejection code (`too_many_connections`, ...).
        reason: String,
    },
}

impl ClientError {
    /// Whether a retry — on a fresh connection or another replica — could
    /// plausibly succeed. True for transport-level trouble (connect
    /// failures, broken pipes, timeouts, garbled frames), false for
    /// semantic protocol errors, which are deterministic.
    #[must_use]
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            ClientError::Connect(_)
                | ClientError::Transport { .. }
                | ClientError::MalformedFrame { .. }
        )
    }

    /// Wraps an io error from an in-flight read/write as a transport error.
    #[must_use]
    pub fn transport(during: &'static str, source: std::io::Error) -> Self {
        ClientError::Transport { during, source }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Transport { during, source } => {
                write!(f, "transport error during {during}: {source}")
            }
            ClientError::MalformedFrame { message } => write!(f, "malformed frame: {message}"),
            ClientError::Protocol { message } => write!(f, "protocol error: {message}"),
            ClientError::Rejected { reason } => write!(f, "rejected: {reason}"),
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Connect(e) | ClientError::Transport { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<ClientError> for ServeError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Connect(io) | ClientError::Transport { source: io, .. } => {
                ServeError::Io(io)
            }
            ClientError::MalformedFrame { message } | ClientError::Protocol { message } => {
                ServeError::Protocol { message }
            }
            ClientError::Rejected { reason } => ServeError::Protocol {
                message: format!("request rejected: {reason}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_field() {
        let e = ServeError::BadConfig {
            field: "queue_capacity",
            message: "must be positive".into(),
        };
        assert!(e.to_string().contains("queue_capacity"));
        let e = ServeError::Protocol {
            message: "missing `cmd`".into(),
        };
        assert!(e.to_string().contains("missing `cmd`"));
        let e = ServeError::Rejected {
            reason: "queue_full",
        };
        assert!(e.to_string().contains("queue_full"));
    }

    #[test]
    fn wrapped_errors_expose_source() {
        let e = ServeError::from(std::io::Error::other("x"));
        assert!(e.source().is_some());
        let e = ServeError::from(GraphError::Empty);
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
        assert_send_sync::<ClientError>();
    }

    #[test]
    fn client_error_retriability_splits_transport_from_protocol() {
        let transport = [
            ClientError::Connect(std::io::Error::other("refused")),
            ClientError::transport("read_frame", std::io::Error::other("broken pipe")),
            ClientError::MalformedFrame {
                message: "not json".into(),
            },
        ];
        for e in transport {
            assert!(e.is_retriable(), "{e} must be retriable");
        }
        let semantic = [
            ClientError::Protocol {
                message: "unsupported protocol version".into(),
            },
            ClientError::Rejected {
                reason: "queue_full".into(),
            },
        ];
        for e in semantic {
            assert!(!e.is_retriable(), "{e} must not be retriable");
        }
    }

    #[test]
    fn client_error_converts_into_serve_error() {
        let e = ServeError::from(ClientError::Connect(std::io::Error::other("x")));
        assert!(matches!(e, ServeError::Io(_)));
        let e = ServeError::from(ClientError::Rejected {
            reason: "queue_full".into(),
        });
        assert!(e.to_string().contains("queue_full"));
    }
}
