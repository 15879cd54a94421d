//! Service configuration with validation and environment overrides.

use crate::error::{Result, ServeError};

/// Environment variable overriding [`ServeConfig::queue_capacity`].
pub const ENV_QUEUE: &str = "SOPHIE_SERVE_QUEUE";
/// Environment variable overriding [`ServeConfig::max_connections`].
pub const ENV_CONNS: &str = "SOPHIE_SERVE_CONNS";

/// Tunable limits for one daemon instance.
///
/// Validation follows the `HealthConfig` style: [`ServeConfig::validate`]
/// names the first offending field in a typed
/// [`ServeError::BadConfig`]. [`ServeConfig::with_env_overrides`] applies
/// `SOPHIE_SERVE_QUEUE` / `SOPHIE_SERVE_CONNS`, rejecting unparsable
/// values with the variable name as the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission-queue capacity; a submit that would exceed it is rejected
    /// with `queue_full` (explicit backpressure, never unbounded buffering).
    pub queue_capacity: usize,
    /// Concurrent connection cap; further accepts get a
    /// `too_many_connections` rejection frame and are closed.
    pub max_connections: usize,
    /// Worker threads executing jobs from the admission queue.
    pub workers: usize,
    /// Node cap on inline graph uploads (applied to the GSET header
    /// before any allocation), and on a `sophie` or `sophie-opcm` job's
    /// `tile_size`.
    pub max_instance_nodes: usize,
    /// Edge cap on inline graph uploads.
    pub max_instance_edges: usize,
    /// Byte cap on one request line; protects the daemon from unbounded
    /// buffering on untrusted sockets.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_connections: 32,
            workers: 2,
            max_instance_nodes: 4096,
            max_instance_edges: 1 << 20,
            max_line_bytes: 16 << 20,
        }
    }
}

impl ServeConfig {
    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<()> {
        let positive: [(&'static str, usize); 5] = [
            ("queue_capacity", self.queue_capacity),
            ("max_connections", self.max_connections),
            ("workers", self.workers),
            ("max_instance_nodes", self.max_instance_nodes),
            ("max_instance_edges", self.max_instance_edges),
        ];
        for (field, value) in positive {
            if value == 0 {
                return Err(ServeError::BadConfig {
                    field,
                    message: "must be positive".into(),
                });
            }
        }
        if self.max_line_bytes < 1024 {
            return Err(ServeError::BadConfig {
                field: "max_line_bytes",
                message: format!(
                    "must be at least 1024 to hold a request frame, got {}",
                    self.max_line_bytes
                ),
            });
        }
        Ok(())
    }

    /// Applies `SOPHIE_SERVE_QUEUE` and `SOPHIE_SERVE_CONNS` on top of
    /// `self`, then re-validates.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] with the environment variable as the
    /// field for unparsable or out-of-range values, plus anything
    /// [`ServeConfig::validate`] reports.
    pub fn with_env_overrides(mut self) -> Result<Self> {
        if let Some(v) = env_usize(ENV_QUEUE)? {
            self.queue_capacity = v;
        }
        if let Some(v) = env_usize(ENV_CONNS)? {
            self.max_connections = v;
        }
        self.validate()?;
        Ok(self)
    }
}

pub(crate) fn env_usize(name: &'static str) -> Result<Option<usize>> {
    match std::env::var(name) {
        Err(_) => Ok(None),
        Ok(raw) => raw
            .trim()
            .parse::<usize>()
            .map(Some)
            .map_err(|_| ServeError::BadConfig {
                field: name,
                message: format!("expected a non-negative integer, got {raw:?}"),
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Env mutations are process-global; serialize the tests that touch them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_fields_are_named_in_errors() {
        let c = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        match c.validate() {
            Err(ServeError::BadConfig { field, .. }) => assert_eq!(field, "workers"),
            other => panic!("expected BadConfig, got {other:?}"),
        }
        let c = ServeConfig {
            max_line_bytes: 10,
            ..ServeConfig::default()
        };
        match c.validate() {
            Err(ServeError::BadConfig { field, .. }) => assert_eq!(field, "max_line_bytes"),
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn env_overrides_apply_and_validate() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var(ENV_QUEUE, "7");
        std::env::set_var(ENV_CONNS, "3");
        let c = ServeConfig::default().with_env_overrides().unwrap();
        assert_eq!(c.queue_capacity, 7);
        assert_eq!(c.max_connections, 3);
        // Zero from the environment still fails validation, with the
        // *config field* named (the override applied, then validation ran).
        std::env::set_var(ENV_QUEUE, "0");
        assert!(matches!(
            ServeConfig::default().with_env_overrides(),
            Err(ServeError::BadConfig {
                field: "queue_capacity",
                ..
            })
        ));
        std::env::remove_var(ENV_QUEUE);
        std::env::remove_var(ENV_CONNS);
    }

    #[test]
    fn unparsable_env_values_name_the_variable() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var(ENV_QUEUE, "lots");
        match ServeConfig::default().with_env_overrides() {
            Err(ServeError::BadConfig { field, message }) => {
                assert_eq!(field, ENV_QUEUE);
                assert!(message.contains("lots"));
            }
            other => panic!("expected BadConfig, got {other:?}"),
        }
        std::env::remove_var(ENV_QUEUE);
    }
}
