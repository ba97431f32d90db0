//! Configuration validation errors.
//!
//! Every facade and builder constructor validates its inputs and returns
//! a [`ConfigError`] instead of panicking, so misconfiguration is
//! recoverable at the API boundary. The low-level free functions
//! ([`coarse_sweep`](crate::coarse::coarse_sweep) and friends) still
//! panic on invalid input — they sit below the validation layer and
//! document that contract.

use std::fmt;

/// A rejected clustering configuration, or a failure to deliver a
/// requested run artifact (e.g. the trace file).
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The thread count was zero.
    ZeroThreads,
    /// The similarity threshold was NaN, which no score falls below, so
    /// it would silently mean "no threshold". ±∞ are valid: they merge
    /// nothing and everything.
    InvalidThreshold(
        /// The rejected value.
        f64,
    ),
    /// The terminal cluster count φ was zero.
    ZeroPhi,
    /// The initial chunk size δ₀ was zero.
    ZeroChunk,
    /// The soundness bound γ was below 1 (or not finite).
    InvalidGamma(
        /// The rejected value.
        f64,
    ),
    /// The head growth factor η₀ was not above 1 (or not finite).
    InvalidEta(
        /// The rejected value.
        f64,
    ),
    /// The facade and the [`CoarseConfig`](crate::coarse::CoarseConfig)
    /// specify different explicit edge orders.
    EdgeOrderConflict,
    /// Writing the requested Chrome trace file failed. The clustering
    /// itself completed; only the artifact is missing.
    TraceWrite {
        /// Path the trace was meant to be written to.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(f, "need at least one thread"),
            ConfigError::InvalidThreshold(t) => {
                write!(f, "the similarity threshold must be a number (got {t})")
            }
            ConfigError::ZeroPhi => write!(f, "phi (terminal cluster count) must be positive"),
            ConfigError::ZeroChunk => write!(f, "initial chunk size must be positive"),
            ConfigError::InvalidGamma(g) => {
                write!(f, "gamma must be a finite value of at least 1 (got {g})")
            }
            ConfigError::InvalidEta(e) => {
                write!(f, "eta0 must be a finite value exceeding 1 (got {e})")
            }
            ConfigError::EdgeOrderConflict => write!(
                f,
                "conflicting edge orders: the facade and the CoarseConfig both set an \
                 explicit edge_order, and they differ"
            ),
            ConfigError::TraceWrite { path, message } => {
                write!(f, "failed to write trace file {path}: {message}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_parameter() {
        assert!(ConfigError::ZeroThreads.to_string().contains("thread"));
        assert!(ConfigError::InvalidThreshold(f64::NAN).to_string().contains("threshold"));
        assert!(ConfigError::ZeroPhi.to_string().contains("phi"));
        assert!(ConfigError::ZeroChunk.to_string().contains("chunk"));
        assert!(ConfigError::InvalidGamma(0.5).to_string().contains("gamma"));
        assert!(ConfigError::InvalidEta(1.0).to_string().contains("eta0"));
        assert!(ConfigError::EdgeOrderConflict.to_string().contains("edge_order"));
        let e = ConfigError::TraceWrite {
            path: "/no/such/dir/t.json".to_string(),
            message: "permission denied".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains("/no/such/dir/t.json") && msg.contains("permission denied"));
    }

    #[test]
    fn error_is_send_sync_and_error() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<ConfigError>();
    }
}
