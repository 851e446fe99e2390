//! Error types shared across the simulator crates.

use std::error::Error;
use std::fmt;

/// Error produced when building or running a simulation with invalid
/// configuration.
///
/// # Examples
///
/// ```
/// use gr_sim::SimError;
/// let e = SimError::invalid_config("bit error rate must be in [0, 1]");
/// assert_eq!(e.to_string(), "invalid configuration: bit error rate must be in [0, 1]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A configuration parameter was out of range or inconsistent.
    InvalidConfig(String),
}

impl SimError {
    /// Convenience constructor for [`SimError::InvalidConfig`].
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        SimError::InvalidConfig(msg.into())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl Error for SimError {}
