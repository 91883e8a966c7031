//! The serving front-end's error type.

use crate::registry::FunctionId;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong between submitting a job and receiving
/// its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The function id was never registered with the server's registry.
    UnknownFunction(FunctionId),
    /// Lowering the function onto its bound evaluation backend failed
    /// (registration with an explicit backend, or a publish onto an
    /// entry bound to one).
    LowerFailed(flexsfu_backend::LowerError),
    /// The server is shutting down (or has shut down); new jobs are
    /// rejected. Jobs accepted *before* shutdown are still drained and
    /// completed.
    ShuttingDown,
    /// [`crate::ServeHandle::try_submit`] found the bounded queue full.
    /// The blocking [`crate::ServeHandle::submit`] waits for space
    /// instead of returning this.
    QueueFull,
    /// An f32 job ([`crate::ServeHandle::submit`] of a `Vec<f32>`) named a function
    /// whose backend has no single-precision lane
    /// ([`flexsfu_backend::EvalBackend::lower_f32`] returned `None`).
    /// The job is rejected rather than silently round-tripped through
    /// f64 — the f32 path's contract is that a request never touches
    /// f64.
    PrecisionUnsupported(FunctionId),
    /// The result channel was dropped without a value: the backend
    /// panicked while evaluating the job's flush unit. Only that unit's
    /// jobs fail; the worker goes on serving later jobs.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownFunction(id) => write!(f, "function {id:?} is not registered"),
            Self::LowerFailed(e) => write!(f, "backend lowering failed: {e}"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::QueueFull => write!(f, "submission queue is full"),
            Self::PrecisionUnsupported(id) => write!(
                f,
                "function {id:?}'s backend has no f32 lane (lower_f32 returned None)"
            ),
            Self::Disconnected => write!(f, "result channel disconnected (backend panicked)"),
        }
    }
}

impl Error for ServeError {}
