//! Wire-tier observability: the metric names this crate emits and the
//! pre-resolved handle bundle its connection threads record through.
//!
//! A server started with [`crate::WireServer::start_with_obs`] counts
//! every frame and byte in both directions and every socket write out,
//! classifies protocol errors by code, and times the ack→answer window
//! per accepted job. It also
//! reads back two serving-tier series ([`flexsfu_serve::obs`]) to fill
//! the telemetry tail of [`crate::Frame::Pong`], and serves the whole
//! registry as a [`crate::Frame::Stats`] snapshot — which is why the
//! wire server takes the *same* [`flexsfu_serve::ServeObs`] bundle as
//! the serving engine behind it.

use crate::frame::ErrorCode;
use flexsfu_obs::{labeled, Counter, LogHistogram, MetricsRegistry, SpanRecorder};
use flexsfu_serve::ServeObs;
use std::sync::Arc;

/// Frames decoded off client connections (counter).
pub const M_FRAMES_IN: &str = "flexsfu_wire_frames_in_total";
/// Frames written back to clients (counter).
pub const M_FRAMES_OUT: &str = "flexsfu_wire_frames_out_total";
/// Socket writes to clients, each carrying one or more frames
/// (counter); frames out ÷ writes is the live coalescing factor.
pub const M_WRITES_OUT: &str = "flexsfu_wire_writes_total";
/// Raw bytes read off client connections (counter).
pub const M_BYTES_IN: &str = "flexsfu_wire_bytes_in_total";
/// Raw bytes written back to clients (counter).
pub const M_BYTES_OUT: &str = "flexsfu_wire_bytes_out_total";
/// Error frames sent, labelled `code="retry_after"|"draining"|…` (counter).
pub const M_ERRORS: &str = "flexsfu_wire_errors_total";
/// Ack write → answer write latency per accepted job (histogram, ns).
pub const M_ACK_TO_RESULT_NS: &str = "flexsfu_wire_ack_to_result_ns";

/// The label value for an [`ErrorCode`] on [`M_ERRORS`].
fn code_label(code: ErrorCode) -> &'static str {
    match code {
        ErrorCode::UnknownFunction => "unknown_function",
        ErrorCode::PrecisionUnsupported => "precision_unsupported",
        ErrorCode::RetryAfter => "retry_after",
        ErrorCode::Draining => "draining",
        ErrorCode::ShuttingDown => "shutting_down",
        ErrorCode::Internal => "internal",
        ErrorCode::Protocol => "protocol",
    }
}

const ERROR_CODES: [ErrorCode; 7] = [
    ErrorCode::UnknownFunction,
    ErrorCode::PrecisionUnsupported,
    ErrorCode::RetryAfter,
    ErrorCode::Draining,
    ErrorCode::ShuttingDown,
    ErrorCode::Internal,
    ErrorCode::Protocol,
];

/// Every handle the wire server's hot paths record through, resolved
/// once at start-up — recording is lock- and allocation-free.
pub(crate) struct WireObsState {
    pub(crate) spans: Arc<SpanRecorder>,
    pub(crate) frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    writes_out: Arc<Counter>,
    pub(crate) bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// Indexed by `ErrorCode as u8 - 1`.
    errors: [Arc<Counter>; 7],
    pub(crate) ack_to_result_ns: Arc<LogHistogram>,
    /// Serving-tier read-backs for the pong telemetry tail.
    pub(crate) flush_units: Arc<Counter>,
    pub(crate) eval_ns: Arc<LogHistogram>,
    pub(crate) metrics: Arc<MetricsRegistry>,
}

impl WireObsState {
    pub(crate) fn new(obs: &ServeObs) -> Self {
        let m = &obs.metrics;
        Self {
            spans: Arc::clone(&obs.spans),
            frames_in: m.counter(M_FRAMES_IN),
            frames_out: m.counter(M_FRAMES_OUT),
            writes_out: m.counter(M_WRITES_OUT),
            bytes_in: m.counter(M_BYTES_IN),
            bytes_out: m.counter(M_BYTES_OUT),
            errors: ERROR_CODES
                .map(|code| m.counter(&labeled(M_ERRORS, &[("code", code_label(code))]))),
            ack_to_result_ns: m.histogram(M_ACK_TO_RESULT_NS),
            flush_units: m.counter(flexsfu_serve::obs::M_FLUSH_UNITS),
            eval_ns: m.histogram(flexsfu_serve::obs::M_EVAL_NS),
            metrics: Arc::clone(m),
        }
    }

    /// One clock read, off the span recorder's clock — so wire stamps
    /// and serve stamps share a timeline.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.spans.now_ns()
    }

    /// Counts one successful socket write of `frames` frames and
    /// `bytes` bytes, bumping the per-code error series once for each
    /// [`crate::Frame::Error`] it carried (their codes in `errors`).
    pub(crate) fn count_write(&self, frames: u64, bytes: usize, errors: &[ErrorCode]) {
        self.writes_out.inc();
        self.frames_out.add(frames);
        self.bytes_out.add(bytes as u64);
        for &code in errors {
            self.errors[code as usize - 1].inc();
        }
    }
}
