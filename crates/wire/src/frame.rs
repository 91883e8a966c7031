//! The frame codec: a hand-rolled, length-prefixed binary encoding of
//! every message the serving tier speaks — no crates.io, same
//! discipline as the serve crate's hand-rolled oneshot.
//!
//! # Layout
//!
//! Every frame on the wire is
//!
//! ```text
//! +----------------+---------+------------------------+
//! | len: u32 LE    | kind:u8 | body (kind-specific)   |
//! +----------------+---------+------------------------+
//!                  |<------- len bytes ------------->|
//! ```
//!
//! `len` counts the payload (kind byte + body), not itself, and is
//! capped at [`MAX_PAYLOAD`]: a length prefix past the cap is rejected
//! *before* any allocation, so garbage (or hostile) prefixes cannot
//! balloon memory. All integers are little-endian; floats travel as
//! their IEEE-754 bit patterns ([`f64::to_bits`]/[`f32::to_bits`]), so
//! a value crosses the wire **bit-exactly** — including NaN payloads —
//! which is what lets the test battery demand bit-identity between
//! wire-served results and direct engine evaluation.
//!
//! Decoding is total: any byte sequence either yields a frame or a
//! typed [`FrameError`] — never a panic, never a partial read of
//! adjacent frames. [`FrameReader`] handles reassembly from an
//! arbitrary chunking of the byte stream (the codec property suite
//! feeds it one byte at a time).

use flexsfu_obs::ByteCursor;
use flexsfu_serve::Precision;

/// Hard cap on a frame's payload (kind byte + body): 16 MiB. Large
/// enough for a 2M-element f64 tensor per request; small enough that a
/// garbage length prefix cannot commit meaningful memory.
pub const MAX_PAYLOAD: u32 = 1 << 24;

/// Bytes of framing overhead per frame (the `u32` length prefix).
pub const HEADER_LEN: usize = 4;

/// Typed protocol-level failure codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The named function id is not registered on this server
    /// (`detail` = the offending id).
    UnknownFunction = 1,
    /// The function's backend has no lane for the submitted precision
    /// (`detail` = the function id).
    PrecisionUnsupported = 2,
    /// The server's admission queue bounced the job; retry after the
    /// hinted backoff (`detail` = suggested microseconds). This is
    /// [`flexsfu_serve::ServeError::QueueFull`] surfaced as protocol
    /// backpressure instead of a blocked connection.
    RetryAfter = 3,
    /// The server is draining: accepted jobs still complete, new
    /// submissions must go elsewhere (the shard router's handoff
    /// signal).
    Draining = 4,
    /// The serving back-end behind this server is shutting down.
    ShuttingDown = 5,
    /// The job was accepted but its result channel died (an evaluation
    /// worker failure). The submission may be retried.
    Internal = 6,
    /// The peer sent bytes that do not decode as a frame; the
    /// connection closes after this reply.
    Protocol = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Self::UnknownFunction,
            2 => Self::PrecisionUnsupported,
            3 => Self::RetryAfter,
            4 => Self::Draining,
            5 => Self::ShuttingDown,
            6 => Self::Internal,
            7 => Self::Protocol,
            _ => return None,
        })
    }
}

/// Everything that can travel over a serving connection, client → server
/// (`Submit*`, `Ping`, `Drain`) and server → client (`Ack`, `Result*`,
/// `Error`, `Pong`).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Submit `data` for evaluation by function `func`; all later frames
    /// about this job carry `req` (ids are per-connection, chosen by the
    /// client, and may complete out of order).
    SubmitF64 {
        /// Client-chosen request id.
        req: u64,
        /// Target function id in the server's registry.
        func: u32,
        /// The request tensor, bit-exact.
        data: Vec<f64>,
        /// Distributed trace id, as an optional body tail (the `Pong`
        /// tail pattern): `None` encodes the legacy v1 body exactly, so
        /// untraced submits stay byte-identical to what v1 peers send
        /// and accept; `Some` appends eight bytes that a v2 server
        /// adopts into its span ring. Only trace-originating callers
        /// (the shard router) set it.
        trace: Option<u64>,
    },
    /// The single-precision job lane's submit.
    SubmitF32 {
        /// Client-chosen request id.
        req: u64,
        /// Target function id.
        func: u32,
        /// The request tensor, bit-exact.
        data: Vec<f32>,
        /// Distributed trace id tail; see [`Frame::SubmitF64::trace`].
        trace: Option<u64>,
    },
    /// Health check; the server answers with [`Frame::Pong`].
    Ping {
        /// Echoed in the pong — the client's correlation id.
        nonce: u64,
    },
    /// Administrative: put the server into draining mode (accepted jobs
    /// finish, new submissions answer [`ErrorCode::Draining`]).
    Drain,
    /// The job was **accepted**: it now counts as an accepted job and
    /// will be answered — by a result or a typed error — even if the
    /// server drains. Always precedes the job's result on the wire.
    Ack {
        /// The accepted request.
        req: u64,
    },
    /// A completed f64 job's results, bit-exact.
    ResultF64 {
        /// The completed request.
        req: u64,
        /// Result tensor, same length as the submission.
        data: Vec<f64>,
    },
    /// A completed f32 job's results, bit-exact.
    ResultF32 {
        /// The completed request.
        req: u64,
        /// Result tensor, same length as the submission.
        data: Vec<f32>,
    },
    /// A typed failure. `req` names the failed request, or 0 for
    /// connection-level errors ([`ErrorCode::Protocol`]).
    Error {
        /// The failed request (0 = the connection itself).
        req: u64,
        /// What went wrong.
        code: ErrorCode,
        /// Code-specific detail (function id, retry hint…).
        detail: u32,
    },
    /// Health answer: the shard's drain state and queue load, plus a
    /// telemetry tail (queued jobs, flushes, eval p99) that older peers
    /// simply omit — the decoder accepts both the legacy 25-byte body
    /// (tail reads as zeros) and the current 49-byte one, so mixed
    /// protocol versions keep health-checking each other.
    Pong {
        /// The ping's nonce, echoed.
        nonce: u64,
        /// Whether the server is draining (no new admissions).
        draining: bool,
        /// Pending elements in the serving queue — the load signal.
        queued_elems: u64,
        /// Wire jobs accepted but not yet answered on this server.
        inflight: u64,
        /// Pending jobs (not elements) in the serving queue.
        queued_jobs: u64,
        /// Flush units dispatched since the server started (zero when
        /// the server runs without observability).
        flushes: u64,
        /// p99 backend evaluation time in microseconds (zero without
        /// observability).
        eval_p99_us: u64,
    },
    /// Ask the server for its full metrics snapshot; answered by
    /// [`Frame::Stats`].
    StatsRequest {
        /// Echoed in the stats reply — the client's correlation id.
        nonce: u64,
    },
    /// The server's metrics snapshot as an opaque, versioned
    /// `flexsfu-obs` blob ([`flexsfu_obs::MetricsSnapshot::encode`]) —
    /// the codec only frames it, so the snapshot format can evolve
    /// independently of the wire protocol.
    Stats {
        /// The request's nonce, echoed.
        nonce: u64,
        /// The encoded snapshot (empty snapshot when the server runs
        /// without observability).
        snapshot: Vec<u8>,
    },
}

mod kind {
    pub const SUBMIT_F64: u8 = 0x01;
    pub const SUBMIT_F32: u8 = 0x02;
    pub const PING: u8 = 0x03;
    pub const DRAIN: u8 = 0x04;
    pub const STATS_REQUEST: u8 = 0x05;
    pub const ACK: u8 = 0x81;
    pub const RESULT_F64: u8 = 0x82;
    pub const RESULT_F32: u8 = 0x83;
    pub const ERROR: u8 = 0x84;
    pub const PONG: u8 = 0x85;
    pub const STATS: u8 = 0x86;
}

/// Why a byte sequence failed to decode. Every variant is a clean,
/// typed rejection — malformed input never panics the codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_PAYLOAD`]; rejected before any
    /// allocation.
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// A zero-length payload (no kind byte).
    EmptyPayload,
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// The payload ended before the kind's fixed fields or declared
    /// element count were satisfied.
    Truncated {
        /// Kind of the truncated frame.
        kind: u8,
        /// Bytes the kind's fields required.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload carries bytes past the kind's declared end — a
    /// framing desync, rejected rather than silently ignored.
    TrailingBytes {
        /// Kind of the over-long frame.
        kind: u8,
        /// Surplus byte count.
        extra: usize,
    },
    /// An [`Frame::Error`] frame carried an unassigned code byte.
    BadErrorCode(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            Self::EmptyPayload => write!(f, "empty frame payload (no kind byte)"),
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            Self::Truncated { kind, need, got } => {
                write!(
                    f,
                    "kind {kind:#04x} frame truncated: need {need}, got {got}"
                )
            }
            Self::TrailingBytes { kind, extra } => {
                write!(f, "kind {kind:#04x} frame has {extra} trailing bytes")
            }
            Self::BadErrorCode(c) => write!(f, "unassigned error code {c}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Little-endian field writers over the output buffer.
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A precision the wire carries, `f64` or `f32` (sealed): its element
/// codec and its Submit/Result variants, so the frame codec, the
/// client's submits and tickets and the server's reply path are each
/// written once for both. Every wire element is a serving
/// [`Precision`], so the server hands a tensor to serving as it
/// arrived.
pub trait WireElement: Precision + sealed::Sealed {}

pub(crate) mod sealed {
    use super::Frame;

    /// The element operations only this crate needs.
    pub trait Sealed: Sized {
        /// Bytes per element on the wire.
        const WIDTH: usize;
        /// Appends the element's IEEE-754 bit pattern, little-endian.
        fn put(self, out: &mut Vec<u8>);
        /// The element from exactly [`Self::WIDTH`] little-endian bytes.
        fn get(bytes: &[u8]) -> Self;
        /// The submit frame carrying `data`.
        fn submit(req: u64, func: u32, data: Vec<Self>, trace: Option<u64>) -> Frame;
        /// The result frame carrying `data`.
        fn result(req: u64, data: Vec<Self>) -> Frame;
        /// The payload of a result frame of this precision, or `None`
        /// for the other one.
        fn payload(frame: Frame) -> Option<Vec<Self>>;
    }
}

macro_rules! wire_element {
    ($t:ty, $bits:ty, $submit:ident, $result:ident) => {
        impl WireElement for $t {}

        impl sealed::Sealed for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_bits().to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_bits(<$bits>::from_le_bytes(
                    bytes.try_into().expect("WIDTH bytes"),
                ))
            }
            fn submit(req: u64, func: u32, data: Vec<Self>, trace: Option<u64>) -> Frame {
                Frame::$submit {
                    req,
                    func,
                    data,
                    trace,
                }
            }
            fn result(req: u64, data: Vec<Self>) -> Frame {
                Frame::$result { req, data }
            }
            fn payload(frame: Frame) -> Option<Vec<Self>> {
                match frame {
                    Frame::$result { data, .. } => Some(data),
                    _ => None,
                }
            }
        }
    };
}

wire_element!(f64, u64, SubmitF64, ResultF64);
wire_element!(f32, u32, SubmitF32, ResultF32);

/// Appends a tensor: its `u32` element count, then every element.
fn put_tensor<T: WireElement>(out: &mut Vec<u8>, data: &[T]) {
    put_u32(out, u32::try_from(data.len()).expect("tensor fits u32"));
    for &v in data {
        v.put(out);
    }
}

/// Appends a Submit payload of either precision.
fn put_submit<T: WireElement>(
    out: &mut Vec<u8>,
    kind: u8,
    req: u64,
    func: u32,
    data: &[T],
    trace: Option<u64>,
) {
    out.push(kind);
    put_u64(out, req);
    put_u32(out, func);
    put_tensor(out, data);
    if let Some(id) = trace {
        put_u64(out, id);
    }
}

/// Appends a Result payload of either precision.
fn put_result<T: WireElement>(out: &mut Vec<u8>, kind: u8, req: u64, data: &[T]) {
    out.push(kind);
    put_u64(out, req);
    put_tensor(out, data);
}

/// Reads `count` elements.
fn get_tensor<T: WireElement>(c: &mut ByteCursor<'_>, count: usize) -> Option<Vec<T>> {
    let raw = c.bytes(count * T::WIDTH).ok()?;
    Some(raw.chunks_exact(T::WIDTH).map(T::get).collect())
}

/// Decodes a Submit body of either precision; `Err` holds the body
/// bytes the first missing field needed.
fn get_submit<T: WireElement>(c: &mut ByteCursor<'_>) -> Result<Frame, usize> {
    let (Ok(req), Ok(func), Ok(count)) = (c.u64(), c.u32(), c.u32()) else {
        return Err(16);
    };
    let body = 16 + count as usize * T::WIDTH;
    let data = get_tensor(c, count as usize).ok_or(body)?;
    // Version tolerance (the `Pong` tail pattern): a v1 peer's submit
    // body ends at the tensor; a tracing peer appends one u64 trace id.
    // A torn tail is still truncated, surplus bytes still a desync.
    let trace = match c.remaining() {
        0 => None,
        _ => Some(c.u64().map_err(|_| body + 8)?),
    };
    Ok(T::submit(req, func, data, trace))
}

/// Decodes a Result body of either precision; `Err` as for
/// [`get_submit`].
fn get_result<T: WireElement>(c: &mut ByteCursor<'_>) -> Result<Frame, usize> {
    let (Ok(req), Ok(count)) = (c.u64(), c.u32()) else {
        return Err(12);
    };
    let data = get_tensor(c, count as usize).ok_or(12 + count as usize * T::WIDTH)?;
    Ok(T::result(req, data))
}

impl Frame {
    /// Appends the length-prefixed encoding of `self` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the frame's payload would exceed [`MAX_PAYLOAD`] — the
    /// encoder's callers size tensors from real requests, which the
    /// serving bound already caps far below it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len_at = out.len();
        put_u32(out, 0); // patched below
        match self {
            Self::SubmitF64 {
                req,
                func,
                data,
                trace,
            } => put_submit(out, kind::SUBMIT_F64, *req, *func, data, *trace),
            Self::SubmitF32 {
                req,
                func,
                data,
                trace,
            } => put_submit(out, kind::SUBMIT_F32, *req, *func, data, *trace),
            Self::Ping { nonce } => {
                out.push(kind::PING);
                put_u64(out, *nonce);
            }
            Self::Drain => out.push(kind::DRAIN),
            Self::Ack { req } => {
                out.push(kind::ACK);
                put_u64(out, *req);
            }
            Self::ResultF64 { req, data } => put_result(out, kind::RESULT_F64, *req, data),
            Self::ResultF32 { req, data } => put_result(out, kind::RESULT_F32, *req, data),
            Self::Error { req, code, detail } => {
                out.push(kind::ERROR);
                put_u64(out, *req);
                out.push(*code as u8);
                put_u32(out, *detail);
            }
            Self::Pong {
                nonce,
                draining,
                queued_elems,
                inflight,
                queued_jobs,
                flushes,
                eval_p99_us,
            } => {
                out.push(kind::PONG);
                put_u64(out, *nonce);
                out.push(u8::from(*draining));
                put_u64(out, *queued_elems);
                put_u64(out, *inflight);
                put_u64(out, *queued_jobs);
                put_u64(out, *flushes);
                put_u64(out, *eval_p99_us);
            }
            Self::StatsRequest { nonce } => {
                out.push(kind::STATS_REQUEST);
                put_u64(out, *nonce);
            }
            Self::Stats { nonce, snapshot } => {
                out.push(kind::STATS);
                put_u64(out, *nonce);
                put_u32(
                    out,
                    u32::try_from(snapshot.len()).expect("snapshot fits u32"),
                );
                out.extend_from_slice(snapshot);
            }
        }
        let payload = u32::try_from(out.len() - len_at - HEADER_LEN).expect("payload fits u32");
        assert!(payload <= MAX_PAYLOAD, "frame exceeds MAX_PAYLOAD");
        out[len_at..len_at + HEADER_LEN].copy_from_slice(&payload.to_le_bytes());
    }

    /// The length-prefixed encoding of `self` as a fresh buffer.
    ///
    /// # Panics
    ///
    /// As [`Self::encode_into`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame's payload (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// A typed [`FrameError`] for every malformed input — short fields,
    /// element counts disagreeing with the byte count, unknown kinds,
    /// unassigned error codes. Never panics.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = ByteCursor::new(payload);
        let Ok(k) = c.u8() else {
            return Err(FrameError::EmptyPayload);
        };
        let truncated = |need: usize| FrameError::Truncated {
            kind: k,
            need: need + 1, // + the kind byte, so the message names payload bytes
            got: payload.len(),
        };
        let frame = match k {
            kind::SUBMIT_F64 => get_submit::<f64>(&mut c).map_err(truncated)?,
            kind::SUBMIT_F32 => get_submit::<f32>(&mut c).map_err(truncated)?,
            kind::PING => {
                let Ok(nonce) = c.u64() else {
                    return Err(truncated(8));
                };
                Self::Ping { nonce }
            }
            kind::DRAIN => Self::Drain,
            kind::ACK => {
                let Ok(req) = c.u64() else {
                    return Err(truncated(8));
                };
                Self::Ack { req }
            }
            kind::RESULT_F64 => get_result::<f64>(&mut c).map_err(truncated)?,
            kind::RESULT_F32 => get_result::<f32>(&mut c).map_err(truncated)?,
            kind::ERROR => {
                let (Ok(req), Ok(code), Ok(detail)) = (c.u64(), c.u8(), c.u32()) else {
                    return Err(truncated(13));
                };
                let code = ErrorCode::from_u8(code).ok_or(FrameError::BadErrorCode(code))?;
                Self::Error { req, code, detail }
            }
            kind::PONG => {
                let (Ok(nonce), Ok(draining), Ok(queued_elems), Ok(inflight)) =
                    (c.u64(), c.u8(), c.u64(), c.u64())
                else {
                    return Err(truncated(25));
                };
                // Version tolerance: a legacy peer's pong ends here; a
                // current peer appends the three telemetry u64s. Any
                // other length is still malformed (truncated tail here,
                // surplus bytes by the trailing check below).
                let (queued_jobs, flushes, eval_p99_us) = if c.remaining() == 0 {
                    (0, 0, 0)
                } else {
                    let (Ok(j), Ok(fl), Ok(p)) = (c.u64(), c.u64(), c.u64()) else {
                        return Err(truncated(49));
                    };
                    (j, fl, p)
                };
                Self::Pong {
                    nonce,
                    draining: draining != 0,
                    queued_elems,
                    inflight,
                    queued_jobs,
                    flushes,
                    eval_p99_us,
                }
            }
            kind::STATS_REQUEST => {
                let Ok(nonce) = c.u64() else {
                    return Err(truncated(8));
                };
                Self::StatsRequest { nonce }
            }
            kind::STATS => {
                let (Ok(nonce), Ok(len)) = (c.u64(), c.u32()) else {
                    return Err(truncated(12));
                };
                let Ok(snapshot) = c.bytes(len as usize) else {
                    return Err(truncated(12 + len as usize));
                };
                let snapshot = snapshot.to_vec();
                Self::Stats { nonce, snapshot }
            }
            other => return Err(FrameError::UnknownKind(other)),
        };
        if c.remaining() > 0 {
            return Err(FrameError::TrailingBytes {
                kind: k,
                extra: c.remaining(),
            });
        }
        Ok(frame)
    }
}

/// Incremental frame reassembly over an arbitrarily chunked byte stream.
///
/// Feed whatever the socket produced with [`FrameReader::feed`] and
/// drain complete frames with [`FrameReader::next_frame`] — the reader
/// is correct under any split of the stream, down to one byte at a time
/// (pinned by the codec property suite). A length prefix past
/// [`MAX_PAYLOAD`] fails immediately, before buffering the claimed
/// bytes; after any error the stream is desynced and the connection
/// should close.
///
/// # Examples
///
/// ```
/// use flexsfu_wire::{Frame, FrameReader};
///
/// let frame = Frame::Ack { req: 7 };
/// let bytes = frame.encode();
/// let mut reader = FrameReader::new();
/// // Feed the encoding in two arbitrary chunks.
/// reader.feed(&bytes[..3]);
/// assert!(reader.next_frame().unwrap().is_none()); // header incomplete
/// reader.feed(&bytes[3..]);
/// assert_eq!(reader.next_frame().unwrap(), Some(frame));
/// ```
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes for reassembly.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet drained as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame: `Ok(None)` while more bytes are
    /// needed, `Ok(Some(frame))` per completed frame (call in a loop —
    /// one `feed` can complete several).
    ///
    /// # Errors
    ///
    /// A typed [`FrameError`] on an oversized length prefix or a
    /// malformed payload; the stream is desynced afterwards and the
    /// connection should be closed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..HEADER_LEN].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len });
        }
        let total = HEADER_LEN + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = Frame::decode_payload(&self.buf[HEADER_LEN..total])?;
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::SubmitF64 {
                req: 1,
                func: 2,
                data: vec![0.5, -1.25, f64::NAN, f64::INFINITY],
                trace: None,
            },
            Frame::SubmitF64 {
                req: 8,
                func: 2,
                data: vec![2.5],
                trace: Some(4242),
            },
            Frame::SubmitF32 {
                req: u64::MAX,
                func: 0,
                data: vec![1.5f32, f32::NEG_INFINITY],
                trace: None,
            },
            Frame::SubmitF32 {
                req: 11,
                func: 1,
                data: vec![],
                trace: Some(u64::MAX),
            },
            Frame::Ping { nonce: 99 },
            Frame::Drain,
            Frame::Ack { req: 3 },
            Frame::ResultF64 {
                req: 1,
                data: vec![],
            },
            Frame::ResultF32 {
                req: 9,
                data: vec![-0.0f32],
            },
            Frame::Error {
                req: 4,
                code: ErrorCode::RetryAfter,
                detail: 250,
            },
            Frame::Pong {
                nonce: 99,
                draining: true,
                queued_elems: 1_000,
                inflight: 3,
                queued_jobs: 12,
                flushes: 77,
                eval_p99_us: 450,
            },
            Frame::StatsRequest { nonce: 41 },
            Frame::Stats {
                nonce: 41,
                snapshot: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
            Frame::Stats {
                nonce: 42,
                snapshot: vec![],
            },
        ]
    }

    /// Bitwise frame equality — `PartialEq` on floats would call NaN
    /// payloads unequal, and the codec's contract is bit-exactness.
    fn assert_frames_bitwise_eq(got: &Frame, want: &Frame) {
        match (got, want) {
            (
                Frame::SubmitF64 {
                    req: r1,
                    func: f1,
                    data: d1,
                    trace: t1,
                },
                Frame::SubmitF64 {
                    req: r2,
                    func: f2,
                    data: d2,
                    trace: t2,
                },
            ) => {
                assert_eq!((r1, f1, t1), (r2, f2, t2));
                assert_eq!(d1.len(), d2.len());
                assert!(d1.iter().zip(d2).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            (Frame::ResultF64 { req: r1, data: d1 }, Frame::ResultF64 { req: r2, data: d2 }) => {
                assert_eq!(r1, r2);
                assert!(d1.iter().zip(d2).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            _ => assert_eq!(got, want),
        }
    }

    #[test]
    fn every_kind_round_trips() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let mut r = FrameReader::new();
            r.feed(&bytes);
            let got = r.next_frame().unwrap().expect("complete frame");
            assert_frames_bitwise_eq(&got, &frame);
            assert_eq!(r.buffered(), 0);
            assert!(r.next_frame().unwrap().is_none());
        }
    }

    #[test]
    fn oversized_prefix_rejected_before_buffering() {
        let mut r = FrameReader::new();
        r.feed(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            r.next_frame(),
            Err(FrameError::Oversized {
                len: MAX_PAYLOAD + 1
            })
        );
        let mut r = FrameReader::new();
        r.feed(&u32::MAX.to_le_bytes());
        assert!(matches!(r.next_frame(), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn malformed_payloads_fail_typed() {
        assert_eq!(Frame::decode_payload(&[]), Err(FrameError::EmptyPayload));
        assert_eq!(
            Frame::decode_payload(&[0x77]),
            Err(FrameError::UnknownKind(0x77))
        );
        // Ack with a short req field.
        assert!(matches!(
            Frame::decode_payload(&[kind::ACK, 1, 2]),
            Err(FrameError::Truncated { .. })
        ));
        // Ack with trailing garbage.
        let mut p = vec![kind::ACK];
        p.extend_from_slice(&7u64.to_le_bytes());
        p.push(0xFF);
        assert_eq!(
            Frame::decode_payload(&p),
            Err(FrameError::TrailingBytes {
                kind: kind::ACK,
                extra: 1
            })
        );
        // Error frame with an unassigned code.
        let mut p = vec![kind::ERROR];
        p.extend_from_slice(&0u64.to_le_bytes());
        p.push(200);
        p.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Frame::decode_payload(&p),
            Err(FrameError::BadErrorCode(200))
        );
        // Submit whose element count outruns its bytes.
        let mut p = vec![kind::SUBMIT_F64];
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes());
        p.extend_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            Frame::decode_payload(&p),
            Err(FrameError::Truncated { .. })
        ));
        // Stats whose declared blob length outruns its bytes.
        let mut p = vec![kind::STATS];
        p.extend_from_slice(&7u64.to_le_bytes());
        p.extend_from_slice(&100u32.to_le_bytes());
        p.push(0);
        assert!(matches!(
            Frame::decode_payload(&p),
            Err(FrameError::Truncated { .. })
        ));
    }

    /// The pre-telemetry 25-byte pong body must keep decoding (tail
    /// fields read as zero), while partially-present tails stay typed
    /// errors — the version-tolerance contract.
    #[test]
    fn legacy_pong_body_decodes_with_zero_tail() {
        let mut legacy = vec![kind::PONG];
        legacy.extend_from_slice(&9u64.to_le_bytes());
        legacy.push(1);
        legacy.extend_from_slice(&500u64.to_le_bytes());
        legacy.extend_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            Frame::decode_payload(&legacy),
            Ok(Frame::Pong {
                nonce: 9,
                draining: true,
                queued_elems: 500,
                inflight: 2,
                queued_jobs: 0,
                flushes: 0,
                eval_p99_us: 0,
            })
        );
        // A torn telemetry tail is truncated, not silently zeroed.
        let mut torn = legacy.clone();
        torn.extend_from_slice(&3u64.to_le_bytes());
        assert!(matches!(
            Frame::decode_payload(&torn),
            Err(FrameError::Truncated { .. })
        ));
        // Surplus bytes past the full tail are still a desync.
        let full = Frame::Pong {
            nonce: 9,
            draining: true,
            queued_elems: 500,
            inflight: 2,
            queued_jobs: 3,
            flushes: 4,
            eval_p99_us: 5,
        }
        .encode();
        let mut surplus = full[HEADER_LEN..].to_vec();
        surplus.push(0xFF);
        assert!(matches!(
            Frame::decode_payload(&surplus),
            Err(FrameError::TrailingBytes { .. })
        ));
    }

    /// Mixed v1/v2 `Submit` interop, both directions.
    ///
    /// Old client → new server: a hand-built legacy body (no trace
    /// tail) decodes cleanly with `trace: None`. New client → old
    /// server: an *untraced* v2 submit encodes byte-identically to the
    /// v1 layout, so a v1 decoder (for which the tensor must consume
    /// the whole body) accepts it unchanged — no trace id, no error.
    #[test]
    fn submit_v1_v2_interop_decodes_cleanly() {
        // v1 body, by hand: req ‖ func ‖ count ‖ payload, no tail.
        for (k, elems) in [(kind::SUBMIT_F64, 8), (kind::SUBMIT_F32, 4)] {
            let mut legacy = vec![k];
            legacy.extend_from_slice(&21u64.to_le_bytes());
            legacy.extend_from_slice(&3u32.to_le_bytes());
            legacy.extend_from_slice(&2u32.to_le_bytes());
            legacy.extend_from_slice(&vec![0u8; 2 * elems]);
            match Frame::decode_payload(&legacy).expect("legacy submit decodes") {
                Frame::SubmitF64 {
                    req, func, trace, ..
                }
                | Frame::SubmitF32 {
                    req, func, trace, ..
                } => {
                    assert_eq!((req, func), (21, 3));
                    assert_eq!(trace, None, "v1 body must not invent a trace id");
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
        // An untraced v2 submit is byte-identical to the v1 encoding —
        // the exact property that lets a v1 server accept it.
        let v2_untraced = Frame::SubmitF64 {
            req: 21,
            func: 3,
            data: vec![1.0, 2.0],
            trace: None,
        }
        .encode();
        let mut v1 = vec![kind::SUBMIT_F64];
        v1.extend_from_slice(&21u64.to_le_bytes());
        v1.extend_from_slice(&3u32.to_le_bytes());
        v1.extend_from_slice(&2u32.to_le_bytes());
        v1.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        v1.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert_eq!(&v2_untraced[HEADER_LEN..], &v1[..]);

        // A torn trace tail is a typed truncation, not a silent None…
        let mut torn = v1.clone();
        torn.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        assert!(matches!(
            Frame::decode_payload(&torn),
            Err(FrameError::Truncated { .. })
        ));
        // …and surplus past a full tail is still a desync.
        let mut surplus = v1.clone();
        surplus.extend_from_slice(&7u64.to_le_bytes());
        surplus.push(0xFF);
        assert!(matches!(
            Frame::decode_payload(&surplus),
            Err(FrameError::TrailingBytes { .. })
        ));
    }

    /// `Frame::Stats` under torn/truncated delivery: every prefix of
    /// the encoding is either "need more bytes" at the reader layer or
    /// a typed truncation at the payload layer — never a panic, never
    /// a partial frame.
    #[test]
    fn stats_frame_survives_torn_delivery() {
        let frame = Frame::Stats {
            nonce: 77,
            snapshot: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
        };
        let bytes = frame.encode();
        // Reader: any torn prefix just waits for more bytes.
        for cut in 0..bytes.len() {
            let mut r = FrameReader::new();
            r.feed(&bytes[..cut]);
            assert_eq!(r.next_frame(), Ok(None), "cut {cut}");
            r.feed(&bytes[cut..]);
            assert_eq!(r.next_frame(), Ok(Some(frame.clone())), "resume {cut}");
        }
        // Payload decoder: every truncation point is a typed error.
        let payload = &bytes[HEADER_LEN..];
        for cut in 1..payload.len() {
            assert!(
                matches!(
                    Frame::decode_payload(&payload[..cut]),
                    Err(FrameError::Truncated { .. })
                ),
                "cut {cut}"
            );
        }
        // A blob length claiming more than the body delivers is torn…
        let mut short = vec![kind::STATS];
        short.extend_from_slice(&77u64.to_le_bytes());
        short.extend_from_slice(&9u32.to_le_bytes());
        short.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            Frame::decode_payload(&short),
            Err(FrameError::Truncated { .. })
        ));
        // …and bytes past the declared blob are trailing.
        let mut long = bytes[HEADER_LEN..].to_vec();
        long.push(0);
        assert_eq!(
            Frame::decode_payload(&long),
            Err(FrameError::TrailingBytes {
                kind: kind::STATS,
                extra: 1
            })
        );
    }

    /// Lowercase hex of `bytes`, for golden comparisons that print
    /// readably when they fail.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of every frame kind, both precisions, with and
    /// without the trace tail, and the float edge cases (a NaN with a
    /// payload, −0.0, ±∞) that a byte-level codec change would silently
    /// reorder or canonicalize. Decoding each golden and re-encoding it
    /// must reproduce it byte for byte.
    #[test]
    fn golden_bytes_of_every_frame_kind() {
        let nan64 = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan32 = f32::from_bits(0x7fc0_0001);
        let goldens: Vec<(Frame, &str)> = vec![
            (
                Frame::SubmitF64 {
                    req: 0x0102_0304_0506_0708,
                    func: 7,
                    data: vec![1.0, -2.5],
                    trace: None,
                },
                "210000000108070605040302010700000002000000000000000000f03f00000000000004c0",
            ),
            (
                Frame::SubmitF64 {
                    req: 1,
                    func: 0xA0B0_C0D0,
                    data: vec![0.5],
                    trace: Some(0x1122_3344_5566_7788),
                },
                "21000000010100000000000000d0c0b0a001000000000000000000e03f8877665544332211",
            ),
            (
                Frame::SubmitF32 {
                    req: 2,
                    func: 3,
                    data: vec![1.0, -2.5],
                    trace: None,
                },
                "1900000002020000000000000003000000020000000000803f000020c0",
            ),
            (
                Frame::SubmitF32 {
                    req: 3,
                    func: 4,
                    data: vec![0.5],
                    trace: Some(u64::MAX),
                },
                "1d00000002030000000000000004000000010000000000003fffffffffffffffff",
            ),
            (
                Frame::ResultF64 {
                    req: 5,
                    data: vec![nan64, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5],
                },
                "3500000082050000000000000005000000010000000000f87f0000000000000080000000000000f07f000000000000f0ff000000000000f83f",
            ),
            (
                Frame::ResultF32 {
                    req: 6,
                    data: vec![nan32, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5],
                },
                "21000000830600000000000000050000000100c07f000000800000807f000080ff0000c03f",
            ),
            (Frame::Ping { nonce: 0xFEED }, "0900000003edfe000000000000"),
            (Frame::Drain, "0100000004"),
            (Frame::Ack { req: 9 }, "09000000810900000000000000"),
            (
                Frame::Error {
                    req: 10,
                    code: ErrorCode::RetryAfter,
                    detail: 500,
                },
                "0e000000840a0000000000000003f4010000",
            ),
            (
                Frame::Pong {
                    nonce: 11,
                    draining: true,
                    queued_elems: 12,
                    inflight: 13,
                    queued_jobs: 14,
                    flushes: 15,
                    eval_p99_us: 16,
                },
                "32000000850b00000000000000010c000000000000000d000000000000000e000000000000000f000000000000001000000000000000",
            ),
            (Frame::StatsRequest { nonce: 17 }, "09000000051100000000000000"),
            (
                Frame::Stats {
                    nonce: 18,
                    snapshot: vec![0xDE, 0xAD, 0xBE, 0xEF],
                },
                "1100000086120000000000000004000000deadbeef",
            ),
        ];
        for (frame, want) in &goldens {
            let bytes = frame.encode();
            assert_eq!(hex(&bytes), *want, "{frame:?}");
            let decoded = Frame::decode_payload(&bytes[HEADER_LEN..]).expect("golden decodes");
            assert_eq!(hex(&decoded.encode()), *want, "re-encoded {frame:?}");
        }
    }
}
