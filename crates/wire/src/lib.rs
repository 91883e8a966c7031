//! # flexsfu-wire
//!
//! A std-only wire protocol and TCP serving tier over
//! [`flexsfu_serve`] — the layer that lets the batched PWL serving
//! engine sit behind a socket instead of an `Arc`.
//!
//! Like the rest of the workspace, everything is hand-rolled on the
//! standard library: no async runtime, no serialization crate, no
//! protocol framework. The protocol is a length-prefixed binary
//! framing ([`Frame`]), chosen over anything textual because the
//! serving stack's headline guarantee is **bit-identity** — floats
//! travel as IEEE-754 bit patterns, so a tensor served over TCP equals
//! a tensor served in-process, bit for bit, NaN payloads included.
//!
//! The pieces:
//!
//! * [`Frame`] / [`FrameReader`] — the codec: total (never panics on
//!   input bytes), allocation-bounded ([`MAX_PAYLOAD`] is rejected
//!   before buffering), and incremental (frames reassemble identically
//!   from any byte-level chunking of the stream). Both precisions'
//!   Submit/Result bodies go through one generic element codec, which
//!   the sealed [`WireElement`] (`f64` or `f32`) supplies, and decoding
//!   reads through the shared [`flexsfu_obs::ByteCursor`].
//! * [`WireServer`] — a TCP front-end over a
//!   [`flexsfu_serve::ServeHandle`]: per-connection multiplexing with
//!   out-of-order responses, admission through the non-blocking submit
//!   path so a full queue answers a typed
//!   [`WireError::RetryAfter`] hint instead of stalling the socket,
//!   health pings, and a draining mode for handoff.
//! * The connection core under both listeners: one acceptor that gives
//!   each connection its own thread and joins finished threads while it
//!   runs (so churn never accumulates handles or stacks, and a failed
//!   spawn drops one stream instead of the listener), and one frame-read
//!   loop that answers malformed bytes with a protocol error, hands
//!   every decoded frame to the listener's handler, and writes the
//!   replies of one socket read with one write.
//! * [`WireClient`] — the matching client: the generic
//!   [`WireClient::submit`] returns a [`WireTicket`] in the submitted
//!   precision immediately, a reader thread completes tickets as
//!   responses arrive, and the server's **ack** is observable
//!   separately ([`WireTicket::was_acked`]) — the accepted/not-accepted
//!   boundary the sharded tier's zero-loss failover is built on.
//! * [`WireError`] — every failure as a typed value, with
//!   [`WireError::is_retryable`] as the failover predicate.
//! * [`obs`] — the wire tier's telemetry names and its
//!   [`flexsfu_obs`] wiring: frame/byte/write/error counters, the
//!   ack-to-result latency histogram, `Frame::Stats` carrying a whole
//!   metrics snapshot over the wire, and the extended `Pong` health
//!   tail (queue depth, flushes, eval p99) that older peers simply
//!   don't decode.
//! * [`telemetry`] — the push pipeline's transport: a [`WireSink`]
//!   shipping exporter batches as acknowledged `Stats` frames and the
//!   [`TelemetryCollector`] — a `Stats` handler on the same connection
//!   core — that merges per-origin snapshots and spans on the other end.
//!
//! The sharded deployment layer (hash routing, health checks, draining
//! handoff) lives one crate up in `flexsfu-shard`; this crate is the
//! single-server transport it composes.
//!
//! # Example
//!
//! ```
//! use flexsfu_core::init::uniform_pwl;
//! use flexsfu_funcs::Gelu;
//! use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig};
//! use flexsfu_wire::{WireClient, WireConfig, WireServer};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(FunctionRegistry::new());
//! let gelu = registry.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
//! let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
//!
//! let wire = WireServer::start_local(server.handle(), WireConfig::default())?;
//! let client = WireClient::connect(wire.local_addr())?;
//!
//! // The element type picks the lane: f64 here, `Vec<f32>` for f32.
//! let ticket = client.submit(gelu.0, vec![-1.0_f64, 0.0, 2.0])?;
//! let ys = ticket.wait()?;
//! assert_eq!(ys.len(), 3);
//!
//! // Bit-identical to in-process serving (and to direct evaluation).
//! use flexsfu_core::PwlEvaluator;
//! let direct = registry.engine(gelu).unwrap().engine().eval_batch(&[-1.0, 0.0, 2.0]);
//! assert!(ys.iter().zip(&direct).all(|(a, b)| a.to_bits() == b.to_bits()));
//!
//! drop(client);
//! wire.shutdown();
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod client;
mod conn;
mod error;
pub mod frame;
pub mod obs;
mod server;
pub mod telemetry;

pub use client::{AckProbe, Health, WireClient, WireTicket, WireTicketF32};
pub use error::WireError;
pub use frame::{Frame, FrameError, FrameReader, WireElement, MAX_PAYLOAD};
pub use server::{WireConfig, WireServer};
pub use telemetry::{TelemetryCollector, WireSink};
