//! # flexsfu-serve
//!
//! A request-batched serving front-end over the compiled PWL evaluation
//! engine — the software layer that keeps the paper's special-function
//! unit saturated under many small concurrent requests.
//!
//! A request-at-a-time design evaluates each caller's tensor alone, and
//! small tensors cannot fill the SIMD lane kernels
//! ([`flexsfu_core::CompiledPwl`] measures ~4.5× the scalar path only at
//! batch scale). This crate instead lets any number of clients submit
//! `(function, tensor)` jobs to a [`ServeHandle`]; a batcher thread
//! coalesces everything pending into **one contiguous buffer per
//! function** — flushing whenever a worker is free, or on a size
//! threshold — a worker pool evaluates each buffer through the engine's
//! slice-scatter entry point ([`flexsfu_core::CompiledPwl::eval_scatter_into`]), and
//! every job's result slice travels back over its own oneshot channel.
//! Results are **bit-identical** to evaluating each tensor directly with
//! the engine ([`flexsfu_core::PwlEvaluator::eval_batch`]).
//!
//! The workspace is offline and std-only, so the executor is
//! hand-rolled: worker threads, `Mutex`/`Condvar` queues, and a minimal
//! [`oneshot`] channel whose receiver doubles as a `Future` — tickets
//! can be `.await`ed from any executor or blocked on with
//! [`JobTicket::wait`].
//!
//! Guarantees:
//!
//! * **Backpressure** — the submission queue is bounded in elements;
//!   [`ServeHandle::submit`] blocks while full,
//!   [`ServeHandle::try_submit`] returns [`ServeError::QueueFull`].
//! * **Graceful shutdown** — [`PwlServer::shutdown`] (or drop) stops
//!   admissions, drains every accepted job, and joins all threads.
//! * **Hot swap** — [`FunctionRegistry::publish`] atomically replaces a
//!   function's compiled table while traffic flows; each flush snapshots
//!   its engine, so a flush never mixes coefficient tables.
//! * **Per-backend dispatch** — every registered function carries a
//!   backend binding ([`flexsfu_backend::EvalBackend`]): the native
//!   SIMD kernels by default, or e.g. the bit-faithful Flex-SFU
//!   emulator via [`FunctionRegistry::register_with_backend`]. Flush
//!   units are per-function, so a flush never mixes backends either,
//!   and each flush's modelled cycle/energy cost accumulates into
//!   [`FunctionRegistry::backend_stats`].
//! * **Work-conserving, per-function flush policies** —
//!   [`FunctionRegistry::set_policy`] gives a function its own
//!   [`FlushPolicy`] (size threshold + deadline); due functions flush
//!   alone, so tight-deadline functions are not held back by
//!   throughput-oriented ones. A zero deadline (the [`ServeConfig`]
//!   default) means "flush when a worker is free"; a nonzero one holds
//!   jobs to coalesce them. A deadline-due flush waits for a free
//!   worker while its jobs keep coalescing; size, queue-pressure and
//!   shutdown flushes go out regardless.
//! * **Drain and load hooks for the wire tier** —
//!   [`PwlServer::begin_drain`] stops admissions without blocking (the
//!   sharded deployment tier's handoff primitive — accepted jobs still
//!   complete), and [`ServeHandle::queue_depth`] reads the pending
//!   job/element counts a shard reports in health-check pongs. The
//!   [`testkit`] additionally offers deterministic fault injection
//!   ([`testkit::Faults`]: forced `QueueFull`, dropped replies, delayed
//!   flushes) via [`PwlServer::start_with_faults`], so protocol suites
//!   drive retry and backpressure paths instead of racing for them.
//! * **Streaming input histograms** — every function accumulates a
//!   fixed-bucket histogram of the raw inputs its flushes evaluate
//!   (both precisions), alongside its backend stats. Read it cumulative
//!   ([`FunctionRegistry::input_histogram`]) or windowed
//!   ([`FunctionRegistry::drain_input_histogram`], snapshot-and-reset);
//!   the bucket range is pinned at registration to the table's
//!   breakpoint span and survives publishes, so an adaptive retuner can
//!   compare live traffic against its tuning-time snapshot across
//!   hot-swaps (see the `flexsfu-traffic` crate's drift detector).
//! * **A single-precision job lane** — [`ServeHandle::submit_f32`]
//!   serves `Vec<f32>` tensors end to end in f32: the packed flush
//!   buffer, the backend's f32 program
//!   ([`flexsfu_backend::BackendProgram<f32>`], the eight-wide f32
//!   kernels on the native backend) and the scattered results never
//!   touch f64, and the scatter-back is bit-identical to evaluating
//!   the tensor directly with [`FunctionRegistry::engine_f32`]. Both
//!   precisions share a function's queue accounting and flush policy,
//!   but a flush unit never mixes precisions. Backends without an f32
//!   lane reject f32 jobs at admission with
//!   [`ServeError::PrecisionUnsupported`].
//!
//! # Example
//!
//! ```
//! use flexsfu_core::init::uniform_pwl;
//! use flexsfu_core::PwlEvaluator;
//! use flexsfu_funcs::Gelu;
//! use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(FunctionRegistry::new());
//! let gelu = registry.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
//! let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
//! let handle = server.handle();
//!
//! let ticket = handle.submit(gelu, vec![-1.0, 0.0, 2.0])?;
//! let ys = ticket.wait()?;
//! assert_eq!(ys.len(), 3);
//!
//! // Bit-identical to evaluating directly through the engine.
//! let direct = registry.engine(gelu).unwrap().engine().eval_batch(&[-1.0, 0.0, 2.0]);
//! assert!(ys.iter().zip(&direct).all(|(a, b)| a.to_bits() == b.to_bits()));
//! server.shutdown();
//! # Ok::<(), flexsfu_serve::ServeError>(())
//! ```
//!
//! A fuller tour — multiple clients, throughput measurement, and a
//! mid-traffic hot swap — lives in `examples/serving.rs`
//! (`cargo run --release --example serving`), whose output looks like:
//!
//! ```text
//! serving 2 functions to 8 concurrent clients (request = 96 elems)
//!   batched  : 1600 requests in 59.7 ms  (2.6 Melem/s), all bit-identical
//!   hot swap : optimized gelu table published mid-traffic (217 requests served meanwhile); MSE 6.3e-4 -> 3.6e-6
//!   cutover  : post-publish responses match the optimized table exactly
//!   shutdown : drained cleanly
//! ```
//!
//! (Numbers vary by machine; bit-identity and the clean drain do not.)

mod error;
pub mod histogram;
pub mod obs;
pub mod oneshot;
pub mod plan;
mod registry;
mod server;
pub mod testkit;

pub use error::ServeError;
pub use histogram::{InputHistogramSnapshot, INPUT_HIST_BUCKETS};
pub use obs::ServeObs;
pub use plan::{FlushPlan, GroupPlan, JobSpan};
pub use registry::{BackendStatsSnapshot, FunctionId, FunctionRegistry};
pub use server::{
    FlushPolicy, JobTicket, JobTicketF32, PwlServer, QueueDepth, ServeConfig, ServeHandle,
};
