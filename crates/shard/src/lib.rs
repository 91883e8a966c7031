//! # flexsfu-shard
//!
//! Sharded deployment of the wire serving tier: a [`ShardRouter`]
//! spreads functions across N in-process [`flexsfu_wire::WireServer`]
//! stacks, health-checks them over the wire itself, and hands traffic
//! off a draining shard without losing a single accepted job.
//! Requests go through one generic [`ShardRouter::eval`], in either
//! precision of [`flexsfu_wire::WireElement`] (`f64` or `f32`).
//!
//! Routing is `hash(function id) % shards` with an explicit override
//! map for pinning; an unhealthy preferred shard fails over to the next
//! healthy index. Every shard runs the same registration closure, so
//! function ids agree everywhere and failover never re-maps ids.
//! Rejections that would repeat on any shard (unknown function,
//! unsupported precision) return immediately as
//! [`RouterError::Rejected`]; pressure and liveness failures retry
//! within a budget, honoring the server's `RetryAfter` hints.
//!
//! The handoff protocol ([`ShardRouter::drain_shard`] then
//! [`ShardRouter::stop_shard`]) leans on the wire tier's accepted-job
//! guarantee: a draining server refuses new submits with a typed error
//! (the router re-routes them) while answering everything it already
//! acked; the drain call waits for the shard's in-flight gauge to reach
//! zero before declaring it safe to stop.
//!
//! With [`RouterConfig::observability`] on, the router also originates
//! distributed traces: a sampled trace id
//! ([`RouterConfig::trace_sample`]) rides each Submit frame, the
//! serving shard adopts it, and [`ShardRouter::assemble_traces`] joins
//! the router's `RouteSelect`/`Retry`/`WireSubmit` stamps with the
//! shard's queue/backend/wire stamps into one
//! [`flexsfu_obs::AssembledTrace`] waterfall per request. A shared
//! [`RouterConfig::clock`] makes the cross-process ordering provable in
//! tests.
//!
//! # Example
//!
//! ```
//! use flexsfu_core::init::uniform_pwl;
//! use flexsfu_funcs::{Gelu, Tanh};
//! use flexsfu_shard::{RouterConfig, ShardRouter};
//! use flexsfu_serve::FunctionId;
//! use std::time::Duration;
//!
//! let router = ShardRouter::deploy(2, RouterConfig::default(), |registry| {
//!     registry.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
//!     registry.register("tanh", &uniform_pwl(&Tanh, 16, (-6.0, 6.0)));
//! })?;
//!
//! let gelu = FunctionId(0);
//! let ys = router.eval(gelu, &[-1.0, 0.0, 2.0])?;
//! assert_eq!(ys.len(), 3);
//!
//! // Drain one shard; traffic keeps flowing on the other.
//! let idx = router.route(gelu)?;
//! assert!(router.drain_shard(idx, Duration::from_secs(5))?);
//! router.stop_shard(idx)?;
//! let ys2 = router.eval(gelu, &[-1.0, 0.0, 2.0])?;
//! assert_eq!(ys.len(), ys2.len());
//! router.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;
mod router;

pub use error::RouterError;
pub use router::{
    RouterConfig, ShardRouter, ShardState, M_FAILOVERS, M_HEALTH_TRANSITIONS, M_RETRIES,
};
