//! # flexsfu
//!
//! A from-scratch Rust reproduction of **Flex-SFU** ("Accelerating DNN
//! Activation Functions by Non-Uniform Piecewise Approximation", DAC
//! 2023): a non-uniform piecewise-linear (PWL) approximation pipeline for
//! DNN activation functions, plus a cycle-level model of the hardware
//! special-function unit that executes those approximations inside a
//! vector processor.
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`funcs`] — reference activation functions with asymptote metadata,
//! * [`formats`] — fixed-point / minifloat codecs, comparison keys, SIMD
//!   packing,
//! * [`core`] — the [`core::PwlFunction`] representation, losses,
//!   boundary conditions, coefficient tables, and the **compiled
//!   batch-evaluation engine** ([`core::CompiledPwl`] /
//!   [`core::PwlEvaluator`] / [`core::ParallelPwl`]) that every hot path
//!   — optimizer loss grids, NN tensor substitution, SFU programming —
//!   routes through,
//! * [`optim`] — the Adam + removal/insertion breakpoint optimizer and
//!   the baselines it is compared against (loss and gradient sampling go
//!   through the batch engine),
//! * [`hw`] — the ADU/LTC/pipeline hardware model with calibrated 28 nm
//!   area/power; programmable straight from a [`core::CompiledPwl`],
//! * [`backend`] — pluggable evaluation backends over the engine: the
//!   native SIMD kernels and a bit-faithful fixed-point SFU emulator
//!   returning per-flush cycle/energy estimates; the serving layer
//!   routes each function's flushes to its bound backend,
//! * [`nn`] — the small DNN substrate for end-to-end accuracy
//!   experiments; activation substitution batch-evaluates whole tensors,
//! * [`serve`] — the request-batched serving front-end: concurrent
//!   clients submit `(function, tensor)` jobs, the free worker coalesces
//!   them into engine-scale flushes and evaluates them, and recompiled tables hot-swap without
//!   stopping traffic,
//! * [`wire`] — the std-only TCP serving tier: a hand-rolled
//!   length-prefixed binary frame protocol carrying f64/f32 jobs
//!   bit-exactly, a multiplexing server/client pair with out-of-order
//!   responses, and backpressure surfaced as typed `RetryAfter` hints,
//! * [`shard`] — sharded deployment over the wire tier: hash routing
//!   with overrides, wire-level health checks, and draining handoff
//!   that loses no accepted job,
//! * [`obs`] — the observability core threaded through every serving
//!   layer: a sharded-atomic metrics registry with log-scale latency
//!   histograms, sampled request-lifecycle spans on a swappable clock,
//!   and mergeable snapshots with a versioned binary codec and a
//!   Prometheus text rendering, scraped in one call from a whole
//!   sharded deployment,
//! * [`tune`] — the design-space exploration and auto-binding tuner:
//!   sweep segments × formats × backends under a budget, compute the
//!   Pareto frontier, and bind the winner into the serving registry in
//!   one call,
//! * [`traffic`] — trace-driven workload simulation and online adaptive
//!   retuning: seeded arrival processes on a virtual clock, per-function
//!   input samplers drawn from observed activation statistics, a binary
//!   trace codec for bit-exact record/replay, and a drift detector +
//!   background retuner that re-tunes with histogram-weighted error and
//!   hot-swaps the winner mid-traffic,
//! * [`zoo`] — the synthetic 778-model benchmark suite,
//! * [`perf`] — the Ascend-like end-to-end performance model.
//!
//! # Quickstart
//!
//! ```no_run
//! use flexsfu::optim::{optimize, OptimizeConfig};
//! use flexsfu::funcs::Gelu;
//!
//! // Fit a 16-breakpoint non-uniform PWL approximation of GELU.
//! let result = optimize(&Gelu, OptimizeConfig::new(16));
//! println!("MSE = {:.3e}", result.report.mse);
//!
//! // Compile it once and batch-evaluate tensors through the engine
//! // (bit-identical to scalar eval, minus a search and a division per
//! // element).
//! use flexsfu::core::PwlEvaluator;
//! let engine = result.pwl.compile();
//! let ys = engine.eval_batch(&[0.5, -1.25, 3.0]);
//!
//! // Lower the same compiled function onto the hardware model in FP16.
//! use flexsfu::formats::{DataFormat, FloatFormat};
//! use flexsfu::hw::{FlexSfu, FlexSfuConfig};
//! let mut sfu = FlexSfu::new(FlexSfuConfig::new(32, 1));
//! sfu.program_compiled(&engine, DataFormat::Float(FloatFormat::FP16)).unwrap();
//! let run = sfu.execute(&[0.5, -1.25, 3.0]);
//! println!("outputs {:?} in {} cycles", run.outputs, run.timing.total());
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the binaries regenerating every table and
//! figure of the paper.

pub use flexsfu_backend as backend;
pub use flexsfu_core as core;
pub use flexsfu_formats as formats;
pub use flexsfu_funcs as funcs;
pub use flexsfu_hw as hw;
pub use flexsfu_nn as nn;
pub use flexsfu_obs as obs;
pub use flexsfu_optim as optim;
pub use flexsfu_perf as perf;
pub use flexsfu_serve as serve;
pub use flexsfu_shard as shard;
pub use flexsfu_traffic as traffic;
pub use flexsfu_tune as tune;
pub use flexsfu_wire as wire;
pub use flexsfu_zoo as zoo;
