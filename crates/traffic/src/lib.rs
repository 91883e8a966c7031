//! # flexsfu-traffic
//!
//! Trace-driven workload simulation and online adaptive retuning for
//! the serving tier — the closed loop the static tuner
//! (`flexsfu-tune`) was missing: tables are tuned for a distribution,
//! live traffic drifts, and someone has to notice and re-tune without
//! stopping the server.
//!
//! ## The simulator
//!
//! A [`WorkloadSpec`] declares a workload: a seeded
//! [arrival process](arrival::ArrivalProcess) (Poisson steady state,
//! heavy-tailed on/off bursts, or a diurnal ramp) on a virtual timeline
//! ([`u64` nanoseconds](clock::VirtualNs)), a traffic mix of functions
//! each with its own [input sampler](sampler::InputSampler) — shifted
//! softmax logits, log-normal rsqrt variances, Gaussian GELU
//! pre-activations, or an empirical histogram inverted by CDF — and
//! optional mid-run [distribution shifts](sim::SamplerShift).
//! [`sim::simulate`] turns the spec into a [`trace::Trace`] — a pure
//! function of the seed, reproducible bit for bit — and
//! [`trace::Trace::encode`]/[`decode`](trace::Trace::decode) give it a
//! compact binary form whose decoder rejects every malformed input with
//! a typed [`trace::TraceError`], never a panic.
//!
//! ## The adaptive loop
//!
//! The serving registry streams every evaluated payload into
//! per-function input histograms
//! ([`flexsfu_serve::FunctionRegistry::drain_input_histogram`]). The
//! [`drift::DriftDetector`] scores a live window against the
//! tuning-time reference with a population-stability-style score under
//! a typed [`drift::DriftThreshold`]; on drift, the
//! [`retune::AdaptiveRetuner`] re-runs the tuner with error weighted
//! by the observed histogram ([`flexsfu_tune::tune_named_weighted`])
//! and publishes the winner through the registry's race-pinned hot
//! swap — zero lost jobs, and the whole decision sequence is steppable
//! ([`retune::AdaptiveRetuner::poll`]) and hence replayable from a
//! recorded trace.
//!
//! # Example
//!
//! ```
//! use flexsfu_traffic::arrival::ArrivalProcess;
//! use flexsfu_traffic::sampler::InputSampler;
//! use flexsfu_traffic::sim::{simulate, FunctionLoad, WorkloadSpec};
//! use flexsfu_traffic::trace::Trace;
//!
//! let spec = WorkloadSpec {
//!     seed: 42,
//!     arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
//!     functions: vec![FunctionLoad {
//!         name: "gelu".into(),
//!         weight: 1.0,
//!         elems: (8, 64),
//!         sampler: InputSampler::Gaussian { mean: 0.0, std: 2.0, clamp: (-8.0, 8.0) },
//!     }],
//!     shifts: vec![],
//! };
//! let trace = simulate(&spec, 1_000_000, 1_000);
//! // Record → replay is bitwise identity.
//! assert_eq!(Trace::decode(&trace.encode()).unwrap(), trace);
//! // Same seed, same trace.
//! assert_eq!(simulate(&spec, 1_000_000, 1_000), trace);
//! ```

pub mod arrival;
pub mod clock;
pub mod drift;
pub mod retune;
pub mod sampler;
pub mod sim;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use drift::{population_stability, DriftDetector, DriftThreshold, DriftVerdict};
pub use retune::{
    AdaptiveRetuner, RetuneError, RetuneEvent, RetunePolicy, RetunerHandle, M_DRIFT_SCORE,
    M_RETUNES, M_RETUNE_FAILURES,
};
pub use sampler::InputSampler;
pub use sim::{replay_rounds, simulate, FunctionLoad, ReplayReport, SamplerShift, WorkloadSpec};
pub use trace::{Trace, TraceError, TraceEvent};
