//! Serving-tier observability: the metric names this crate emits and
//! the pre-resolved handle bundle the workers record through.
//!
//! A server started with [`crate::PwlServer::start_with_obs`] counts
//! submissions, tracks queue depth, classifies every flush by its
//! trigger, and times per-function queue wait and backend evaluation —
//! all through handles resolved **once** here, so the hot path never
//! locks the metrics registry or allocates. Sampled jobs additionally
//! carry a [`flexsfu_obs::SpanCell`] stamped at each
//! [`flexsfu_obs::Stage`] as the job moves through the pipeline.

use crate::registry::{FunctionId, FunctionRegistry};
use flexsfu_obs::{
    labeled, Counter, Gauge, LogHistogram, MetricsRegistry, MonotonicClock, SampleRate,
    SpanRecorder,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Jobs accepted into the queue (counter).
pub const M_SUBMITS: &str = "flexsfu_serve_submits_total";
/// Jobs currently queued (gauge).
pub const M_QUEUE_JOBS: &str = "flexsfu_serve_queue_jobs";
/// Elements currently queued (gauge) — what the backpressure bound meters.
pub const M_QUEUE_ELEMS: &str = "flexsfu_serve_queue_elems";
/// Per-function flush triggers, labelled `reason="size"|"deadline"|"pressure"|"shutdown"` (counter).
pub const M_FLUSHES: &str = "flexsfu_serve_flushes_total";
/// Flush units handed to the worker pool (counter).
pub const M_FLUSH_UNITS: &str = "flexsfu_serve_flush_units_total";
/// Elements per flush unit (histogram).
pub const M_FLUSH_ELEMS: &str = "flexsfu_serve_flush_elems";
/// Enqueue → flush-plan wait, labelled `function` (histogram, ns).
pub const M_QUEUE_WAIT_NS: &str = "flexsfu_serve_queue_wait_ns";
/// Backend evaluation time per flush unit, unlabelled for the global
/// view plus one labelled `function` series each (histogram, ns).
pub const M_EVAL_NS: &str = "flexsfu_serve_eval_ns";
/// Modelled backend cycles across all flushes (counter).
pub const M_BACKEND_CYCLES: &str = "flexsfu_backend_cycles_total";
/// Modelled backend energy, rounded to whole nanojoules (counter).
pub const M_BACKEND_ENERGY_NJ: &str = "flexsfu_backend_energy_nj_total";
/// Elements evaluated across all flushes (counter).
pub const M_BACKEND_ELEMS: &str = "flexsfu_backend_elems_total";

/// The observability bundle a server is started with: where metrics
/// land and how jobs are traced.
#[derive(Debug, Clone)]
pub struct ServeObs {
    /// Registry all serve/backend metrics resolve against.
    pub metrics: Arc<MetricsRegistry>,
    /// Sampled span ring; its clock stamps every stage.
    pub spans: Arc<SpanRecorder>,
}

impl ServeObs {
    /// Bundles an explicit recorder (use a
    /// [`flexsfu_obs::ManualClock`]-backed one for deterministic
    /// replays). The recorder's clock is also the server's policy time:
    /// on a manual clock, a nonzero flush deadline expires only when the
    /// clock is advanced (see [`crate::FlushPolicy::deadline`]).
    pub fn new(metrics: Arc<MetricsRegistry>, spans: Arc<SpanRecorder>) -> Self {
        Self { metrics, spans }
    }

    /// Production defaults: monotonic clock, 1-in-16 sampling, a
    /// 4096-span ring.
    pub fn with_defaults(metrics: Arc<MetricsRegistry>) -> Self {
        let spans = Arc::new(SpanRecorder::new(
            4096,
            SampleRate::default(),
            Arc::new(MonotonicClock::new()),
        ));
        Self { metrics, spans }
    }
}

/// Per-function handle pair, resolved on the function's first flush.
pub(crate) struct FuncObs {
    pub(crate) queue_wait_ns: Arc<LogHistogram>,
    pub(crate) eval_ns: Arc<LogHistogram>,
}

/// Every handle the server's hot paths record through, resolved once at
/// start-up (global series) or on a function's first flush (labelled
/// series). After resolution, recording is lock- and allocation-free.
pub(crate) struct ObsState {
    pub(crate) spans: Arc<SpanRecorder>,
    pub(crate) submits: Arc<Counter>,
    pub(crate) queue_jobs: Arc<Gauge>,
    pub(crate) queue_elems: Arc<Gauge>,
    /// Flush triggers, indexed by [`crate::plan::Reason`].
    pub(crate) flushes: [Arc<Counter>; 4],
    pub(crate) flush_units: Arc<Counter>,
    pub(crate) flush_elems: Arc<LogHistogram>,
    pub(crate) eval_ns_all: Arc<LogHistogram>,
    pub(crate) cycles: Arc<Counter>,
    pub(crate) energy_nj: Arc<Counter>,
    pub(crate) backend_elems: Arc<Counter>,
    metrics: Arc<MetricsRegistry>,
    per_func: Mutex<HashMap<FunctionId, Arc<FuncObs>>>,
}

impl ObsState {
    pub(crate) fn new(obs: &ServeObs) -> Self {
        let m = &obs.metrics;
        Self {
            spans: Arc::clone(&obs.spans),
            submits: m.counter(M_SUBMITS),
            queue_jobs: m.gauge(M_QUEUE_JOBS),
            queue_elems: m.gauge(M_QUEUE_ELEMS),
            flushes: ["size", "deadline", "shutdown", "pressure"]
                .map(|reason| m.counter(&labeled(M_FLUSHES, &[("reason", reason)]))),
            flush_units: m.counter(M_FLUSH_UNITS),
            flush_elems: m.histogram(M_FLUSH_ELEMS),
            eval_ns_all: m.histogram(M_EVAL_NS),
            cycles: m.counter(M_BACKEND_CYCLES),
            energy_nj: m.counter(M_BACKEND_ENERGY_NJ),
            backend_elems: m.counter(M_BACKEND_ELEMS),
            metrics: Arc::clone(m),
            per_func: Mutex::new(HashMap::new()),
        }
    }

    /// The labelled handles for `func`, resolving (and allocating) only
    /// on the function's first flush — the warm path is a map hit.
    pub(crate) fn func(&self, func: FunctionId, registry: &FunctionRegistry) -> Arc<FuncObs> {
        let mut map = self.per_func.lock().unwrap();
        if let Some(f) = map.get(&func) {
            return Arc::clone(f);
        }
        let name = registry
            .name_of(func)
            .unwrap_or_else(|| format!("fn{}", func.0));
        let labels: &[(&str, &str)] = &[("function", &name)];
        let f = Arc::new(FuncObs {
            queue_wait_ns: self.metrics.histogram(&labeled(M_QUEUE_WAIT_NS, labels)),
            eval_ns: self.metrics.histogram(&labeled(M_EVAL_NS, labels)),
        });
        map.insert(func, Arc::clone(&f));
        f
    }
}
