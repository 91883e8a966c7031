//! The server: a small pool of evaluation workers that each take due
//! jobs from a shared queue, coalesce them into per-function packed
//! buffers and evaluate them, and the cloneable [`ServeHandle`] callers
//! submit through.
//!
//! # Lifecycle
//!
//! [`PwlServer::start`] spawns `eval_workers` **worker** threads and no
//! other. Submitted jobs land in a bounded queue (backpressure:
//! [`ServeHandle::submit`] blocks while the queue holds
//! `queue_elements` pending elements; [`ServeHandle::try_submit`]
//! returns [`ServeError::QueueFull`] instead). Flushing is **per
//! function**: a function's pending jobs are due when they reach its
//! [`FlushPolicy`] element threshold *or* its oldest pending job has
//! waited out the policy deadline — functions without an explicit
//! policy (see [`crate::FunctionRegistry::set_policy`]) use the
//! [`ServeConfig`] defaults. A due function flushes alone; other
//! functions' jobs stay queued until *their* policy fires, so a
//! latency-critical function under a tight deadline is never held
//! hostage by a throughput-oriented one.
//!
//! The worker that takes a flush also evaluates it, so there is no
//! thread between the queue and the backend (the leader/followers
//! pattern). A free worker, under the queue lock, checks every pending
//! function's policy and drains the due function with the oldest
//! pending job — on shutdown or queue pressure, every pending function.
//! That decision is a pure function of the pending queue and one reading
//! of the span clock (`plan::decide`), which is also the server's policy
//! time.
//! If jobs are still queued it wakes one sibling, then it drops the lock
//! and plans, packs and evaluates what it drained.
//!
//! Flushes are therefore **work-conserving**: a due function flushes
//! only once a worker is free; until then its jobs stay queued and keep
//! coalescing instead of lining up behind busy workers. The default
//! deadline is zero, so an idle worker takes whatever is pending at
//! once, and under load a batch is whatever arrived during the previous
//! flush. A nonzero deadline holds jobs to coalesce them. Size, queue
//! pressure and shutdown flushes wait for a free worker too, so
//! `queue_elements` bounds the accepted work that has not started
//! evaluating.
//!
//! Each flush is planned with [`FlushPlan`] and packed into one
//! contiguous buffer per function and precision, together with a
//! snapshot of the function's **backend program** from the registry.
//! The worker evaluates it through
//! [`flexsfu_backend::BackendProgram::eval_scatter_into`] (the native
//! SIMD kernels, the SFU emulator, or any other bound backend — a unit
//! never mixes backends because it never mixes functions), records the
//! flush's [`flexsfu_backend::FlushStats`] into the registry's
//! per-function counters, and completes each job's oneshot channel with
//! its result slice. A backend that panics fails only its own unit's
//! tickets; the worker keeps serving.
//!
//! [`PwlServer::shutdown`] (also run on drop) stops admissions, drains
//! every already-accepted job through a final flush, and joins all
//! threads — in-flight work is never discarded.

use crate::error::ServeError;
use crate::histogram::HistogramAccum;
use crate::obs::{FuncObs, ObsState, ServeObs};
use crate::oneshot;
use crate::plan::{decide, take_jobs, Decision, FlushPlan, FuncPending, Pending};
use crate::registry::{Entry, FunctionId, FunctionRegistry, StatsAccumulator};
use crate::testkit::Faults;
use flexsfu_backend::BackendProgram;
use flexsfu_core::Element;
use flexsfu_obs::{Clock, MonotonicClock, SpanCell, Stage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::Duration;

/// When one function's pending jobs flush: once a worker is free and
/// either `max_elems` of them are pending or the oldest of them has
/// waited `deadline`.
///
/// A zero deadline means "flush when a worker is free": an idle worker
/// takes whatever is pending at once, a busy pool lets jobs coalesce
/// until one frees up. A nonzero deadline holds jobs that long to
/// coalesce them (e.g. to amortize an accelerator's pipeline fill),
/// then likewise waits for a free worker. The size threshold makes the
/// function due before its deadline; it still flushes on the next free
/// worker, since every worker evaluates what it drains.
///
/// Attached per function via
/// [`crate::FunctionRegistry::set_policy`]; the server's [`ServeConfig`]
/// supplies the defaults for functions without one. Both triggers are
/// per function — two functions with different deadlines flush
/// independently (pinned by the `serving_stress` suite).
///
/// Policies shape latency, not admission: when the shared queue's
/// element bound saturates (a submitter is parked waiting for space),
/// **every** pending function flushes regardless of its policy, so a
/// long-deadline function can never block other functions' admissions
/// through the shared bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush as soon as this many of the function's elements are
    /// pending (the size threshold). Sized so a flush saturates the
    /// SIMD lanes without blowing the L2 working set.
    pub max_elems: usize,
    /// Flush once the function's oldest pending job has waited this
    /// long and a worker is free. [`Duration::ZERO`] is work-conserving
    /// (no hold at all); a nonzero value holds jobs to coalesce them.
    /// A deadline too large for the clock (e.g. [`Duration::MAX`])
    /// saturates to "never": the function then flushes only on size,
    /// queue pressure, or shutdown.
    ///
    /// Policy time is the span clock: the [`crate::ServeObs`] recorder's
    /// clock on an observed server, a monotonic clock otherwise. So on a
    /// server observed through a [`flexsfu_obs::ManualClock`], a nonzero
    /// deadline expires only when the test advances that clock.
    pub deadline: Duration,
}

/// Tuning knobs for [`PwlServer::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Default per-function size threshold: a function flushes as soon
    /// as this many of *its* elements are pending. Overridable per
    /// function with [`crate::FunctionRegistry::set_policy`].
    pub flush_elements: usize,
    /// Default per-function deadline: a function flushes once its
    /// oldest pending job has waited this long and a worker is free.
    /// The default, [`Duration::ZERO`], flushes whenever a worker is
    /// free; a nonzero value holds jobs to coalesce them. It runs on the
    /// span clock, so under a [`flexsfu_obs::ManualClock`] it expires
    /// only when that clock is advanced (see [`FlushPolicy::deadline`]).
    pub flush_interval: Duration,
    /// Backpressure bound: the queue admits at most this many pending
    /// *elements* (a job larger than the whole bound is admitted alone
    /// into an empty queue, so oversized tensors cannot deadlock). This
    /// bound stays global — admission control protects the process,
    /// flush policy shapes latency. Workers drain only when free, so it
    /// bounds the accepted work that has not started evaluating: at most
    /// `(eval_workers + 1) × queue_elements` accepted elements are
    /// unfinished at once (more only while oversized jobs are in flight).
    pub queue_elements: usize,
    /// Evaluation worker threads — the server's only threads. Each one
    /// takes due jobs from the queue and evaluates them itself; more
    /// than one lets a flush of function A evaluate while function B's
    /// flush is being packed.
    pub eval_workers: usize,
}

impl ServeConfig {
    /// The flush policy functions without an explicit one use.
    pub fn default_policy(&self) -> FlushPolicy {
        FlushPolicy {
            max_elems: self.flush_elements,
            deadline: self.flush_interval,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            flush_elements: 32_768,
            flush_interval: Duration::ZERO,
            queue_elements: 131_072,
            eval_workers: 2,
        }
    }
}

/// One pending job: the tensor (in its submitted precision), its target
/// function, and the channel the result goes back over.
struct Job {
    func: FunctionId,
    data: JobData,
    /// Enqueue instant (obs clock, ns) — the queue-wait anchor. Zero
    /// when the server runs without observability.
    enqueued_ns: u64,
    /// Trace cell when this job was sampled.
    span: Option<Arc<SpanCell>>,
}

/// A job's payload and result channel, tagged by precision. An f32 job
/// stays f32 from submission to scatter-back — the packed flush buffer,
/// the kernels and the result vector never touch f64.
pub(crate) enum JobData {
    F64(Payload<f64>),
    F32(Payload<f32>),
}

/// One job's tensor and the channel its result goes back over.
pub(crate) struct Payload<T> {
    data: Vec<T>,
    tx: oneshot::Sender<Vec<T>>,
}

/// A precision the server carries end to end, `f64` or `f32` (sealed):
/// the bound of the generic [`ServeHandle::submit`] family. It ties the
/// element type to its arm of the precision-tagged queue and to its
/// backend program in the registry; admission, flush planning, packing,
/// evaluation and scatter are written once over it.
pub trait Precision: Element + sealed::Sealed {}

impl Precision for f64 {}
impl Precision for f32 {}

// The hooks name crate-private types; the module is unnameable outside
// the crate, so no other crate can reach them.
#[allow(private_interfaces)]
pub(crate) mod sealed {
    use super::{Arc, BackendProgram, Entry, JobData, Payload};

    /// The queue and registry hooks only this crate calls.
    pub trait Sealed: Sized {
        /// Tags a payload for the shared queue.
        fn job(payload: Payload<Self>) -> JobData;
        /// The entry's program in this precision, if its backend has one.
        fn program(entry: &Entry) -> Option<&Arc<dyn BackendProgram<Self>>>;
    }

    impl Sealed for f64 {
        fn job(payload: Payload<f64>) -> JobData {
            JobData::F64(payload)
        }
        fn program(entry: &Entry) -> Option<&Arc<dyn BackendProgram>> {
            Some(&entry.bound.program)
        }
    }

    impl Sealed for f32 {
        fn job(payload: Payload<f32>) -> JobData {
            JobData::F32(payload)
        }
        fn program(entry: &Entry) -> Option<&Arc<dyn BackendProgram<f32>>> {
            entry.bound.program_f32.as_ref()
        }
    }
}

/// One packed job inside a flush unit: `(element count, result
/// channel, trace cell)` in packed order.
type PackedJob<T> = (usize, oneshot::Sender<Vec<T>>, Option<Arc<SpanCell>>);

/// The observability handles one flush unit carries: the global state
/// plus the unit's function-labelled series, both pre-resolved — the
/// evaluation records without locks or allocation.
struct UnitObs {
    state: Arc<ObsState>,
    func: Arc<FuncObs>,
}

/// Queue state behind the mutex.
struct QueueState {
    jobs: Vec<Job>,
    queued_elems: usize,
    /// What the flush decision reads.
    pending: Pending,
}

/// The mutex/condvar trio the handles and workers share.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled on submit, pressure and shutdown, and by a worker that
    /// leaves jobs queued; free workers wait here.
    job_ready: Condvar,
    /// Signalled on flush and shutdown; blocked submitters wait here.
    space: Condvar,
    /// Test-only fault injector ([`crate::testkit::Faults`]); `None` in
    /// production servers.
    faults: Option<Arc<Faults>>,
    /// Observability handles ([`PwlServer::start_with_obs`]); `None`
    /// keeps every instrumented site a single branch.
    obs: Option<Arc<ObsState>>,
    /// Policy time: the span recorder's clock when observed, else a
    /// monotonic one — the anchors, deadlines and span stamps share it.
    clock: Arc<dyn Clock>,
}

impl Shared {
    fn queue_depth(&self) -> QueueDepth {
        let q = self.queue.lock().unwrap();
        QueueDepth {
            jobs: q.jobs.len(),
            elems: q.queued_elems,
        }
    }
}

/// A point-in-time reading of the submission queue — the stats hook the
/// wire tier reports in health-check pongs (see
/// [`ServeHandle::queue_depth`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueDepth {
    /// Pending jobs not yet drained into a flush.
    pub jobs: usize,
    /// Pending elements across those jobs — the quantity the
    /// backpressure bound meters.
    pub elems: usize,
}

/// A running serving front-end. Dropping it shuts down gracefully.
pub struct PwlServer {
    shared: Arc<Shared>,
    registry: Arc<FunctionRegistry>,
    queue_elements: usize,
    workers: Vec<JoinHandle<()>>,
}

/// A cloneable submission handle. Handles stay valid after shutdown —
/// submissions then fail with [`ServeError::ShuttingDown`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    registry: Arc<FunctionRegistry>,
    queue_elements: usize,
}

/// A pending result in the submitted precision (f64 by default): block
/// on [`JobTicket::wait`] or
/// `.await` it from any executor (the oneshot receiver stores the task's
/// waker).
pub struct JobTicket<T = f64> {
    rx: oneshot::Receiver<Vec<T>>,
    span: Option<Arc<SpanCell>>,
}

/// The ticket of an f32 submit.
pub type JobTicketF32 = JobTicket<f32>;

impl<T> JobTicket<T> {
    /// Blocks until the job's results arrive.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Disconnected`] if the server dropped the
    /// job's result channel without completing it: the backend panicked
    /// while evaluating the job's flush unit (the worker itself keeps
    /// serving later jobs).
    pub fn wait(self) -> Result<Vec<T>, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// The job's trace cell, when the server traced it — downstream
    /// tiers (the wire pump) stamp their stages through this.
    pub fn span(&self) -> Option<&Arc<SpanCell>> {
        self.span.as_ref()
    }
}

impl<T> std::future::Future for JobTicket<T> {
    type Output = Result<Vec<T>, ServeError>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        std::pin::Pin::new(&mut self.get_mut().rx)
            .poll(cx)
            .map(|r| r.map_err(|_| ServeError::Disconnected))
    }
}

impl PwlServer {
    /// Spawns the worker threads over `registry`.
    ///
    /// # Panics
    ///
    /// Panics if `config.flush_elements`, `config.queue_elements` or
    /// `config.eval_workers` is zero.
    pub fn start(registry: Arc<FunctionRegistry>, config: ServeConfig) -> Self {
        Self::start_inner(registry, config, None, None)
    }

    /// [`Self::start`] with observability: metrics land in
    /// `obs.metrics`, sampled jobs are traced through `obs.spans`. The
    /// un-instrumented paths are unchanged; instrumented sites record
    /// through handles resolved once at start-up.
    ///
    /// # Panics
    ///
    /// As [`Self::start`].
    pub fn start_with_obs(
        registry: Arc<FunctionRegistry>,
        config: ServeConfig,
        obs: ServeObs,
    ) -> Self {
        Self::start_inner(registry, config, None, Some(obs))
    }

    /// [`Self::start`] with a [`crate::testkit::Faults`] injector
    /// installed — test-support only: the serving and wire-protocol
    /// suites use it to deterministically trigger backpressure and
    /// dropped replies, and to hold workers busy at the flush gate,
    /// instead of racing for them.
    ///
    /// # Panics
    ///
    /// As [`Self::start`].
    pub fn start_with_faults(
        registry: Arc<FunctionRegistry>,
        config: ServeConfig,
        faults: Arc<Faults>,
    ) -> Self {
        Self::start_inner(registry, config, Some(faults), None)
    }

    fn start_inner(
        registry: Arc<FunctionRegistry>,
        config: ServeConfig,
        faults: Option<Arc<Faults>>,
        obs: Option<ServeObs>,
    ) -> Self {
        assert!(config.flush_elements > 0, "flush_elements must be nonzero");
        assert!(config.queue_elements > 0, "queue_elements must be nonzero");
        assert!(config.eval_workers > 0, "need at least one eval worker");
        let clock = match &obs {
            Some(o) => o.spans.clock(),
            None => Arc::new(MonotonicClock::new()),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: Vec::new(),
                queued_elems: 0,
                pending: Pending::default(),
            }),
            job_ready: Condvar::new(),
            space: Condvar::new(),
            faults,
            obs: obs.as_ref().map(|o| Arc::new(ObsState::new(o))),
            clock,
        });

        let default_policy = config.default_policy();
        let workers = (0..config.eval_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("flexsfu-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &registry, default_policy))
                    .expect("spawn worker thread")
            })
            .collect();

        Self {
            shared,
            registry,
            queue_elements: config.queue_elements,
            workers,
        }
    }

    /// A new submission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
            registry: Arc::clone(&self.registry),
            queue_elements: self.queue_elements,
        }
    }

    /// The registry this server evaluates through — [`publish`] to it to
    /// hot-swap coefficient tables without stopping traffic.
    ///
    /// [`publish`]: FunctionRegistry::publish
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        &self.registry
    }

    /// Graceful shutdown: stops admitting jobs, drains and completes
    /// everything already accepted, then joins all threads. Equivalent to
    /// dropping the server, but explicit at call sites that care.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// The non-blocking first half of [`Self::shutdown`] — the drain
    /// hook the sharded deployment tier uses for handoff: admissions
    /// stop (new submits fail [`ServeError::ShuttingDown`]) and the
    /// workers begin their final drain, but the call returns immediately
    /// instead of joining threads. Every job accepted before this call
    /// still completes; a later [`Self::shutdown`] (or drop) joins the
    /// threads as usual.
    pub fn begin_drain(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.pending.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space.notify_all();
    }

    /// Current submission-queue depth — see [`ServeHandle::queue_depth`].
    pub fn queue_depth(&self) -> QueueDepth {
        self.shared.queue_depth()
    }

    fn shutdown_inner(&mut self) {
        // Each worker returns once it finds the queue drained.
        self.begin_drain();
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
    }
}

impl Drop for PwlServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl ServeHandle {
    /// Submits `(func, data)` for evaluation, blocking while the queue is
    /// over its element bound, and returns the ticket the results arrive
    /// on. Zero-length tensors are legal and complete with an empty
    /// result.
    ///
    /// The job stays in its precision `T` end to end: an f32 tensor is
    /// batched into an f32 flush buffer, evaluated through the backend's
    /// f32 program (eight-wide f32 kernels on the native backend) and
    /// scattered back as f32 — bit-identical to evaluating it directly
    /// with [`FunctionRegistry::engine_f32`]. Jobs of both precisions
    /// share a function's flush policy and pending-element accounting
    /// but flush in separate units; a unit never mixes precisions.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownFunction`] if `func` was never registered,
    /// [`ServeError::PrecisionUnsupported`] if its backend has no lane
    /// in `T`, [`ServeError::ShuttingDown`] if the server stopped
    /// admitting jobs (including while blocked waiting for space).
    pub fn submit<T: Precision>(
        &self,
        func: FunctionId,
        data: Vec<T>,
    ) -> Result<JobTicket<T>, ServeError> {
        self.submit_lane(func, data, true, None)
    }

    /// Non-blocking [`Self::submit`]: a full queue returns
    /// [`ServeError::QueueFull`] instead of waiting.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`], plus [`ServeError::QueueFull`].
    pub fn try_submit<T: Precision>(
        &self,
        func: FunctionId,
        data: Vec<T>,
    ) -> Result<JobTicket<T>, ServeError> {
        self.submit_lane(func, data, false, None)
    }

    /// Non-blocking submit carrying a propagated distributed-trace id.
    ///
    /// With `trace == Some(id)` the job's span is **always** recorded
    /// (the origin that minted the id already made the sampling
    /// decision) and tagged with `id`, so a cross-process assembler can
    /// join it with the origin's stages; `None` behaves exactly like
    /// [`Self::try_submit`] (local sampling, no trace id).
    ///
    /// # Errors
    ///
    /// As [`Self::try_submit`].
    pub fn try_submit_traced<T: Precision>(
        &self,
        func: FunctionId,
        data: Vec<T>,
        trace: Option<u64>,
    ) -> Result<JobTicket<T>, ServeError> {
        self.submit_lane(func, data, false, trace)
    }

    /// [`Self::try_submit`] for callers that name the f32 lane.
    ///
    /// # Errors
    ///
    /// As [`Self::try_submit`].
    pub fn try_submit_f32(
        &self,
        func: FunctionId,
        data: Vec<f32>,
    ) -> Result<JobTicketF32, ServeError> {
        self.try_submit(func, data)
    }

    /// The registry this handle's server evaluates through.
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        &self.registry
    }

    /// Current submission-queue depth (pending jobs and elements) — the
    /// load signal the wire tier folds into health-check pongs so a
    /// router can see a shard's pressure without submitting to it.
    /// Point-in-time: concurrent submits and flushes move it.
    pub fn queue_depth(&self) -> QueueDepth {
        self.shared.queue_depth()
    }

    /// Whether the server has stopped admitting jobs
    /// ([`PwlServer::begin_drain`] / [`PwlServer::shutdown`] / drop).
    /// Jobs accepted before that point still complete.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.queue.lock().unwrap().pending.shutdown
    }

    fn submit_lane<T: Precision>(
        &self,
        func: FunctionId,
        data: Vec<T>,
        block: bool,
        trace: Option<u64>,
    ) -> Result<JobTicket<T>, ServeError> {
        // The precision check runs at admission, not at flush: a job the
        // backend can never evaluate must bounce here, where the caller
        // can still handle it, not surface later as `Disconnected`.
        match self.registry.supports::<T>(func) {
            None => return Err(ServeError::UnknownFunction(func)),
            Some(false) => return Err(ServeError::PrecisionUnsupported(func)),
            Some(true) => {}
        }
        let (tx, rx) = oneshot::channel();
        let len = data.len();
        let span = self.enqueue(func, T::job(Payload { data, tx }), len, block, trace)?;
        Ok(JobTicket { rx, span })
    }

    /// The precision-agnostic admission path: bounds, backpressure and
    /// pending-aggregate bookkeeping count the job's `len` elements, so
    /// both precisions share one queue and one set of flush triggers.
    /// Returns the job's trace cell when the server sampled it.
    fn enqueue(
        &self,
        func: FunctionId,
        data: JobData,
        len: usize,
        block: bool,
        trace: Option<u64>,
    ) -> Result<Option<Arc<SpanCell>>, ServeError> {
        // One clock read up front (observability on only): the Submit
        // stamp must predate any time spent parked on the element bound.
        let submit_ns = self.shared.obs.as_ref().map(|o| o.spans.now_ns());
        // Injected backpressure (testkit): a forced bounce takes the
        // exact organic path below — flag the pressure and wake a
        // worker — so the retry loop under test exercises the real
        // signals. Non-blocking admissions only: forcing a *blocking*
        // submit full would just park it, which is not a fault worth
        // injecting.
        let forced_full = !block
            && self
                .shared
                .faults
                .as_ref()
                .is_some_and(|f| f.take_queue_full());
        let mut q = self.shared.queue.lock().unwrap();
        loop {
            if q.pending.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            // Admit when within the bound — or into an empty queue, so a
            // single job larger than the whole bound cannot wedge.
            let fits = q.queued_elems == 0 || q.queued_elems + len <= self.queue_elements;
            if fits && !forced_full {
                break;
            }
            if !block {
                // Same pressure rule as parking (below), minus the
                // wait: flag the saturation and wake a worker so a
                // retrying caller finds space after the forced drain.
                q.pending.rejected_full = true;
                drop(q);
                self.shared.job_ready.notify_one();
                return Err(ServeError::QueueFull);
            }
            // Park — and tell the workers: a saturated queue overrides
            // every flush policy (see `decide`), otherwise a
            // long-deadline function could block all admissions for its
            // whole deadline.
            q.pending.space_waiters += 1;
            self.shared.job_ready.notify_one();
            q = self.shared.space.wait(q).unwrap();
            q.pending.space_waiters -= 1;
        }
        // One clock read serves as the Enqueue stamp and, for a
        // function's first pending job, the deadline anchor; unobserved,
        // only a new anchor reads the clock.
        let enqueued_ns = self.shared.obs.as_ref().map(|o| o.spans.now_ns());
        let pending = q.pending.funcs.entry(func).or_insert_with(|| FuncPending {
            elems: 0,
            oldest: enqueued_ns.unwrap_or_else(|| self.shared.clock.now_ns()),
        });
        pending.elems += len;
        q.queued_elems += len;
        // Sampling decision under the queue lock: job ids are assigned
        // in admission order, so a sequential replay samples the same
        // jobs every run. A propagated trace id bypasses local sampling
        // (the origin already decided) and tags the span for the
        // cross-process assembler.
        let span = match (&self.shared.obs, enqueued_ns) {
            (Some(obs), Some(now)) => {
                obs.submits.inc();
                let span = match trace {
                    Some(id) => Some(obs.spans.adopt(func.0, id)),
                    None => obs.spans.try_start(func.0),
                };
                if let Some(cell) = &span {
                    cell.record(Stage::Submit, submit_ns.unwrap_or(now));
                    cell.record(Stage::Enqueue, now);
                }
                obs.queue_jobs.set((q.jobs.len() + 1) as f64);
                obs.queue_elems.set(q.queued_elems as f64);
                span
            }
            _ => None,
        };
        q.jobs.push(Job {
            func,
            data,
            enqueued_ns: enqueued_ns.unwrap_or_default(),
            span: span.clone(),
        });
        drop(q);
        self.shared.job_ready.notify_one();
        Ok(span)
    }
}

/// An evaluation worker, which also makes the flush decision: under the
/// queue lock it asks [`decide`] what is due, drains those jobs, wakes
/// one sibling if jobs are left queued (to flush them if due, or to
/// watch their deadline), then drops the lock and plans, packs and
/// evaluates the drained jobs on its own thread. With nothing due it
/// sleeps until the decision's wake-up time. Returns once shutdown is
/// set and the queue is empty.
///
/// Lock order: the queue mutex may be held while taking the registry's
/// read lock (policy lookup); no code path acquires them in the other
/// order while holding either.
fn worker_loop(shared: &Shared, registry: &FunctionRegistry, default_policy: FlushPolicy) {
    let policy_of = |func| registry.policy(func).unwrap_or(default_policy);
    let mut q = shared.queue.lock().unwrap();
    loop {
        if q.pending.shutdown && q.jobs.is_empty() {
            return;
        }
        let now = shared.clock.now_ns();
        q = match decide(&mut q.pending, now, policy_of) {
            Decision::Drain { funcs, reasons } => {
                let drained = if funcs.len() == q.pending.funcs.len() {
                    std::mem::take(&mut q.jobs)
                } else {
                    take_jobs(&mut q.jobs, &funcs, |job| job.func)
                };
                for func in &funcs {
                    if let Some(p) = q.pending.funcs.remove(func) {
                        q.queued_elems -= p.elems;
                    }
                }
                if let Some(obs) = &shared.obs {
                    for reason in reasons {
                        obs.flushes[reason as usize].inc();
                    }
                    obs.queue_jobs.set(q.jobs.len() as f64);
                    obs.queue_elems.set(q.queued_elems as f64);
                }
                let jobs_left = !q.jobs.is_empty();
                drop(q);
                shared.space.notify_all();
                if jobs_left {
                    shared.job_ready.notify_one();
                }
                run_flush(drained, registry, shared);
                shared.queue.lock().unwrap()
            }
            // Spurious wakeups and early submits just decide again.
            Decision::SleepUntil(t) => {
                let wait = Duration::from_nanos(t.saturating_sub(now));
                shared.job_ready.wait_timeout(q, wait).unwrap().0
            }
            Decision::Park => shared.job_ready.wait(q).unwrap(),
        };
    }
}

/// A drained job awaiting one precision's flush plan: its function, its
/// payload, its enqueue instant, and its trace cell.
type PendingJob<T> = (FunctionId, Payload<T>, u64, Option<Arc<SpanCell>>);

/// Splits a drained batch by precision (preserving submission order
/// within each) and evaluates each precision's units — a unit never
/// mixes precisions.
fn run_flush(drained: Vec<Job>, registry: &FunctionRegistry, shared: &Shared) {
    let mut jobs64: Vec<PendingJob<f64>> = Vec::new();
    let mut jobs32: Vec<PendingJob<f32>> = Vec::new();
    for job in drained {
        match job.data {
            JobData::F64(p) => jobs64.push((job.func, p, job.enqueued_ns, job.span)),
            JobData::F32(p) => jobs32.push((job.func, p, job.enqueued_ns, job.span)),
        }
    }
    // One clock read covers the whole plan: every job in this drain was
    // planned at the same instant, and queue wait is measured to here.
    let plan_ns = shared
        .obs
        .as_ref()
        .map(|o| o.spans.now_ns())
        .unwrap_or_default();
    run_units(jobs64, plan_ns, registry, shared);
    run_units(jobs32, plan_ns, registry, shared);
}

/// Plans one precision's share of a drained batch, packs one contiguous
/// buffer per function, and evaluates each as soon as it is packed,
/// through a snapshot of the function's current backend program — a
/// concurrently published table applies from the next flush on, and no
/// unit ever mixes tables (nor backends: units are per-function).
fn run_units<T: Precision>(
    jobs: Vec<PendingJob<T>>,
    plan_ns: u64,
    registry: &FunctionRegistry,
    shared: &Shared,
) {
    let obs = shared.obs.as_ref();
    let faults = shared.faults.as_deref();
    let shapes: Vec<(FunctionId, usize)> =
        jobs.iter().map(|(f, p, ..)| (*f, p.data.len())).collect();
    let plan = FlushPlan::build(&shapes);
    let mut slots: Vec<Option<PendingJob<T>>> = jobs.into_iter().map(Some).collect();
    for group in plan.groups {
        let Some((program, stats, histogram)) = registry.binding::<T>(group.func) else {
            // Unreachable in practice — submit validates ids and
            // precision support, and the registry never unregisters.
            // Dropping the senders fails the jobs with `Disconnected`
            // rather than poisoning the server.
            debug_assert!(false, "function {:?} lost its binding", group.func);
            continue;
        };
        let unit_obs = obs.map(|o| UnitObs {
            state: Arc::clone(o),
            func: o.func(group.func, registry),
        });
        let mut xs = vec![T::default(); group.total];
        let mut packed = Vec::with_capacity(group.spans.len());
        for span in &group.spans {
            let (_, p, enqueued_ns, cell) = slots[span.job].take().expect("span bijection");
            xs[span.offset..span.offset + span.len].copy_from_slice(&p.data);
            if let Some(u) = &unit_obs {
                u.func
                    .queue_wait_ns
                    .record(plan_ns.saturating_sub(enqueued_ns));
                if let Some(cell) = &cell {
                    cell.record(Stage::FlushPlan, plan_ns);
                }
            }
            packed.push((span.len, p.tx, cell));
        }
        if let Some(u) = &unit_obs {
            u.state.flush_units.inc();
            u.state.flush_elems.record(group.total as u64);
        }
        // The flush gate (testkit): a held gate parks the packed unit
        // here, so a test can build "worker busy" instead of racing it.
        if let Some(faults) = faults {
            faults.pass_gate();
        }
        // A panicking backend fails only this unit: unwinding drops its
        // result senders, so its tickets observe `Disconnected`, and the
        // worker goes on serving.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            eval_unit(
                &*program,
                &stats,
                &histogram,
                &xs,
                packed,
                unit_obs.as_ref(),
                faults,
            )
        }));
    }
}

/// Evaluates one function's packed share of a flush straight into
/// per-job result buffers, through the backend program snapshot taken
/// at packing (in the flush's precision — a unit never mixes
/// precisions, just as it never mixes functions), records the flush
/// cost, and completes the jobs' oneshots.
fn eval_unit<T: Element>(
    program: &dyn BackendProgram<T>,
    stats: &StatsAccumulator,
    histogram: &HistogramAccum,
    xs: &[T],
    jobs: Vec<PackedJob<T>>,
    obs: Option<&UnitObs>,
    faults: Option<&Faults>,
) {
    // Record inputs before completing any ticket: once every ticket of a
    // quiesced batch has resolved, the histogram already reflects all of
    // its elements — the ordering drift-window determinism relies on.
    histogram.record(xs);
    let eval_start = obs.map(|u| {
        let t = u.state.spans.now_ns();
        for (_, _, cell) in &jobs {
            if let Some(cell) = cell {
                cell.record(Stage::BackendEval, t);
            }
        }
        t
    });
    let mut outs: Vec<Vec<T>> = jobs.iter().map(|(n, ..)| vec![T::default(); *n]).collect();
    let flush_stats = {
        let mut views: Vec<&mut [T]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
        program.eval_scatter_into(xs, &mut views)
    };
    stats.record(&flush_stats);
    // Evaluation latency into the global and per-function histograms,
    // modelled cost into the backend counters (energy rounded to whole
    // nanojoules).
    if let (Some(u), Some(t0)) = (obs, eval_start) {
        let dt = u.state.spans.now_ns().saturating_sub(t0);
        u.state.eval_ns_all.record(dt);
        u.func.eval_ns.record(dt);
        u.state.backend_elems.add(flush_stats.elems as u64);
        if let Some(hw) = flush_stats.hw {
            u.state.cycles.add(hw.cycles);
            u.state.energy_nj.add(hw.energy_nj.round() as u64);
        }
    }
    for ((_, tx, cell), out) in jobs.into_iter().zip(outs) {
        // Injected reply loss (testkit): drop the channel so the ticket
        // observes `Disconnected`.
        if faults.is_some_and(Faults::take_drop_reply) {
            continue;
        }
        // Stamp before completing the ticket: a replay driver that
        // advances a manual clock once all tickets resolved must never
        // race a late stamp.
        if let (Some(u), Some(cell)) = (obs, &cell) {
            cell.record(Stage::ScatterBack, u.state.spans.now_ns());
        }
        // A dropped ticket is fine — the caller stopped caring.
        tx.send(out);
    }
}
