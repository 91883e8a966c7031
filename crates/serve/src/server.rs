//! The server: a batcher thread coalescing jobs into per-function packed
//! buffers, a small pool of evaluation workers, and the cloneable
//! [`ServeHandle`] callers submit through.
//!
//! # Lifecycle
//!
//! [`PwlServer::start`] spawns one **batcher** thread and
//! `eval_workers` **worker** threads. Submitted jobs land in a bounded
//! queue (backpressure: [`ServeHandle::submit`] blocks while the queue
//! holds `queue_elements` pending elements; [`ServeHandle::try_submit`]
//! returns [`ServeError::QueueFull`] instead). Flushing is
//! **per function**: a function's pending jobs drain when they reach
//! its [`FlushPolicy`] element threshold *or* its oldest pending job
//! has waited out the policy deadline — functions without an explicit
//! policy (see [`crate::FunctionRegistry::set_policy`]) use the
//! [`ServeConfig`] defaults. A due function flushes alone; other
//! functions' jobs stay queued until *their* policy fires, so a
//! latency-critical function under a tight deadline is never held
//! hostage by a throughput-oriented one.
//!
//! Deadline flushes are **work-conserving**: a function whose deadline
//! has passed flushes only once a worker is free (fewer units in flight
//! than `eval_workers`); until then its jobs stay queued and keep
//! coalescing instead of lining up behind busy workers. The default
//! deadline is zero, so an idle worker takes whatever is pending at
//! once, and under load a batch is whatever arrived during the previous
//! flush. A nonzero deadline holds jobs to coalesce them. Size, queue
//! pressure and shutdown flushes go out whether or not a worker is
//! free.
//!
//! Each flush is planned with [`FlushPlan`], packed into one contiguous
//! buffer per function, and handed to the workers with a snapshot of
//! the function's **backend program** from the registry. Workers
//! evaluate through
//! [`flexsfu_backend::BackendProgram::eval_scatter_into`] (the native
//! SIMD kernels, the SFU emulator, or any other bound backend — a unit
//! never mixes backends because it never mixes functions), record the
//! flush's [`flexsfu_backend::FlushStats`] into the registry's
//! per-function counters, and complete each job's oneshot channel with
//! its result slice.
//!
//! [`PwlServer::shutdown`] (also run on drop) stops admissions, drains
//! every already-accepted job through a final flush, and joins all
//! threads — in-flight work is never discarded.

use crate::error::ServeError;
use crate::histogram::HistogramAccum;
use crate::obs::{FuncObs, ObsState, ServeObs};
use crate::oneshot;
use crate::plan::FlushPlan;
use crate::registry::{Entry, FunctionId, FunctionRegistry, StatsAccumulator};
use crate::testkit::Faults;
use flexsfu_backend::BackendProgram;
use flexsfu_core::Element;
use flexsfu_obs::{SpanCell, Stage};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When one function's pending jobs flush: at `max_elems` pending
/// elements, or when the oldest of them has waited `deadline` *and* a
/// worker is free.
///
/// A zero deadline means "flush when a worker is free": an idle worker
/// takes whatever is pending at once, a busy pool lets jobs coalesce
/// until one frees up. A nonzero deadline holds jobs that long to
/// coalesce them (e.g. to amortize an accelerator's pipeline fill),
/// then likewise waits for a free worker. The size threshold flushes
/// regardless of workers.
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
    /// free; a nonzero value holds jobs to coalesce them (see
    /// [`FlushPolicy::deadline`]).
    pub flush_interval: Duration,
    /// Backpressure bound: the queue admits at most this many pending
    /// *elements* (a job larger than the whole bound is admitted alone
    /// into an empty queue, so oversized tensors cannot deadlock). This
    /// bound stays global — admission control protects the process,
    /// flush policy shapes latency.
    pub queue_elements: usize,
    /// Evaluation worker threads. More than one lets a flush of function
    /// A evaluate while function B's next flush is being packed.
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

impl JobData {
    /// Element count — queue accounting and flush-policy triggers are
    /// element-based regardless of precision.
    fn len(&self) -> usize {
        match self {
            JobData::F64(p) => p.data.len(),
            JobData::F32(p) => p.data.len(),
        }
    }
}

/// A precision the server carries end to end: ties the element type to
/// its arm of the precision-tagged queue and unit enums and to its
/// backend program in the registry. Everything else — admission, flush
/// planning, packing, evaluation, scatter — is written once over it.
pub(crate) trait Precision: Element {
    /// Tags a payload for the shared queue.
    fn job(payload: Payload<Self>) -> JobData;
    /// Tags a packed unit for the worker channel.
    fn unit(unit: Unit<Self>) -> FlushUnit;
    /// The entry's program in this precision, if its backend has one.
    fn program(entry: &Entry) -> Option<&Arc<dyn BackendProgram<Self>>>;
}

impl Precision for f64 {
    fn job(payload: Payload<f64>) -> JobData {
        JobData::F64(payload)
    }
    fn unit(unit: Unit<f64>) -> FlushUnit {
        FlushUnit::F64(unit)
    }
    fn program(entry: &Entry) -> Option<&Arc<dyn BackendProgram>> {
        Some(&entry.bound.program)
    }
}

impl Precision for f32 {
    fn job(payload: Payload<f32>) -> JobData {
        JobData::F32(payload)
    }
    fn unit(unit: Unit<f32>) -> FlushUnit {
        FlushUnit::F32(unit)
    }
    fn program(entry: &Entry) -> Option<&Arc<dyn BackendProgram<f32>>> {
        entry.bound.program_f32.as_ref()
    }
}

/// One packed job inside a flush unit: `(element count, result
/// channel, trace cell)` in packed order.
type PackedJob<T> = (usize, oneshot::Sender<Vec<T>>, Option<Arc<SpanCell>>);

/// A unit of either precision, as the worker channel carries it.
pub(crate) enum FlushUnit {
    F64(Unit<f64>),
    F32(Unit<f32>),
}

/// One function's packed share of a flush, ready for a worker: the
/// backend program snapshot it evaluates through (in the flush's
/// precision — a unit never mixes precisions, just as it never mixes
/// functions), and the stats sink the flush's cost lands in.
pub(crate) struct Unit<T: Element> {
    program: Arc<dyn BackendProgram<T>>,
    stats: Arc<StatsAccumulator>,
    histogram: Arc<HistogramAccum>,
    xs: Vec<T>,
    jobs: Vec<PackedJob<T>>,
    obs: Option<UnitObs>,
}

/// The observability handles one flush unit carries to its worker: the
/// global state plus the unit's function-labelled series, both
/// pre-resolved — the worker records without locks or allocation.
struct UnitObs {
    state: Arc<ObsState>,
    func: Arc<FuncObs>,
}

/// Per-function pending aggregate — the flush-policy triggers.
struct FuncPending {
    /// Pending elements of this function.
    elems: usize,
    /// Arrival time of its oldest pending job — the deadline anchor.
    oldest: Instant,
}

/// Queue state behind the mutex.
struct QueueState {
    jobs: Vec<Job>,
    queued_elems: usize,
    /// Aggregates per function with pending jobs.
    pending: HashMap<FunctionId, FuncPending>,
    /// Submitters currently parked on the element bound. Non-zero means
    /// the queue is saturated: the batcher flushes *everything* rather
    /// than letting one long-deadline function hold the shared bound —
    /// and with it every other function's admissions — hostage.
    space_waiters: usize,
    /// Set when a non-blocking `try_submit` bounced off the full queue.
    /// The batcher consumes it as a one-shot pressure signal, so pure
    /// `try_submit` producers (which never park and so never raise
    /// `space_waiters`) also force a drain instead of seeing
    /// `QueueFull` forever against a never-flushing function.
    rejected_full: bool,
    shutdown: bool,
}

/// The mutex/condvar trio the handle and batcher share.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled on submit, shutdown and finished units; the batcher
    /// waits here.
    job_ready: Condvar,
    /// Flush units sent to the workers and not yet finished. A
    /// deadline-due function flushes only while this is below
    /// `eval_workers`.
    busy_units: AtomicUsize,
    /// Signalled on flush and shutdown; blocked submitters wait here.
    space: Condvar,
    /// Test-only fault injector ([`crate::testkit::Faults`]); `None` in
    /// production servers.
    faults: Option<Arc<Faults>>,
    /// Observability handles ([`PwlServer::start_with_obs`]); `None`
    /// keeps every instrumented site a single branch.
    obs: Option<Arc<ObsState>>,
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
    batcher: Option<JoinHandle<()>>,
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

/// A pending result, f64 unless named ([`JobTicketF32`] for
/// [`ServeHandle::submit_f32`]): block on [`JobTicket::wait`] or
/// `.await` it from any executor (the oneshot receiver stores the task's
/// waker).
pub struct JobTicket<T = f64> {
    rx: oneshot::Receiver<Vec<T>>,
    span: Option<Arc<SpanCell>>,
}

/// The single-precision ticket [`ServeHandle::submit_f32`] returns.
pub type JobTicketF32 = JobTicket<f32>;

impl<T> JobTicket<T> {
    /// Blocks until the job's results arrive.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Disconnected`] if the server dropped the
    /// job's result channel without completing it (only possible if an
    /// evaluation worker panicked).
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
    /// Spawns the batcher and worker threads over `registry`.
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
    /// installed — test-support only: the wire-protocol suites use it to
    /// deterministically trigger backpressure, dropped-reply and
    /// delayed-flush paths instead of racing for them.
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
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: Vec::new(),
                queued_elems: 0,
                pending: HashMap::new(),
                space_waiters: 0,
                rejected_full: false,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            busy_units: AtomicUsize::new(0),
            space: Condvar::new(),
            faults,
            obs: obs.as_ref().map(|o| Arc::new(ObsState::new(o))),
        });

        let (unit_tx, unit_rx) = mpsc::channel::<FlushUnit>();
        let unit_rx = Arc::new(Mutex::new(unit_rx));
        let workers = (0..config.eval_workers)
            .map(|i| {
                let rx = Arc::clone(&unit_rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flexsfu-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let batcher = {
            let shared = Arc::clone(&shared);
            let registry = Arc::clone(&registry);
            let cfg = config.clone();
            std::thread::Builder::new()
                .name("flexsfu-serve-batcher".into())
                .spawn(move || batcher_loop(&shared, &registry, &cfg, &unit_tx))
                .expect("spawn batcher thread")
        };

        Self {
            shared,
            registry,
            queue_elements: config.queue_elements,
            batcher: Some(batcher),
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
    /// batcher begins its final drain, but the call returns immediately
    /// instead of joining threads. Every job accepted before this call
    /// still completes; a later [`Self::shutdown`] (or drop) joins the
    /// threads as usual.
    pub fn begin_drain(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space.notify_all();
    }

    /// Current submission-queue depth — see [`ServeHandle::queue_depth`].
    pub fn queue_depth(&self) -> QueueDepth {
        self.shared.queue_depth()
    }

    fn shutdown_inner(&mut self) {
        self.begin_drain();
        if let Some(b) = self.batcher.take() {
            // The batcher drains the queue into the workers' channel and
            // drops its sender, which ends the worker loops.
            b.join().expect("batcher thread panicked");
        }
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
    /// # Errors
    ///
    /// [`ServeError::UnknownFunction`] if `func` was never registered,
    /// [`ServeError::ShuttingDown`] if the server stopped admitting jobs
    /// (including while blocked waiting for space).
    pub fn submit(&self, func: FunctionId, data: Vec<f64>) -> Result<JobTicket, ServeError> {
        self.submit_lane(func, data, true, None)
    }

    /// Non-blocking [`Self::submit`]: a full queue returns
    /// [`ServeError::QueueFull`] instead of waiting.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`], plus [`ServeError::QueueFull`].
    pub fn try_submit(&self, func: FunctionId, data: Vec<f64>) -> Result<JobTicket, ServeError> {
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
    pub fn try_submit_traced(
        &self,
        func: FunctionId,
        data: Vec<f64>,
        trace: Option<u64>,
    ) -> Result<JobTicket, ServeError> {
        self.submit_lane(func, data, false, trace)
    }

    /// Submits a **single-precision** job: the tensor is batched into an
    /// f32 flush buffer, evaluated through the backend's f32 program
    /// (eight-wide f32 kernels on the native backend), and scattered
    /// back as f32 — bit-identical to evaluating the tensor directly
    /// with the registry's [`FunctionRegistry::engine_f32`]. f32 and f64
    /// jobs of one function share its flush policy and pending-element
    /// accounting but always flush in separate units — a unit never
    /// mixes precisions. Blocks for queue space like [`Self::submit`].
    ///
    /// # Errors
    ///
    /// As [`Self::submit`], plus [`ServeError::PrecisionUnsupported`]
    /// if the function's backend has no f32 lane.
    pub fn submit_f32(&self, func: FunctionId, data: Vec<f32>) -> Result<JobTicketF32, ServeError> {
        self.submit_lane(func, data, true, None)
    }

    /// Non-blocking [`Self::submit_f32`]: a full queue returns
    /// [`ServeError::QueueFull`] instead of waiting.
    ///
    /// # Errors
    ///
    /// As [`Self::submit_f32`], plus [`ServeError::QueueFull`].
    pub fn try_submit_f32(
        &self,
        func: FunctionId,
        data: Vec<f32>,
    ) -> Result<JobTicketF32, ServeError> {
        self.submit_lane(func, data, false, None)
    }

    /// Non-blocking f32 submit carrying a propagated distributed-trace
    /// id; see [`Self::try_submit_traced`] for the adoption contract.
    ///
    /// # Errors
    ///
    /// As [`Self::try_submit_f32`].
    pub fn try_submit_f32_traced(
        &self,
        func: FunctionId,
        data: Vec<f32>,
        trace: Option<u64>,
    ) -> Result<JobTicketF32, ServeError> {
        self.submit_lane(func, data, false, trace)
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
        self.shared.queue.lock().unwrap().shutdown
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
        let span = self.enqueue(func, T::job(Payload { data, tx }), block, trace)?;
        Ok(JobTicket { rx, span })
    }

    /// The precision-agnostic admission path: bounds, backpressure and
    /// pending-aggregate bookkeeping are element-based, so both
    /// precisions share one queue and one set of flush triggers. Returns
    /// the job's trace cell when the server sampled it.
    fn enqueue(
        &self,
        func: FunctionId,
        data: JobData,
        block: bool,
        trace: Option<u64>,
    ) -> Result<Option<Arc<SpanCell>>, ServeError> {
        // One clock read up front (observability on only): the Submit
        // stamp must predate any time spent parked on the element bound.
        let submit_ns = self.shared.obs.as_ref().map(|o| o.now_ns());
        // Injected backpressure (testkit): a forced bounce takes the
        // exact organic path — flag the pressure and wake the batcher —
        // so the retry loop under test exercises the real signals.
        // Non-blocking admissions only: forcing a *blocking* submit full
        // would just park it, which is not a fault worth injecting.
        if !block {
            if let Some(faults) = &self.shared.faults {
                if faults.take_queue_full() {
                    let mut q = self.shared.queue.lock().unwrap();
                    q.rejected_full = true;
                    drop(q);
                    self.shared.job_ready.notify_one();
                    return Err(ServeError::QueueFull);
                }
            }
        }
        let mut q = self.shared.queue.lock().unwrap();
        loop {
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            // Admit when within the bound — or into an empty queue, so a
            // single job larger than the whole bound cannot wedge.
            if q.queued_elems == 0 || q.queued_elems + data.len() <= self.queue_elements {
                break;
            }
            if !block {
                // Same pressure rule as parking (below), minus the
                // wait: flag the saturation and wake the batcher so a
                // retrying caller finds space after the forced drain.
                q.rejected_full = true;
                drop(q);
                self.shared.job_ready.notify_one();
                return Err(ServeError::QueueFull);
            }
            // Park — and tell the batcher: a saturated queue overrides
            // every flush policy (see `batcher_loop`), otherwise a
            // long-deadline function could block all admissions for its
            // whole deadline.
            q.space_waiters += 1;
            self.shared.job_ready.notify_one();
            q = self.shared.space.wait(q).unwrap();
            q.space_waiters -= 1;
        }
        let pending = q.pending.entry(func).or_insert_with(|| FuncPending {
            elems: 0,
            oldest: Instant::now(),
        });
        pending.elems += data.len();
        q.queued_elems += data.len();
        // Sampling decision under the queue lock: job ids are assigned
        // in admission order, so a sequential replay samples the same
        // jobs every run. A propagated trace id bypasses local sampling
        // (the origin already decided) and tags the span for the
        // cross-process assembler.
        let (enqueued_ns, span) = match &self.shared.obs {
            Some(obs) => {
                obs.submits.inc();
                let span = match trace {
                    Some(id) => Some(obs.spans.adopt(func.0, id)),
                    None => obs.spans.try_start(func.0),
                };
                let now = obs.now_ns();
                if let Some(cell) = &span {
                    cell.record(Stage::Submit, submit_ns.unwrap_or(now));
                    cell.record(Stage::Enqueue, now);
                }
                obs.queue_jobs.set((q.jobs.len() + 1) as f64);
                obs.queue_elems.set(q.queued_elems as f64);
                (now, span)
            }
            None => (0, None),
        };
        q.jobs.push(Job {
            func,
            data,
            enqueued_ns,
            span: span.clone(),
        });
        drop(q);
        self.shared.job_ready.notify_one();
        Ok(span)
    }
}

/// The batcher: waits for any function's size threshold, or for its
/// deadline and a free worker, drains exactly the due functions' jobs,
/// plans/packs per-function units, and feeds the workers. Returns
/// (dropping the unit sender, which ends the workers) once shutdown is
/// set and the queue is fully drained.
///
/// Lock order: the queue mutex may be held while taking the registry's
/// read lock (policy lookup); no code path acquires them in the other
/// order while holding either.
fn batcher_loop(
    shared: &Shared,
    registry: &FunctionRegistry,
    cfg: &ServeConfig,
    unit_tx: &mpsc::Sender<FlushUnit>,
) {
    let default_policy = cfg.default_policy();
    let mut q = shared.queue.lock().unwrap();
    loop {
        if q.shutdown && q.jobs.is_empty() {
            return;
        }
        // Evaluate every pending function's own policy. Two conditions
        // override the per-function triggers and make *everything* due:
        // shutdown (the final drain is one flush) and admission
        // pressure (a submitter parked on the element bound — policies
        // shape latency, they must never starve admissions).
        let now = Instant::now();
        // `rejected_full` is a consumed one-shot: a bounced try_submit
        // forces exactly one full drain (more rejections re-arm it).
        // Taken unconditionally — behind a short-circuiting `||` a drain
        // triggered by a parked waiter would leave the stale flag armed
        // and force a spurious policy-overriding flush later.
        let rejected_full = std::mem::take(&mut q.rejected_full);
        let force_all = q.shutdown || q.space_waiters > 0 || rejected_full;
        // Work conservation: an expired deadline fires only into a free
        // worker. Otherwise the jobs keep coalescing in the queue, and
        // the finishing worker's `job_ready` signal re-runs this check.
        let worker_free = shared.busy_units.load(Ordering::SeqCst) < cfg.eval_workers;
        let mut due: Vec<FunctionId> = Vec::new();
        let mut next_deadline: Option<Instant> = None;
        for (&func, pending) in &q.pending {
            let policy = registry.policy(func).unwrap_or(default_policy);
            // `checked_add`: a huge deadline (`Duration::MAX` = "flush
            // on size or shutdown only") must saturate to "never", not
            // overflow `Instant` and panic the batcher.
            let deadline = pending.oldest.checked_add(policy.deadline);
            let fired_size = pending.elems >= policy.max_elems;
            let expired = deadline.is_some_and(|d| now >= d);
            let fired_deadline = expired && worker_free;
            if force_all || fired_size || fired_deadline {
                if let Some(obs) = &shared.obs {
                    // A function's own trigger takes precedence over the
                    // queue-wide overrides in the reason accounting: a
                    // size-due function drained during shutdown still
                    // flushed "because it was full".
                    let reason = if fired_size {
                        &obs.flush_size
                    } else if fired_deadline {
                        &obs.flush_deadline
                    } else if q.shutdown {
                        &obs.flush_shutdown
                    } else {
                        &obs.flush_pressure
                    };
                    reason.inc();
                }
                due.push(func);
            } else if let Some(d) = deadline.filter(|_| !expired) {
                // A passed deadline waiting for a worker is left out, so
                // the batcher sleeps until a unit finishes instead of
                // spinning on a zero timeout.
                next_deadline = Some(next_deadline.map_or(d, |nd: Instant| nd.min(d)));
            }
        }
        if !due.is_empty() {
            // Drain only the due functions, preserving submission order
            // for the FIFO-per-function packing guarantee.
            let mut drained = Vec::new();
            let mut kept = Vec::with_capacity(q.jobs.len());
            for job in q.jobs.drain(..) {
                if due.contains(&job.func) {
                    drained.push(job);
                } else {
                    kept.push(job);
                }
            }
            q.jobs = kept;
            for func in &due {
                if let Some(p) = q.pending.remove(func) {
                    q.queued_elems -= p.elems;
                }
            }
            if let Some(obs) = &shared.obs {
                obs.queue_jobs.set(q.jobs.len() as f64);
                obs.queue_elems.set(q.queued_elems as f64);
            }
            drop(q);
            shared.space.notify_all();
            if !drained.is_empty() {
                dispatch_flush(drained, registry, unit_tx, shared);
            }
            q = shared.queue.lock().unwrap();
            continue;
        }
        q = match next_deadline {
            // Sleep exactly until the earliest pending deadline (spurious
            // wakeups and early submits just re-evaluate the conditions).
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(now);
                shared.job_ready.wait_timeout(q, remaining).unwrap().0
            }
            // Jobs pending but no deadline ahead (every pending function
            // has a never-expiring policy, or an expired one waiting for
            // a worker, whose finish signals `job_ready`): re-check on a
            // coarse tick rather than parking forever, so a concurrent
            // `set_policy` tightening a deadline takes effect within a
            // tick instead of waiting for the next submission.
            None if !q.jobs.is_empty() => {
                shared
                    .job_ready
                    .wait_timeout(q, Duration::from_millis(10))
                    .unwrap()
                    .0
            }
            None => shared.job_ready.wait(q).unwrap(),
        };
    }
}

/// A drained job awaiting one precision's flush plan: its function, its
/// payload, its enqueue instant, and its trace cell.
type PendingJob<T> = (FunctionId, Payload<T>, u64, Option<Arc<SpanCell>>);

/// Splits a drained batch by precision (preserving submission order
/// within each) and sends each precision's units — a unit never mixes
/// precisions.
fn dispatch_flush(
    drained: Vec<Job>,
    registry: &FunctionRegistry,
    unit_tx: &mpsc::Sender<FlushUnit>,
    shared: &Shared,
) {
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
    let plan_ns = shared.obs.as_ref().map(|o| o.now_ns()).unwrap_or_default();
    if send_units(jobs64, plan_ns, registry, unit_tx, shared) {
        send_units(jobs32, plan_ns, registry, unit_tx, shared);
    }
}

/// Plans one precision's share of a drained batch, packs one contiguous
/// buffer per function, and snapshots each function's current backend
/// program for the unit — a concurrently published table applies from
/// the next flush on, and no unit ever mixes tables (nor backends:
/// units are per-function). `false` once the workers are gone.
fn send_units<T: Precision>(
    jobs: Vec<PendingJob<T>>,
    plan_ns: u64,
    registry: &FunctionRegistry,
    unit_tx: &mpsc::Sender<FlushUnit>,
    shared: &Shared,
) -> bool {
    let obs = shared.obs.as_ref();
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
        let unit = T::unit(Unit {
            program,
            stats,
            histogram,
            xs,
            jobs: packed,
            obs: unit_obs,
        });
        // Workers gone (panicked) — nothing to do; senders drop and the
        // submitters observe `Disconnected`.
        if !send_unit(shared, unit_tx, unit) {
            return false;
        }
    }
    true
}

/// Hands one unit to the workers, counting it busy until a worker
/// finishes it ([`UnitDone`]). `false` when every worker is gone; the
/// unit is then dropped uncounted.
fn send_unit(shared: &Shared, unit_tx: &mpsc::Sender<FlushUnit>, unit: FlushUnit) -> bool {
    shared.busy_units.fetch_add(1, Ordering::SeqCst);
    if unit_tx.send(unit).is_err() {
        shared.busy_units.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    true
}

/// Marks one received unit finished when dropped — also when its
/// evaluation panics, so a failed unit cannot hold deadline flushes back
/// for good.
struct UnitDone<'a>(&'a Shared);

impl Drop for UnitDone<'_> {
    fn drop(&mut self) {
        self.0.busy_units.fetch_sub(1, Ordering::SeqCst);
        // Signal under the queue lock: the batcher reads the count and
        // parks on `job_ready` under that lock, so the wakeup cannot fall
        // between the two. (A poisoned lock still serializes, and taking
        // it without unwrapping cannot panic in drop.)
        let _q = self.0.queue.lock();
        self.0.job_ready.notify_one();
    }
}

/// Post-eval bookkeeping of one instrumented flush unit: evaluation
/// latency into the global and per-function histograms, modelled cost
/// into the backend counters (energy rounded to whole nanojoules).
fn record_flush_obs(u: &UnitObs, eval_start_ns: u64, stats: &flexsfu_backend::FlushStats) {
    let dt = u.state.now_ns().saturating_sub(eval_start_ns);
    u.state.eval_ns_all.record(dt);
    u.func.eval_ns.record(dt);
    u.state.backend_elems.add(stats.elems as u64);
    if let Some(hw) = stats.hw {
        u.state.cycles.add(hw.cycles);
        u.state.energy_nj.add(hw.energy_nj.round() as u64);
    }
}

/// An evaluation worker: scatter-evaluates each unit's packed buffer
/// through its backend program (in the unit's precision) straight into
/// per-job result buffers, records the flush cost, and completes the
/// oneshots. Each finished unit frees a worker slot for the batcher's
/// deadline flushes.
fn worker_loop(rx: &Mutex<mpsc::Receiver<FlushUnit>>, shared: &Shared) {
    let faults = shared.faults.as_deref();
    loop {
        // Hold the channel lock only for the dequeue, not the evaluation.
        let unit = match rx.lock().unwrap().recv() {
            Ok(u) => u,
            Err(_) => return, // batcher gone: shutdown complete
        };
        let _done = UnitDone(shared);
        // Injected latency (testkit): widen the pending window so
        // out-of-order completion is observable deterministically.
        if let Some(delay) = faults.and_then(Faults::flush_delay) {
            std::thread::sleep(delay);
        }
        match unit {
            FlushUnit::F64(unit) => unit.run(faults),
            FlushUnit::F32(unit) => unit.run(faults),
        }
    }
}

impl<T: Element> Unit<T> {
    /// Evaluates the unit straight into per-job result buffers, records
    /// the flush cost, and completes the jobs' oneshots.
    fn run(self, faults: Option<&Faults>) {
        let Unit {
            program,
            stats,
            histogram,
            xs,
            jobs,
            obs,
        } = self;
        // Record inputs before completing any ticket: once every ticket
        // of a quiesced batch has resolved, the histogram already
        // reflects all of its elements — the ordering drift-window
        // determinism relies on.
        histogram.record(&xs);
        let eval_start = obs.as_ref().map(|u| {
            let t = u.state.now_ns();
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
            program.eval_scatter_into(&xs, &mut views)
        };
        stats.record(&flush_stats);
        if let (Some(u), Some(t0)) = (&obs, eval_start) {
            record_flush_obs(u, t0, &flush_stats);
        }
        for ((_, tx, cell), out) in jobs.into_iter().zip(outs) {
            // Injected reply loss (testkit): drop the channel so the
            // ticket observes `Disconnected`.
            if faults.is_some_and(Faults::take_drop_reply) {
                continue;
            }
            // Stamp before completing the ticket: a replay driver that
            // advances a manual clock once all tickets resolved must
            // never race a late stamp.
            if let (Some(u), Some(cell)) = (&obs, &cell) {
                cell.record(Stage::ScatterBack, u.state.now_ns());
            }
            // A dropped ticket is fine — the caller stopped caring.
            tx.send(out);
        }
    }
}
