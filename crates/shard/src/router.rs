//! The shard router: N in-process wire servers, one routing front.
//!
//! Each shard is a full serving stack — its own
//! [`FunctionRegistry`], [`PwlServer`] and [`flexsfu_wire::WireServer`]
//! on an ephemeral localhost port — built from one registration
//! closure, so every shard assigns identical [`FunctionId`]s and any
//! shard can serve any function. The router partitions *steady-state*
//! traffic by hashing the function id (plus an explicit override map
//! for pinning), and walks forward to the next healthy shard when the
//! preferred one is draining or down.
//!
//! Failover is safe because PWL evaluation is pure: resubmitting a job
//! to another shard can only recompute the same bits. The property the
//! router preserves is the *accepted-job* guarantee inherited from the
//! wire tier — a drained shard answers everything it acked before the
//! router stops it ([`ShardRouter::drain_shard`] waits for the wire
//! in-flight gauge to settle).

use crate::error::RouterError;
use flexsfu_obs::{
    labeled, AssembledTrace, Clock, Counter, MetricsRegistry, MetricsSnapshot, MonotonicClock,
    SampleRate, SpanRecorder, Stage, TraceAssembler,
};
use flexsfu_serve::{FunctionId, FunctionRegistry, PwlServer, ServeConfig, ServeObs};
use flexsfu_wire::{WireClient, WireConfig, WireElement, WireError, WireServer, WireTicket};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Evaluation attempts retried after a retryable failure (counter).
pub const M_RETRIES: &str = "flexsfu_router_retries_total";
/// Retries that also marked the failing shard unroutable, so the next
/// attempt lands elsewhere (counter).
pub const M_FAILOVERS: &str = "flexsfu_router_failovers_total";
/// Shard state transitions, labelled `to="healthy"|"draining"|"down"`
/// (counter).
pub const M_HEALTH_TRANSITIONS: &str = "flexsfu_router_health_transitions_total";

/// A shard's routability, as the router currently believes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Routable.
    Healthy,
    /// Finishing accepted jobs; new traffic routes elsewhere.
    Draining,
    /// Unreachable (or stopped); never routed to again.
    Down,
}

impl ShardState {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Healthy,
            1 => Self::Draining,
            _ => Self::Down,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Self::Healthy => 0,
            Self::Draining => 1,
            Self::Down => 2,
        }
    }
}

/// Knobs for [`ShardRouter::deploy`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-shard serving configuration (queue bound, flush defaults,
    /// worker count).
    pub serve: ServeConfig,
    /// Per-shard wire front-end configuration (retry hint, poll rate).
    pub wire: WireConfig,
    /// Health-check cadence. [`Duration::ZERO`] disables the health
    /// thread (state then updates only from evaluation errors).
    pub health_interval: Duration,
    /// How long a health ping may take before it is ignored. A timeout
    /// does *not* mark the shard down — on a loaded box a slow pong is
    /// overwhelmingly congestion, not death; connection errors are what
    /// mark shards down.
    pub ping_timeout: Duration,
    /// Evaluation retry budget across backoff hints and failovers.
    pub max_attempts: usize,
    /// Pin specific functions to specific shard indices, overriding the
    /// hash. (The pinned shard still fails over when unhealthy.)
    pub overrides: HashMap<FunctionId, usize>,
    /// Deploy every shard with observability (its own
    /// [`MetricsRegistry`] + span recorder, threaded through the serve
    /// and wire tiers) and give the router its own routing-decision
    /// metrics. Off by default — an unobserved deployment runs the
    /// exact pre-telemetry hot paths.
    pub observability: bool,
    /// Stamping clock shared by the router's span recorder and every
    /// shard's. `None` (the default) gives each recorder its own
    /// monotonic clock; inject one [`flexsfu_obs::ManualClock`] to make
    /// cross-process stamp ordering exact and replays bit-identical.
    /// Only read when `observability` is on.
    pub clock: Option<Arc<dyn Clock>>,
    /// 1-in-N sampling for router-originated distributed traces. A
    /// sampled request mints a trace id, stamps the routing stages on
    /// its own span, and propagates the id over the wire so the serving
    /// shard's span joins the same trace. Only read when
    /// `observability` is on.
    pub trace_sample: SampleRate,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::default(),
            wire: WireConfig::default(),
            health_interval: Duration::from_millis(50),
            ping_timeout: Duration::from_millis(500),
            max_attempts: 8,
            overrides: HashMap::new(),
            observability: false,
            clock: None,
            trace_sample: SampleRate::default(),
        }
    }
}

/// The stoppable half of a shard: the serving stack itself. Taken out
/// (and torn down) by [`ShardRouter::stop_shard`].
struct ShardRuntime {
    wire: WireServer,
    server: PwlServer,
}

/// The router's own observability: where routing decisions are counted
/// and distributed traces originate.
struct RouterObs {
    metrics: Arc<MetricsRegistry>,
    retries: Arc<Counter>,
    failovers: Arc<Counter>,
    /// Router-side span ring — the root of every distributed trace.
    /// Sampled requests stamp [`Stage::RouteSelect`] /
    /// [`Stage::Retry`] / [`Stage::WireSubmit`] here and mint the
    /// trace id the shard's span adopts.
    spans: Arc<SpanRecorder>,
}

/// One deployed shard, as the router sees it.
struct Shard {
    addr: SocketAddr,
    registry: Arc<FunctionRegistry>,
    client: WireClient,
    state: AtomicU8,
    runtime: Mutex<Option<ShardRuntime>>,
    /// The shard's serving-stack telemetry bundle (None = unobserved).
    obs: Option<ServeObs>,
    /// Router-registry transition counters, indexed by
    /// [`ShardState::as_u8`] of the state transitioned *to*.
    transitions: Option<[Arc<Counter>; 3]>,
}

impl Shard {
    fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::SeqCst))
    }

    /// `Down` is sticky: a shard the router stopped (or whose
    /// connection died) is never routed to again — the router's client
    /// connection is gone, so "recovered" is unobservable anyway.
    /// Observed routers count every *actual* transition (no-op updates
    /// and the sticky-down rejection don't count).
    fn set_state(&self, next: ShardState) {
        let res = self
            .state
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (ShardState::from_u8(cur) != ShardState::Down).then_some(next.as_u8())
            });
        if let (Ok(prev), Some(t)) = (res, &self.transitions) {
            if prev != next.as_u8() {
                t[next.as_u8() as usize].inc();
            }
        }
    }
}

struct RouterShared {
    shards: Vec<Shard>,
    stop: AtomicBool,
}

/// A sharded wire-serving deployment: see the [crate docs](crate).
pub struct ShardRouter {
    shared: Arc<RouterShared>,
    overrides: HashMap<FunctionId, usize>,
    max_attempts: usize,
    health: Option<JoinHandle<()>>,
    obs: Option<RouterObs>,
}

impl ShardRouter {
    /// Deploys `num_shards` in-process serving stacks and starts the
    /// health checker. `register` runs once per shard against that
    /// shard's fresh registry and **must register the same functions in
    /// the same order** — ids are allocated sequentially, so identical
    /// registration sequences give identical ids on every shard, which
    /// is what makes failover routing sound.
    ///
    /// # Errors
    ///
    /// A [`WireError`] if a shard's socket cannot be bound or
    /// connected.
    ///
    /// # Panics
    ///
    /// If `num_shards` is zero.
    pub fn deploy(
        num_shards: usize,
        config: RouterConfig,
        register: impl Fn(&FunctionRegistry),
    ) -> Result<Self, WireError> {
        assert!(num_shards > 0, "a deployment needs at least one shard");
        // One shared stamping clock per observed deployment: router and
        // shard spans live in the same time domain, so an assembled
        // waterfall's cross-process ordering is meaningful.
        let clock: Arc<dyn Clock> = config
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        let router_obs = config.observability.then(|| {
            let metrics = Arc::new(MetricsRegistry::new());
            RouterObs {
                retries: metrics.counter(M_RETRIES),
                failovers: metrics.counter(M_FAILOVERS),
                spans: Arc::new(SpanRecorder::new(
                    4096,
                    config.trace_sample,
                    Arc::clone(&clock),
                )),
                metrics,
            }
        });
        let transitions = router_obs.as_ref().map(|o| {
            ["healthy", "draining", "down"].map(|to| {
                o.metrics
                    .counter(&labeled(M_HEALTH_TRANSITIONS, &[("to", to)]))
            })
        });
        let mut shards = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let registry = Arc::new(FunctionRegistry::new());
            register(&registry);
            // Each observed shard gets its *own* registry + span ring —
            // scrape_all later merges them under a `shard` label, so
            // per-shard registries keep the series disentangled. The
            // ring stamps from the deployment-wide clock (see above).
            let obs = config.observability.then(|| {
                ServeObs::new(
                    Arc::new(MetricsRegistry::new()),
                    Arc::new(SpanRecorder::new(
                        4096,
                        SampleRate::default(),
                        Arc::clone(&clock),
                    )),
                )
            });
            let server = match &obs {
                Some(o) => PwlServer::start_with_obs(
                    Arc::clone(&registry),
                    config.serve.clone(),
                    o.clone(),
                ),
                None => PwlServer::start(Arc::clone(&registry), config.serve.clone()),
            };
            let wire = match &obs {
                Some(o) => WireServer::start_local_with_obs(
                    server.handle(),
                    config.wire.clone(),
                    o.clone(),
                )?,
                None => WireServer::start_local(server.handle(), config.wire.clone())?,
            };
            let addr = wire.local_addr();
            let client = WireClient::connect(addr)?;
            shards.push(Shard {
                addr,
                registry,
                client,
                state: AtomicU8::new(ShardState::Healthy.as_u8()),
                runtime: Mutex::new(Some(ShardRuntime { wire, server })),
                obs,
                transitions: transitions.clone(),
            });
        }
        let shared = Arc::new(RouterShared {
            shards,
            stop: AtomicBool::new(false),
        });
        let health = (config.health_interval > Duration::ZERO).then(|| {
            let shared = Arc::clone(&shared);
            let interval = config.health_interval;
            let ping_timeout = config.ping_timeout;
            std::thread::Builder::new()
                .name("flexsfu-shard-health".into())
                .spawn(move || health_loop(&shared, interval, ping_timeout))
                .expect("spawn health thread")
        });
        Ok(Self {
            shared,
            overrides: config.overrides,
            max_attempts: config.max_attempts.max(1),
            health,
            obs: router_obs,
        })
    }

    /// Number of deployed shards (including drained/stopped ones).
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The router's current belief about shard `idx`.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn shard_state(&self, idx: usize) -> Result<ShardState, RouterError> {
        Ok(self.shard(idx)?.state())
    }

    /// Shard `idx`'s wire address — connect extra [`WireClient`]s here
    /// (the router's own traffic shares one connection per shard).
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn shard_addr(&self, idx: usize) -> Result<SocketAddr, RouterError> {
        Ok(self.shard(idx)?.addr)
    }

    /// Shard `idx`'s function registry — per-shard
    /// [`FunctionRegistry::backend_stats`] live here.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn registry(&self, idx: usize) -> Result<Arc<FunctionRegistry>, RouterError> {
        Ok(Arc::clone(&self.shard(idx)?.registry))
    }

    /// Wire jobs shard `idx` has accepted but not yet answered (zero
    /// for a stopped shard).
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn shard_inflight(&self, idx: usize) -> Result<u64, RouterError> {
        let shard = self.shard(idx)?;
        let runtime = shard.runtime.lock().unwrap();
        Ok(runtime.as_ref().map_or(0, |r| r.wire.inflight()))
    }

    /// Shard `idx`'s metrics registry (`None` when the deployment was
    /// not started with [`RouterConfig::observability`]).
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn shard_metrics(&self, idx: usize) -> Result<Option<Arc<MetricsRegistry>>, RouterError> {
        Ok(self
            .shard(idx)?
            .obs
            .as_ref()
            .map(|o| Arc::clone(&o.metrics)))
    }

    /// Shard `idx`'s span recorder (`None` when unobserved).
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn shard_spans(&self, idx: usize) -> Result<Option<Arc<SpanRecorder>>, RouterError> {
        Ok(self.shard(idx)?.obs.as_ref().map(|o| Arc::clone(&o.spans)))
    }

    /// A point-in-time snapshot of shard `idx`'s metrics, unlabelled
    /// (`None` when unobserved).
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn shard_snapshot(&self, idx: usize) -> Result<Option<MetricsSnapshot>, RouterError> {
        Ok(self.shard(idx)?.obs.as_ref().map(|o| o.metrics.snapshot()))
    }

    /// The router's own metrics registry — retries, failovers, health
    /// transitions (`None` when unobserved).
    pub fn router_metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.obs.as_ref().map(|o| Arc::clone(&o.metrics))
    }

    /// The router-side span ring — where distributed traces originate
    /// (`None` when unobserved).
    pub fn router_spans(&self) -> Option<Arc<SpanRecorder>> {
        self.obs.as_ref().map(|o| Arc::clone(&o.spans))
    }

    /// Joins the router's span ring with every shard's into assembled
    /// per-request traces — the tracing counterpart of
    /// [`Self::scrape_all`]. Origins are labelled `router` and
    /// `shard<idx>`; the router is added first so its span (the trace
    /// root) leads each waterfall. Empty for an unobserved deployment.
    pub fn assemble_traces(&self) -> Vec<AssembledTrace> {
        let mut asm = TraceAssembler::new();
        if let Some(o) = &self.obs {
            asm.add_origin("router", o.spans.dump());
        }
        for (i, shard) in self.shared.shards.iter().enumerate() {
            if let Some(obs) = &shard.obs {
                asm.add_origin(format!("shard{i}"), obs.spans.dump());
            }
        }
        asm.assemble()
    }

    /// One deployment-wide snapshot: the router's own series merged
    /// with every observed shard's snapshot, each shard's series
    /// disambiguated with a `shard="<idx>"` label. Equals (by
    /// construction — snapshots are merged locally, not scraped over
    /// the wire) the label-then-merge of [`Self::shard_snapshot`] over
    /// all shards plus [`Self::router_metrics`]'s snapshot.
    pub fn scrape_all(&self) -> MetricsSnapshot {
        let mut total = self
            .obs
            .as_ref()
            .map(|o| o.metrics.snapshot())
            .unwrap_or_default();
        for (i, shard) in self.shared.shards.iter().enumerate() {
            if let Some(obs) = &shard.obs {
                total.merge(&obs.metrics.snapshot().with_label("shard", &i.to_string()));
            }
        }
        total
    }

    /// The shard a fresh submission for `func` routes to right now.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoHealthyShard`].
    pub fn route(&self, func: FunctionId) -> Result<usize, RouterError> {
        let n = self.shared.shards.len();
        let preferred = self
            .overrides
            .get(&func)
            .copied()
            .map_or_else(|| hash_func(func) % n, |pin| pin % n);
        (0..n)
            .map(|k| (preferred + k) % n)
            .find(|&i| self.shared.shards[i].state() == ShardState::Healthy)
            .ok_or(RouterError::NoHealthyShard)
    }

    /// Evaluates a tensor (f64 or f32) through the deployment: route,
    /// submit, wait — retrying through backoff hints and failing over
    /// past draining or dead shards, within the configured attempt
    /// budget.
    ///
    /// Observed deployments sample a distributed trace here
    /// ([`SpanRecorder::start_trace`]): the router's span stamps
    /// [`Stage::RouteSelect`] once (the first routing decision),
    /// [`Stage::WireSubmit`] per attempt (last-wins, so the surviving
    /// stamp is the attempt that produced the answer) and
    /// [`Stage::Retry`] per retry decision — and the minted id rides
    /// the submit frame so the serving shard's span joins the trace.
    ///
    /// # Errors
    ///
    /// See [`RouterError`]; a shard whose backend lacks a lane in `T`
    /// yields `Rejected(PrecisionUnsupported)` (identical registration
    /// means every shard would answer the same).
    pub fn eval<T: WireElement>(
        &self,
        func: FunctionId,
        data: &[T],
    ) -> Result<Vec<T>, RouterError> {
        let cell = self.obs.as_ref().and_then(|o| o.spans.start_trace(func.0));
        let trace = cell.as_ref().and_then(|c| c.trace());
        let stamp = |stage: Stage| {
            if let (Some(o), Some(c)) = (&self.obs, &cell) {
                o.spans.stamp(c, stage);
            }
        };
        let mut last = WireError::ConnectionClosed;
        for attempt in 0..self.max_attempts {
            let idx = self.route(func)?;
            let shard = &self.shared.shards[idx];
            if attempt == 0 {
                stamp(Stage::RouteSelect);
            }
            stamp(Stage::WireSubmit);
            let attempt = shard
                .client
                .submit_traced(func.0, data.to_vec(), trace)
                .and_then(WireTicket::wait);
            match attempt {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_retryable() => return Err(RouterError::Rejected(e)),
                Err(e) => {
                    stamp(Stage::Retry);
                    if let Some(o) = &self.obs {
                        o.retries.inc();
                    }
                    let unroutable = match &e {
                        // Backpressure: honor the server's hint, then
                        // try again (same shard, usually).
                        WireError::RetryAfter { hint } => {
                            std::thread::sleep(*hint);
                            false
                        }
                        WireError::Draining => {
                            shard.set_state(ShardState::Draining);
                            true
                        }
                        WireError::ConnectionClosed
                        | WireError::Io(_)
                        | WireError::ShuttingDown => {
                            shard.set_state(ShardState::Down);
                            true
                        }
                        // Internal/timeout: plain retry; re-serving is
                        // harmless (evaluation is pure).
                        _ => false,
                    };
                    if unroutable {
                        if let Some(o) = &self.obs {
                            o.failovers.inc();
                        }
                    }
                    last = e;
                }
            }
        }
        Err(RouterError::RetriesExhausted {
            attempts: self.max_attempts,
            last,
        })
    }

    /// Drains shard `idx` for handoff: new traffic re-routes
    /// immediately, and the call then waits (up to `settle_timeout`)
    /// for the shard to answer every job it had accepted. Returns
    /// whether it settled — after `Ok(true)`, [`Self::stop_shard`] is
    /// loss-free by construction.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn drain_shard(&self, idx: usize, settle_timeout: Duration) -> Result<bool, RouterError> {
        let shard = self.shard(idx)?;
        // Server-side flag first (refuses new submits at the socket),
        // then the router-side state (stops routing there) — a submit
        // racing between the two gets a typed `Draining` and fails over.
        {
            let runtime = shard.runtime.lock().unwrap();
            match runtime.as_ref() {
                Some(r) => r.wire.drain(),
                None => return Ok(true), // already stopped
            }
        }
        shard.set_state(ShardState::Draining);
        let deadline = Instant::now() + settle_timeout;
        loop {
            let inflight = {
                let runtime = shard.runtime.lock().unwrap();
                runtime.as_ref().map_or(0, |r| r.wire.inflight())
            };
            if inflight == 0 {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Tears shard `idx` down: closes its wire server (remaining
    /// accepted jobs are still answered first — the per-connection
    /// pumps drain before their sockets close) and shuts down its
    /// serving stack. For a loss-free handoff, [`Self::drain_shard`]
    /// first. Idempotent.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoSuchShard`].
    pub fn stop_shard(&self, idx: usize) -> Result<(), RouterError> {
        let shard = self.shard(idx)?;
        shard.set_state(ShardState::Down);
        let runtime = shard.runtime.lock().unwrap().take();
        if let Some(r) = runtime {
            r.wire.shutdown();
            r.server.shutdown();
        }
        Ok(())
    }

    /// Stops the health thread and every still-running shard.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.health.take() {
            t.join().expect("shard health thread panicked");
        }
        for idx in 0..self.shared.shards.len() {
            let _ = self.stop_shard(idx);
        }
    }

    fn shard(&self, idx: usize) -> Result<&Shard, RouterError> {
        self.shared
            .shards
            .get(idx)
            .ok_or(RouterError::NoSuchShard(idx))
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Fibonacci-multiplicative hash of the function id — spreads the small
/// sequential ids (0, 1, 2, …) that registries hand out across shards
/// instead of clumping them on shard 0.
fn hash_func(func: FunctionId) -> usize {
    (func.0.wrapping_mul(0x9E37_79B9) >> 16) as usize
}

/// Pings every not-down shard each interval and folds the pong (or the
/// failure) into its routing state.
fn health_loop(shared: &RouterShared, interval: Duration, ping_timeout: Duration) {
    while !shared.stop.load(Ordering::SeqCst) {
        for shard in &shared.shards {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            if shard.state() == ShardState::Down {
                continue;
            }
            match shard.client.ping(ping_timeout) {
                Ok(h) if h.draining => shard.set_state(ShardState::Draining),
                Ok(_) => shard.set_state(ShardState::Healthy),
                // A slow pong is congestion, not death; leave the state
                // alone and let the next round decide.
                Err(WireError::Timeout) => {}
                Err(_) => shard.set_state(ShardState::Down),
            }
        }
        // Sleep in slices so shutdown is not gated on the interval.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5).min(interval));
        }
    }
}
