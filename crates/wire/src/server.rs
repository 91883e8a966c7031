//! The TCP serving front-end: a std-only listener that speaks the
//! [`crate::Frame`] protocol and forwards jobs into a
//! [`flexsfu_serve::ServeHandle`].
//!
//! # Connection anatomy
//!
//! Connections come in through the crate's shared acceptor — the same
//! one [`crate::TelemetryCollector`] runs on. It polls a non-blocking
//! listener every 2 ms, gives each connection its own thread, and on
//! every pass joins the threads that have finished, so a long-running
//! server holds handles and stacks only for live connections. A spawn
//! that fails (the process is at its thread limit) drops that one
//! stream and keeps accepting. Shutdown sets a stop flag every
//! connection checks between reads and joins the rest; a connection
//! thread that panicked makes shutdown panic.
//!
//! Each connection then runs two threads:
//!
//! * a **reader** — the shared frame-read loop, which reassembles
//!   frames ([`crate::FrameReader`]) and replies
//!   [`crate::frame::ErrorCode::Protocol`] then closes on malformed
//!   bytes (torn frames and garbage never panic the server or leak the
//!   connection) — feeding this server's handler, which admits submits
//!   through the serving handle's *non-blocking* `try_submit` (a full
//!   queue answers a typed [`crate::frame::ErrorCode::RetryAfter`]
//!   hint instead of stalling the whole connection), answers health
//!   pings and stats requests, and enters draining mode;
//! * a **completion pump** that polls every accepted job's ticket
//!   through a real [`std::task::Waker`] (the serve crate's oneshot
//!   stores it, so the pump sleeps until a result lands) and writes
//!   results back **in completion order** — responses are multiplexed
//!   by request id and may overtake each other, which is the point of
//!   per-connection request ids.
//!
//! # When replies are written
//!
//! Both threads coalesce. The reader queues every reply one socket read
//! produces — acks, submit errors, pongs, stats — in frame order and
//! writes them with one `write_all` once the read's complete frames are
//! handled. It also writes what is queued before it handles any frame
//! that is not a submit, and before any close. The pump encodes every
//! result that became ready in one wake into a buffer kept per
//! connection and writes it once. Writes are serialized per connection,
//! so frames never interleave. The rules that follow:
//!
//! * A job is **accepted** exactly when its [`crate::Frame::Ack`] is
//!   written; from then on the server answers it — with a result or a
//!   typed error — even across [`WireServer::drain`]. A read's accepted
//!   jobs reach the pump together, under one lock, only after that
//!   write succeeds; so a job's ack always precedes its own result, and
//!   a job whose ack write failed never reaches the pump. An ack
//!   carries no ordering relative to *other* requests' results.
//! * The reader's replies keep the order of the frames that caused
//!   them.
//! * A `Ping`, `StatsRequest` or `Drain` sees every earlier submit of
//!   the same read as already acked: the pong's in-flight count and the
//!   stats snapshot include them.
//! * Pending replies are written before any close, including one caused
//!   by a protocol error or the stop flag.

use crate::conn::{Acceptor, Conn, ConnWriter, Handler, Outbox};
use crate::frame::{ErrorCode, Frame, WireElement};
use crate::obs::WireObsState;
use flexsfu_obs::{SpanCell, Stage};
use flexsfu_serve::{FunctionId, ServeError, ServeHandle, ServeObs};
use std::future::Future;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

/// Knobs for [`WireServer::start`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// The backoff hint served with [`ErrorCode::RetryAfter`] when the
    /// serving queue bounces a submit — pick the order of one flush
    /// interval, so a retrying client lands after the pressure flush.
    pub retry_after: Duration,
    /// How long blocking socket reads wait before re-checking the stop
    /// flag. Purely a shutdown-latency/CPU trade-off.
    pub poll_interval: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            retry_after: Duration::from_micros(500),
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// State shared by every connection.
struct ServerShared {
    handle: ServeHandle,
    config: WireConfig,
    draining: AtomicBool,
    /// Wire jobs accepted (acked) but not yet answered, server-wide —
    /// reported in pongs so a router can wait out a drain.
    inflight: AtomicU64,
    /// Pre-resolved telemetry handles; `None` runs the exact
    /// pre-observability hot path.
    obs: Option<Arc<WireObsState>>,
}

/// A running wire front-end over one [`flexsfu_serve::PwlServer`]'s
/// handle. Binds `127.0.0.1:0` by default (the sharded tier spawns
/// servers in-process and reads the port back via
/// [`WireServer::local_addr`]). Dropping the server shuts it down.
pub struct WireServer {
    shared: Arc<ServerShared>,
    acceptor: Acceptor,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections, forwarding jobs into `handle`'s server.
    ///
    /// # Errors
    ///
    /// The bind error, if the address is unavailable.
    pub fn start(
        handle: ServeHandle,
        addr: SocketAddr,
        config: WireConfig,
    ) -> std::io::Result<Self> {
        Self::start_inner(handle, addr, config, None)
    }

    /// [`Self::start`] with telemetry: frame/byte/error counters, the
    /// ack → result-handed-to-the-socket histogram, pong telemetry
    /// tails, and [`Frame::StatsRequest`] answered with real snapshots. Pass the
    /// *same* [`ServeObs`] the serving engine was started with, so the
    /// pong tail and the stats snapshot report the engine behind this
    /// socket.
    ///
    /// # Errors
    ///
    /// As [`Self::start`].
    pub fn start_with_obs(
        handle: ServeHandle,
        addr: SocketAddr,
        config: WireConfig,
        obs: ServeObs,
    ) -> std::io::Result<Self> {
        Self::start_inner(
            handle,
            addr,
            config,
            Some(Arc::new(WireObsState::new(&obs))),
        )
    }

    /// [`Self::start_with_obs`] on `127.0.0.1:0`.
    ///
    /// # Errors
    ///
    /// As [`Self::start`].
    pub fn start_local_with_obs(
        handle: ServeHandle,
        config: WireConfig,
        obs: ServeObs,
    ) -> std::io::Result<Self> {
        Self::start_with_obs(handle, ([127, 0, 0, 1], 0).into(), config, obs)
    }

    fn start_inner(
        handle: ServeHandle,
        addr: SocketAddr,
        config: WireConfig,
        obs: Option<Arc<WireObsState>>,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(ServerShared {
            handle,
            config,
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            obs,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            Acceptor::start(
                addr,
                "flexsfu-wire",
                shared.config.poll_interval,
                shared.obs.clone(),
                move |conn| serve_conn(conn, &shared),
            )?
        };
        Ok(Self { shared, acceptor })
    }

    /// [`Self::start`] on `127.0.0.1:0` — the in-process deployment
    /// default.
    ///
    /// # Errors
    ///
    /// As [`Self::start`].
    pub fn start_local(handle: ServeHandle, config: WireConfig) -> std::io::Result<Self> {
        Self::start(handle, ([127, 0, 0, 1], 0).into(), config)
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Puts the server into draining mode: new submissions answer
    /// [`ErrorCode::Draining`], accepted jobs keep completing, health
    /// pongs advertise the state. Also triggered remotely by a
    /// [`Frame::Drain`] frame. Idempotent; there is no un-drain.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Wire jobs accepted but not yet answered (server-wide) — zero
    /// means a drain has fully settled.
    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Currently open connections — the leak gauge the protocol suite
    /// checks after torn-frame and garbage-input cases.
    pub fn active_connections(&self) -> usize {
        self.acceptor.open()
    }

    /// Stops accepting, closes every connection (accepted jobs are
    /// still answered first — the pump drains before closing), and
    /// joins all threads. Dropping the server does the same, except
    /// that only `shutdown` reports a connection thread's panic.
    ///
    /// # Panics
    ///
    /// If a connection thread panicked.
    pub fn shutdown(mut self) {
        self.acceptor
            .stop()
            .expect("wire connection thread panicked");
    }
}

/// One accepted job awaiting its result in the pump.
struct PendingJob {
    /// Clock read just after the ack write (0 when the server runs
    /// without observability) — the start of the ack→result histogram
    /// window.
    t_ack: u64,
    /// The job's trace cell, stamped as the answer goes to the socket.
    span: Option<Arc<SpanCell>>,
    /// The serve ticket, mapped onto the job's reply frame (either
    /// precision).
    reply: Pin<Box<dyn Future<Output = Frame> + Send>>,
}

/// The pump's shared state: tickets parked for completion, plus the
/// wake/closed signals. One waker serves the whole connection — a
/// completion wakes the pump, which polls everything pending (the
/// pending set is small: it is one connection's in-flight window).
struct Pump {
    inner: Mutex<PumpInner>,
    cv: Condvar,
}

struct PumpInner {
    pending: Vec<PendingJob>,
    wake: bool,
    closed: bool,
}

impl Pump {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(PumpInner {
                pending: Vec::new(),
                wake: false,
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Parks every job of `jobs` (leaving it empty) under one lock.
    fn add(&self, jobs: &mut Vec<PendingJob>) {
        let mut g = self.inner.lock().unwrap();
        g.pending.append(jobs);
        g.wake = true;
        self.cv.notify_one();
    }

    fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        g.wake = true;
        self.cv.notify_one();
    }

    fn notify(&self) {
        let mut g = self.inner.lock().unwrap();
        g.wake = true;
        self.cv.notify_one();
    }
}

/// The pump's waker: oneshot completions land here.
struct PumpWaker(Arc<Pump>);

impl Wake for PumpWaker {
    fn wake(self: Arc<Self>) {
        self.0.notify();
    }
}

/// One connection: the shared frame-read loop feeds a [`Dispatcher`]
/// while a completion pump writes results back. Returns only after
/// joining the pump, so a returned connection is fully retired.
fn serve_conn(conn: Conn, shared: &Arc<ServerShared>) {
    let pump = Pump::new();
    let pump_thread = {
        let pump = Arc::clone(&pump);
        let writer = Arc::clone(&conn.writer);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("flexsfu-wire-pump".into())
            .spawn(move || pump_loop(&pump, &writer, &shared))
    };
    // No pump thread (EAGAIN): close the connection before reading.
    let Ok(pump_thread) = pump_thread else { return };

    conn.read_frames(Dispatcher {
        shared,
        pump: &pump,
        acked: Vec::new(),
    });

    // Reader done (peer gone, protocol error, or stop): let the pump
    // finish answering accepted jobs, then retire the connection.
    pump.close();
    pump_thread.join().expect("wire pump thread panicked");
}

/// The reader's side of one connection: dispatches each inbound frame
/// and, once a write has carried their acks, hands the acked jobs to
/// the pump.
struct Dispatcher<'a> {
    shared: &'a ServerShared,
    pump: &'a Pump,
    /// Jobs whose acks are queued but not yet written. Dropped unparked
    /// if that write fails: the result is abandoned harmlessly.
    acked: Vec<PendingJob>,
}

impl Handler for Dispatcher<'_> {
    fn frame(&mut self, frame: Frame, out: &mut Outbox) -> bool {
        let shared = self.shared;
        match frame {
            Frame::SubmitF64 {
                req,
                func,
                data,
                trace,
            } => self.admit(req, func, data, trace, out),
            Frame::SubmitF32 {
                req,
                func,
                data,
                trace,
            } => self.admit(req, func, data, trace, out),
            Frame::Ping { nonce } => {
                let depth = shared.handle.queue_depth();
                // The telemetry tail reads the serving tier's own series —
                // zeros when the server runs without observability.
                let (flushes, eval_p99_us) = match &shared.obs {
                    Some(o) => (o.flush_units.get(), o.eval_ns.snapshot().p99() / 1_000),
                    None => (0, 0),
                };
                out.push(&Frame::Pong {
                    nonce,
                    draining: shared.draining.load(Ordering::SeqCst),
                    queued_elems: depth.elems as u64,
                    inflight: shared.inflight.load(Ordering::SeqCst),
                    queued_jobs: depth.jobs as u64,
                    flushes,
                    eval_p99_us,
                });
            }
            Frame::StatsRequest { nonce } => {
                let snapshot = shared
                    .obs
                    .as_ref()
                    .map(|o| o.metrics.snapshot())
                    .unwrap_or_default();
                out.push(&Frame::Stats {
                    nonce,
                    snapshot: snapshot.encode(),
                });
            }
            Frame::Drain => shared.draining.store(true, Ordering::SeqCst),
            // Server-to-client frames arriving at the server are a
            // protocol violation: typed reply, close.
            Frame::Ack { .. }
            | Frame::ResultF64 { .. }
            | Frame::ResultF32 { .. }
            | Frame::Error { .. }
            | Frame::Pong { .. }
            | Frame::Stats { .. } => {
                out.error(0, ErrorCode::Protocol);
                return false;
            }
        }
        true
    }

    /// The acks just written accept their jobs: count them in flight and
    /// park them in the pump.
    fn written(&mut self) {
        if self.acked.is_empty() {
            return;
        }
        let t_ack = self.shared.obs.as_ref().map_or(0, |o| o.now_ns());
        for job in &mut self.acked {
            job.t_ack = t_ack;
        }
        self.shared
            .inflight
            .fetch_add(self.acked.len() as u64, Ordering::SeqCst);
        self.pump.add(&mut self.acked);
    }
}

impl Dispatcher<'_> {
    /// Admits one submit: refuses it with [`ErrorCode::Draining`] when
    /// draining, answers an admission error with its typed reply, and
    /// otherwise queues the job's ack and holds its ticket until
    /// [`Handler::written`] — so a job's ack always precedes its result
    /// on the wire.
    fn admit<T: WireElement>(
        &mut self,
        req: u64,
        func: u32,
        data: Vec<T>,
        trace: Option<u64>,
        out: &mut Outbox,
    ) {
        if self.shared.draining.load(Ordering::SeqCst) {
            out.error(req, ErrorCode::Draining);
            return;
        }
        // The decoded trace tail rides into the serving tier so the
        // shard-side recorder adopts the router-minted id.
        let submitted = self
            .shared
            .handle
            .try_submit_traced(FunctionId(func), data, trace);
        let ticket = match submitted {
            Ok(ticket) => ticket,
            Err(e) => {
                out.push(&submit_error(req, &e, self.shared));
                return;
            }
        };
        out.push(&Frame::Ack { req });
        let span = ticket.span().cloned();
        // A `Disconnected` ticket (an evaluation-side failure, e.g. the
        // testkit's drop-before-reply fault) answers
        // [`ErrorCode::Internal`] — accepted jobs are always answered.
        let reply = Box::pin(async move {
            match ticket.await {
                Ok(data) => T::result(req, data),
                Err(_) => Frame::Error {
                    req,
                    code: ErrorCode::Internal,
                    detail: 0,
                },
            }
        });
        self.acked.push(PendingJob {
            t_ack: 0,
            span,
            reply,
        });
    }
}

/// Maps a [`ServeError`] from admission onto its protocol reply.
fn submit_error(req: u64, e: &ServeError, shared: &ServerShared) -> Frame {
    let (code, detail) = match e {
        ServeError::QueueFull => {
            let micros = u32::try_from(shared.config.retry_after.as_micros()).unwrap_or(u32::MAX);
            (ErrorCode::RetryAfter, micros)
        }
        ServeError::UnknownFunction(id) => (ErrorCode::UnknownFunction, id.0),
        ServeError::PrecisionUnsupported(id) => (ErrorCode::PrecisionUnsupported, id.0),
        ServeError::ShuttingDown => (ErrorCode::ShuttingDown, 0),
        // Admission never returns LowerFailed/Disconnected; answer
        // Internal rather than unreachable!() so a future serve change
        // degrades to a typed error instead of a panicked connection.
        ServeError::LowerFailed(_) | ServeError::Disconnected => (ErrorCode::Internal, 0),
    };
    Frame::Error { req, code, detail }
}

/// The completion pump: polls parked tickets through the shared waker,
/// writes the results (or typed errors) that became ready in one wake
/// with one write, in completion order, and exits once the reader
/// closed the connection and nothing is pending.
fn pump_loop(pump: &Arc<Pump>, writer: &ConnWriter, shared: &ServerShared) {
    let waker = Waker::from(Arc::new(PumpWaker(Arc::clone(pump))));
    let mut cx = Context::from_waker(&waker);
    let mut out = Outbox::default();
    let mut answered = Vec::new();
    loop {
        let mut batch = {
            let mut g = pump.inner.lock().unwrap();
            while !(g.wake || g.closed && g.pending.is_empty()) {
                // The timeout is a belt-and-braces tick; completions
                // arrive via the waker.
                g = pump
                    .cv
                    .wait_timeout(g, Duration::from_millis(100))
                    .unwrap()
                    .0;
            }
            if g.closed && g.pending.is_empty() {
                return;
            }
            g.wake = false;
            std::mem::take(&mut g.pending)
        };

        let mut still_pending = Vec::with_capacity(batch.len());
        for mut job in batch.drain(..) {
            match job.reply.as_mut().poll(&mut cx) {
                Poll::Ready(frame) => {
                    out.push(&frame);
                    answered.push(job);
                }
                Poll::Pending => still_pending.push(job),
            }
        }
        // Telemetry first: a client that reads its results and then
        // scrapes must find them recorded. The window therefore ends
        // when the result is handed to the socket.
        if let Some(o) = &shared.obs {
            let now = o.now_ns();
            for job in &answered {
                if job.t_ack != 0 {
                    o.ack_to_result_ns.record(now.saturating_sub(job.t_ack));
                }
                if let Some(cell) = &job.span {
                    cell.record(Stage::WireWrite, now);
                }
            }
        }
        // A dead socket is fine — the peer stopped caring; the jobs
        // themselves completed and are no longer in flight either way.
        // In-flight drops only after the write: `inflight == 0` must
        // mean every accepted result was written (the router's drain).
        let _ = writer.write(&mut out);
        shared
            .inflight
            .fetch_sub(answered.len() as u64, Ordering::SeqCst);
        answered.clear();

        let mut g = pump.inner.lock().unwrap();
        // New arrivals were appended while we polled; keep both.
        still_pending.append(&mut g.pending);
        g.pending = still_pending;
    }
}
