//! The multiplexing wire client: one TCP connection, many in-flight
//! requests, responses matched back by request id.
//!
//! [`WireClient::submit`] returns immediately with a [`WireTicket`] in
//! the submitted precision; a background
//! reader thread completes tickets as `Ack`/`Result`/`Error` frames
//! arrive — in whatever order the server finishes them. The ack is
//! tracked separately from the result ([`WireTicket::was_acked`]): a
//! job whose ack arrived is *accepted* and will be answered, which is
//! the zero-loss boundary the shard router's failover relies on (an
//! unacked job can be resubmitted elsewhere without double-serving).

use crate::error::WireError;
use crate::frame::{Frame, FrameReader, WireElement};
use flexsfu_obs::MetricsSnapshot;
use flexsfu_serve::oneshot;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A completed job: its result frame (either precision) or the typed
/// error that answered it.
type JobResult = Result<Frame, WireError>;

/// One unanswered request in the client's mux table.
struct PendingEntry {
    tx: oneshot::Sender<JobResult>,
    acked: Arc<AtomicBool>,
}

/// A point-in-time health report from a [`WireClient::ping`] pong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// The server refuses new submits and is finishing accepted work.
    pub draining: bool,
    /// Elements sitting in the serving queue (pre-flush).
    pub queued_elems: u64,
    /// Wire jobs accepted but not yet answered, server-wide.
    pub inflight: u64,
    /// Jobs sitting in the serving queue (pre-flush).
    pub queued_jobs: u64,
    /// Flush units the server has dispatched (zero from a legacy peer
    /// or an unobserved server).
    pub flushes: u64,
    /// p99 backend evaluation time in microseconds (zero from a legacy
    /// peer or an unobserved server).
    pub eval_p99_us: u64,
}

/// Client-side shared state: the mux table and the connection-dead
/// latch.
struct ClientShared {
    pending: Mutex<HashMap<u64, PendingEntry>>,
    pings: Mutex<HashMap<u64, oneshot::Sender<Health>>>,
    stats: Mutex<HashMap<u64, oneshot::Sender<Vec<u8>>>>,
    closed: AtomicBool,
}

impl ClientShared {
    /// Fails every outstanding request and ping with `err`; called when
    /// the connection dies so no ticket waits forever.
    fn fail_all(&self, err: &WireError) {
        self.closed.store(true, Ordering::SeqCst);
        let entries: Vec<PendingEntry> = {
            let mut p = self.pending.lock().unwrap();
            p.drain().map(|(_, e)| e).collect()
        };
        for e in entries {
            e.tx.send(Err(err.clone()));
        }
        // Dropping the senders disconnects ping/scrape receivers, which
        // surfaces as a timeout/closed error at the caller.
        self.pings.lock().unwrap().clear();
        self.stats.lock().unwrap().clear();
    }
}

/// A connected wire client. Cheap handles are not provided — clone the
/// whole client per thread is unnecessary since submission is `&self`
/// and internally synchronized. Dropping the client closes the socket
/// and fails outstanding tickets with
/// [`WireError::ConnectionClosed`].
pub struct WireClient {
    shared: Arc<ClientShared>,
    writer: Mutex<TcpStream>,
    stream: TcpStream,
    next_req: AtomicU64,
    reader: Option<JoinHandle<()>>,
}

impl WireClient {
    /// Connects to a [`crate::WireServer`] at `addr`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the connection fails.
    pub fn connect(addr: SocketAddr) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let reader_stream = stream.try_clone()?;
        let shared = Arc::new(ClientShared {
            pending: Mutex::new(HashMap::new()),
            pings: Mutex::new(HashMap::new()),
            stats: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("flexsfu-wire-client".into())
                .spawn(move || reader_loop(reader_stream, &shared))
                .expect("spawn client reader thread")
        };
        Ok(Self {
            shared,
            writer: Mutex::new(writer),
            stream,
            // Request ids start at 1: the server uses req 0 for
            // connection-level protocol errors.
            next_req: AtomicU64::new(1),
            reader: Some(reader),
        })
    }

    /// Whether the connection has died (tickets already failed).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// Submits a tensor (f64 or f32) for `func` and returns its ticket.
    ///
    /// # Errors
    ///
    /// [`WireError::ConnectionClosed`] or [`WireError::Io`] if the
    /// frame cannot be written; server-side rejections (unknown
    /// function, `RetryAfter`, draining…) surface on the *ticket*.
    pub fn submit<T: WireElement>(
        &self,
        func: u32,
        data: Vec<T>,
    ) -> Result<WireTicket<T>, WireError> {
        self.submit_traced(func, data, None)
    }

    /// Submits a tensor carrying an optional distributed trace id.
    ///
    /// With `trace == None` the emitted frame is byte-identical to the
    /// legacy (v1) submit, so untraced traffic interoperates with old
    /// servers; a `Some` id appends the version-tolerant trace tail and
    /// requires a trace-aware peer only to *propagate* it (a v1 server
    /// would reject the longer body, so routers only stamp ids toward
    /// shards they own).
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn submit_traced<T: WireElement>(
        &self,
        func: u32,
        data: Vec<T>,
        trace: Option<u64>,
    ) -> Result<WireTicket<T>, WireError> {
        let (req, rx, acked) = self.register()?;
        self.send(&T::submit(req, func, data, trace), req)?;
        Ok(WireTicket {
            rx,
            acked,
            elem: PhantomData,
        })
    }

    /// [`Self::submit`] for callers that name the f64 lane.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn submit_f64(&self, func: u32, data: Vec<f64>) -> Result<WireTicket, WireError> {
        self.submit(func, data)
    }

    /// [`Self::submit`] for callers that name the f32 lane.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn submit_f32(&self, func: u32, data: Vec<f32>) -> Result<WireTicketF32, WireError> {
        self.submit(func, data)
    }

    /// Health-checks the server: sends a ping and waits up to `timeout`
    /// for the pong.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] if no pong arrives in time,
    /// [`WireError::ConnectionClosed`]/[`WireError::Io`] if the
    /// connection is gone.
    pub fn ping(&self, timeout: Duration) -> Result<Health, WireError> {
        if self.is_closed() {
            return Err(WireError::ConnectionClosed);
        }
        let nonce = self.next_req.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = oneshot::channel();
        self.shared.pings.lock().unwrap().insert(nonce, tx);
        if let Err(e) = self.write_frame(&Frame::Ping { nonce }) {
            self.shared.pings.lock().unwrap().remove(&nonce);
            return Err(e);
        }
        match rx.recv_timeout(timeout) {
            Ok(h) => Ok(h),
            Err(oneshot::RecvTimeoutError::Timeout) => {
                self.shared.pings.lock().unwrap().remove(&nonce);
                Err(WireError::Timeout)
            }
            Err(oneshot::RecvTimeoutError::Disconnected) => Err(WireError::ConnectionClosed),
        }
    }

    /// Scrapes the server's metrics: sends a [`Frame::StatsRequest`]
    /// and waits up to `timeout` for the decoded snapshot. A server
    /// running without observability answers an empty snapshot.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] if no stats frame arrives in time,
    /// [`WireError::BadSnapshot`] if the blob does not decode, and
    /// [`WireError::ConnectionClosed`]/[`WireError::Io`] if the
    /// connection is gone.
    pub fn scrape(&self, timeout: Duration) -> Result<MetricsSnapshot, WireError> {
        if self.is_closed() {
            return Err(WireError::ConnectionClosed);
        }
        let nonce = self.next_req.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = oneshot::channel();
        self.shared.stats.lock().unwrap().insert(nonce, tx);
        if let Err(e) = self.write_frame(&Frame::StatsRequest { nonce }) {
            self.shared.stats.lock().unwrap().remove(&nonce);
            return Err(e);
        }
        match rx.recv_timeout(timeout) {
            Ok(blob) => MetricsSnapshot::decode(&blob).map_err(|_| WireError::BadSnapshot),
            Err(oneshot::RecvTimeoutError::Timeout) => {
                self.shared.stats.lock().unwrap().remove(&nonce);
                Err(WireError::Timeout)
            }
            Err(oneshot::RecvTimeoutError::Disconnected) => Err(WireError::ConnectionClosed),
        }
    }

    /// Asks the server to start draining (fire-and-forget; observe the
    /// transition via [`Self::ping`]).
    ///
    /// # Errors
    ///
    /// [`WireError::ConnectionClosed`]/[`WireError::Io`] if the frame
    /// cannot be written.
    pub fn drain(&self) -> Result<(), WireError> {
        if self.is_closed() {
            return Err(WireError::ConnectionClosed);
        }
        self.write_frame(&Frame::Drain)
    }

    /// Allocates a request id and parks its completion slot.
    fn register(&self) -> Result<(u64, oneshot::Receiver<JobResult>, Arc<AtomicBool>), WireError> {
        if self.is_closed() {
            return Err(WireError::ConnectionClosed);
        }
        let req = self.next_req.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = oneshot::channel();
        let acked = Arc::new(AtomicBool::new(false));
        self.shared.pending.lock().unwrap().insert(
            req,
            PendingEntry {
                tx,
                acked: Arc::clone(&acked),
            },
        );
        Ok((req, rx, acked))
    }

    /// Writes a submit frame; on failure unparks the slot so the error
    /// is returned synchronously rather than via a dead ticket.
    fn send(&self, frame: &Frame, req: u64) -> Result<(), WireError> {
        if let Err(e) = self.write_frame(frame) {
            self.shared.pending.lock().unwrap().remove(&req);
            return Err(e);
        }
        Ok(())
    }

    fn write_frame(&self, frame: &Frame) -> Result<(), WireError> {
        let bytes = frame.encode();
        let mut w = self.writer.lock().unwrap();
        w.write_all(&bytes).map_err(WireError::from)
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(t) = self.reader.take() {
            t.join().expect("wire client reader panicked");
        }
        self.shared.fail_all(&WireError::ConnectionClosed);
    }
}

/// Dispatches inbound frames until the connection dies, then fails
/// everything outstanding.
fn reader_loop(mut stream: TcpStream, shared: &ClientShared) {
    let mut frames = FrameReader::new();
    let mut chunk = [0u8; 64 * 1024];
    let terminal: WireError = loop {
        match stream.read(&mut chunk) {
            Ok(0) => break WireError::ConnectionClosed,
            Ok(n) => frames.feed(&chunk[..n]),
            Err(e) => break WireError::Io(e.kind()),
        }
        loop {
            match frames.next_frame() {
                Ok(Some(frame)) => dispatch(frame, shared),
                Ok(None) => break,
                // The server sent bytes we cannot decode; nothing after
                // them is trustworthy.
                Err(e) => {
                    shared.fail_all(&WireError::Protocol(e));
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
    };
    shared.fail_all(&terminal);
}

/// Routes one server frame to its ticket / ping slot. Unknown request
/// ids are ignored (a late reply after a local timeout/removal).
fn dispatch(frame: Frame, shared: &ClientShared) {
    match frame {
        Frame::Ack { req } => {
            if let Some(e) = shared.pending.lock().unwrap().get(&req) {
                e.acked.store(true, Ordering::SeqCst);
            }
        }
        result @ (Frame::ResultF64 { req, .. } | Frame::ResultF32 { req, .. }) => {
            complete(shared, req, Ok(result));
        }
        Frame::Error { req, code, detail } => {
            let err = WireError::from_code(code, detail);
            if req == 0 {
                // Connection-scoped error (the server is about to close
                // on us): every outstanding request gets it.
                shared.fail_all(&err);
            } else {
                complete(shared, req, Err(err));
            }
        }
        Frame::Pong {
            nonce,
            draining,
            queued_elems,
            inflight,
            queued_jobs,
            flushes,
            eval_p99_us,
        } => {
            if let Some(tx) = shared.pings.lock().unwrap().remove(&nonce) {
                tx.send(Health {
                    draining,
                    queued_elems,
                    inflight,
                    queued_jobs,
                    flushes,
                    eval_p99_us,
                });
            }
        }
        Frame::Stats { nonce, snapshot } => {
            if let Some(tx) = shared.stats.lock().unwrap().remove(&nonce) {
                tx.send(snapshot);
            }
        }
        // Client-to-server frames arriving at the client are a server
        // bug; dropping them is the safest recovery (tickets they can't
        // complete will surface ConnectionClosed when the server's
        // confusion inevitably kills the stream).
        Frame::SubmitF64 { .. }
        | Frame::SubmitF32 { .. }
        | Frame::Ping { .. }
        | Frame::Drain
        | Frame::StatsRequest { .. } => {}
    }
}

fn complete(shared: &ClientShared, req: u64, result: JobResult) {
    if let Some(e) = shared.pending.lock().unwrap().remove(&req) {
        e.tx.send(result);
    }
}

/// A detachable view of one request's ack state, usable after the
/// ticket itself was consumed by `wait`. The server sends exactly one
/// of ack-then-result or a refusal error, in order on the stream — so
/// after a successful `wait` the probe reads `true`, and after a typed
/// refusal it reads `false`, without racing the reader thread.
pub struct AckProbe(Arc<AtomicBool>);

impl AckProbe {
    /// Whether the server's ack for the probed request has arrived.
    pub fn is_acked(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// An in-flight request (f64 by default; [`WireTicketF32`] for f32).
/// Wait (bounded or not) for the result; [`Self::was_acked`] reports
/// whether the server accepted the job — the resubmission-safety
/// predicate.
pub struct WireTicket<T = f64> {
    rx: oneshot::Receiver<JobResult>,
    acked: Arc<AtomicBool>,
    elem: PhantomData<fn() -> T>,
}

/// An in-flight f32 request; see [`WireTicket`].
pub type WireTicketF32 = WireTicket<f32>;

impl<T: WireElement> WireTicket<T> {
    /// Whether the server's ack for this job has arrived.
    pub fn was_acked(&self) -> bool {
        self.acked.load(Ordering::SeqCst)
    }

    /// A probe of this request's ack state that outlives the ticket.
    pub fn ack_probe(&self) -> AckProbe {
        AckProbe(Arc::clone(&self.acked))
    }

    /// Blocks until the result (or a typed error) arrives.
    ///
    /// # Errors
    ///
    /// The server-reported rejection, or
    /// [`WireError::ConnectionClosed`] if the connection died first.
    pub fn wait(self) -> Result<Vec<T>, WireError> {
        let result = self.rx.recv().map_err(|_| WireError::ConnectionClosed)?;
        Self::unpack(result)
    }

    /// Blocks up to `timeout`; consumes the ticket either way (a timed
    /// out job keeps running server-side, but its reply slot is gone).
    ///
    /// # Errors
    ///
    /// As [`Self::wait`], plus [`WireError::Timeout`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<T>, WireError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Self::unpack(result),
            Err(oneshot::RecvTimeoutError::Timeout) => Err(WireError::Timeout),
            Err(oneshot::RecvTimeoutError::Disconnected) => Err(WireError::ConnectionClosed),
        }
    }

    /// A result frame of the other precision is
    /// [`WireError::UnexpectedPayload`].
    fn unpack(result: JobResult) -> Result<Vec<T>, WireError> {
        T::payload(result?).ok_or(WireError::UnexpectedPayload)
    }
}
