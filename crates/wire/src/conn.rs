//! The connection core both listeners run on: one [`Acceptor`] that
//! spawns a thread per connection and reaps the finished ones, and one
//! frame-read loop ([`Conn::read_frames`]) that hands each decoded
//! frame to a per-listener [`Handler`].
//!
//! [`crate::WireServer`] plugs in the submit/ping/stats/drain dispatch
//! plus its completion pump; [`crate::TelemetryCollector`] plugs in a
//! `Stats` handler. Everything else — binding, the accept poll, socket
//! options, the stop flag, the open-connection gauge, the malformed-byte
//! reply, reply coalescing, shutdown — lives here once.
//!
//! # When replies are written
//!
//! A handler never writes: it queues its replies on an [`Outbox`], and
//! the read loop writes the outbox with one `write_all`
//! ([`ConnWriter::write`]) at three points:
//!
//! * after every complete frame of one socket read has been handled —
//!   so a read of N pipelined submits costs one reply write, not N;
//! * before it handles any frame that is not a submit, so a `Ping`,
//!   `StatsRequest` or `Drain` sees every earlier submit of the same
//!   read already answered;
//! * before any close — a protocol error, a handler's `false` — so
//!   pending replies are never lost to the close. (The stop flag is
//!   checked only between reads, when nothing is pending.)
//!
//! Replies keep the order of the frames that caused them. After each
//! successful write the loop calls [`Handler::written`]; a failed write
//! ends the connection without it.

use crate::frame::{ErrorCode, Frame, FrameReader};
use crate::obs::WireObsState;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sleep between accept polls. Non-blocking accept + sleep keeps the
/// acceptor std-only (no self-connect wake-up trick); the interval
/// bounds both accept latency and shutdown latency.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Bytes read off a socket per `read` call.
const CHUNK: usize = 64 * 1024;

/// Open-connection gauge: one count per connection thread, from accept
/// until the thread ends (its [`OpenConn`] token drops).
#[derive(Default)]
struct ConnGauge(AtomicUsize);

/// One open connection on the gauge. Dropping it — the connection
/// thread ending, or a spawn that failed — closes the count.
struct OpenConn(Arc<Core>);

impl OpenConn {
    fn enter(core: &Arc<Core>) -> Self {
        core.open.0.fetch_add(1, Ordering::SeqCst);
        Self(Arc::clone(core))
    }
}

impl Drop for OpenConn {
    fn drop(&mut self) {
        self.0.open.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// State shared by an acceptor and every connection it spawned.
struct Core {
    /// Thread-name prefix: `{name}-accept`, `{name}-conn`.
    name: &'static str,
    /// How long a socket read waits before re-checking `stop`.
    read_timeout: Duration,
    /// Wire telemetry for every connection's reads and writes; `None`
    /// runs the unobserved path.
    obs: Option<Arc<WireObsState>>,
    stop: AtomicBool,
    open: ConnGauge,
}

/// A bound listener plus its accept thread. Dropping it stops it like
/// [`Self::stop`], discarding a connection thread's panic.
pub(crate) struct Acceptor {
    core: Arc<Core>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Binds `addr` and runs `serve` on its own thread for every
    /// accepted connection.
    ///
    /// # Errors
    ///
    /// The bind error, or a failure to spawn the accept thread.
    pub(crate) fn start(
        addr: SocketAddr,
        name: &'static str,
        read_timeout: Duration,
        obs: Option<Arc<WireObsState>>,
        serve: impl Fn(Conn) + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let core = Arc::new(Core {
            name,
            read_timeout,
            obs,
            stop: AtomicBool::new(false),
            open: ConnGauge::default(),
        });
        let thread = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &core, Arc::new(serve)))?
        };
        Ok(Self {
            core,
            addr,
            thread: Some(thread),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections whose threads are still running.
    pub(crate) fn open(&self) -> usize {
        self.core.open.0.load(Ordering::SeqCst)
    }

    /// Stops accepting, lets every connection see the stop flag, and
    /// joins all threads. `Err` carries the first panic of a connection
    /// thread. Idempotent.
    pub(crate) fn stop(&mut self) -> std::thread::Result<()> {
        self.core.stop.store(true, Ordering::SeqCst);
        self.thread.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Accepts until stopped, reaping finished connection threads on every
/// pass so a long-running listener holds handles (and stacks) only for
/// live connections. On stop, joins the rest and re-raises the first
/// connection panic seen.
fn accept_loop<F: Fn(Conn) + Send + Sync + 'static>(
    listener: &TcpListener,
    core: &Arc<Core>,
    serve: Arc<F>,
) {
    let mut live: Vec<JoinHandle<()>> = Vec::new();
    let mut panicked = None;
    let mut join = |h: JoinHandle<()>| {
        if let Err(p) = h.join() {
            panicked.get_or_insert(p);
        }
    };
    while !core.stop.load(Ordering::SeqCst) {
        for h in live.extract_if(.., |h| h.is_finished()) {
            join(h);
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let open = OpenConn::enter(core);
                let serve = Arc::clone(&serve);
                let spawned = std::thread::Builder::new()
                    .name(format!("{}-conn", core.name))
                    .spawn(move || {
                        if let Some(conn) = Conn::new(stream, &open.0) {
                            serve(conn);
                        }
                        // Off the gauge only once the connection has
                        // fully retired (a server's pump included).
                        drop(open);
                    });
                // Spawn fails with EAGAIN at the thread or memory-map
                // limit: drop this one stream (the peer sees EOF) and
                // keep accepting.
                if let Ok(h) = spawned {
                    live.push(h);
                }
            }
            // WouldBlock, or a transient error (peer vanished
            // mid-handshake): keep serving.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    live.into_iter().for_each(&mut join);
    if let Some(p) = panicked {
        std::panic::resume_unwind(p);
    }
}

/// Reply frames encoded for one socket write, plus the outbound
/// telemetry they count once written. Reused across writes: clearing
/// keeps the buffer's capacity.
#[derive(Default)]
pub(crate) struct Outbox {
    bytes: Vec<u8>,
    frames: u64,
    /// Codes of the queued [`Frame::Error`]s, for the per-code series.
    errors: Vec<ErrorCode>,
}

impl Outbox {
    /// Queues `frame` behind everything already queued.
    pub(crate) fn push(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.bytes);
        self.frames += 1;
        if let Frame::Error { code, .. } = frame {
            self.errors.push(*code);
        }
    }

    /// Queues a detail-less [`Frame::Error`] for `req` (0 for a
    /// connection-level error).
    pub(crate) fn error(&mut self, req: u64, code: ErrorCode) {
        self.push(&Frame::Error {
            req,
            code,
            detail: 0,
        });
    }
}

/// Serialized writes over one connection. Outbound telemetry (writes,
/// frames, bytes, per-code errors) is counted here, at the single choke
/// point every reply funnels through, and only for writes that
/// succeeded.
pub(crate) struct ConnWriter {
    stream: Mutex<TcpStream>,
    obs: Option<Arc<WireObsState>>,
}

impl ConnWriter {
    /// Writes every frame queued on `out` with one `write_all`, then
    /// empties it; an empty outbox writes nothing. An `Err` means the
    /// connection is dead (the caller stops using it — the peer is
    /// gone, nothing to report).
    pub(crate) fn write(&self, out: &mut Outbox) -> std::io::Result<()> {
        if out.frames == 0 {
            return Ok(());
        }
        let written = self
            .stream
            .lock()
            .expect("no writer panics while holding the stream")
            .write_all(&out.bytes);
        if let (Ok(()), Some(o)) = (&written, &self.obs) {
            o.count_write(out.frames, out.bytes.len(), &out.errors);
        }
        out.bytes.clear();
        out.frames = 0;
        out.errors.clear();
        written
    }
}

/// A listener's per-connection protocol, driven by
/// [`Conn::read_frames`].
pub(crate) trait Handler {
    /// Handles one decoded frame, queueing its replies on `out`;
    /// `false` closes the connection once `out` is written.
    fn frame(&mut self, frame: Frame, out: &mut Outbox) -> bool;

    /// Runs after each successful write of the queued replies.
    fn written(&mut self) {}
}

impl<F: FnMut(Frame, &mut Outbox) -> bool> Handler for F {
    fn frame(&mut self, frame: Frame, out: &mut Outbox) -> bool {
        self(frame, out)
    }
}

/// One accepted connection, configured and ready to read.
pub(crate) struct Conn {
    stream: TcpStream,
    /// The connection's write half, shareable with helper threads.
    pub(crate) writer: Arc<ConnWriter>,
    core: Arc<Core>,
}

impl Conn {
    fn new(stream: TcpStream, core: &Arc<Core>) -> Option<Self> {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(core.read_timeout));
        let writer = Arc::new(ConnWriter {
            stream: Mutex::new(stream.try_clone().ok()?),
            obs: core.obs.clone(),
        });
        Some(Self {
            stream,
            writer,
            core: Arc::clone(core),
        })
    }

    /// Reads frames and hands each to `handler` until the peer closes,
    /// the socket errors, the acceptor stops, or the handler returns
    /// `false`. Replies are written as the module docs describe.
    /// Malformed bytes answer a req-0 [`ErrorCode::Protocol`] and close:
    /// the stream is desynced, so nothing after them is safe. Torn
    /// frames and garbage never panic or leak the connection.
    pub(crate) fn read_frames(mut self, mut handler: impl Handler) {
        let obs = self.writer.obs.as_deref();
        let mut reader = FrameReader::new();
        let mut chunk = [0u8; CHUNK];
        let mut out = Outbox::default();
        loop {
            if self.core.stop.load(Ordering::SeqCst) {
                return;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return, // peer closed
                Ok(n) => {
                    if let Some(o) = obs {
                        o.bytes_in.add(n as u64);
                    }
                    reader.feed(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
            let open = loop {
                match reader.next_frame() {
                    Ok(Some(frame)) => {
                        if let Some(o) = obs {
                            o.frames_in.inc();
                        }
                        let submit =
                            matches!(frame, Frame::SubmitF64 { .. } | Frame::SubmitF32 { .. });
                        if !submit && !self.write(&mut out, &mut handler) {
                            return;
                        }
                        if !handler.frame(frame, &mut out) {
                            break false;
                        }
                    }
                    Ok(None) => break true,
                    Err(_) => {
                        out.error(0, ErrorCode::Protocol);
                        break false;
                    }
                }
            };
            if !self.write(&mut out, &mut handler) || !open {
                return;
            }
        }
    }

    /// Writes the queued replies and, on success, tells the handler.
    /// `false` means the connection is dead.
    fn write(&self, out: &mut Outbox, handler: &mut impl Handler) -> bool {
        let ok = self.writer.write(out).is_ok();
        if ok {
            handler.written();
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reaped_connection_panic_still_fails_stop() {
        let mut acceptor = Acceptor::start(
            ([127, 0, 0, 1], 0).into(),
            "flexsfu-test",
            Duration::from_millis(20),
            None,
            |_| panic!("handler failed"),
        )
        .unwrap();
        drop(TcpStream::connect(acceptor.addr()).unwrap());
        while acceptor.open() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Several accept passes: the finished thread is reaped before
        // the stop, and its panic must still surface.
        std::thread::sleep(Duration::from_millis(20));
        assert!(acceptor.stop().is_err());
        assert!(acceptor.stop().is_ok(), "stop is idempotent");
    }
}
