//! Telemetry over the wire: a TCP [`TelemetrySink`] and the collector
//! it ships to.
//!
//! The push pipeline reuses the serving protocol's own machinery
//! instead of inventing a second one: a [`WireSink`] carries each
//! [`TelemetryBatch`] as the blob of a [`Frame::Stats`] frame (the
//! same frame a scrape answer uses, flowing the other way) and waits
//! for the collector's [`Frame::Ack`] — delivery is confirmed, not
//! fire-and-forget, so the exporter's retry/backoff accounting is
//! truthful. The [`TelemetryCollector`] decodes batches, keeps the
//! **latest** cumulative snapshot per origin (counters are cumulative;
//! summing overlapping batches would double-count), **appends** spans
//! (batches partition the span stream), and can merge everything into
//! one origin-labelled [`MetricsSnapshot`] or feed a
//! [`TraceAssembler`] for cross-process waterfalls.
//!
//! The collector is not a second server: it is a `Stats` handler on
//! the connection core [`crate::WireServer`] runs on — the same
//! acceptor (2 ms accept poll, one thread per connection, finished
//! threads reaped on every pass, stop-and-join shutdown), the same
//! frame-read loop (malformed bytes answer a protocol error and
//! close), and the same coalescing reply writer. Only what it does
//! with a decoded frame is its own.
//!
//! Failure semantics match the exporter's contract: a dead or slow
//! collector surfaces as a [`SinkError`] (the sink reconnects lazily
//! on the next ship), the exporter buffers and eventually drops with
//! counted loss, and the serving hot path never notices any of it.

use crate::conn::{Acceptor, Outbox};
use crate::frame::{ErrorCode, Frame, FrameReader};
use flexsfu_obs::{
    MetricsSnapshot, SinkError, Span, TelemetryBatch, TelemetrySink, TraceAssembler,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A [`TelemetrySink`] that ships batches to a [`TelemetryCollector`]
/// over TCP, one `Stats` frame per batch, acknowledged per batch.
///
/// The connection is opened lazily on the first ship and re-opened
/// after any failure — a restarting collector needs no coordination,
/// the next ship simply reconnects (or fails and lets the exporter
/// buffer).
pub struct WireSink {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<SinkConn>,
}

struct SinkConn {
    stream: TcpStream,
    frames: FrameReader,
}

impl WireSink {
    /// A sink for the collector at `addr` with a 1-second per-ship
    /// timeout.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_timeout(addr, Duration::from_secs(1))
    }

    /// A sink with an explicit bound on connect + ack latency per
    /// ship. Keep it well under the exporter's tick interval times its
    /// buffer — a wedged collector should fail fast into the bounded
    /// buffer, not stall the export schedule.
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            conn: None,
        }
    }

    fn conn(&mut self) -> Result<&mut SinkConn, SinkError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
                .map_err(|e| SinkError(format!("connect {}: {e}", self.addr)))?;
            stream
                .set_nodelay(true)
                .map_err(|e| SinkError(format!("nodelay: {e}")))?;
            stream
                .set_read_timeout(Some(self.timeout))
                .map_err(|e| SinkError(format!("read timeout: {e}")))?;
            self.conn = Some(SinkConn {
                stream,
                frames: FrameReader::new(),
            });
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn ship_inner(&mut self, batch: &TelemetryBatch) -> Result<(), SinkError> {
        let nonce = batch.seq;
        let frame = Frame::Stats {
            nonce,
            snapshot: batch.encode(),
        };
        let deadline = Instant::now() + self.timeout;
        let conn = self.conn()?;
        conn.stream
            .write_all(&frame.encode())
            .map_err(|e| SinkError(format!("write: {e}")))?;
        // Await the matching ack; anything else from the collector is a
        // refusal.
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(reply) = conn
                .frames
                .next_frame()
                .map_err(|e| SinkError(format!("collector sent garbage: {e}")))?
            {
                return match reply {
                    Frame::Ack { req } if req == nonce => Ok(()),
                    Frame::Ack { req } => {
                        // A stale ack from a batch whose wait we abandoned;
                        // keep reading for ours.
                        let _ = req;
                        continue;
                    }
                    other => Err(SinkError(format!("collector refused batch: {other:?}"))),
                };
            }
            if Instant::now() >= deadline {
                return Err(SinkError("ack timeout".into()));
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => return Err(SinkError("collector closed connection".into())),
                Ok(n) => conn.frames.feed(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(SinkError("ack timeout".into()));
                }
                Err(e) => return Err(SinkError(format!("read: {e}"))),
            }
        }
    }
}

impl TelemetrySink for WireSink {
    fn ship(&mut self, batch: &TelemetryBatch) -> Result<(), SinkError> {
        let res = self.ship_inner(batch);
        if res.is_err() {
            // The stream may hold a half-written frame or a stale ack;
            // nothing on it is trustworthy. Reconnect on the next ship.
            self.conn = None;
        }
        res
    }
}

/// Per-origin accumulation: the latest cumulative snapshot (guarded by
/// batch sequence, so a reordered stale batch cannot roll telemetry
/// backwards) and every span received.
#[derive(Default)]
struct CollectorState {
    snapshots: HashMap<String, (u64, MetricsSnapshot)>,
    spans: HashMap<String, Vec<Span>>,
    batches: u64,
}

/// How long a collector connection's read waits before re-checking the
/// stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// The receiving end of the push pipeline: accepts [`WireSink`]
/// connections, acks each decoded [`TelemetryBatch`], and merges
/// per-origin telemetry. Dropping the collector shuts it down; a
/// killed collector is exactly the failure the exporter's bounded
/// buffer absorbs.
pub struct TelemetryCollector {
    state: Arc<Mutex<CollectorState>>,
    acceptor: Acceptor,
}

impl TelemetryCollector {
    /// Binds `addr` (port 0 for ephemeral) and starts collecting.
    ///
    /// # Errors
    ///
    /// The bind error, if the address is unavailable.
    pub fn start(addr: SocketAddr) -> std::io::Result<Self> {
        let state = Arc::new(Mutex::new(CollectorState::default()));
        let acceptor = {
            let state = Arc::clone(&state);
            Acceptor::start(
                addr,
                "flexsfu-collector",
                POLL_INTERVAL,
                None,
                move |conn| {
                    conn.read_frames(|frame, out: &mut Outbox| collect(frame, &state, out));
                },
            )?
        };
        Ok(Self { state, acceptor })
    }

    /// [`Self::start`] on `127.0.0.1:0`.
    ///
    /// # Errors
    ///
    /// As [`Self::start`].
    pub fn start_local() -> std::io::Result<Self> {
        Self::start(([127, 0, 0, 1], 0).into())
    }

    /// The bound address (hand this to [`WireSink::new`]).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Batches successfully decoded and acked so far.
    pub fn batches_received(&self) -> u64 {
        self.state.lock().unwrap().batches
    }

    /// Origins that have shipped at least one batch, sorted.
    pub fn origins(&self) -> Vec<String> {
        let st = self.state.lock().unwrap();
        let mut o: Vec<String> = st.snapshots.keys().cloned().collect();
        o.sort();
        o
    }

    /// The latest cumulative snapshot shipped by `origin`, if any.
    pub fn snapshot_for(&self, origin: &str) -> Option<MetricsSnapshot> {
        let st = self.state.lock().unwrap();
        st.snapshots.get(origin).map(|(_, s)| s.clone())
    }

    /// Every span `origin` has shipped, in ship order.
    pub fn spans_for(&self, origin: &str) -> Vec<Span> {
        let st = self.state.lock().unwrap();
        st.spans.get(origin).cloned().unwrap_or_default()
    }

    /// One fleet-wide snapshot: each origin's latest snapshot tagged
    /// `origin="…"` and merged — the collector-side equivalent of the
    /// shard router's `scrape_all`.
    pub fn merged(&self) -> MetricsSnapshot {
        let st = self.state.lock().unwrap();
        let mut keys: Vec<&String> = st.snapshots.keys().collect();
        keys.sort();
        let mut out = MetricsSnapshot::new();
        for k in keys {
            out.merge(&st.snapshots[k].1.clone().with_label("origin", k));
        }
        out
    }

    /// A [`TraceAssembler`] over every origin's shipped spans — the
    /// collector-side path to cross-process waterfalls.
    pub fn assembler(&self) -> TraceAssembler {
        let st = self.state.lock().unwrap();
        let mut keys: Vec<&String> = st.spans.keys().collect();
        keys.sort();
        let mut asm = TraceAssembler::new();
        for k in keys {
            asm.add_origin(k.clone(), st.spans[k].clone());
        }
        asm
    }

    /// Stops accepting, closes connections, joins threads. Dropping
    /// the collector does the same, except that only `shutdown` reports
    /// a connection thread's panic.
    ///
    /// # Panics
    ///
    /// If a connection thread panicked.
    pub fn shutdown(mut self) {
        self.acceptor
            .stop()
            .expect("collector connection thread panicked");
    }
}

/// One exporter frame: a `Stats` batch is merged and acked; any other
/// frame closes the connection with a typed protocol error.
fn collect(frame: Frame, state: &Mutex<CollectorState>, out: &mut Outbox) -> bool {
    let Frame::Stats { nonce, snapshot } = frame else {
        // Only Stats frames belong on a telemetry connection.
        out.error(0, ErrorCode::Protocol);
        return false;
    };
    match TelemetryBatch::decode(&snapshot) {
        Ok(batch) => {
            apply(&mut state.lock().unwrap(), batch);
            out.push(&Frame::Ack { req: nonce });
        }
        // A well-framed Stats whose blob is not a batch: refuse it but
        // keep the connection — the framing is intact, later batches
        // may be fine.
        Err(_) => out.error(nonce, ErrorCode::Protocol),
    }
    true
}

/// Folds one decoded batch into the collector state: snapshots
/// last-write-wins per origin by sequence, spans append.
fn apply(state: &mut CollectorState, batch: TelemetryBatch) {
    state.batches += 1;
    state
        .spans
        .entry(batch.origin.clone())
        .or_default()
        .extend(batch.spans);
    match state.snapshots.get(&batch.origin) {
        Some((seq, _)) if *seq > batch.seq => {} // stale reorder: keep newer
        _ => {
            state
                .snapshots
                .insert(batch.origin, (batch.seq, batch.snapshot));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_obs::{
        Clock, ExporterConfig, ManualClock, MetricsRegistry, SampleRate, SpanRecorder, Stage,
        TelemetryExporter, M_EXPORTER_DROPPED,
    };
    use std::net::Shutdown;

    fn batch(origin: &str, seq: u64, counter: u64) -> TelemetryBatch {
        let m = MetricsRegistry::new();
        m.counter("flexsfu_submits_total").add(counter);
        TelemetryBatch {
            origin: origin.into(),
            seq,
            snapshot: m.snapshot(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn sink_ships_and_collector_keeps_latest_per_origin() {
        let collector = TelemetryCollector::start_local().unwrap();
        let mut sink = WireSink::new(collector.local_addr());
        sink.ship(&batch("a", 0, 1)).unwrap();
        sink.ship(&batch("a", 1, 5)).unwrap();
        sink.ship(&batch("b", 0, 7)).unwrap();
        assert_eq!(collector.batches_received(), 3);
        assert_eq!(collector.origins(), ["a", "b"]);
        // Latest per origin, not a sum of overlapping cumulative batches.
        assert_eq!(
            collector
                .snapshot_for("a")
                .unwrap()
                .counter("flexsfu_submits_total"),
            Some(5)
        );
        let merged = collector.merged();
        assert_eq!(
            merged.counter(&flexsfu_obs::labeled(
                "flexsfu_submits_total",
                &[("origin", "a")]
            )),
            Some(5)
        );
        assert_eq!(
            merged.counter(&flexsfu_obs::labeled(
                "flexsfu_submits_total",
                &[("origin", "b")]
            )),
            Some(7)
        );
        collector.shutdown();
    }

    #[test]
    fn collector_appends_spans_and_feeds_the_assembler() {
        let collector = TelemetryCollector::start_local().unwrap();
        let clock = Arc::new(ManualClock::new());
        let rec = SpanRecorder::new(8, SampleRate::ALL, clock.clone() as Arc<dyn Clock>);
        clock.set(10);
        let s = rec.adopt(0, 42);
        rec.stamp(&s, Stage::Submit);
        let mut sink = WireSink::new(collector.local_addr());
        sink.ship(&TelemetryBatch {
            origin: "shard0".into(),
            seq: 0,
            snapshot: MetricsSnapshot::new(),
            spans: rec.dump(),
        })
        .unwrap();
        assert_eq!(collector.spans_for("shard0").len(), 1);
        let traces = collector.assembler().assemble();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].trace_id, 42);
        collector.shutdown();
    }

    #[test]
    fn dead_collector_fails_ships_into_counted_drops_then_recovers() {
        let collector = TelemetryCollector::start_local().unwrap();
        let addr = collector.local_addr();
        let metrics = Arc::new(MetricsRegistry::new());
        let sink = WireSink::with_timeout(addr, Duration::from_millis(200));
        let mut exporter = TelemetryExporter::new("exp", Arc::clone(&metrics), Box::new(sink))
            .with_config(ExporterConfig {
                buffer: 2,
                max_backoff_ticks: 1,
                ..ExporterConfig::default()
            });
        assert_eq!(exporter.tick().shipped, 1);

        // Kill the collector: ships fail, the bounded buffer fills and
        // drops with every loss counted — and ticking never blocks
        // longer than the sink timeout.
        collector.shutdown();
        let mut dropped = 0;
        for _ in 0..6 {
            dropped += exporter.tick().dropped;
        }
        assert!(dropped > 0, "bounded buffer never dropped");
        assert_eq!(
            metrics.snapshot().counter(M_EXPORTER_DROPPED),
            Some(dropped as u64)
        );

        // A new collector on a fresh port: the sink reconnects lazily
        // and the buffered tail ships.
        let revived = TelemetryCollector::start_local().unwrap();
        let sink = WireSink::with_timeout(revived.local_addr(), Duration::from_millis(500));
        let mut exporter = TelemetryExporter::new("exp", metrics, Box::new(sink));
        let mut shipped = 0;
        for _ in 0..4 {
            shipped += exporter.tick().shipped;
        }
        assert!(shipped > 0, "sink never recovered");
        revived.shutdown();
    }

    #[test]
    fn torn_and_garbage_telemetry_connections_do_not_wedge_the_collector() {
        let collector = TelemetryCollector::start_local().unwrap();
        let addr = collector.local_addr();

        // Torn: a header promising more than ever arrives.
        let full = Frame::Stats {
            nonce: 1,
            snapshot: batch("x", 0, 1).encode(),
        }
        .encode();
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(&full[..full.len() / 2]).unwrap();
        let _ = torn.shutdown(Shutdown::Write);
        drop(torn);

        // Garbage framing: closes with a protocol error, no panic.
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut reply = Vec::new();
        let _ = garbage.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = garbage.read_to_end(&mut reply);
        drop(garbage);

        // A well-framed Stats whose blob is not a batch: refused with a
        // typed error, connection stays usable.
        let mut sink = WireSink::new(addr);
        let res = sink.ship(&batch("y", 0, 1));
        assert!(res.is_ok());
        // Nothing from the bad connections landed.
        assert_eq!(collector.origins(), ["y"]);
        collector.shutdown();
    }

    #[test]
    fn stale_reordered_batch_cannot_roll_an_origin_backwards() {
        let collector = TelemetryCollector::start_local().unwrap();
        let mut sink = WireSink::new(collector.local_addr());
        sink.ship(&batch("a", 5, 50)).unwrap();
        sink.ship(&batch("a", 3, 30)).unwrap(); // late duplicate path
        assert_eq!(
            collector
                .snapshot_for("a")
                .unwrap()
                .counter("flexsfu_submits_total"),
            Some(50)
        );
        assert_eq!(collector.batches_received(), 2);
        collector.shutdown();
    }
}
