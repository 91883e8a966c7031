//! Push-mode telemetry: a background exporter shipping snapshots and
//! completed spans to a sink.
//!
//! Scrape-only telemetry dies with the scraper; the
//! [`TelemetryExporter`] inverts the arrow. Each tick it copies the
//! source registry ([`MetricsSnapshot`]) and the span ring's *new*
//! spans into a [`TelemetryBatch`] and pushes the batch through a
//! [`TelemetrySink`]. The hot path is never involved: the exporter
//! only **reads** atomics and the bounded span ring, on its own
//! thread — serving never blocks on, allocates for, or even knows
//! about export.
//!
//! Sinks fail (collectors restart, networks partition), so batches
//! buffer in a **bounded** queue: when the sink is down the queue
//! absorbs up to [`ExporterConfig::buffer`] batches, then drops the
//! oldest and counts every drop in [`M_EXPORTER_DROPPED`] — loss is
//! explicit, never silent, and never back-pressures serving. Failed
//! ships back off exponentially (in tick units, so the schedule is
//! deterministic under test) up to
//! [`ExporterConfig::max_backoff_ticks`].
//!
//! Like the adaptive retuner, the loop is **steppable**:
//! [`TelemetryExporter::tick`] takes no time and reads no clock, and
//! [`TelemetryExporter::spawn`] wraps the same tick in a thread for
//! production.

use crate::cursor::ByteCursor;
use crate::metrics::{Counter, MetricsRegistry};
use crate::snapshot::{finish, read_key, MetricsSnapshot, SnapshotError};
use crate::span::{Span, SpanRecorder, STAGE_COUNT};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Counter: batches shipped successfully through the sink.
pub const M_EXPORTER_SHIPPED: &str = "flexsfu_exporter_shipped_total";
/// Counter: batches dropped because the bounded buffer overflowed
/// while the sink was failing. Every lost export is counted here.
pub const M_EXPORTER_DROPPED: &str = "flexsfu_exporter_dropped_total";
/// Counter: individual ship attempts that failed.
pub const M_EXPORTER_FAILURES: &str = "flexsfu_exporter_failures_total";

/// Codec magic for a serialized [`TelemetryBatch`].
pub const BATCH_MAGIC: [u8; 4] = *b"FXTB";
/// Current batch codec version.
pub const BATCH_VERSION: u16 = 1;

/// One export unit: who, when (sequence), and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryBatch {
    /// Origin label of the exporting process (e.g. `shard0`).
    pub origin: String,
    /// Monotonic batch sequence number per exporter, from 0.
    pub seq: u64,
    /// Cumulative registry snapshot at collection time. Successive
    /// batches overlap (counters are cumulative) — a collector keeps
    /// the **latest** per origin rather than summing.
    pub snapshot: MetricsSnapshot,
    /// Spans that entered the ring since the previous batch, with
    /// whatever stamps they had at collection time. Disjoint across
    /// batches (watermarked by job id) — a collector appends.
    pub spans: Vec<Span>,
}

impl TelemetryBatch {
    /// Serializes the batch (magic `FXTB`; the snapshot travels as its
    /// own nested `FXOB` blob, spans as sparse stamp arrays).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&BATCH_MAGIC);
        out.extend_from_slice(&BATCH_VERSION.to_le_bytes());
        assert!(self.origin.len() <= u16::MAX as usize, "origin too long");
        out.extend_from_slice(&(self.origin.len() as u16).to_le_bytes());
        out.extend_from_slice(self.origin.as_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        let blob = self.snapshot.encode();
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        out.extend_from_slice(&blob);
        out.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
        for span in &self.spans {
            out.extend_from_slice(&span.job.to_le_bytes());
            out.extend_from_slice(&span.func.to_le_bytes());
            match span.trace {
                Some(id) => {
                    out.push(1);
                    out.extend_from_slice(&id.to_le_bytes());
                }
                None => out.push(0),
            }
            // Stamp count travels explicitly so peers with a different
            // stage vocabulary still decode the prefix they know.
            out.extend_from_slice(&(STAGE_COUNT as u16).to_le_bytes());
            for stamp in &span.stamps {
                out.extend_from_slice(&stamp.unwrap_or(u64::MAX).to_le_bytes());
            }
        }
        out
    }

    /// Total decoder for [`TelemetryBatch::encode`]'s output. Stamp
    /// arrays longer than this build's [`STAGE_COUNT`] are truncated,
    /// shorter ones padded with `None` — both directions of a stage
    /// vocabulary skew decode cleanly.
    ///
    /// # Errors
    ///
    /// Any malformed input yields a [`SnapshotError`] (the batch codec
    /// shares the snapshot codec's error vocabulary); trailing bytes
    /// are rejected.
    pub fn decode(bytes: &[u8]) -> Result<TelemetryBatch, SnapshotError> {
        let mut c = ByteCursor::new(bytes);
        let magic = c.array::<4>()?;
        if magic != BATCH_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = c.u16()?;
        if version != BATCH_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let origin = read_key(&mut c)?;
        let seq = c.u64()?;
        let blen = c.u32()? as usize;
        let snapshot = MetricsSnapshot::decode(c.bytes(blen)?)?;
        // Each span needs at least job + func + flag + stamp count.
        let nspans = c.count(8 + 4 + 1 + 2)?;
        let mut spans = Vec::with_capacity(nspans);
        for _ in 0..nspans {
            let job = c.u64()?;
            let func = c.u32()?;
            let trace = match c.u8()? {
                0 => None,
                _ => Some(c.u64()?),
            };
            let nstamps = c.u16()? as usize;
            let mut stamps = [None; STAGE_COUNT];
            for i in 0..nstamps {
                let raw = c.u64()?;
                if i < STAGE_COUNT && raw != u64::MAX {
                    stamps[i] = Some(raw);
                }
            }
            spans.push(Span {
                job,
                func,
                trace,
                stamps,
            });
        }
        finish(&c)?;
        Ok(TelemetryBatch {
            origin,
            seq,
            snapshot,
            spans,
        })
    }
}

/// Where a ship attempt went wrong (carried back to the exporter for
/// retry/backoff accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkError(pub String);

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry sink error: {}", self.0)
    }
}

impl std::error::Error for SinkError {}

/// Destination for telemetry batches. Implementations must not block
/// indefinitely — the exporter thread is the only caller, but a wedged
/// sink would stall the export schedule (never serving itself).
pub trait TelemetrySink: Send {
    /// Ships one batch. An `Err` leaves the batch buffered for retry.
    ///
    /// # Errors
    ///
    /// [`SinkError`] when delivery failed; the exporter retries with
    /// backoff and eventually drops (counted) under buffer pressure.
    fn ship(&mut self, batch: &TelemetryBatch) -> Result<(), SinkError>;
}

/// In-memory [`TelemetrySink`] for tests: stores shipped batches in a
/// shared vector and fails on demand via a shared switch.
#[derive(Debug, Default)]
pub struct MemorySink {
    store: Arc<Mutex<Vec<TelemetryBatch>>>,
    fail: Arc<AtomicBool>,
}

impl MemorySink {
    /// An empty, succeeding sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared handle to the shipped batches (observe from the test
    /// thread while the exporter owns the sink).
    pub fn store(&self) -> Arc<Mutex<Vec<TelemetryBatch>>> {
        Arc::clone(&self.store)
    }

    /// Shared failure switch: while `true`, every ship fails.
    pub fn fail_switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fail)
    }
}

impl TelemetrySink for MemorySink {
    fn ship(&mut self, batch: &TelemetryBatch) -> Result<(), SinkError> {
        if self.fail.load(Ordering::Acquire) {
            return Err(SinkError("memory sink switched to fail".into()));
        }
        self.store
            .lock()
            .expect("sink store poisoned")
            .push(batch.clone());
        Ok(())
    }
}

/// Exporter tuning knobs.
#[derive(Debug, Clone)]
pub struct ExporterConfig {
    /// Tick period for [`TelemetryExporter::spawn`].
    pub interval: Duration,
    /// Maximum batches held while the sink fails; beyond this the
    /// oldest batch is dropped and counted.
    pub buffer: usize,
    /// Backoff cap after consecutive failures, in ticks (backoff grows
    /// 1, 2, 4, … up to this).
    pub max_backoff_ticks: u32,
}

impl Default for ExporterConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(250),
            buffer: 64,
            max_backoff_ticks: 32,
        }
    }
}

/// What one [`TelemetryExporter::tick`] did (for tests and logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Batches shipped this tick.
    pub shipped: usize,
    /// Batches dropped to the bounded buffer this tick.
    pub dropped: usize,
    /// Batches still buffered after the tick.
    pub buffered: usize,
    /// True when shipping was skipped because a backoff is in effect.
    pub backing_off: bool,
}

/// The push-mode telemetry loop. See the module docs for semantics.
pub struct TelemetryExporter {
    origin: String,
    metrics: Arc<MetricsRegistry>,
    spans: Option<Arc<SpanRecorder>>,
    sink: Box<dyn TelemetrySink>,
    config: ExporterConfig,
    seq: u64,
    /// Exclusive lower watermark: spans with `job <= watermark` were
    /// already collected into a batch.
    span_watermark: Option<u64>,
    buffer: VecDeque<TelemetryBatch>,
    /// Consecutive ship failures (drives the exponential backoff).
    failure_streak: u32,
    /// Ticks to skip before the next ship attempt.
    backoff_left: u32,
    shipped: Arc<Counter>,
    dropped: Arc<Counter>,
    failures: Arc<Counter>,
}

impl TelemetryExporter {
    /// An exporter reading `metrics`, shipping as `origin` through
    /// `sink`, with the default [`ExporterConfig`].
    ///
    /// The exporter's own counters ([`M_EXPORTER_SHIPPED`],
    /// [`M_EXPORTER_DROPPED`], [`M_EXPORTER_FAILURES`]) register into
    /// the same source registry, so they travel inside the very
    /// snapshots they describe.
    pub fn new(
        origin: impl Into<String>,
        metrics: Arc<MetricsRegistry>,
        sink: Box<dyn TelemetrySink>,
    ) -> Self {
        Self {
            origin: origin.into(),
            shipped: metrics.counter(M_EXPORTER_SHIPPED),
            dropped: metrics.counter(M_EXPORTER_DROPPED),
            failures: metrics.counter(M_EXPORTER_FAILURES),
            metrics,
            spans: None,
            sink,
            config: ExporterConfig::default(),
            seq: 0,
            span_watermark: None,
            buffer: VecDeque::new(),
            failure_streak: 0,
            backoff_left: 0,
        }
    }

    /// Also ship new spans from `spans` in every batch.
    pub fn with_spans(mut self, spans: Arc<SpanRecorder>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Replaces the default configuration.
    pub fn with_config(mut self, config: ExporterConfig) -> Self {
        assert!(config.buffer > 0, "exporter buffer must be >= 1");
        self.config = config;
        self
    }

    /// Origin label batches are stamped with.
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// One steppable pass: collect a batch, then try to drain the
    /// buffer oldest-first (unless backing off). Deterministic given
    /// the registry/ring/sink states — no clock, no time.
    pub fn tick(&mut self) -> TickReport {
        let mut report = TickReport::default();

        // Collect. Only spans newer than the watermark travel, so
        // batches partition the span stream.
        let spans = match &self.spans {
            Some(rec) => {
                let mut new: Vec<Span> = rec
                    .dump()
                    .into_iter()
                    .filter(|s| self.span_watermark.is_none_or(|w| s.job > w))
                    .collect();
                new.sort_by_key(|s| s.job);
                if let Some(last) = new.last() {
                    self.span_watermark = Some(last.job);
                }
                new
            }
            None => Vec::new(),
        };
        let batch = TelemetryBatch {
            origin: self.origin.clone(),
            seq: self.seq,
            snapshot: self.metrics.snapshot(),
            spans,
        };
        self.seq += 1;
        if self.buffer.len() == self.config.buffer {
            self.buffer.pop_front();
            self.dropped.inc();
            report.dropped += 1;
        }
        self.buffer.push_back(batch);

        // Ship, honouring the backoff schedule.
        if self.backoff_left > 0 {
            self.backoff_left -= 1;
            report.backing_off = true;
            report.buffered = self.buffer.len();
            return report;
        }
        while let Some(front) = self.buffer.front() {
            match self.sink.ship(front) {
                Ok(()) => {
                    self.buffer.pop_front();
                    self.shipped.inc();
                    self.failure_streak = 0;
                    report.shipped += 1;
                }
                Err(_) => {
                    self.failures.inc();
                    self.failure_streak = self.failure_streak.saturating_add(1);
                    let ticks = 1u32 << (self.failure_streak - 1).min(31);
                    self.backoff_left = ticks.min(self.config.max_backoff_ticks);
                    report.backing_off = true;
                    break;
                }
            }
        }
        report.buffered = self.buffer.len();
        report
    }

    /// Runs the loop on a background thread, ticking every
    /// [`ExporterConfig::interval`]. Stop via the returned handle.
    pub fn spawn(self) -> ExporterHandle {
        let interval = self.config.interval;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("flexsfu-exporter".into())
            .spawn(move || {
                let mut exporter = self;
                while !thread_stop.load(Ordering::Acquire) {
                    exporter.tick();
                    std::thread::park_timeout(interval);
                }
                // One final collect-and-ship so a clean shutdown
                // flushes whatever accumulated since the last tick.
                exporter.tick();
            })
            .expect("spawn exporter thread");
        ExporterHandle { stop, join }
    }
}

/// Handle to a spawned background exporter.
pub struct ExporterHandle {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<()>,
}

impl ExporterHandle {
    /// Stops the loop (after one final flush tick) and joins the
    /// thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.join.thread().unpark();
        self.join.join().expect("exporter thread panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::span::{SampleRate, Stage};

    fn exporter_with(sink: MemorySink, buffer: usize) -> (TelemetryExporter, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        let exporter = TelemetryExporter::new("test", Arc::clone(&metrics), Box::new(sink))
            .with_config(ExporterConfig {
                buffer,
                max_backoff_ticks: 4,
                ..ExporterConfig::default()
            });
        (exporter, metrics)
    }

    #[test]
    fn batch_codec_round_trips() {
        let metrics = MetricsRegistry::new();
        metrics.counter("c").add(3);
        let clock = Arc::new(ManualClock::new());
        let rec = SpanRecorder::new(8, SampleRate::ALL, clock.clone() as Arc<dyn Clock>);
        let local = rec.try_start(1).unwrap();
        clock.set(50);
        rec.stamp(&local, Stage::Submit);
        let traced = rec.adopt(2, 77);
        rec.stamp(&traced, Stage::Enqueue);
        let batch = TelemetryBatch {
            origin: "shard0".into(),
            seq: 9,
            snapshot: metrics.snapshot(),
            spans: rec.dump(),
        };
        let bytes = batch.encode();
        assert_eq!(TelemetryBatch::decode(&bytes).unwrap(), batch);
    }

    #[test]
    fn batch_decode_is_total() {
        let batch = TelemetryBatch {
            origin: "o".into(),
            seq: 0,
            snapshot: MetricsSnapshot::new(),
            spans: vec![Span {
                job: 1,
                func: 2,
                trace: Some(3),
                stamps: [None; STAGE_COUNT],
            }],
        };
        let good = batch.encode();
        assert_eq!(
            TelemetryBatch::decode(b"NOPE"),
            Err(SnapshotError::BadMagic(*b"NOPE"))
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            TelemetryBatch::decode(&trailing),
            Err(SnapshotError::TrailingBytes(1))
        );
        for cut in 0..good.len() {
            assert!(TelemetryBatch::decode(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn ticks_ship_disjoint_span_sets() {
        let sink = MemorySink::new();
        let store = sink.store();
        let (exporter, _metrics) = exporter_with(sink, 8);
        let clock = Arc::new(ManualClock::new());
        let rec = Arc::new(SpanRecorder::new(
            64,
            SampleRate::ALL,
            clock as Arc<dyn Clock>,
        ));
        let mut exporter = exporter.with_spans(Arc::clone(&rec));

        rec.try_start(0).unwrap();
        rec.try_start(1).unwrap();
        assert_eq!(exporter.tick().shipped, 1);
        rec.try_start(2).unwrap();
        assert_eq!(exporter.tick().shipped, 1);
        exporter.tick(); // nothing new

        let batches = store.lock().unwrap();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].seq, 0);
        let jobs0: Vec<u64> = batches[0].spans.iter().map(|s| s.job).collect();
        let jobs1: Vec<u64> = batches[1].spans.iter().map(|s| s.job).collect();
        assert_eq!(jobs0, [0, 1]);
        assert_eq!(jobs1, [2]);
        assert!(batches[2].spans.is_empty());
    }

    #[test]
    fn failed_ships_buffer_then_drop_oldest_counted() {
        let sink = MemorySink::new();
        let fail = sink.fail_switch();
        let store = sink.store();
        let (mut exporter, metrics) = exporter_with(sink, 2);

        fail.store(true, Ordering::Release);
        // Tick 1 fails (streak 1, backoff 1 tick), ticks 2-3 alternate
        // between backing off and failing again; buffer caps at 2.
        let mut dropped = 0;
        for _ in 0..6 {
            dropped += exporter.tick().dropped;
        }
        assert!(dropped > 0, "bounded buffer never dropped");
        assert_eq!(
            metrics.snapshot().counter(M_EXPORTER_DROPPED),
            Some(dropped as u64)
        );
        assert!(metrics.snapshot().counter(M_EXPORTER_FAILURES).unwrap() > 0);
        assert!(store.lock().unwrap().is_empty());

        // Sink recovers: once the backoff lapses, buffered batches
        // drain oldest-first (the backoff can be up to 4 ticks deep).
        fail.store(false, Ordering::Release);
        let mut shipped = 0;
        for _ in 0..12 {
            let r = exporter.tick();
            shipped += r.shipped;
            if r.buffered == 0 {
                break;
            }
        }
        assert!(shipped >= 2, "recovery never drained the buffer");
        let seqs: Vec<u64> = store.lock().unwrap().iter().map(|b| b.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "batches shipped out of order");
    }

    #[test]
    fn backoff_grows_and_resets_after_success() {
        let sink = MemorySink::new();
        let fail = sink.fail_switch();
        let (mut exporter, _metrics) = exporter_with(sink, 64);
        fail.store(true, Ordering::Release);
        // streak 1 -> backoff 1; streak 2 -> backoff 2; streak 3 -> 4
        // (capped at 4 by the test config).
        let mut attempts = Vec::new();
        for _ in 0..12 {
            let r = exporter.tick();
            attempts.push(!r.backing_off || r.shipped > 0);
        }
        fail.store(false, Ordering::Release);
        // Let the backoff lapse, then everything drains.
        let mut drained = false;
        for _ in 0..8 {
            if exporter.tick().buffered == 0 {
                drained = true;
                break;
            }
        }
        assert!(drained, "buffer never drained after recovery");
        assert_eq!(exporter.failure_streak, 0);
    }

    #[test]
    fn spawned_exporter_ships_and_flushes_on_stop() {
        let sink = MemorySink::new();
        let store = sink.store();
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.counter("c").add(1);
        let exporter = TelemetryExporter::new("bg", Arc::clone(&metrics), Box::new(sink))
            .with_config(ExporterConfig {
                interval: Duration::from_millis(5),
                ..ExporterConfig::default()
            });
        let handle = exporter.spawn();
        std::thread::sleep(Duration::from_millis(30));
        handle.stop();
        let batches = store.lock().unwrap();
        assert!(!batches.is_empty(), "background exporter never shipped");
        assert_eq!(batches[0].origin, "bg");
        assert_eq!(batches[0].snapshot.counter("c"), Some(1));
    }
}
