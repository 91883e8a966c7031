//! Request-lifecycle tracing: sampled per-job stage timestamps.
//!
//! A sampled job carries an [`SpanCell`] (an `Arc` of atomics) through
//! the serving stack; each layer stamps its [`Stage`] as the job passes.
//! The [`SpanRecorder`] keeps the most recent cells in a bounded ring,
//! and [`SpanRecorder::dump`] turns them into plain [`Span`]s — a
//! per-stage latency breakdown that explains *where* any percentile of
//! end-to-end latency went.
//!
//! Sampling is 1-in-N by submit order ([`SampleRate`]), decided by a
//! sequential counter — so a deterministic replay (sequential submits, a
//! [`crate::ManualClock`]) samples the same jobs and stamps the same
//! nanoseconds, bit for bit.

use crate::clock::Clock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lifecycle stages a request moves through, in pipeline order.
///
/// The first three stages are stamped router-side (`flexsfu-shard`), the
/// rest shard-side; a distributed request's two spans share a trace id
/// and split the array between them. Re-stamps are last-wins, so after a
/// failover the surviving stamps are the *final* attempt's — `Retry`
/// (stamped at each retry decision) lands between the first
/// `RouteSelect` and the final `WireSubmit`, which keeps the array order
/// equal to timestamp order on every path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Router picked the serving shard (stamped once, first attempt).
    RouteSelect = 0,
    /// Router decided to retry after a failed attempt (last retry wins).
    Retry = 1,
    /// Router handed the request to the wire client (final attempt).
    WireSubmit = 2,
    /// Request handed to the serving tier.
    Submit = 3,
    /// Request accepted into the batching queue.
    Enqueue = 4,
    /// A serve worker planned the flush containing this request.
    FlushPlan = 5,
    /// Backend evaluation of the flush began.
    BackendEval = 6,
    /// Results scattered back and the ticket completed.
    ScatterBack = 7,
    /// Result frame handed to the client socket (wire tier only).
    WireWrite = 8,
}

/// Number of [`Stage`] variants; the length of a span's stamp array.
pub const STAGE_COUNT: usize = 9;

/// All stages, in pipeline order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::RouteSelect,
    Stage::Retry,
    Stage::WireSubmit,
    Stage::Submit,
    Stage::Enqueue,
    Stage::FlushPlan,
    Stage::BackendEval,
    Stage::ScatterBack,
    Stage::WireWrite,
];

impl Stage {
    /// Stable lower-case name (used in dumps and docs).
    pub fn name(self) -> &'static str {
        match self {
            Stage::RouteSelect => "route_select",
            Stage::Retry => "retry",
            Stage::WireSubmit => "wire_submit",
            Stage::Submit => "submit",
            Stage::Enqueue => "enqueue",
            Stage::FlushPlan => "flush_plan",
            Stage::BackendEval => "backend_eval",
            Stage::ScatterBack => "scatter_back",
            Stage::WireWrite => "wire_write",
        }
    }
}

const UNSET: u64 = u64::MAX;

/// Shared, concurrently stampable span for one in-flight job.
///
/// Stamping is a single relaxed store — safe from any thread holding the
/// `Arc`, allocation-free, and idempotent per stage (last stamp wins).
#[derive(Debug)]
pub struct SpanCell {
    job: u64,
    func: u32,
    trace: Option<u64>,
    stamps: [AtomicU64; STAGE_COUNT],
}

impl SpanCell {
    fn new(job: u64, func: u32, trace: Option<u64>) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: AtomicU64 = AtomicU64::new(UNSET);
        Self {
            job,
            func,
            trace,
            stamps: [EMPTY; STAGE_COUNT],
        }
    }

    /// Sequential job id assigned at sampling time.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Numeric id of the function the job targets.
    pub fn func(&self) -> u32 {
        self.func
    }

    /// Distributed trace id, if this span participates in one.
    ///
    /// `Some` for spans originated by [`SpanRecorder::start_trace`]
    /// (trace roots) and for spans adopted from a propagated id
    /// ([`SpanRecorder::adopt`]); `None` for plain local samples.
    pub fn trace(&self) -> Option<u64> {
        self.trace
    }

    /// Stamps `stage` at `at_ns`. (`u64::MAX` is the reserved "unset"
    /// sentinel and is clamped down by one if ever passed.)
    #[inline]
    pub fn record(&self, stage: Stage, at_ns: u64) {
        let t = if at_ns == UNSET { UNSET - 1 } else { at_ns };
        self.stamps[stage as usize].store(t, Ordering::Relaxed);
    }

    /// Reads back a stamp, if that stage has happened.
    pub fn stamp(&self, stage: Stage) -> Option<u64> {
        match self.stamps[stage as usize].load(Ordering::Relaxed) {
            UNSET => None,
            t => Some(t),
        }
    }
}

/// Plain-data copy of a completed (or in-flight) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Sequential job id (submit order).
    pub job: u64,
    /// Numeric function id.
    pub func: u32,
    /// Distributed trace id; `None` for plain local samples.
    pub trace: Option<u64>,
    /// Per-stage timestamps in ns; `None` = stage not reached (or not
    /// applicable — in-process callers never see a wire write).
    pub stamps: [Option<u64>; STAGE_COUNT],
}

impl Span {
    /// Timestamp of `stage`, if reached.
    pub fn stage(&self, stage: Stage) -> Option<u64> {
        self.stamps[stage as usize]
    }

    /// Duration from `from` to `to` (saturating), if both were stamped.
    pub fn between(&self, from: Stage, to: Stage) -> Option<u64> {
        match (self.stage(from), self.stage(to)) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        }
    }

    /// Submit → last stamped stage (saturating); `None` until two
    /// stages have stamps.
    pub fn total_ns(&self) -> Option<u64> {
        let first = self.stamps.iter().flatten().copied().next()?;
        let last = self.stamps.iter().flatten().copied().last()?;
        Some(last.saturating_sub(first))
    }
}

/// 1-in-N sampling rate: `SampleRate(1)` traces every job,
/// `SampleRate(16)` every sixteenth (by submit order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRate(pub u32);

impl SampleRate {
    /// Trace everything.
    pub const ALL: SampleRate = SampleRate(1);

    /// # Panics
    ///
    /// Panics if the rate is zero.
    fn validate(self) {
        assert!(self.0 > 0, "sample rate must be >= 1");
    }
}

impl Default for SampleRate {
    fn default() -> Self {
        SampleRate(16)
    }
}

#[derive(Debug, Default)]
struct Ring {
    slots: VecDeque<Arc<SpanCell>>,
    dropped: u64,
}

/// Bounded ring of sampled spans plus the clock that stamps them.
///
/// [`SpanRecorder::try_start`] decides sampling and allocates the cell
/// (sampled jobs only — the unsampled path is a counter increment and a
/// branch). When the ring is full the oldest span falls off; `dropped`
/// counts the evictions so a dump is honest about its coverage.
#[derive(Debug)]
pub struct SpanRecorder {
    clock: Arc<dyn Clock>,
    rate: u32,
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<Ring>,
}

impl SpanRecorder {
    /// A recorder keeping at most `capacity` spans, sampling 1-in-`rate`
    /// jobs, stamping from `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the rate is zero.
    pub fn new(capacity: usize, rate: SampleRate, clock: Arc<dyn Clock>) -> Self {
        rate.validate();
        assert!(capacity > 0, "span ring capacity must be >= 1");
        Self {
            clock,
            rate: rate.0,
            capacity,
            seq: AtomicU64::new(0),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// The stamping clock (shared with any layer that stamps directly).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Reads the clock once.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Claims the next sequential job id and, if that job is sampled,
    /// registers and returns its span cell (with no stages stamped yet).
    /// Jobs `0, N, 2N, …` of the submit order are sampled.
    pub fn try_start(&self, func: u32) -> Option<Arc<SpanCell>> {
        let job = self.seq.fetch_add(1, Ordering::Relaxed);
        if !job.is_multiple_of(self.rate as u64) {
            return None;
        }
        Some(self.register(SpanCell::new(job, func, None)))
    }

    /// Like [`SpanRecorder::try_start`], but a sampled span becomes the
    /// *root* of a distributed trace: it carries a fresh nonzero trace
    /// id (`job + 1`, so a sequential replay regenerates the same ids)
    /// for downstream processes to adopt.
    pub fn start_trace(&self, func: u32) -> Option<Arc<SpanCell>> {
        let job = self.seq.fetch_add(1, Ordering::Relaxed);
        if !job.is_multiple_of(self.rate as u64) {
            return None;
        }
        Some(self.register(SpanCell::new(job, func, Some(job + 1))))
    }

    /// Adopts a trace id propagated from an upstream process.
    ///
    /// The upstream origin already made the sampling decision when it
    /// minted the id, so adoption *always* records — local 1-in-N
    /// sampling is bypassed (the job still claims a sequential id, so
    /// interleaved untraced traffic keeps its cadence).
    pub fn adopt(&self, func: u32, trace_id: u64) -> Arc<SpanCell> {
        let job = self.seq.fetch_add(1, Ordering::Relaxed);
        self.register(SpanCell::new(job, func, Some(trace_id)))
    }

    fn register(&self, cell: SpanCell) -> Arc<SpanCell> {
        let cell = Arc::new(cell);
        let mut ring = self.ring.lock().unwrap();
        if ring.slots.len() == self.capacity {
            ring.slots.pop_front();
            ring.dropped += 1;
        }
        ring.slots.push_back(Arc::clone(&cell));
        cell
    }

    /// Stamps `stage` on `cell` with the recorder's clock.
    #[inline]
    pub fn stamp(&self, cell: &SpanCell, stage: Stage) {
        cell.record(stage, self.clock.now_ns());
    }

    /// Jobs submitted so far (sampled or not).
    pub fn submitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Spans evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Copies every retained span out as plain data, oldest first.
    pub fn dump(&self) -> Vec<Span> {
        let ring = self.ring.lock().unwrap();
        ring.slots
            .iter()
            .map(|cell| {
                let mut stamps = [None; STAGE_COUNT];
                for (i, slot) in stamps.iter_mut().enumerate() {
                    *slot = match cell.stamps[i].load(Ordering::Relaxed) {
                        UNSET => None,
                        t => Some(t),
                    };
                }
                Span {
                    job: cell.job,
                    func: cell.func,
                    trace: cell.trace,
                    stamps,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn recorder(rate: u32, cap: usize) -> (Arc<ManualClock>, SpanRecorder) {
        let clock = Arc::new(ManualClock::new());
        let rec = SpanRecorder::new(cap, SampleRate(rate), clock.clone() as Arc<dyn Clock>);
        (clock, rec)
    }

    #[test]
    fn one_in_n_sampling_by_submit_order() {
        let (_, rec) = recorder(4, 64);
        let sampled: Vec<bool> = (0..12).map(|f| rec.try_start(f).is_some()).collect();
        assert_eq!(
            sampled,
            [true, false, false, false, true, false, false, false, true, false, false, false]
        );
        assert_eq!(rec.submitted(), 12);
        assert_eq!(rec.dump().len(), 3);
    }

    #[test]
    fn stamps_read_back_in_stage_order() {
        let (clock, rec) = recorder(1, 8);
        let cell = rec.try_start(7).expect("rate 1 samples everything");
        for (i, &st) in STAGES.iter().enumerate() {
            clock.set(100 * (i as u64 + 1));
            rec.stamp(&cell, st);
        }
        let spans = rec.dump();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.func, 7);
        assert_eq!(s.stage(Stage::RouteSelect), Some(100));
        assert_eq!(s.stage(Stage::Submit), Some(400));
        assert_eq!(s.stage(Stage::WireWrite), Some(900));
        assert_eq!(s.between(Stage::Submit, Stage::BackendEval), Some(300));
        assert_eq!(s.total_ns(), Some(800));
    }

    #[test]
    fn unreached_stages_stay_none() {
        let (_, rec) = recorder(1, 8);
        let cell = rec.try_start(0).unwrap();
        rec.stamp(&cell, Stage::Submit);
        let s = &rec.dump()[0];
        assert_eq!(s.stage(Stage::WireWrite), None);
        assert_eq!(s.between(Stage::Submit, Stage::WireWrite), None);
        assert_eq!(s.total_ns(), Some(0)); // only one stamp
    }

    #[test]
    fn local_samples_carry_no_trace_id() {
        let (_, rec) = recorder(1, 8);
        let cell = rec.try_start(0).unwrap();
        assert_eq!(cell.trace(), None);
        assert_eq!(rec.dump()[0].trace, None);
    }

    #[test]
    fn trace_roots_mint_sequential_nonzero_ids() {
        let (_, rec) = recorder(2, 8);
        let ids: Vec<Option<u64>> = (0..6)
            .map(|f| rec.start_trace(f).map(|c| c.trace().unwrap()))
            .collect();
        // Jobs 0, 2, 4 sampled; trace id = job + 1, never zero.
        assert_eq!(ids, [Some(1), None, Some(3), None, Some(5), None]);
    }

    #[test]
    fn adoption_bypasses_sampling_and_keeps_the_propagated_id() {
        let (_, rec) = recorder(1000, 8);
        // Rate 1000 would sample only job 0 — adoption must ignore that.
        let _ = rec.try_start(0); // job 0, sampled locally
        let adopted = rec.adopt(7, 4242);
        assert_eq!(adopted.trace(), Some(4242));
        assert_eq!(adopted.job(), 1);
        let dump = rec.dump();
        assert_eq!(dump.len(), 2, "adopted span always lands in the ring");
        assert_eq!(dump[1].trace, Some(4242));
        // Interleaved untraced traffic keeps its sequential cadence.
        assert_eq!(rec.submitted(), 2);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let (_, rec) = recorder(1, 2);
        for f in 0..5 {
            rec.try_start(f);
        }
        assert_eq!(rec.dropped(), 3);
        let jobs: Vec<u64> = rec.dump().iter().map(|s| s.job).collect();
        assert_eq!(jobs, [3, 4]);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_rate_is_rejected() {
        let clock = Arc::new(ManualClock::new());
        let _ = SpanRecorder::new(1, SampleRate(0), clock);
    }
}
