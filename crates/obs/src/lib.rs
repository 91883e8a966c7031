//! Observability core for the Flex-SFU serving stack.
//!
//! Hand-rolled, std-only, zero-dep — in the house style of the serve
//! oneshot and the wire codec. Three pillars:
//!
//! 1. **Metrics** ([`metrics`]): a [`MetricsRegistry`] of sharded atomic
//!    [`Counter`]s, [`Gauge`]s, and fixed-boundary log-scale
//!    [`LogHistogram`]s. Handles resolve once (locked, allocating) and
//!    record forever after with no locks and zero heap — cheap enough
//!    for the flush hot path, and pinned there by a counting-allocator
//!    test.
//! 2. **Tracing** ([`span`]): a sampled [`SpanRecorder`] ring of per-job
//!    [`Stage`] timestamps (submit → enqueue → flush-plan → backend eval
//!    → scatter-back → wire write), stamped through a [`Clock`] trait so
//!    production uses monotonic time while trace replays use a
//!    [`ManualClock`] and produce bit-identical spans.
//! 3. **Exposition** ([`snapshot`]): mergeable [`MetricsSnapshot`]s with
//!    a versioned `FXOB` binary codec (total decoding — this is the wire
//!    `Stats` frame payload) and a Prometheus text rendering. Its
//!    decoder, the telemetry batch's, the wire frame codec's and the
//!    traffic trace's all read through one [`ByteCursor`] ([`cursor`]).
//! 4. **Distributed tracing** ([`trace`]): spans carry a u64 trace id
//!    across process boundaries (the router mints it, the shard adopts
//!    it off the wire) and the [`TraceAssembler`] joins per-process
//!    span rings into per-request waterfalls with provable
//!    cross-process stage ordering.
//! 5. **Push + alerting** ([`export`], [`slo`]): a background
//!    [`TelemetryExporter`] ships periodic snapshot+span
//!    [`TelemetryBatch`]es through a [`TelemetrySink`] with bounded
//!    buffering and counted drops, and the [`SloEvaluator`] turns
//!    declarative [`SloRule`]s into edge-triggered firing/resolved
//!    alerts published back into the registry.
//!
//! The serving layers (`flexsfu-serve`, `flexsfu-wire`, `flexsfu-shard`,
//! `flexsfu-traffic`) each accept an optional handle into this crate and
//! stay zero-overhead when observability is off.

pub mod clock;
pub mod cursor;
pub mod export;
pub mod metrics;
pub mod slo;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use cursor::{ByteCursor, OutOfBytes};
pub use export::{
    ExporterConfig, ExporterHandle, MemorySink, SinkError, TelemetryBatch, TelemetryExporter,
    TelemetrySink, TickReport, BATCH_MAGIC, BATCH_VERSION, M_EXPORTER_DROPPED, M_EXPORTER_FAILURES,
    M_EXPORTER_SHIPPED,
};
pub use metrics::{
    bucket_index, bucket_upper, labeled, Counter, Gauge, HistogramSnapshot, LogHistogram,
    MetricsRegistry, COUNTER_SHARDS, HIST_BUCKETS,
};
pub use slo::{
    SloAlert, SloEvaluator, SloKind, SloRule, M_SLO_FIRED, M_SLO_FIRING, M_SLO_RESOLVED,
};
pub use snapshot::{MetricsSnapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use span::{SampleRate, Span, SpanCell, SpanRecorder, Stage, STAGES, STAGE_COUNT};
pub use trace::{AssembledTrace, OriginSpan, TraceAssembler, WaterfallStep};
