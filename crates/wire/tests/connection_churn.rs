//! Connection churn: thousands of short-lived connections through a
//! [`WireServer`] and a [`TelemetryCollector`] must leave nothing
//! behind — no open-connection count, no connection threads, and no
//! retained thread stacks.
//!
//! A connection thread that finishes but is never joined keeps its
//! stack mapped (two lines of `/proc/self/maps`: the stack and its
//! guard page). A listener that only joins its connection threads at
//! shutdown therefore grows the map by about two lines per connection
//! it ever served — some 20 000 lines over the 10 000 connections
//! below — and eventually fails to spawn at the process's map limit.
//! The acceptor reaps finished threads while it runs, so the map stays
//! flat.

use flexsfu_obs::{MetricsSnapshot, TelemetryBatch, TelemetrySink};
use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig};
use flexsfu_wire::{TelemetryCollector, WireClient, WireConfig, WireServer, WireSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAVES: usize = 100;
const WAVE: usize = 100;
const SINKS: usize = 2_000;
const SINK_THREADS: usize = 8;
/// Allowed growth of `/proc/self/maps` over a whole phase — far below
/// the ~2 lines per connection that unreaped threads leave behind.
const MAX_MAP_GROWTH: usize = 1_000;

/// Lines of `/proc/self/maps`, where the platform has it.
fn map_lines() -> Option<usize> {
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    Some(maps.lines().count())
}

/// This process's live thread count, where the platform reports it.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// Polls `read` until it is at most `limit` or `deadline` passes;
/// returns the last reading.
fn settle(deadline: Duration, limit: usize, mut read: impl FnMut() -> usize) -> usize {
    let end = Instant::now() + deadline;
    loop {
        let v = read();
        if v <= limit || Instant::now() >= end {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Process-wide readings taken before a phase.
struct Baseline {
    maps: Option<usize>,
    threads: Option<usize>,
}

impl Baseline {
    fn take() -> Self {
        Self {
            maps: map_lines(),
            threads: threads(),
        }
    }

    /// Every connection thread has exited and been joined: the thread
    /// count is back to the baseline, and the memory map grew by less
    /// than [`MAX_MAP_GROWTH`] lines.
    fn assert_flat(&self, phase: &str) {
        if let Some(base) = self.threads {
            let now = settle(Duration::from_secs(10), base, || threads().unwrap());
            assert!(now <= base, "{phase}: {now} threads left, {base} before");
        }
        if let Some(base) = self.maps {
            let limit = base + MAX_MAP_GROWTH;
            let now = settle(Duration::from_secs(10), limit, || map_lines().unwrap());
            eprintln!("{phase}: /proc/self/maps {base} -> {now} lines");
            assert!(
                now <= limit,
                "{phase}: /proc/self/maps grew from {base} to {now} lines"
            );
        }
    }
}

#[test]
fn churned_connections_are_reaped() {
    // Phase 1: 100 waves of 100 wire connections, one ping each.
    let server = PwlServer::start(Arc::new(FunctionRegistry::new()), ServeConfig::default());
    let wire = WireServer::start_local(server.handle(), WireConfig::default()).unwrap();
    let addr = wire.local_addr();
    let before = Baseline::take();
    for _ in 0..WAVES {
        let clients: Vec<WireClient> = (0..WAVE)
            .map(|_| WireClient::connect(addr).unwrap())
            .collect();
        for client in &clients {
            client.ping(Duration::from_secs(10)).unwrap();
        }
    }
    let open = settle(Duration::from_secs(10), 0, || wire.active_connections());
    assert_eq!(open, 0, "wire: connections still open after churn");
    before.assert_flat("wire");

    // Phase 2: 2 000 one-batch sink connections to a collector.
    let collector = TelemetryCollector::start_local().unwrap();
    let addr = collector.local_addr();
    let before = Baseline::take();
    let batch = TelemetryBatch {
        origin: "churn".into(),
        seq: 0,
        snapshot: MetricsSnapshot::new(),
        spans: Vec::new(),
    };
    std::thread::scope(|s| {
        for _ in 0..SINK_THREADS {
            s.spawn(|| {
                for _ in 0..SINKS / SINK_THREADS {
                    WireSink::new(addr).ship(&batch).unwrap();
                }
            });
        }
    });
    assert_eq!(collector.batches_received(), SINKS as u64);
    before.assert_flat("collector");

    collector.shutdown();
    wire.shutdown();
    server.shutdown();
}
