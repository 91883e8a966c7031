//! End-to-end telemetry over the wire: a server started with
//! observability must answer pings with a live telemetry tail, answer
//! stats requests with a decodable registry snapshot whose serving-tier
//! series match the traffic that was actually served, and stamp sampled
//! spans all the way to the wire write.
//!
//! Frame/byte counters are asserted as lower bounds only: the scrape
//! traffic that reads them is itself counted, so exact equality would
//! chase its own tail.

use flexsfu_core::init::uniform_pwl;
use flexsfu_funcs::Gelu;
use flexsfu_obs::{MetricsRegistry, MonotonicClock, SampleRate, SpanRecorder, Stage};
use flexsfu_serve::obs::{M_FLUSH_UNITS, M_SUBMITS};
use flexsfu_serve::testkit::with_watchdog;
use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig, ServeObs};
use flexsfu_wire::obs::{
    M_ACK_TO_RESULT_NS, M_BYTES_IN, M_ERRORS, M_FRAMES_IN, M_FRAMES_OUT, M_WRITES_OUT,
};
use flexsfu_wire::{WireClient, WireConfig, WireError, WireServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

const JOBS: usize = 24;

#[test]
fn wire_telemetry_end_to_end() {
    with_watchdog(60, "wire_telemetry_end_to_end", || {
        let registry = Arc::new(FunctionRegistry::new());
        let gelu = registry.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));

        let metrics = Arc::new(MetricsRegistry::new());
        let spans = Arc::new(SpanRecorder::new(
            1024,
            SampleRate::ALL,
            Arc::new(MonotonicClock::new()),
        ));
        let obs = ServeObs::new(Arc::clone(&metrics), Arc::clone(&spans));

        let server =
            PwlServer::start_with_obs(Arc::clone(&registry), ServeConfig::default(), obs.clone());
        let wire = WireServer::start_local_with_obs(server.handle(), WireConfig::default(), obs)
            .expect("bind wire server");
        let client = WireClient::connect(wire.local_addr()).expect("connect");

        // Serve real traffic, then one typed refusal for the error series.
        let tickets: Vec<_> = (0..JOBS)
            .map(|i| {
                client
                    .submit_f64(gelu.0, vec![0.25 * i as f64; 16])
                    .expect("submit")
            })
            .collect();
        for t in tickets {
            assert_eq!(t.wait().expect("result").len(), 16);
        }
        assert_eq!(
            client.submit_f64(9_999, vec![1.0]).expect("write").wait(),
            Err(WireError::UnknownFunction(9_999))
        );

        // The pong telemetry tail reports the serving it fronted.
        let health = client.ping(Duration::from_secs(5)).expect("pong");
        assert!(!health.draining);
        assert!(
            health.flushes >= 1,
            "served traffic must have flushed at least once, got {}",
            health.flushes
        );

        // The scrape decodes and its serving-tier series match the
        // traffic: every submit counted, every accepted job's
        // ack->answer window recorded.
        let snap = client.scrape(Duration::from_secs(5)).expect("scrape");
        assert_eq!(snap.counter(M_SUBMITS), Some(JOBS as u64));
        assert!(snap.counter(M_FLUSH_UNITS).unwrap_or(0) >= 1);
        let ack_hist = snap
            .histogram(M_ACK_TO_RESULT_NS)
            .expect("ack->result histogram present");
        assert_eq!(ack_hist.count(), JOBS as u64);
        assert_eq!(
            snap.counter(&flexsfu_obs::labeled(
                M_ERRORS,
                &[("code", "unknown_function")]
            )),
            Some(1)
        );
        // Wire totals are lower bounds (the scrape itself is counted):
        // at least one inbound frame per submit plus the ping, and at
        // least ack+result out per job.
        assert!(snap.counter(M_FRAMES_IN).unwrap_or(0) > JOBS as u64);
        assert!(snap.counter(M_FRAMES_OUT).unwrap_or(0) >= 2 * JOBS as u64);
        assert!(snap.counter(M_BYTES_IN).unwrap_or(0) > 0);
        // Every socket write carries at least one frame.
        let writes = snap.counter(M_WRITES_OUT).unwrap_or(0);
        assert!(writes >= 1, "writes are counted");
        assert!(
            writes <= snap.counter(M_FRAMES_OUT).unwrap_or(0),
            "more writes ({writes}) than frames out"
        );

        // Every span (sampling = ALL) runs submit -> wire write in
        // stage order. The wire-write stamp lands just after the result
        // frame is written, so give the pump a moment to finish.
        let deadline = Instant::now() + Duration::from_secs(10);
        let done = loop {
            let dump = spans.dump();
            if dump.len() >= JOBS && dump.iter().all(|s| s.stage(Stage::WireWrite).is_some()) {
                break dump;
            }
            assert!(Instant::now() < deadline, "spans never finished stamping");
            std::thread::sleep(Duration::from_millis(10));
        };
        for span in &done {
            let submit = span.stage(Stage::Submit).expect("submit stamped");
            let write = span.stage(Stage::WireWrite).expect("wire write stamped");
            assert!(submit <= write, "stages must be causally ordered");
            assert!(span.stage(Stage::BackendEval).is_some());
            assert!(span.stage(Stage::ScatterBack).is_some());
        }

        drop(client);
        wire.shutdown();
        server.shutdown();
    });
}

/// A server started *without* observability keeps the legacy behavior:
/// zero telemetry tail and an empty (but well-formed) stats snapshot.
#[test]
fn unobserved_server_answers_zero_telemetry() {
    with_watchdog(60, "unobserved_server_answers_zero_telemetry", || {
        let registry = Arc::new(FunctionRegistry::new());
        let gelu = registry.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let wire =
            WireServer::start_local(server.handle(), WireConfig::default()).expect("bind wire");
        let client = WireClient::connect(wire.local_addr()).expect("connect");

        let t = client.submit_f64(gelu.0, vec![0.5; 8]).expect("submit");
        assert_eq!(t.wait().expect("result").len(), 8);

        let health = client.ping(Duration::from_secs(5)).expect("pong");
        assert_eq!(health.flushes, 0);
        assert_eq!(health.eval_p99_us, 0);

        let snap = client.scrape(Duration::from_secs(5)).expect("scrape");
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());

        drop(client);
        wire.shutdown();
        server.shutdown();
    });
}
