//! Push-mode telemetry acceptance over a sharded deployment: exporters
//! on the router and every shard ship snapshots + spans to a
//! [`TelemetryCollector`] — and killing the collector mid-traffic
//! loses **zero** serving jobs, blocks no hot-path operation, and
//! counts every dropped export in `flexsfu_exporter_dropped_total`.

use flexsfu_core::init::uniform_pwl;
use flexsfu_funcs::{Gelu, Tanh};
use flexsfu_obs::{
    labeled, ExporterConfig, SampleRate, TelemetryExporter, M_EXPORTER_DROPPED,
    M_EXPORTER_FAILURES, M_EXPORTER_SHIPPED,
};
use flexsfu_serve::obs::M_SUBMITS;
use flexsfu_serve::testkit::with_watchdog;
use flexsfu_serve::FunctionId;
use flexsfu_shard::{RouterConfig, ShardRouter};
use flexsfu_wire::{TelemetryCollector, WireSink};
use std::collections::HashMap;
use std::time::{Duration, Instant};

#[test]
fn collector_death_mid_traffic_is_loss_free_and_counted() {
    with_watchdog(
        120,
        "collector_death_mid_traffic_is_loss_free_and_counted",
        || {
            let overrides: HashMap<_, _> =
                [(FunctionId(0), 0usize), (FunctionId(1), 1usize)].into();
            let config = RouterConfig {
                health_interval: Duration::ZERO,
                observability: true,
                trace_sample: SampleRate::ALL,
                overrides,
                ..RouterConfig::default()
            };
            let router = ShardRouter::deploy(2, config, |r| {
                r.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
                r.register("tanh", &uniform_pwl(&Tanh, 16, (-6.0, 6.0)));
            })
            .expect("deploy");

            let collector = TelemetryCollector::start_local().expect("collector");
            let addr = collector.local_addr();

            // One exporter per origin — the router and each shard own
            // their registries, exactly like real processes would. Short
            // sink timeouts so a dead collector fails fast into the
            // bounded buffer instead of stalling the export schedule.
            let exporter_config = ExporterConfig {
                interval: Duration::from_millis(10),
                buffer: 4,
                max_backoff_ticks: 2,
            };
            let sink = |addr| WireSink::with_timeout(addr, Duration::from_millis(250));
            let router_metrics = router.router_metrics().expect("observed");
            let handles = vec![
                TelemetryExporter::new("router", router_metrics.clone(), Box::new(sink(addr)))
                    .with_spans(router.router_spans().expect("observed"))
                    .with_config(exporter_config.clone())
                    .spawn(),
                TelemetryExporter::new(
                    "shard0",
                    router.shard_metrics(0).unwrap().expect("observed"),
                    Box::new(sink(addr)),
                )
                .with_spans(router.shard_spans(0).unwrap().expect("observed"))
                .with_config(exporter_config.clone())
                .spawn(),
                TelemetryExporter::new(
                    "shard1",
                    router.shard_metrics(1).unwrap().expect("observed"),
                    Box::new(sink(addr)),
                )
                .with_spans(router.shard_spans(1).unwrap().expect("observed"))
                .with_config(exporter_config.clone())
                .spawn(),
            ];

            // Phase A: traffic with the collector alive — telemetry
            // arrives pushed, nobody scrapes anything.
            for i in 0..30 {
                let x = vec![0.05 * i as f64; 16];
                assert_eq!(router.eval(FunctionId(0), &x).expect("gelu").len(), 16);
                assert_eq!(router.eval(FunctionId(1), &x).expect("tanh").len(), 16);
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let origins = collector.origins();
                let spans_flowed = !collector.spans_for("shard0").is_empty()
                    && !collector.spans_for("router").is_empty();
                if origins == ["router", "shard0", "shard1"] && spans_flowed {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "push pipeline never delivered all origins: {origins:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            // The pushed snapshots merge into one origin-labelled fleet
            // view, and the pushed spans assemble into cross-process
            // traces — both without touching the deployment.
            let merged = collector.merged();
            assert!(
                merged
                    .counter(&labeled(M_SUBMITS, &[("origin", "shard0")]))
                    .unwrap_or(0)
                    > 0,
                "collector merge must carry shard0's serve series"
            );
            let traces = collector.assembler().assemble();
            assert!(
                traces
                    .iter()
                    .any(|t| t.spans.len() >= 2 && t.is_consistent()),
                "pushed spans never assembled a cross-process trace"
            );

            // Phase B: kill the collector mid-traffic.
            collector.shutdown();

            // Serving must not notice: every job completes, and the
            // latency of the hot path stays bounded by the watchdog —
            // the exporters are failing into their buffers meanwhile.
            for i in 0..60 {
                let x = vec![0.03 * i as f64; 16];
                assert_eq!(
                    router
                        .eval(FunctionId(0), &x)
                        .expect("gelu after kill")
                        .len(),
                    16,
                    "serving lost a job after collector death"
                );
                assert_eq!(
                    router
                        .eval(FunctionId(1), &x)
                        .expect("tanh after kill")
                        .len(),
                    16
                );
            }

            // Every dropped export is counted: with a 4-deep buffer and
            // a dead sink the drop counter must move on every origin.
            let deadline = Instant::now() + Duration::from_secs(15);
            loop {
                let all_counted = [
                    router_metrics.snapshot(),
                    router.shard_snapshot(0).unwrap().expect("observed"),
                    router.shard_snapshot(1).unwrap().expect("observed"),
                ]
                .iter()
                .all(|snap| {
                    snap.counter(M_EXPORTER_DROPPED).unwrap_or(0) > 0
                        && snap.counter(M_EXPORTER_FAILURES).unwrap_or(0) > 0
                });
                if all_counted {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "exporter drops/failures never counted after collector death"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            // And the successes from phase A stay on the books.
            assert!(
                router_metrics
                    .snapshot()
                    .counter(M_EXPORTER_SHIPPED)
                    .unwrap_or(0)
                    > 0,
                "phase A ships must be counted"
            );

            for h in handles {
                h.stop();
            }
            router.shutdown();
        },
    );
}
