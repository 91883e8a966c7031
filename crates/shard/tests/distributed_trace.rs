//! Cross-process distributed tracing acceptance: a request routed
//! through [`ShardRouter`] must yield **one** assembled trace carrying
//! both the router-side routing stages and the serving shard's queue /
//! backend / wire stages, in provably consistent pipeline order on a
//! shared [`ManualClock`] — and a replayed deployment must assemble
//! bit-identical traces.
//!
//! The manual clock is frozen while requests are in flight (threads
//! stamp whenever they run, so only a frozen clock gives exact stamps)
//! and advanced between rounds; the waterfall's tie-break then proves
//! cross-process ordering exactly.

use flexsfu_core::init::uniform_pwl;
use flexsfu_funcs::{Gelu, Tanh};
use flexsfu_obs::{AssembledTrace, Clock, ManualClock, SampleRate, Stage};
use flexsfu_serve::testkit::with_watchdog;
use flexsfu_serve::FunctionId;
use flexsfu_shard::{RouterConfig, ShardRouter};
use flexsfu_wire::WireClient;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn traced_config(clock: Arc<ManualClock>, overrides: HashMap<FunctionId, usize>) -> RouterConfig {
    RouterConfig {
        health_interval: Duration::ZERO,
        observability: true,
        clock: Some(clock as Arc<dyn Clock>),
        trace_sample: SampleRate::ALL,
        overrides,
        ..RouterConfig::default()
    }
}

fn register(r: &flexsfu_serve::FunctionRegistry) {
    r.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
    r.register("tanh", &uniform_pwl(&Tanh, 16, (-6.0, 6.0)));
}

/// Spins until every trace the router originated has a shard-side span
/// whose `WireWrite` stamp landed (the wire pump stamps it *after*
/// writing the result frame, so it races the client's result receipt).
fn settle_traces(router: &ShardRouter, expected: usize) -> Vec<AssembledTrace> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let traces = router.assemble_traces();
        let done = traces.len() == expected
            && traces.iter().all(|t| {
                t.spans.len() >= 2
                    && t.spans
                        .iter()
                        .any(|m| m.span.stage(Stage::WireWrite).is_some())
            });
        if done {
            return traces;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "traces never settled: {} of {expected} assembled",
            traces.len()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn routed_request_assembles_one_consistent_cross_process_trace() {
    with_watchdog(
        60,
        "routed_request_assembles_one_consistent_cross_process_trace",
        || {
            let clock = Arc::new(ManualClock::new());
            let overrides: HashMap<_, _> =
                [(FunctionId(0), 0usize), (FunctionId(1), 1usize)].into();
            let router =
                ShardRouter::deploy(2, traced_config(Arc::clone(&clock), overrides), register)
                    .expect("deploy");

            // Three rounds, clock frozen per round: every stamp of round
            // k is exactly 1000 * (k + 1).
            for round in 0..3u64 {
                clock.set(1000 * (round + 1));
                let ys = router
                    .eval(FunctionId(0), &[0.25; 16])
                    .expect("routed eval");
                assert_eq!(ys.len(), 16);
                settle_traces(&router, round as usize + 1);
            }

            let traces = settle_traces(&router, 3);
            for (k, t) in traces.iter().enumerate() {
                // Exactly two spans: the router's root, then shard0's.
                assert_eq!(t.spans.len(), 2, "trace {} span count", t.trace_id);
                assert_eq!(t.spans[0].origin, "router");
                assert_eq!(t.spans[1].origin, "shard0");
                assert_eq!(t.spans[0].span.trace, Some(t.trace_id));
                assert_eq!(t.spans[1].span.trace, Some(t.trace_id));

                // Every stamp is the round's frozen instant, so the
                // waterfall's order *is* the pipeline order, proven.
                let at = 1000 * (k as u64 + 1);
                assert!(t.is_consistent(), "trace {} stepped backwards", t.trace_id);
                assert_eq!(t.total_ns(), Some(0));
                let stages: Vec<(Stage, u64)> =
                    t.waterfall().iter().map(|s| (s.stage, s.at_ns)).collect();
                assert_eq!(
                    stages,
                    [
                        (Stage::RouteSelect, at),
                        (Stage::WireSubmit, at),
                        (Stage::Submit, at),
                        (Stage::Enqueue, at),
                        (Stage::FlushPlan, at),
                        (Stage::BackendEval, at),
                        (Stage::ScatterBack, at),
                        (Stage::WireWrite, at),
                    ],
                    "trace {} waterfall",
                    t.trace_id
                );
                // The happy path never stamps Retry.
                assert_eq!(t.spans[0].span.stage(Stage::Retry), None);
            }

            // The f32 lane joins traces the same way.
            clock.set(5000);
            let ys = router
                .eval::<f32>(FunctionId(1), &[0.5f32; 8])
                .expect("f32 eval");
            assert_eq!(ys.len(), 8);
            let traces = settle_traces(&router, 4);
            let t = traces.last().expect("f32 trace");
            assert_eq!(t.spans[1].origin, "shard1", "pinned to shard 1");
            assert!(t.is_consistent());

            router.shutdown();
        },
    );
}

/// A failed attempt stamps `Retry` on the router span and the trace
/// still assembles consistently: the surviving `WireSubmit` stamp is
/// the failover attempt's, and the serving span comes from the shard
/// that actually answered.
#[test]
fn failover_keeps_the_trace_consistent_and_stamps_retry() {
    with_watchdog(
        60,
        "failover_keeps_the_trace_consistent_and_stamps_retry",
        || {
            let clock = Arc::new(ManualClock::new());
            let overrides: HashMap<_, _> = [(FunctionId(0), 0usize)].into();
            let router =
                ShardRouter::deploy(2, traced_config(Arc::clone(&clock), overrides), register)
                    .expect("deploy");
            clock.set(700);

            // Drain shard 0 behind the router's back: the next routed
            // eval gets the typed Draining refusal, stamps Retry, and
            // fails over to shard 1.
            let saboteur = WireClient::connect(router.shard_addr(0).unwrap()).expect("connect");
            saboteur.drain().expect("drain frame");
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !saboteur
                .ping(Duration::from_secs(1))
                .expect("pong")
                .draining
            {
                assert!(std::time::Instant::now() < deadline, "drain never landed");
                std::thread::sleep(Duration::from_millis(2));
            }

            let ys = router
                .eval(FunctionId(0), &[1.0; 8])
                .expect("failover eval");
            assert_eq!(ys.len(), 8);

            let traces = settle_traces(&router, 1);
            let t = &traces[0];
            assert_eq!(t.spans[0].origin, "router");
            assert_eq!(
                t.spans[0].span.stage(Stage::Retry),
                Some(700),
                "retry decision must be stamped"
            );
            // The shard span is the *answering* shard's — the drained
            // one refused at the socket, before any serve-side adoption.
            assert_eq!(t.spans.len(), 2);
            assert_eq!(t.spans[1].origin, "shard1");
            assert!(t.is_consistent(), "failover waterfall stepped backwards");
            let stages: Vec<Stage> = t.waterfall().iter().map(|s| s.stage).collect();
            assert_eq!(
                stages,
                [
                    Stage::RouteSelect,
                    Stage::Retry,
                    Stage::WireSubmit,
                    Stage::Submit,
                    Stage::Enqueue,
                    Stage::FlushPlan,
                    Stage::BackendEval,
                    Stage::ScatterBack,
                    Stage::WireWrite,
                ]
            );

            drop(saboteur);
            router.shutdown();
        },
    );
}

/// Two fresh deployments replaying the same submission sequence on the
/// same manual-clock schedule assemble **bit-identical** traces — the
/// cross-process extension of the per-process span determinism the
/// traffic suite pins.
#[test]
fn replayed_deployments_assemble_bit_identical_traces() {
    with_watchdog(
        60,
        "replayed_deployments_assemble_bit_identical_traces",
        || {
            let run = || -> Vec<AssembledTrace> {
                let clock = Arc::new(ManualClock::new());
                let overrides: HashMap<_, _> =
                    [(FunctionId(0), 0usize), (FunctionId(1), 1usize)].into();
                let router =
                    ShardRouter::deploy(2, traced_config(Arc::clone(&clock), overrides), register)
                        .expect("deploy");
                for round in 0..4u64 {
                    clock.set(500 * (round + 1));
                    let func = FunctionId((round % 2) as u32);
                    router.eval(func, &[0.1 * round as f64; 8]).expect("eval");
                    settle_traces(&router, round as usize + 1);
                }
                let traces = settle_traces(&router, 4);
                router.shutdown();
                traces
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "replayed deployments diverged");
            // Sanity: the replays actually traced both shards.
            assert!(a.iter().any(|t| t.spans[1].origin == "shard0"));
            assert!(a.iter().any(|t| t.spans[1].origin == "shard1"));
        },
    );
}
