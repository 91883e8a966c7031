//! Drift-injection battery: the detect → retune → hot-swap loop under
//! live serving traffic, pinned deterministic.
//!
//! Three escalating scenarios, all under the serve testkit watchdog:
//!
//! 1. a **stable** workload never spuriously retunes — the engine
//!    pointer is untouched end to end,
//! 2. an injected **step change** fires the detector within a bounded
//!    number of round-flushes, a weighted retune publishes, and the
//!    post-swap serving results are bit-identical to a freshly tuned
//!    engine built from the same observed window,
//! 3. the **end-to-end acceptance** run: a recorded trace with a
//!    mid-run shift drives the whole loop with zero lost jobs, and
//!    replaying the encoded trace into a fresh deployment reproduces
//!    the identical decision sequence — scores, winners, checksums —
//!    bit for bit.

use flexsfu_core::init::uniform_pwl;
use flexsfu_core::PwlEvaluator;
use flexsfu_obs::{
    labeled, AssembledTrace, Clock, ManualClock, MemorySink, MetricsRegistry, SampleRate, Span,
    SpanRecorder, Stage, TelemetryBatch, TelemetryExporter,
};
use flexsfu_serve::testkit::with_watchdog;
use flexsfu_serve::{
    FunctionId, FunctionRegistry, InputHistogramSnapshot, PwlServer, ServeConfig, ServeObs,
    INPUT_HIST_BUCKETS,
};
use flexsfu_shard::{RouterConfig, ShardRouter};
use flexsfu_traffic::arrival::ArrivalProcess;
use flexsfu_traffic::retune::{
    AdaptiveRetuner, RetuneEvent, RetunePolicy, M_DRIFT_SCORE, M_RETUNES, M_RETUNE_FAILURES,
};
use flexsfu_traffic::sampler::InputSampler;
use flexsfu_traffic::sim::{replay_rounds, simulate, FunctionLoad, SamplerShift, WorkloadSpec};
use flexsfu_traffic::trace::Trace;
use flexsfu_traffic::ReplayReport;
use flexsfu_tune::{tune_named_weighted, GridWeights, TuneBudget};
use std::sync::Arc;

/// An always-feasible policy over the quick sweep: the retune itself
/// can never fail on budget grounds, so every `Failed` event in these
/// tests is a real defect.
fn policy() -> RetunePolicy {
    RetunePolicy {
        budget: TuneBudget::max_error(f64::INFINITY),
        min_samples: 1024,
        ..RetunePolicy::quick(TuneBudget::max_error(f64::INFINITY))
    }
}

/// Registry + server with `tanh` and `gelu` on plain native tables
/// whose breakpoint span (and therefore histogram range) is `[-8, 8]`.
fn deployment() -> (Arc<FunctionRegistry>, PwlServer) {
    let registry = Arc::new(FunctionRegistry::new());
    registry.register(
        "tanh",
        &uniform_pwl(
            flexsfu_funcs::by_name("tanh").unwrap().as_ref(),
            31,
            (-8.0, 8.0),
        ),
    );
    registry.register(
        "gelu",
        &uniform_pwl(
            flexsfu_funcs::by_name("gelu").unwrap().as_ref(),
            31,
            (-8.0, 8.0),
        ),
    );
    let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
    (registry, server)
}

fn centered_tanh_load() -> FunctionLoad {
    FunctionLoad {
        name: "tanh".into(),
        weight: 1.0,
        elems: (8, 16),
        sampler: InputSampler::Gaussian {
            mean: 0.0,
            std: 1.5,
            clamp: (-8.0, 8.0),
        },
    }
}

/// The injected step change: traffic jumps into tanh's saturated tail.
fn tail_shift(at_ns: u64) -> SamplerShift {
    SamplerShift {
        at_ns,
        function: "tanh".into(),
        sampler: InputSampler::Uniform { lo: 5.5, hi: 7.8 },
    }
}

#[test]
fn stable_workload_never_spuriously_retunes() {
    with_watchdog(120, "stable_workload_never_spuriously_retunes", || {
        let (registry, server) = deployment();
        let id = registry.id_of("tanh").unwrap();
        let handle = server.handle();
        let engine_before = registry.engine(id).unwrap();

        let spec = WorkloadSpec {
            seed: 11,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
            functions: vec![centered_tanh_load()],
            shifts: vec![],
        };
        let trace = simulate(&spec, u64::MAX, 1600);
        assert_eq!(trace.events.len(), 1600);

        let mut retuner = AdaptiveRetuner::new(Arc::clone(&registry), policy());
        let mut decisions = Vec::new();
        let report = replay_rounds(
            &trace,
            &handle,
            &|name| registry.id_of(name),
            200,
            |round| {
                if round == 0 {
                    // The warm-up round's traffic becomes the reference.
                    retuner.watch_current("tanh").unwrap();
                } else {
                    decisions.extend(retuner.poll());
                }
            },
        )
        .unwrap();

        assert_eq!(report.submitted, 1600);
        assert_eq!(report.completed, 1600);
        assert!(!decisions.is_empty());
        for d in &decisions {
            assert!(
                matches!(
                    d,
                    RetuneEvent::Stable { .. } | RetuneEvent::Insufficient { .. }
                ),
                "spurious action on stable traffic: {d:?}"
            );
        }
        // The engine was never swapped.
        let engine_after = registry.engine(id).unwrap();
        assert!(Arc::ptr_eq(&engine_before, &engine_after));
        server.shutdown();
    });
}

#[test]
fn step_change_fires_bounded_and_swaps_to_the_freshly_tuned_engine() {
    with_watchdog(120, "step_change_fires_bounded_and_swaps", || {
        let (registry, server) = deployment();
        let id = registry.id_of("tanh").unwrap();
        let handle = server.handle();
        let engine_before = registry.engine(id).unwrap();

        // Shift at 6 ms virtual: with Poisson 1e5 Hz that is ~600
        // events in — past the warm-up round, with plenty after.
        let spec = WorkloadSpec {
            seed: 23,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
            functions: vec![centered_tanh_load()],
            shifts: vec![tail_shift(6_000_000)],
        };
        let trace = simulate(&spec, u64::MAX, 2400);
        let shift_round = trace
            .events
            .iter()
            .position(|e| e.at_ns >= 6_000_000)
            .expect("shift inside the trace")
            / 200;

        let mut retuner = AdaptiveRetuner::new(Arc::clone(&registry), policy());
        let mut decisions: Vec<(usize, RetuneEvent)> = Vec::new();
        let report = replay_rounds(
            &trace,
            &handle,
            &|name| registry.id_of(name),
            200,
            |round| {
                if round == 0 {
                    retuner.watch_current("tanh").unwrap();
                } else {
                    decisions.extend(retuner.poll().into_iter().map(|e| (round, e)));
                }
            },
        )
        .unwrap();
        assert_eq!(report.submitted, report.completed);

        // No action before the shift could have been observed (the
        // shift round's own drain already contains post-shift mass, so
        // the clean guarantee only covers rounds strictly before it)...
        for (round, d) in decisions.iter().filter(|(r, _)| *r < shift_round) {
            assert!(
                matches!(
                    d,
                    RetuneEvent::Stable { .. } | RetuneEvent::Insufficient { .. }
                ),
                "round {round}: premature {d:?}"
            );
        }
        // ...and the detector fires within a bounded number of rounds
        // after it: the shifted mass needs at most a few round-flushes
        // to dominate the window.
        let fired = decisions
            .iter()
            .find(|(_, d)| matches!(d, RetuneEvent::Retuned { .. }))
            .expect("step change never triggered a retune");
        assert!(
            fired.0 <= shift_round + 4,
            "detection too slow: shift in round {shift_round}, fired in round {}",
            fired.0
        );
        assert!(
            !decisions
                .iter()
                .any(|(_, d)| matches!(d, RetuneEvent::Failed { .. })),
            "retune failed under an unbounded budget"
        );

        // The hot swap happened.
        let engine_after = registry.engine(id).unwrap();
        assert!(!Arc::ptr_eq(&engine_before, &engine_after));

        // Bit-identity with a freshly tuned engine: rebuild the exact
        // observed window from the trace (everything after the watch
        // point up to the firing round — the round barrier guarantees
        // that is precisely what the serving histogram held), re-run
        // the weighted tuner, and compare served results against the
        // fresh table.
        let (fired_round, fired_event) = fired;
        let RetuneEvent::Retuned {
            breakpoints,
            backend,
            ..
        } = fired_event
        else {
            unreachable!()
        };
        let mut window = InputHistogramSnapshot::empty(-8.0, 8.0, INPUT_HIST_BUCKETS);
        for e in &trace.events[200..(fired_round + 1) * 200] {
            window.record_slice(&e.payload);
        }
        let weights = GridWeights::from_histogram(&window);
        let p = policy();
        let fresh = tune_named_weighted("tanh", &p.budget, &p.opts, &weights).unwrap();
        assert_eq!(fresh.winner().config.breakpoints, *breakpoints);
        assert_eq!(
            fresh.winner().config.backend.backend_label(),
            backend.as_str()
        );

        let fresh_engine = fresh.table.compile();
        let probe: Vec<f64> = (0..257).map(|i| -8.0 + 16.0 * i as f64 / 256.0).collect();
        let served = handle.submit(id, probe.clone()).unwrap().wait().unwrap();
        let direct = fresh_engine.eval_batch(&probe);
        for (s, d) in served.iter().zip(&direct) {
            assert_eq!(
                s.to_bits(),
                d.to_bits(),
                "post-swap result differs from fresh tune"
            );
        }
        server.shutdown();
    });
}

/// One full deployment run: build everything from the trace bytes,
/// replay in rounds with the steppable retuner polled at every round
/// barrier, and return the complete observable behaviour.
fn run_deployment(trace_bytes: &[u8]) -> (Vec<RetuneEvent>, ReplayReport, bool) {
    let trace = Trace::decode(trace_bytes).expect("valid trace bytes");
    let (registry, server) = deployment();
    let handle = server.handle();
    let tanh_id = registry.id_of("tanh").unwrap();
    let engine_before = registry.engine(tanh_id).unwrap();
    let mut retuner = AdaptiveRetuner::new(Arc::clone(&registry), policy());
    let mut decisions = Vec::new();
    let report = replay_rounds(
        &trace,
        &handle,
        &|name| registry.id_of(name),
        200,
        |round| {
            if round == 0 {
                retuner.watch_current("tanh").unwrap();
                retuner.watch_current("gelu").unwrap();
            } else {
                decisions.extend(retuner.poll());
            }
        },
    )
    .unwrap();
    let swapped = !Arc::ptr_eq(&engine_before, &registry.engine(tanh_id).unwrap());
    server.shutdown();
    (decisions, report, swapped)
}

#[test]
fn replaying_the_recorded_trace_reproduces_the_decision_sequence() {
    with_watchdog(240, "replaying_reproduces_decision_sequence", || {
        // A two-function workload: gelu stays stable throughout, tanh
        // steps into its saturated tail at 12 ms virtual.
        let spec = WorkloadSpec {
            seed: 4242,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
            functions: vec![
                centered_tanh_load(),
                FunctionLoad {
                    name: "gelu".into(),
                    weight: 1.0,
                    elems: (8, 16),
                    sampler: InputSampler::Gaussian {
                        mean: 0.0,
                        std: 2.0,
                        clamp: (-8.0, 8.0),
                    },
                },
            ],
            shifts: vec![tail_shift(12_000_000)],
        };
        let trace = simulate(&spec, u64::MAX, 3200);
        let bytes = trace.encode();

        // Record once, replay twice into fresh deployments.
        let (decisions_a, report_a, swapped_a) = run_deployment(&bytes);
        let (decisions_b, report_b, swapped_b) = run_deployment(&bytes);

        // Zero lost jobs, both runs.
        assert_eq!(report_a.submitted, 3200);
        assert_eq!(report_a.completed, 3200);
        assert_eq!(report_b.submitted, 3200);
        assert_eq!(report_b.completed, 3200);

        // The scenario is non-trivial: the step change retuned tanh...
        assert!(
            decisions_a.iter().any(|d| matches!(
                d,
                RetuneEvent::Retuned { function, .. } if function == "tanh"
            )),
            "acceptance scenario never retuned: {decisions_a:?}"
        );
        assert!(swapped_a, "retune event without a published swap");
        // ...while stable gelu was never touched.
        assert!(decisions_a.iter().all(|d| !matches!(
            d,
            RetuneEvent::Retuned { function, .. } | RetuneEvent::Failed { function, .. }
                if function == "gelu"
        )));

        // The acceptance pin: the full decision sequence — verdict
        // kinds, score bits, winning configurations — and the result
        // checksum replay identically.
        assert_eq!(decisions_a, decisions_b);
        assert_eq!(report_a, report_b);
        assert_eq!(swapped_a, swapped_b);
    });
}

/// One fully observed deployment run on a virtual span clock: a fresh
/// serve stack whose [`SpanRecorder`] stamps from a [`ManualClock`]
/// advanced exactly once per round barrier, with the retuner's
/// decisions metered into the same registry.
#[allow(clippy::type_complexity)]
fn observed_run(
    trace_bytes: &[u8],
) -> (
    Vec<Span>,
    Vec<RetuneEvent>,
    ReplayReport,
    flexsfu_obs::MetricsSnapshot,
) {
    let trace = Trace::decode(trace_bytes).expect("valid trace bytes");
    let registry = Arc::new(FunctionRegistry::new());
    registry.register(
        "tanh",
        &uniform_pwl(
            flexsfu_funcs::by_name("tanh").unwrap().as_ref(),
            31,
            (-8.0, 8.0),
        ),
    );
    registry.register(
        "gelu",
        &uniform_pwl(
            flexsfu_funcs::by_name("gelu").unwrap().as_ref(),
            31,
            (-8.0, 8.0),
        ),
    );
    let metrics = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(ManualClock::new());
    let spans = Arc::new(SpanRecorder::new(
        1024,
        SampleRate(4),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    let server = PwlServer::start_with_obs(
        Arc::clone(&registry),
        ServeConfig::default(),
        ServeObs::new(Arc::clone(&metrics), Arc::clone(&spans)),
    );
    let handle = server.handle();
    let mut retuner =
        AdaptiveRetuner::new(Arc::clone(&registry), policy()).with_metrics(Arc::clone(&metrics));
    let mut decisions = Vec::new();
    let report = replay_rounds(
        &trace,
        &handle,
        &|name| registry.id_of(name),
        200,
        |round| {
            // Every stamp of round k reads k ms of virtual time; the
            // round barrier guarantees all of round k's stamps landed
            // before this advance.
            clock.advance(1_000_000);
            if round == 0 {
                retuner.watch_current("tanh").unwrap();
            } else {
                decisions.extend(retuner.poll());
            }
        },
    )
    .unwrap();
    let mut dump = spans.dump();
    dump.sort_by_key(|s| s.job);
    let snap = metrics.snapshot();
    server.shutdown();
    (dump, decisions, report, snap)
}

#[test]
fn span_stamps_replay_bit_identically_on_a_virtual_clock() {
    with_watchdog(240, "span_stamps_replay_bit_identically", || {
        // The step-change scenario: drift fires mid-trace, so the run
        // exercises retune accounting alongside the span pipeline.
        let spec = WorkloadSpec {
            seed: 23,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
            functions: vec![centered_tanh_load()],
            shifts: vec![tail_shift(6_000_000)],
        };
        let bytes = simulate(&spec, u64::MAX, 2400).encode();

        let (spans_a, decisions_a, report_a, snap_a) = observed_run(&bytes);
        let (spans_b, decisions_b, report_b, snap_b) = observed_run(&bytes);

        // Zero lost jobs and the decision sequence replays, as before —
        // now under full observability.
        assert_eq!(report_a.submitted, 2400);
        assert_eq!(report_a.completed, 2400);
        assert_eq!(report_a, report_b);
        assert_eq!(decisions_a, decisions_b);

        // The acceptance pin: every sampled span — job id, function,
        // and all stage stamps — is bit-identical across two fresh
        // deployments of the same trace.
        assert_eq!(spans_a.len(), 2400 / 4, "1-in-4 sampling of the trace");
        assert_eq!(spans_a, spans_b);

        // The stamps really come from the virtual clock: in-process
        // serving runs submit → scatter-back within one frozen round,
        // never reaching the wire, and later rounds stamp later values.
        for s in &spans_a {
            let submit = s.stage(Stage::Submit).expect("submit stamped");
            assert_eq!(submit % 1_000_000, 0, "stamp off the round grid");
            assert_eq!(s.stage(Stage::Enqueue), Some(submit));
            assert_eq!(s.stage(Stage::FlushPlan), Some(submit));
            assert_eq!(s.stage(Stage::BackendEval), Some(submit));
            assert_eq!(s.stage(Stage::ScatterBack), Some(submit));
            assert_eq!(s.stage(Stage::WireWrite), None);
        }
        let first = spans_a.first().unwrap().stage(Stage::Submit).unwrap();
        let last = spans_a.last().unwrap().stage(Stage::Submit).unwrap();
        assert!(last > first, "virtual time never advanced across rounds");

        // The retuner's decisions surfaced as metrics, identically in
        // both runs: the step change retuned (never failed), and the
        // gauge holds the exact score bits of the last scored verdict.
        assert!(snap_a.counter(M_RETUNES).unwrap_or(0) >= 1);
        assert_eq!(snap_a.counter(M_RETUNE_FAILURES).unwrap_or(0), 0);
        assert_eq!(snap_a.counter(M_RETUNES), snap_b.counter(M_RETUNES));
        let gauge_key = labeled(M_DRIFT_SCORE, &[("function", "tanh")]);
        let last_score = decisions_a
            .iter()
            .rev()
            .find_map(|d| match d {
                RetuneEvent::Stable { score, .. }
                | RetuneEvent::Retuned { score, .. }
                | RetuneEvent::Failed { score, .. } => Some(*score),
                RetuneEvent::Insufficient { .. } => None,
            })
            .expect("at least one scored verdict");
        assert_eq!(
            snap_a.gauge(&gauge_key).map(f64::to_bits),
            Some(last_score.to_bits())
        );
        assert_eq!(
            snap_a.gauge(&gauge_key).map(f64::to_bits),
            snap_b.gauge(&gauge_key).map(f64::to_bits)
        );
    });
}

/// One sharded deployment run of a recorded trace: every event routed
/// through an observed [`ShardRouter`] in rounds on a shared
/// [`ManualClock`] frozen within each round, with a steppable
/// [`TelemetryExporter`] on the router's registry ticked into a
/// [`MemorySink`] at every round barrier. Returns the assembled
/// cross-process traces, the pushed batches, and the result checksum.
fn sharded_replay(trace_bytes: &[u8]) -> (Vec<AssembledTrace>, Vec<TelemetryBatch>, u64) {
    let trace = flexsfu_traffic::Trace::decode(trace_bytes).expect("valid trace bytes");
    let clock = Arc::new(ManualClock::new());
    let config = RouterConfig {
        health_interval: std::time::Duration::ZERO,
        observability: true,
        clock: Some(Arc::clone(&clock) as Arc<dyn Clock>),
        trace_sample: SampleRate::ALL,
        overrides: [(FunctionId(0), 0usize), (FunctionId(1), 1usize)].into(),
        ..RouterConfig::default()
    };
    // Registration order pins the ids: tanh = 0 on shard 0, gelu = 1 on
    // shard 1 via the overrides above — both shards serve every run.
    let router = ShardRouter::deploy(2, config, |r| {
        r.register(
            "tanh",
            &uniform_pwl(
                flexsfu_funcs::by_name("tanh").unwrap().as_ref(),
                31,
                (-8.0, 8.0),
            ),
        );
        r.register(
            "gelu",
            &uniform_pwl(
                flexsfu_funcs::by_name("gelu").unwrap().as_ref(),
                31,
                (-8.0, 8.0),
            ),
        );
    })
    .expect("deploy");
    let ids: Vec<FunctionId> = trace
        .functions
        .iter()
        .map(|name| match name.as_str() {
            "tanh" => FunctionId(0),
            "gelu" => FunctionId(1),
            other => panic!("unregistered trace function {other}"),
        })
        .collect();

    let sink = MemorySink::new();
    let store = sink.store();
    let mut exporter = TelemetryExporter::new(
        "router",
        router.router_metrics().expect("observed"),
        Box::new(sink),
    )
    .with_spans(router.router_spans().expect("observed"));

    // Spins until every originated trace carries the serving shard's
    // `WireWrite` stamp — the wire pump stamps it after writing the
    // result frame, so it races the client's result receipt.
    let settle = |expected: usize| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
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
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "traces never settled: {} of {expected}",
                traces.len()
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    };

    let mut checksum = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut routed = 0usize;
    for (round, chunk) in trace.events.chunks(12).enumerate() {
        clock.set(1_000_000 * (round as u64 + 1));
        for e in chunk {
            let ys = router
                .eval(ids[e.func as usize], &e.payload)
                .expect("routed replay lost a job");
            for y in ys {
                checksum ^= y.to_bits();
                checksum = checksum.wrapping_mul(0x0000_0100_0000_01b3);
            }
            routed += 1;
        }
        settle(routed);
        exporter.tick();
    }
    assert_eq!(routed, trace.events.len(), "every event must route");

    let traces = router.assemble_traces();
    let batches = store.lock().unwrap().clone();
    router.shutdown();
    (traces, batches, checksum)
}

/// The cross-process extension of the span-determinism pin above: two
/// fresh **sharded** deployments replaying the same recorded trace on
/// the same manual-clock schedule assemble bit-identical distributed
/// traces — router stages and shard stages joined — and their push-mode
/// telemetry batches replay bit-for-bit too.
#[test]
fn sharded_replay_assembles_bit_identical_cross_process_traces() {
    with_watchdog(240, "sharded_replay_bit_identical_traces", || {
        let spec = WorkloadSpec {
            seed: 97,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
            functions: vec![
                centered_tanh_load(),
                FunctionLoad {
                    name: "gelu".into(),
                    weight: 1.0,
                    elems: (4, 12),
                    sampler: InputSampler::Gaussian {
                        mean: 0.0,
                        std: 2.0,
                        clamp: (-8.0, 8.0),
                    },
                },
            ],
            shifts: vec![],
        };
        let bytes = simulate(&spec, u64::MAX, 48).encode();

        let (traces_a, batches_a, sum_a) = sharded_replay(&bytes);
        let (traces_b, batches_b, sum_b) = sharded_replay(&bytes);

        // Zero lost jobs and bit-identical serving results.
        assert_eq!(sum_a, sum_b, "replayed results diverged");

        // Every routed event produced one assembled cross-process trace
        // with the router's root span joined to the serving shard's.
        assert_eq!(traces_a.len(), 48);
        for t in &traces_a {
            assert_eq!(t.spans.len(), 2, "trace {} span count", t.trace_id);
            assert_eq!(t.spans[0].origin, "router");
            assert!(
                t.spans[1].origin.starts_with("shard"),
                "second span must come from a shard"
            );
            assert!(t.is_consistent(), "trace {} stepped backwards", t.trace_id);
        }
        assert!(traces_a.iter().any(|t| t.spans[1].origin == "shard0"));
        assert!(traces_a.iter().any(|t| t.spans[1].origin == "shard1"));

        // The acceptance pin: the *assembled* traces — ids, origins,
        // every stage stamp — replay bit-identically, not just the
        // per-process span sequences.
        assert_eq!(traces_a, traces_b, "assembled traces diverged");

        // And so does the pushed telemetry: one batch per round barrier,
        // monotone sequence numbers, every router span exported exactly
        // once across the watermark-partitioned batches.
        assert_eq!(batches_a.len(), 4, "one batch per round");
        for (i, b) in batches_a.iter().enumerate() {
            assert_eq!(b.origin, "router");
            assert_eq!(b.seq, i as u64);
        }
        let exported: usize = batches_a.iter().map(|b| b.spans.len()).sum();
        assert_eq!(exported, 48, "every router span ships exactly once");
        assert_eq!(batches_a, batches_b, "telemetry batches diverged");
    });
}

#[test]
fn background_retuner_converges_without_losing_jobs() {
    with_watchdog(240, "background_retuner_converges", || {
        let (registry, server) = deployment();
        let id = registry.id_of("tanh").unwrap();
        let handle = server.handle();

        // Warm up the reference window, then hand the loop to a
        // background thread while shifted traffic flows.
        let warm = simulate(
            &WorkloadSpec {
                seed: 7,
                arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
                functions: vec![centered_tanh_load()],
                shifts: vec![],
            },
            u64::MAX,
            400,
        );
        let report = replay_rounds(&warm, &handle, &|n| registry.id_of(n), 400, |_| {}).unwrap();
        assert_eq!(report.completed, 400);

        let mut retuner = AdaptiveRetuner::new(Arc::clone(&registry), policy());
        retuner.watch_current("tanh").unwrap();
        let bg = retuner.spawn(std::time::Duration::from_millis(5));

        // Shifted traffic, submitted in rounds while the background
        // loop polls on its own schedule.
        let shifted = simulate(
            &WorkloadSpec {
                seed: 8,
                arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
                functions: vec![FunctionLoad {
                    sampler: InputSampler::Uniform { lo: 5.5, hi: 7.8 },
                    ..centered_tanh_load()
                }],
                shifts: vec![],
            },
            u64::MAX,
            2000,
        );
        let engine_before = registry.engine(id).unwrap();
        let report = replay_rounds(&shifted, &handle, &|n| registry.id_of(n), 200, |_| {
            // Give the background thread real time to observe between
            // rounds; the loop itself decides when to act.
            std::thread::sleep(std::time::Duration::from_millis(10));
        })
        .unwrap();
        assert_eq!(report.submitted, 2000);
        assert_eq!(report.completed, 2000);

        // Wait (bounded by the watchdog) for the background loop to
        // have published, then stop it and inspect the log.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while bg
            .events()
            .iter()
            .all(|e| !matches!(e, RetuneEvent::Retuned { .. }))
        {
            assert!(
                std::time::Instant::now() < deadline,
                "background loop never retuned; events: {:?}",
                bg.events()
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let events = bg.stop();
        assert!(events
            .iter()
            .any(|e| matches!(e, RetuneEvent::Retuned { .. })));
        assert!(!events
            .iter()
            .any(|e| matches!(e, RetuneEvent::Failed { .. })));
        assert!(!Arc::ptr_eq(&engine_before, &registry.engine(id).unwrap()));

        // Post-swap traffic still completes and round-trips cleanly.
        let probe: Vec<f64> = (0..64).map(|i| 5.5 + 0.03 * i as f64).collect();
        let ys = handle.submit(id, probe.clone()).unwrap().wait().unwrap();
        let direct = registry.engine(id).unwrap().engine().eval_batch(&probe);
        for (a, b) in ys.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        server.shutdown();
    });
}
