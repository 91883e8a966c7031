//! Concurrency stress battery for the serving front-end.
//!
//! This is the first layer of the workspace where correctness depends on
//! scheduling, so every test runs under a watchdog: a deadlock fails
//! with a named panic instead of hanging the suite. Schedules are driven
//! with barriers (all clients release at once) and configs chosen to
//! force the races of interest — flush-deadline vs size-threshold,
//! shutdown vs queued work, publish vs in-flight flush.

use flexsfu_backend::{BackendProgram, EvalBackend, FlushStats, LowerError, SfuBackend};
use flexsfu_core::init::uniform_pwl;
use flexsfu_core::{CompiledPwl, CompiledPwlF32, PwlEvaluator, PwlFunction};
use flexsfu_funcs::{Gelu, Sigmoid, Tanh};
use flexsfu_obs::{labeled, MetricsRegistry};
use flexsfu_serve::obs::M_FLUSHES;
use flexsfu_serve::testkit::{with_watchdog, Faults};
use flexsfu_serve::{
    FlushPolicy, FunctionId, FunctionRegistry, JobTicket, PwlServer, ServeConfig, ServeError,
    ServeHandle, ServeObs,
};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// A deterministic xorshift stream for sizes/values.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Three functions covering all three engine kernels: linear-scan
/// (≤ 8 segments), bucket (deep table), search fallback (clustered).
fn test_functions() -> Vec<PwlFunction> {
    let shallow = uniform_pwl(&Gelu, 7, (-8.0, 8.0));
    let deep = uniform_pwl(&Tanh, 63, (-8.0, 8.0));
    let clustered = {
        let mut ps: Vec<f64> = (0..30).map(|i| i as f64 * 1e-8).collect();
        ps.insert(0, -500.0);
        ps.push(500.0);
        let vs: Vec<f64> = ps.iter().map(|p| (p * 0.01).cos()).collect();
        PwlFunction::new(ps, vs, 0.5, -0.25).unwrap()
    };
    vec![shallow, deep, clustered]
}

/// A request tensor mixing interior points, boundary-exact values and
/// the occasional NaN, sized `len`.
fn request_tensor(next: &mut impl FnMut() -> u64, pwl: &PwlFunction, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| {
            let r = next();
            match r % 37 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => pwl.breakpoints()[(r >> 8) as usize % pwl.breakpoints().len()],
                _ => ((r >> 11) as f64 / (1u64 << 53) as f64) * 24.0 - 12.0,
            }
        })
        .collect()
}

/// Bitwise comparison helper (NaN-tolerant: NaN bits must equal).
fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}");
    }
}

/// The headline stress: 8 client threads × 3 functions × random tensor
/// sizes (including 0-length), tiny flush threshold *and* tiny deadline
/// so both flush causes race, results bit-identical to direct
/// `CompiledPwl::eval_batch`.
#[test]
fn concurrent_results_bit_identical_to_direct_eval() {
    with_watchdog(
        60,
        "concurrent_results_bit_identical_to_direct_eval",
        || {
            const CLIENTS: usize = 8;
            const REQUESTS: usize = 40;
            let functions = test_functions();
            let engines: Vec<CompiledPwl> = functions.iter().map(CompiledPwl::from_pwl).collect();
            let registry = Arc::new(FunctionRegistry::new());
            let ids: Vec<_> = functions
                .iter()
                .enumerate()
                .map(|(i, f)| registry.register(format!("f{i}"), f))
                .collect();
            let server = PwlServer::start(
                Arc::clone(&registry),
                ServeConfig {
                    flush_elements: 700,
                    flush_interval: Duration::from_micros(200),
                    queue_elements: 4_000,
                    eval_workers: 2,
                },
            );
            let barrier = Arc::new(Barrier::new(CLIENTS));
            thread::scope(|scope| {
                for client in 0..CLIENTS {
                    let handle = server.handle();
                    let barrier = Arc::clone(&barrier);
                    let functions = &functions;
                    let engines = &engines;
                    let ids = &ids;
                    scope.spawn(move || {
                        let mut next = rng(client as u64 + 1);
                        barrier.wait();
                        for req in 0..REQUESTS {
                            let which = (next() as usize) % functions.len();
                            // Sizes sweep 0..~600 and force 0-length often.
                            let len = match next() % 5 {
                                0 => 0,
                                1 => (next() as usize) % 9,
                                _ => (next() as usize) % 600,
                            };
                            let data = request_tensor(&mut next, &functions[which], len);
                            let want = engines[which].eval_batch(&data);
                            let ticket = handle
                                .submit(ids[which], data)
                                .expect("submit during steady state");
                            let got = ticket.wait().expect("result during steady state");
                            assert_bits_eq(&got, &want, &format!("client {client} req {req}"));
                        }
                    });
                }
            });
            server.shutdown();
        },
    );
}

/// Deadline-only flushing: tensors too small to ever hit the size
/// threshold must still complete (and bit-match), including empty ones.
#[test]
fn deadline_flush_serves_sparse_traffic_and_empty_tensors() {
    with_watchdog(
        30,
        "deadline_flush_serves_sparse_traffic_and_empty_tensors",
        || {
            let functions = test_functions();
            let engine = CompiledPwl::from_pwl(&functions[0]);
            let registry = Arc::new(FunctionRegistry::new());
            let id = registry.register("f", &functions[0]);
            let server = PwlServer::start(
                Arc::clone(&registry),
                ServeConfig {
                    flush_elements: usize::MAX / 2, // size threshold unreachable
                    flush_interval: Duration::from_micros(100),
                    queue_elements: usize::MAX / 2,
                    eval_workers: 1,
                },
            );
            let handle = server.handle();
            let mut next = rng(99);
            for round in 0..50 {
                let len = if round % 3 == 0 {
                    0
                } else {
                    (next() as usize) % 5
                };
                let data = request_tensor(&mut next, &functions[0], len);
                let want = engine.eval_batch(&data);
                let got = handle.submit(id, data).unwrap().wait().unwrap();
                assert_bits_eq(&got, &want, &format!("round {round}"));
            }
            server.shutdown();
        },
    );
}

/// The flush-deadline vs size-threshold race: barrier-released bursts
/// land exactly as the deadline of the previous trickle expires. No
/// deadlock, nothing lost, everything bit-identical.
#[test]
fn threshold_and_deadline_race_loses_nothing() {
    with_watchdog(60, "threshold_and_deadline_race_loses_nothing", || {
        const ROUNDS: usize = 30;
        const BURST: usize = 6;
        let functions = test_functions();
        let engines: Vec<CompiledPwl> = functions.iter().map(CompiledPwl::from_pwl).collect();
        let registry = Arc::new(FunctionRegistry::new());
        let ids: Vec<_> = functions
            .iter()
            .enumerate()
            .map(|(i, f)| registry.register(format!("f{i}"), f))
            .collect();
        // Threshold equal to one burst's worth of elements, deadline in
        // the same band as the inter-round gap: both causes fire.
        let server = PwlServer::start(
            Arc::clone(&registry),
            ServeConfig {
                flush_elements: 64,
                flush_interval: Duration::from_micros(50),
                queue_elements: 1_000_000,
                eval_workers: 2,
            },
        );
        let barrier = Arc::new(Barrier::new(BURST));
        thread::scope(|scope| {
            for client in 0..BURST {
                let handle = server.handle();
                let barrier = Arc::clone(&barrier);
                let functions = &functions;
                let engines = &engines;
                let ids = &ids;
                scope.spawn(move || {
                    let mut next = rng(0xB0057 + client as u64);
                    for round in 0..ROUNDS {
                        // All clients release together: a 6×(0..=21)-element
                        // burst straddling the 64-element threshold.
                        barrier.wait();
                        let which = (client + round) % functions.len();
                        let len = (next() as usize) % 22;
                        let data = request_tensor(&mut next, &functions[which], len);
                        let want = engines[which].eval_batch(&data);
                        let got = handle.submit(ids[which], data).unwrap().wait().unwrap();
                        assert_bits_eq(&got, &want, &format!("client {client} round {round}"));
                    }
                });
            }
        });
        server.shutdown();
    });
}

/// Graceful shutdown with jobs still queued: every accepted job must
/// complete (bit-identically) even though shutdown raced the flush, and
/// submissions after shutdown must be rejected cleanly.
#[test]
fn shutdown_drains_queued_jobs_and_rejects_new_ones() {
    with_watchdog(
        30,
        "shutdown_drains_queued_jobs_and_rejects_new_ones",
        || {
            let functions = test_functions();
            let engines: Vec<CompiledPwl> = functions.iter().map(CompiledPwl::from_pwl).collect();
            let registry = Arc::new(FunctionRegistry::new());
            let ids: Vec<_> = functions
                .iter()
                .enumerate()
                .map(|(i, f)| registry.register(format!("f{i}"), f))
                .collect();
            for attempt in 0..20 {
                // Long deadline and big threshold: jobs are still queued when
                // shutdown lands, so the drain path does the work.
                let server = PwlServer::start(
                    Arc::clone(&registry),
                    ServeConfig {
                        flush_elements: usize::MAX / 2,
                        flush_interval: Duration::from_secs(3600),
                        queue_elements: usize::MAX / 2,
                        eval_workers: 2,
                    },
                );
                let handle = server.handle();
                let mut next = rng(7_000 + attempt);
                let mut pending = Vec::new();
                for k in 0..25 {
                    let which = (next() as usize) % functions.len();
                    let len = (next() as usize) % 200;
                    let data = request_tensor(&mut next, &functions[which], len);
                    let want = engines[which].eval_batch(&data);
                    let ticket = handle.submit(ids[which], data).unwrap();
                    pending.push((k, ticket, want));
                }
                server.shutdown();
                for (k, ticket, want) in pending {
                    let got = ticket
                        .wait()
                        .expect("job accepted before shutdown must complete");
                    assert_bits_eq(&got, &want, &format!("attempt {attempt} job {k}"));
                }
                assert_eq!(
                    handle.submit(ids[0], vec![1.0]).err(),
                    Some(ServeError::ShuttingDown),
                    "post-shutdown submissions must be rejected"
                );
            }
        },
    );
}

/// Backpressure: with a tiny element bound, `try_submit` reports a full
/// queue instead of blocking, the blocking `submit` waits for space, and
/// everything admitted still completes.
#[test]
fn backpressure_bounds_the_queue_without_losing_jobs() {
    with_watchdog(
        30,
        "backpressure_bounds_the_queue_without_losing_jobs",
        || {
            let functions = test_functions();
            let engine = CompiledPwl::from_pwl(&functions[1]);
            let registry = Arc::new(FunctionRegistry::new());
            let id = registry.register("deep", &functions[1]);
            // Flushing is effectively disabled, so the queue genuinely fills.
            let server = PwlServer::start(
                Arc::clone(&registry),
                ServeConfig {
                    flush_elements: usize::MAX / 2,
                    flush_interval: Duration::from_secs(3600),
                    queue_elements: 100,
                    eval_workers: 1,
                },
            );
            let handle = server.handle();
            let mut next = rng(31337);
            let mut admitted = Vec::new();
            let mut saw_full = false;
            for _ in 0..100 {
                let data = request_tensor(&mut next, &functions[1], 10);
                let want = engine.eval_batch(&data);
                match handle.try_submit(id, data) {
                    Ok(t) => admitted.push((t, want)),
                    Err(ServeError::QueueFull) => {
                        saw_full = true;
                        break;
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            assert!(
                saw_full,
                "a 100-element bound must reject 10×10-element jobs"
            );
            assert_eq!(admitted.len(), 10, "exactly queue_elements/len jobs fit");
            // A blocking submit parked on the full queue is released by the
            // shutdown drain and still completes.
            let blocked = {
                let handle = handle.clone();
                let data = request_tensor(&mut rng(555), &functions[1], 10);
                let want = engine.eval_batch(&data);
                thread::spawn(move || (handle.submit(id, data), want))
            };
            // Give the blocked submitter time to actually park.
            thread::sleep(Duration::from_millis(20));
            server.shutdown();
            for (i, (t, want)) in admitted.into_iter().enumerate() {
                let got = t.wait().expect("admitted job must complete");
                assert_bits_eq(&got, &want, &format!("admitted job {i}"));
            }
            // The parked submit either got in before the drain (and must
            // complete) or observed shutdown — both are clean outcomes.
            let (result, want) = blocked.join().unwrap();
            match result {
                Ok(t) => assert_bits_eq(&t.wait().unwrap(), &want, "blocked submit"),
                Err(e) => assert_eq!(e, ServeError::ShuttingDown),
            }
        },
    );
}

/// Hot swap under traffic: publishing a recompiled table mid-stream
/// never mixes tables within a response (each result bit-matches exactly
/// one published version), and a submit *after* publish returns is
/// guaranteed the new table.
#[test]
fn hot_swap_publishes_new_tables_without_stopping_traffic() {
    with_watchdog(
        60,
        "hot_swap_publishes_new_tables_without_stopping_traffic",
        || {
            let v1 = uniform_pwl(&Gelu, 31, (-8.0, 8.0));
            let v2 = uniform_pwl(&Sigmoid, 31, (-8.0, 8.0));
            let e1 = CompiledPwl::from_pwl(&v1);
            let e2 = CompiledPwl::from_pwl(&v2);
            let registry = Arc::new(FunctionRegistry::new());
            let id = registry.register("hot", &v1);
            let server = PwlServer::start(
                Arc::clone(&registry),
                ServeConfig {
                    flush_elements: 256,
                    flush_interval: Duration::from_micros(100),
                    queue_elements: 100_000,
                    eval_workers: 2,
                },
            );
            let handle = server.handle();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let (v1_ref, v2_ref) = (&v1, &v2);
            let (e1_ref, e2_ref) = (&e1, &e2);
            thread::scope(|scope| {
                // Traffic threads: every response must match v1 or v2 exactly
                // — never a blend.
                for client in 0..4 {
                    let handle = handle.clone();
                    let stop = Arc::clone(&stop);
                    let (e1, e2) = (e1_ref, e2_ref);
                    let v1 = v1_ref;
                    scope.spawn(move || {
                        let mut next = rng(0x40 + client);
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            let len = 1 + (next() as usize) % 64;
                            let data = request_tensor(&mut next, v1, len);
                            let want1 = e1.eval_batch(&data);
                            let want2 = e2.eval_batch(&data);
                            let got = handle.submit(id, data).unwrap().wait().unwrap();
                            let matches_v1 = got
                                .iter()
                                .zip(&want1)
                                .all(|(g, w)| g.to_bits() == w.to_bits());
                            let matches_v2 = got
                                .iter()
                                .zip(&want2)
                                .all(|(g, w)| g.to_bits() == w.to_bits());
                            assert!(
                                matches_v1 || matches_v2,
                                "client {client}: response matches neither published table \
                             (tables mixed within one flush?)"
                            );
                        }
                    });
                }
                // The publisher: flip between tables while traffic flows.
                let registry = Arc::clone(&registry);
                let stop_pub = Arc::clone(&stop);
                scope.spawn(move || {
                    for k in 0..40 {
                        let next = if k % 2 == 0 { v2_ref } else { v1_ref };
                        registry
                            .publish(id, CompiledPwl::from_pwl(next))
                            .expect("publish to live id");
                        thread::sleep(Duration::from_micros(300));
                    }
                    stop_pub.store(true, std::sync::atomic::Ordering::Relaxed);
                });
            });
            // Happens-before: publish returned, so any flush of a job
            // submitted now snapshots the just-published (v1) table.
            registry.publish(id, CompiledPwl::from_pwl(&v1)).unwrap();
            let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.05 - 5.0).collect();
            let want = e1.eval_batch(&xs);
            let got = handle.submit(id, xs).unwrap().wait().unwrap();
            assert_bits_eq(&got, &want, "post-publish submit sees the new table");
            server.shutdown();
        },
    );
}

/// Multi-backend dispatch: one function on the native SIMD kernels, one
/// on the bit-faithful SFU emulator, hammered concurrently. Every
/// response must be bit-identical to its *own* backend's reference
/// (never the other's — the two genuinely disagree in their low bits),
/// and the registry's per-function counters must show positive modelled
/// cycles for the emulated function and none for the native one.
#[test]
fn mixed_backends_route_flushes_per_function_with_per_flush_costs() {
    with_watchdog(
        60,
        "mixed_backends_route_flushes_per_function_with_per_flush_costs",
        || {
            const CLIENTS: usize = 4;
            const REQUESTS: usize = 30;
            let gelu = uniform_pwl(&Gelu, 31, (-8.0, 8.0));
            let tanh = uniform_pwl(&Tanh, 63, (-8.0, 8.0));
            let native_ref = CompiledPwl::from_pwl(&gelu);
            let tanh_native_ref = CompiledPwl::from_pwl(&tanh);
            let sfu_backend = SfuBackend::fp16(64);
            let sfu_ref = sfu_backend.lower_program(&tanh.compile()).unwrap();

            let registry = Arc::new(FunctionRegistry::new());
            let native_id = registry.register("gelu", &gelu);
            let sfu_id = registry
                .register_with_backend("tanh", &tanh, Arc::new(sfu_backend))
                .expect("64-segment tanh fits the depth-64 emulator");
            assert_eq!(registry.backend_name(native_id), Some("native"));
            assert_eq!(registry.backend_name(sfu_id), Some("sfu-emu"));

            let server = PwlServer::start(
                Arc::clone(&registry),
                ServeConfig {
                    flush_elements: 512,
                    flush_interval: Duration::from_micros(100),
                    queue_elements: 100_000,
                    eval_workers: 2,
                },
            );
            let sfu_elems = std::sync::atomic::AtomicU64::new(0);
            let sfu_disagreed_with_native = std::sync::atomic::AtomicBool::new(false);
            let barrier = Arc::new(Barrier::new(CLIENTS));
            thread::scope(|scope| {
                for client in 0..CLIENTS {
                    let handle = server.handle();
                    let barrier = Arc::clone(&barrier);
                    let (gelu, tanh) = (&gelu, &tanh);
                    let (native_ref, sfu_ref) = (&native_ref, &sfu_ref);
                    let tanh_native_ref = &tanh_native_ref;
                    let sfu_elems = &sfu_elems;
                    let sfu_disagreed = &sfu_disagreed_with_native;
                    scope.spawn(move || {
                        let mut next = rng(0xBACC + client as u64);
                        barrier.wait();
                        for req in 0..REQUESTS {
                            let len = (next() as usize) % 200;
                            if (client + req) % 2 == 0 {
                                let data = request_tensor(&mut next, gelu, len);
                                let want = native_ref.eval_batch(&data);
                                let got = handle.submit(native_id, data).unwrap().wait().unwrap();
                                assert_bits_eq(
                                    &got,
                                    &want,
                                    &format!("native client {client} req {req}"),
                                );
                            } else {
                                let data = request_tensor(&mut next, tanh, len);
                                let (want, _) = sfu_ref.eval_batch(&data);
                                let native_would = tanh_native_ref.eval_batch(&data);
                                sfu_elems.fetch_add(
                                    data.len() as u64,
                                    std::sync::atomic::Ordering::Relaxed,
                                );
                                let got = handle.submit(sfu_id, data).unwrap().wait().unwrap();
                                assert_bits_eq(
                                    &got,
                                    &want,
                                    &format!("sfu client {client} req {req}"),
                                );
                                if got
                                    .iter()
                                    .zip(&native_would)
                                    .any(|(g, n)| g.to_bits() != n.to_bits())
                                {
                                    sfu_disagreed.store(true, std::sync::atomic::Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
            });
            server.shutdown();

            // The emulated path really ran: it disagrees with the native
            // kernels somewhere (fp16 quantization), so bit-matching its
            // reference proves routing.
            assert!(
                sfu_disagreed_with_native.load(std::sync::atomic::Ordering::Relaxed),
                "sfu-emu responses never differed from native — routing untested"
            );
            let sfu_stats = registry.backend_stats(sfu_id).unwrap();
            assert!(sfu_stats.flushes > 0, "sfu function never flushed");
            assert_eq!(
                sfu_stats.elems,
                sfu_elems.load(std::sync::atomic::Ordering::Relaxed),
                "every sfu element must be accounted to its backend"
            );
            assert!(sfu_stats.cycles > 0, "per-flush cycle estimates must land");
            assert!(sfu_stats.energy_nj > 0.0);
            let native_stats = registry.backend_stats(native_id).unwrap();
            assert!(native_stats.flushes > 0);
            assert_eq!(
                native_stats.cycles, 0,
                "the native backend has no cost model"
            );
        },
    );
}

/// Per-function flush policies: a tight-deadline function must flush on
/// its own clock while a long-deadline function's jobs stay queued —
/// the slow function cannot hold the fast one hostage, and vice versa
/// the fast function's flushes must not sweep the slow one's jobs out
/// early.
#[test]
fn per_function_flush_policies_fire_independently() {
    with_watchdog(30, "per_function_flush_policies_fire_independently", || {
        use flexsfu_serve::testkit::noop_waker;
        use std::future::Future;
        use std::pin::Pin;
        use std::task::{Context, Poll};

        let functions = test_functions();
        let engine_fast = CompiledPwl::from_pwl(&functions[0]);
        let engine_slow = CompiledPwl::from_pwl(&functions[1]);
        let registry = Arc::new(FunctionRegistry::new());
        let fast = registry.register("fast", &functions[0]);
        let slow = registry.register("slow", &functions[1]);
        registry
            .set_policy(
                fast,
                Some(FlushPolicy {
                    max_elems: usize::MAX / 2,
                    deadline: Duration::from_millis(5),
                }),
            )
            .unwrap();
        registry
            .set_policy(
                slow,
                Some(FlushPolicy {
                    max_elems: usize::MAX / 2,
                    // "Never deadline-flush" — also proves an
                    // Instant-overflowing deadline saturates instead of
                    // panicking the batcher.
                    deadline: Duration::MAX,
                }),
            )
            .unwrap();
        // Server defaults are unreachable, so only the explicit
        // policies can trigger flushes.
        let server = PwlServer::start(
            Arc::clone(&registry),
            ServeConfig {
                flush_elements: usize::MAX / 2,
                flush_interval: Duration::from_secs(3600),
                queue_elements: usize::MAX / 2,
                eval_workers: 1,
            },
        );
        let handle = server.handle();
        let mut next = rng(0xDEAD11);

        // Slow first, fast second: a global deadline anchored at the
        // oldest job would flush both together; per-function deadlines
        // must release only the fast one.
        let slow_data = request_tensor(&mut next, &functions[1], 40);
        let slow_want = engine_slow.eval_batch(&slow_data);
        let mut slow_ticket = handle.submit(slow, slow_data).unwrap();
        let fast_data = request_tensor(&mut next, &functions[0], 40);
        let fast_want = engine_fast.eval_batch(&fast_data);
        let t0 = Instant::now();
        let fast_ticket = handle.submit(fast, fast_data).unwrap();

        let got_fast = fast_ticket.wait().unwrap();
        let fast_latency = t0.elapsed();
        assert_bits_eq(&got_fast, &fast_want, "fast function");
        assert!(
            fast_latency < Duration::from_secs(5),
            "5 ms deadline took {fast_latency:?} — the slow function's \
             never-expiring deadline held it hostage"
        );

        // The slow function's job must still be queued (its only
        // triggers are an unreachable size threshold, queue pressure,
        // or shutdown).
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(
            matches!(Pin::new(&mut slow_ticket).poll(&mut cx), Poll::Pending),
            "slow function flushed early — policies are not independent"
        );

        // Shutdown drains it, completing the job bit-identically.
        server.shutdown();
        let got_slow = slow_ticket.wait().unwrap();
        assert_bits_eq(&got_slow, &slow_want, "slow function after drain");
    });
}

/// Flush policies must never starve admissions: a long-deadline
/// function filling the shared element bound would otherwise block
/// every other function's `submit` for its whole deadline. A parked
/// submitter forces a pressure flush of everything pending.
#[test]
fn queue_pressure_overrides_flush_policies() {
    with_watchdog(30, "queue_pressure_overrides_flush_policies", || {
        let functions = test_functions();
        let engine_slow = CompiledPwl::from_pwl(&functions[1]);
        let engine_fast = CompiledPwl::from_pwl(&functions[0]);
        let registry = Arc::new(FunctionRegistry::new());
        let slow = registry.register("slow", &functions[1]);
        let fast = registry.register("fast", &functions[0]);
        registry
            .set_policy(
                slow,
                Some(FlushPolicy {
                    max_elems: usize::MAX / 2,
                    deadline: Duration::MAX, // only pressure/shutdown flush it
                }),
            )
            .unwrap();
        registry
            .set_policy(
                fast,
                Some(FlushPolicy {
                    max_elems: usize::MAX / 2,
                    deadline: Duration::from_millis(5),
                }),
            )
            .unwrap();
        let server = PwlServer::start(
            Arc::clone(&registry),
            ServeConfig {
                flush_elements: usize::MAX / 2,
                flush_interval: Duration::from_secs(3600),
                queue_elements: 1_000,
                eval_workers: 1,
            },
        );
        let handle = server.handle();
        let mut next = rng(0x9E55);

        // Saturate the bound with the never-flushing function.
        let mut slow_pending = Vec::new();
        for _ in 0..10 {
            let data = request_tensor(&mut next, &functions[1], 100);
            let want = engine_slow.eval_batch(&data);
            slow_pending.push((handle.submit(slow, data).unwrap(), want));
        }

        // This submit parks on the full queue; the resulting pressure
        // flush must drain the slow function (despite its policy),
        // admit this job, and the fast function's own 5 ms deadline
        // completes it — all well within the watchdog.
        let data = request_tensor(&mut next, &functions[0], 100);
        let want = engine_fast.eval_batch(&data);
        let t0 = Instant::now();
        let got = handle.submit(fast, data).unwrap().wait().unwrap();
        assert_bits_eq(&got, &want, "fast job under queue pressure");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "pressure flush failed to unblock admissions"
        );
        for (i, (ticket, want)) in slow_pending.into_iter().enumerate() {
            let got = ticket.wait().unwrap();
            assert_bits_eq(&got, &want, &format!("pressure-flushed slow job {i}"));
        }
        server.shutdown();
    });
}

/// Non-blocking producers must not starve either: `try_submit` never
/// parks (so it never raises the waiter count), but bouncing off the
/// full queue still has to force a drain — retries eventually succeed
/// even against a never-deadline function holding the bound.
#[test]
fn try_submit_rejection_forces_a_pressure_flush() {
    with_watchdog(30, "try_submit_rejection_forces_a_pressure_flush", || {
        let functions = test_functions();
        let engine = CompiledPwl::from_pwl(&functions[1]);
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("slow", &functions[1]);
        registry
            .set_policy(
                id,
                Some(FlushPolicy {
                    max_elems: usize::MAX / 2,
                    deadline: Duration::MAX,
                }),
            )
            .unwrap();
        let server = PwlServer::start(
            Arc::clone(&registry),
            ServeConfig {
                flush_elements: usize::MAX / 2,
                flush_interval: Duration::from_secs(3600),
                queue_elements: 500,
                eval_workers: 1,
            },
        );
        let handle = server.handle();
        let mut next = rng(0x7F11);
        let mut tickets = Vec::new();
        let mut saw_full = false;
        // Pure try_submit producer: fill the bound, observe QueueFull,
        // keep retrying — the rejection-triggered pressure flush must
        // open space again (without it, every retry fails until
        // shutdown).
        let mut accepted = 0usize;
        while accepted < 20 {
            let data = request_tensor(&mut next, &functions[1], 100);
            let want = engine.eval_batch(&data);
            match handle.try_submit(id, data) {
                Ok(t) => {
                    tickets.push((t, want));
                    accepted += 1;
                }
                Err(ServeError::QueueFull) => {
                    saw_full = true;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(saw_full, "a 500-element bound must reject 20×100 upfront");
        // The first tranche was pressure-flushed, so its ticket
        // completes *without* shutdown — poll it to readiness (bounded
        // by the watchdog; the worker may still be evaluating).
        {
            use flexsfu_serve::testkit::noop_waker;
            use std::future::Future;
            use std::pin::Pin;
            use std::task::{Context, Poll};
            let waker = noop_waker();
            let mut cx = Context::from_waker(&waker);
            let (first, want) = &mut tickets[0];
            let got = loop {
                match Pin::new(&mut *first).poll(&mut cx) {
                    Poll::Ready(r) => break r.unwrap(),
                    Poll::Pending => thread::sleep(Duration::from_micros(200)),
                }
            };
            assert_bits_eq(&got, want, "first pressure-flushed job");
        }
        // The tail tranche never saw pressure again; the shutdown drain
        // completes it (and everything else) bit-identically.
        server.shutdown();
        for (i, (t, want)) in tickets.into_iter().skip(1).enumerate() {
            let got = t.wait().expect("accepted job completes");
            assert_bits_eq(&got, &want, &format!("try_submit job {i}"));
        }
    });
}

/// The coalescing contract for both precisions: one eval worker, the
/// default zero deadline, and the flush gate held. Job A drains alone at
/// once and parks at the gate; `N` jobs submitted while its unit is
/// parked must wait for the worker and go out together once the gate
/// opens. `submit(handle, id, seed)` enqueues one job and returns its
/// ticket and expected result; `check` waits for a ticket and
/// bit-compares.
fn assert_busy_worker_coalesces<T, W>(
    submit: impl Fn(&ServeHandle, FunctionId, u64) -> (T, W),
    check: impl Fn(T, W, &str),
) {
    const N: u64 = 12;
    let functions = test_functions();
    let registry = Arc::new(FunctionRegistry::new());
    let id = registry.register("deep", &functions[1]);
    let faults = Faults::new();
    faults.hold_flushes();
    let server = PwlServer::start_with_faults(
        Arc::clone(&registry),
        ServeConfig {
            eval_workers: 1,
            ..ServeConfig::default()
        },
        Arc::clone(&faults),
    );
    let handle = server.handle();
    let (a, a_want) = submit(&handle, id, 0);
    // No deadline to wait out: the idle worker takes A at once.
    faults.wait_parked(1);
    let rest: Vec<(T, W)> = (1..=N).map(|k| submit(&handle, id, k)).collect();
    faults.release_flushes();
    check(a, a_want, "job A");
    for (k, (ticket, want)) in rest.into_iter().enumerate() {
        check(ticket, want, &format!("coalesced job {k}"));
    }
    server.shutdown();
    let flushes = registry.backend_stats(id).unwrap().flushes;
    assert_eq!(
        flushes, 2,
        "A alone, then everything that arrived while its unit was busy"
    );
}

/// Work-conserving flushes: with the default zero deadline, a lone job
/// flushes at once, and the jobs that arrive while the only worker is
/// busy coalesce into exactly one more flush — no deadline involved.
#[test]
fn busy_worker_coalesces_pending_jobs_into_one_flush() {
    with_watchdog(
        60,
        "busy_worker_coalesces_pending_jobs_into_one_flush",
        || {
            let deep = &test_functions()[1];
            let engine = CompiledPwl::from_pwl(deep);
            assert_busy_worker_coalesces(
                |handle, id, seed| {
                    let data = request_tensor(&mut rng(0xC0A1 + seed), deep, 1 + seed as usize * 5);
                    let want = engine.eval_batch(&data);
                    (handle.submit(id, data).unwrap(), want)
                },
                |ticket, want, ctx| assert_bits_eq(&ticket.wait().unwrap(), &want, ctx),
            );
        },
    );
}

/// [`busy_worker_coalesces_pending_jobs_into_one_flush`] on the f32
/// lane.
#[test]
fn busy_worker_coalesces_pending_f32_jobs_into_one_flush() {
    with_watchdog(
        60,
        "busy_worker_coalesces_pending_f32_jobs_into_one_flush",
        || {
            let deep = &test_functions()[1];
            let engine = CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(deep));
            assert_busy_worker_coalesces(
                |handle, id, seed| {
                    let data: Vec<f32> =
                        request_tensor(&mut rng(0xF32 + seed), deep, 1 + seed as usize * 5)
                            .into_iter()
                            .map(|x| x as f32)
                            .collect();
                    let want = engine.eval_batch(&data);
                    (handle.submit::<f32>(id, data).unwrap(), want)
                },
                |ticket, want: Vec<f32>, ctx| {
                    let got = ticket.wait().unwrap();
                    assert_eq!(got.len(), want.len(), "{ctx}: length");
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}");
                    }
                },
            );
        },
    );
}

/// Submitting an unregistered id fails fast without touching the queue,
/// and tickets are usable as plain `Future`s.
#[test]
fn unknown_function_and_future_interface() {
    with_watchdog(30, "unknown_function_and_future_interface", || {
        use flexsfu_serve::testkit::noop_waker;
        use flexsfu_serve::FunctionId;
        use std::future::Future;
        use std::pin::Pin;
        use std::task::{Context, Poll};

        let functions = test_functions();
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("f", &functions[0]);
        let engine = CompiledPwl::from_pwl(&functions[0]);
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let handle = server.handle();
        assert_eq!(
            handle.submit(FunctionId(42), vec![0.0]).err(),
            Some(ServeError::UnknownFunction(FunctionId(42)))
        );

        // Drive the ticket as a Future by hand (busy poll — the deadline
        // flush completes it in ≤ flush_interval).
        let xs = vec![-2.0, 0.5, f64::NAN, 3.0];
        let want = engine.eval_batch(&xs);
        let mut ticket = handle.submit(id, xs).unwrap();
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let got = loop {
            match Pin::new(&mut ticket).poll(&mut cx) {
                Poll::Ready(r) => break r.unwrap(),
                Poll::Pending => thread::sleep(Duration::from_micros(50)),
            }
        };
        assert_bits_eq(&got, &want, "future-polled ticket");
        server.shutdown();
    });
}

/// `queue_elements` bounds the accepted work that has not started
/// evaluating. A bounced `try_submit` makes the next *free* worker drain
/// the queue; it must not move the queue somewhere unbounded while the
/// only worker is busy. One worker whose every unit parks at the held
/// flush gate until the test passes it, one unit per round, and
/// 100-element jobs against a 200-element bound: the
/// accepted-but-unfinished elements never exceed
/// `(eval_workers + 1) × queue_elements`.
#[test]
fn queue_bound_holds_while_workers_are_busy() {
    with_watchdog(60, "queue_bound_holds_while_workers_are_busy", || {
        use flexsfu_serve::testkit::noop_waker;
        use std::future::Future;
        use std::pin::Pin;
        use std::task::{Context, Poll};

        const QUEUE: usize = 200;
        const LEN: usize = 100;
        const ROUNDS: usize = 20;
        let deep = &test_functions()[1];
        let engine = CompiledPwl::from_pwl(deep);
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("deep", deep);
        let faults = Faults::new();
        faults.hold_flushes();
        let server = PwlServer::start_with_faults(
            Arc::clone(&registry),
            ServeConfig {
                queue_elements: QUEUE,
                eval_workers: 1,
                ..ServeConfig::default()
            },
            Arc::clone(&faults),
        );
        let handle = server.handle();
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let mut next = rng(0xB0D);
        let mut open: Vec<(JobTicket, Vec<f64>)> = Vec::new();
        let (mut outstanding, mut peak, mut saw_full) = (0usize, 0usize, false);
        for _ in 0..ROUNDS {
            // Submit until the queue bounces. A bounced queue is not
            // empty, so the worker, once free, drains it and parks.
            let mut full = false;
            while !full {
                let data = request_tensor(&mut next, deep, LEN);
                let want = engine.eval_batch(&data);
                match handle.try_submit(id, data) {
                    Ok(ticket) => {
                        open.push((ticket, want));
                        outstanding += LEN;
                    }
                    Err(ServeError::QueueFull) => (full, saw_full) = (true, true),
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
                // Poll before measuring: a ticket still open now was open
                // at the submit above, so `outstanding` never overcounts.
                open.retain_mut(|(ticket, want)| match Pin::new(ticket).poll(&mut cx) {
                    Poll::Ready(got) => {
                        assert_bits_eq(&got.unwrap(), want, "completed during the run");
                        outstanding -= LEN;
                        false
                    }
                    Poll::Pending => true,
                });
                peak = peak.max(outstanding);
            }
            // The worker is busy with a parked unit; let it evaluate.
            faults.wait_parked(1);
            faults.pass_flushes(1);
        }
        faults.release_flushes();
        server.shutdown();
        for (i, (ticket, want)) in open.into_iter().enumerate() {
            assert_bits_eq(&ticket.wait().unwrap(), &want, &format!("drained job {i}"));
        }
        assert!(saw_full, "the run never reached the queue bound");
        assert!(
            peak <= 2 * QUEUE,
            "{peak} elements outstanding against a {QUEUE}-element bound and one worker"
        );
    });
}

/// A backend whose every evaluation panics.
struct PanickingBackend;

impl EvalBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn lower(&self, _: &CompiledPwl) -> Result<Arc<dyn BackendProgram>, LowerError> {
        Ok(Arc::new(PanickingBackend))
    }
}

impl BackendProgram for PanickingBackend {
    fn backend_name(&self) -> &'static str {
        "panicking"
    }

    fn eval_scatter_into(&self, _: &[f64], _: &mut [&mut [f64]]) -> FlushStats {
        panic!("injected backend failure")
    }
}

/// A panicking backend fails only its own unit: that job's ticket sees
/// `Disconnected`, the one worker keeps serving, a later job on a native
/// function completes bit-identically, and shutdown joins cleanly.
#[test]
fn panicking_backend_fails_only_its_own_unit() {
    with_watchdog(30, "panicking_backend_fails_only_its_own_unit", || {
        let functions = test_functions();
        let engine = CompiledPwl::from_pwl(&functions[1]);
        let registry = Arc::new(FunctionRegistry::new());
        let bad = registry
            .register_with_backend("bad", &functions[0], Arc::new(PanickingBackend))
            .unwrap();
        let good = registry.register("good", &functions[1]);
        let server = PwlServer::start(
            Arc::clone(&registry),
            ServeConfig {
                eval_workers: 1,
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        assert_eq!(
            handle.submit(bad, vec![0.5; 8]).unwrap().wait(),
            Err(ServeError::Disconnected)
        );
        let data = request_tensor(&mut rng(0xBAD), &functions[1], 64);
        let want = engine.eval_batch(&data);
        let got = handle.submit(good, data).unwrap().wait().unwrap();
        assert_bits_eq(&got, &want, "job after the panicking unit");
        server.shutdown();
    });
}

/// Runs `drive` against an instrumented one-worker server over one
/// function flushed by `policy`, shuts the server down, waits for the
/// tickets `drive` returned, and reads `flexsfu_serve_flushes_total`
/// as `[size, deadline, pressure, shutdown]`.
fn flush_reasons(
    policy: FlushPolicy,
    queue_elements: usize,
    drive: impl FnOnce(&ServeHandle, FunctionId) -> Vec<JobTicket>,
) -> [u64; 4] {
    let metrics = Arc::new(MetricsRegistry::new());
    let registry = Arc::new(FunctionRegistry::new());
    let id = registry.register("deep", &test_functions()[1]);
    registry.set_policy(id, Some(policy)).unwrap();
    let server = PwlServer::start_with_obs(
        Arc::clone(&registry),
        ServeConfig {
            queue_elements,
            eval_workers: 1,
            ..ServeConfig::default()
        },
        ServeObs::with_defaults(Arc::clone(&metrics)),
    );
    let tickets = drive(&server.handle(), id);
    server.shutdown();
    for ticket in tickets {
        ticket.wait().expect("accepted job completes");
    }
    ["size", "deadline", "pressure", "shutdown"].map(|reason| {
        metrics
            .counter(&labeled(M_FLUSHES, &[("reason", reason)]))
            .get()
    })
}

/// Each flush reason, pinned by one deterministic scenario that moves
/// only its own counter.
#[test]
fn flush_reason_counters_count_one_reason_each() {
    with_watchdog(30, "flush_reason_counters_count_one_reason_each", || {
        const BIG: usize = 1 << 20;
        let never = FlushPolicy {
            max_elems: BIG,
            deadline: Duration::MAX,
        };
        let size = flush_reasons(
            FlushPolicy {
                max_elems: 64,
                ..never
            },
            BIG,
            |handle, id| {
                handle.submit(id, vec![0.5; 64]).unwrap().wait().unwrap();
                Vec::new()
            },
        );
        assert_eq!(size, [1, 0, 0, 0], "one submit of max_elems elements");

        let deadline = flush_reasons(
            FlushPolicy {
                deadline: Duration::ZERO,
                ..never
            },
            BIG,
            |handle, id| {
                handle.submit(id, vec![0.5; 8]).unwrap().wait().unwrap();
                Vec::new()
            },
        );
        assert_eq!(deadline, [0, 1, 0, 0], "zero deadline, idle worker");

        let pressure = flush_reasons(never, 100, |handle, id| {
            let first = handle.submit(id, vec![0.5; 100]).unwrap();
            assert_eq!(
                handle.try_submit(id, vec![0.5]).err(),
                Some(ServeError::QueueFull)
            );
            first.wait().unwrap();
            Vec::new()
        });
        assert_eq!(pressure, [0, 0, 1, 0], "a try_submit bounce");

        let shutdown = flush_reasons(never, BIG, |handle, id| {
            vec![handle.submit(id, vec![0.5; 8]).unwrap()]
        });
        assert_eq!(shutdown, [0, 0, 0, 1], "drained by shutdown");
    });
}
