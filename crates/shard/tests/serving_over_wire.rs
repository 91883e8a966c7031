//! The sharded deployment's acceptance battery — headlined by
//! `serving_over_wire`: two shards under concurrent mixed-precision
//! traffic, one shard drained and killed mid-stream, **zero accepted
//! jobs lost** and every surviving result bit-identical to direct
//! engine evaluation.
//!
//! Every test runs under the serve testkit's watchdog; there are no
//! unbounded waits outside it.

use flexsfu_backend::SfuBackend;
use flexsfu_core::init::uniform_pwl;
use flexsfu_core::{CompiledPwl, CompiledPwlF32, PwlEvaluator, PwlFunction};
use flexsfu_funcs::{Gelu, Sigmoid, Tanh};
use flexsfu_serve::testkit::with_watchdog;
use flexsfu_serve::{FunctionId, FunctionRegistry, ServeConfig};
use flexsfu_shard::{RouterConfig, RouterError, ShardRouter, ShardState};
use flexsfu_wire::{WireClient, WireError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The deployment's function set — registered identically on every
/// shard by [`register_all`].
fn test_functions() -> Vec<PwlFunction> {
    vec![
        uniform_pwl(&Gelu, 24, (-8.0, 8.0)),
        uniform_pwl(&Tanh, 48, (-6.0, 6.0)),
        uniform_pwl(&Sigmoid, 16, (-10.0, 10.0)),
    ]
}

fn register_all(registry: &FunctionRegistry) {
    for (i, f) in test_functions().iter().enumerate() {
        registry.register(format!("f{i}"), f);
    }
}

/// Direct-eval references, one per function — the bit-identity oracle.
fn reference_engines() -> Vec<CompiledPwl> {
    test_functions().iter().map(CompiledPwl::from_pwl).collect()
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn request_tensor(next: &mut impl FnMut() -> u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| match next() % 12 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            _ => (next() % 2_400) as f64 / 100.0 - 12.0,
        })
        .collect()
}

fn quick_router_config() -> RouterConfig {
    RouterConfig {
        serve: ServeConfig {
            flush_elements: 512,
            flush_interval: Duration::from_micros(200),
            queue_elements: 8192,
            eval_workers: 1,
        },
        health_interval: Duration::from_millis(25),
        max_attempts: 16,
        ..RouterConfig::default()
    }
}

/// THE acceptance test: 6 client threads stream mixed tensors at a
/// 2-shard deployment over 3 functions; mid-traffic, one shard is
/// drained and then stopped. Requirements pinned:
///
/// * no client observes an error — drained-shard traffic fails over;
/// * every result is bit-identical to direct `eval_batch`;
/// * the drain settles (the killed shard answered everything it acked).
#[test]
fn serving_over_wire() {
    with_watchdog(120, "serving_over_wire", || {
        let router = Arc::new(ShardRouter::deploy(2, quick_router_config(), register_all).unwrap());
        let references = Arc::new(reference_engines());
        const CLIENTS: usize = 6;
        const REQS: usize = 60;
        let completed = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let router = Arc::clone(&router);
                    let references = Arc::clone(&references);
                    let completed = Arc::clone(&completed);
                    scope.spawn(move || {
                        let mut next = xorshift(0xACCE55 + c as u64);
                        for r in 0..REQS {
                            let func = FunctionId(((c + r) % 3) as u32);
                            let len = 1 + (next() % 64) as usize;
                            let xs = request_tensor(&mut next, len);
                            let ys = router
                                .eval(func, &xs)
                                .unwrap_or_else(|e| panic!("client {c} req {r}: {e}"));
                            let want = references[func.0 as usize].eval_batch(&xs);
                            assert_eq!(ys.len(), want.len());
                            for (i, (a, b)) in ys.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "client {c} req {r} elem {i}: wire result diverged"
                                );
                            }
                            completed.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();

            // Let traffic establish, then kill shard 0 mid-stream: drain
            // (loss-free handoff), verify settle, stop.
            while completed.load(Ordering::SeqCst) < CLIENTS * REQS / 8 {
                std::thread::sleep(Duration::from_millis(2));
            }
            let settled = router.drain_shard(0, Duration::from_secs(30)).unwrap();
            assert!(settled, "drained shard must answer all accepted jobs");
            router.stop_shard(0).unwrap();
            assert_eq!(router.shard_state(0).unwrap(), ShardState::Down);

            for w in workers {
                w.join().expect("client thread panicked");
            }
        });

        assert_eq!(completed.load(Ordering::SeqCst), CLIENTS * REQS);
        // Everything routed somewhere real: the surviving shard (and the
        // dead one, pre-drain) did the work.
        let served: u64 = (0..router.shard_count())
            .map(|i| {
                let registry = router.registry(i).unwrap();
                (0..3)
                    .map(|f| registry.backend_stats(FunctionId(f)).unwrap().elems)
                    .sum::<u64>()
            })
            .sum();
        assert!(served > 0);
        Arc::try_unwrap(router).ok().expect("sole owner").shutdown();
    });
}

/// Ack-level zero-loss, observed at the protocol boundary: a burst of
/// direct submissions races a drain; afterwards every ticket is either
/// **acked and answered with a result** or **refused with the typed
/// drain error** — acked-but-silent is the loss the tier forbids.
#[test]
fn drain_answers_every_acked_job_at_the_wire_level() {
    with_watchdog(
        60,
        "drain_answers_every_acked_job_at_the_wire_level",
        || {
            let router = ShardRouter::deploy(2, quick_router_config(), register_all).unwrap();
            let client = WireClient::connect(router.shard_addr(0).unwrap()).unwrap();

            let tickets: Vec<_> = (0..64)
                .map(|i| client.submit_f64((i % 3) as u32, vec![0.5; 32]).unwrap())
                .collect();
            // Let the server accept at least the head of the burst, then
            // race the drain against the rest (the watchdog bounds the
            // poll).
            while !tickets[0].was_acked() {
                std::thread::sleep(Duration::from_micros(200));
            }
            let settled = router.drain_shard(0, Duration::from_secs(30)).unwrap();
            assert!(settled);

            let (mut answered, mut refused) = (0usize, 0usize);
            for t in tickets {
                let probe = t.ack_probe();
                match t.wait() {
                    Ok(ys) => {
                        assert!(probe.is_acked(), "a result implies the ack preceded it");
                        assert_eq!(ys.len(), 32);
                        answered += 1;
                    }
                    Err(WireError::Draining) => {
                        assert!(!probe.is_acked(), "an acked job must not be refused");
                        refused += 1;
                    }
                    Err(other) => panic!("unexpected ticket error: {other}"),
                }
            }
            assert_eq!(answered + refused, 64);
            assert!(answered > 0, "the pre-drain burst was accepted");
            assert_eq!(router.shard_inflight(0).unwrap(), 0);

            drop(client);
            router.shutdown();
        },
    );
}

/// The f32 lane flows through routing and failover too, bit-identically
/// to the direct f32 engines.
#[test]
fn f32_jobs_route_and_survive_drain() {
    with_watchdog(60, "f32_jobs_route_and_survive_drain", || {
        let router = ShardRouter::deploy(2, quick_router_config(), register_all).unwrap();
        let references: Vec<CompiledPwlF32> = test_functions()
            .iter()
            .map(|f| CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(f)))
            .collect();
        let mut next = xorshift(0xF32F32);

        let check = |router: &ShardRouter, next: &mut dyn FnMut() -> u64| {
            for f in 0..3u32 {
                let xs: Vec<f32> = (0..33)
                    .map(|_| (next() % 160) as f32 / 10.0 - 8.0)
                    .collect();
                let ys = router.eval::<f32>(FunctionId(f), &xs).unwrap();
                let want = references[f as usize].eval_batch(&xs);
                for (a, b) in ys.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "f32 divergence through router");
                }
            }
        };
        check(&router, &mut next);
        assert!(router.drain_shard(0, Duration::from_secs(30)).unwrap());
        router.stop_shard(0).unwrap();
        check(&router, &mut next); // all functions still served by shard 1
        router.shutdown();
    });
}

/// Rejections that would repeat on every shard return immediately and
/// typed — no retry storm: unknown ids, and f32 against a deployment
/// whose backend has no f32 lane.
#[test]
fn non_retryable_rejections_are_typed_and_immediate() {
    with_watchdog(
        60,
        "non_retryable_rejections_are_typed_and_immediate",
        || {
            let router = ShardRouter::deploy(2, quick_router_config(), register_all).unwrap();
            match router.eval(FunctionId(99), &[0.5]) {
                Err(RouterError::Rejected(WireError::UnknownFunction(99))) => {}
                other => panic!("expected UnknownFunction(99), got {other:?}"),
            }
            router.shutdown();

            // A deployment on the fp16 SFU emulator backend: f64 serves,
            // f32 is a typed precision rejection.
            let router = ShardRouter::deploy(2, quick_router_config(), |registry| {
                registry
                    .register_with_backend(
                        "tanh",
                        &uniform_pwl(&Tanh, 15, (-8.0, 8.0)),
                        Arc::new(SfuBackend::fp16(16)),
                    )
                    .unwrap();
            })
            .unwrap();
            assert_eq!(router.eval(FunctionId(0), &[0.5]).unwrap().len(), 1);
            match router.eval::<f32>(FunctionId(0), &[0.5f32]) {
                Err(RouterError::Rejected(WireError::PrecisionUnsupported(0))) => {}
                other => panic!("expected PrecisionUnsupported(0), got {other:?}"),
            }
            router.shutdown();
        },
    );
}

/// Backpressure end to end: a deployment with a tiny queue bound under
/// a concurrent burst leans on `RetryAfter` hints — and every request
/// still completes, correctly.
#[test]
fn retry_hints_carry_a_burst_through_a_tiny_queue() {
    with_watchdog(
        120,
        "retry_hints_carry_a_burst_through_a_tiny_queue",
        || {
            let mut config = quick_router_config();
            config.serve.queue_elements = 96;
            config.serve.flush_elements = 64;
            config.max_attempts = 200;
            let router = Arc::new(ShardRouter::deploy(2, config, register_all).unwrap());
            let references = Arc::new(reference_engines());

            std::thread::scope(|scope| {
                for c in 0..4 {
                    let router = Arc::clone(&router);
                    let references = Arc::clone(&references);
                    scope.spawn(move || {
                        let mut next = xorshift(0xB0057 + c as u64);
                        for _ in 0..40 {
                            let func = FunctionId((next() % 3) as u32);
                            let xs = request_tensor(&mut next, 32);
                            let ys = router.eval(func, &xs).expect("burst request failed");
                            let want = references[func.0 as usize].eval_batch(&xs);
                            assert!(ys
                                .iter()
                                .zip(&want)
                                .all(|(a, b)| a.to_bits() == b.to_bits()));
                        }
                    });
                }
            });
            Arc::try_unwrap(router).ok().expect("sole owner").shutdown();
        },
    );
}

/// The override map pins a function to a shard; the pin still fails
/// over when that shard goes down.
#[test]
fn overrides_pin_functions_but_still_fail_over() {
    with_watchdog(60, "overrides_pin_functions_but_still_fail_over", || {
        let mut config = quick_router_config();
        config.overrides = HashMap::from([(FunctionId(0), 1usize)]);
        let router = ShardRouter::deploy(2, config, register_all).unwrap();
        assert_eq!(router.route(FunctionId(0)).unwrap(), 1);

        assert!(router.drain_shard(1, Duration::from_secs(30)).unwrap());
        router.stop_shard(1).unwrap();
        assert_eq!(router.route(FunctionId(0)).unwrap(), 0);
        assert_eq!(router.eval(FunctionId(0), &[0.5]).unwrap().len(), 1);
        router.shutdown();
    });
}
