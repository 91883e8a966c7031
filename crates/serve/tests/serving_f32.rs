//! The single-precision job lane, under the same scheduling pressure as
//! the f64 battery: concurrent clients, tiny flush windows, mixed
//! precisions in one queue, hot swaps mid-traffic. Everything runs
//! under a watchdog; the headline contract is the tentpole's — an f32
//! job's scatter-back is **bit-identical** to evaluating the tensor
//! directly with the registry's f32 engine, because the request never
//! touches f64 anywhere in the pipeline.

use flexsfu_backend::SfuBackend;
use flexsfu_core::init::uniform_pwl;
use flexsfu_core::{CompiledPwl, CompiledPwlF32, PwlFunction};
use flexsfu_funcs::{Gelu, Tanh};
use flexsfu_serve::testkit::with_watchdog;
use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig, ServeError};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

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

/// Three functions covering all three f32 engine kernels: linear-scan
/// (≤ 8 segments), bucket line (deep table), search fallback
/// (clustered breakpoints that collapse the bucket window).
fn test_functions() -> Vec<PwlFunction> {
    let shallow = uniform_pwl(&Gelu, 7, (-8.0, 8.0));
    let deep = uniform_pwl(&Tanh, 63, (-8.0, 8.0));
    let clustered = {
        let mut ps: Vec<f64> = (0..30).map(|i| i as f64 * 1e-3).collect();
        ps.insert(0, -500.0);
        ps.push(500.0);
        let vs: Vec<f64> = ps.iter().map(|p| (p * 0.01).cos()).collect();
        PwlFunction::new(ps, vs, 0.5, -0.25).unwrap()
    };
    vec![shallow, deep, clustered]
}

/// A request tensor mixing interior points, breakpoint-exact values and
/// the occasional non-finite, sized `len` — all f32 from birth.
fn request_tensor_f32(next: &mut impl FnMut() -> u64, pwl: &PwlFunction, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let r = next();
            match r % 37 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => pwl.breakpoints()[(r >> 8) as usize % pwl.breakpoints().len()] as f32,
                _ => ((r >> 11) as f32 / (1u64 << 53) as f32) * 24.0 - 12.0,
            }
        })
        .collect()
}

/// Bitwise comparison helper (NaN-tolerant: NaN bits must equal).
fn assert_bits_eq_f32(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}");
    }
}

/// The headline: 6 client threads × 3 functions × random f32 tensor
/// sizes (including 0-length), tiny flush threshold and deadline so
/// both flush causes race, every result bit-identical to direct
/// `CompiledPwlF32::eval_batch` on the same tensor.
#[test]
fn f32_results_bit_identical_to_direct_f32_eval() {
    with_watchdog(60, "f32_results_bit_identical_to_direct_f32_eval", || {
        let functions = test_functions();
        let registry = Arc::new(FunctionRegistry::new());
        let ids: Vec<_> = functions
            .iter()
            .enumerate()
            .map(|(i, f)| registry.register(format!("f{i}"), f))
            .collect();
        let engines: Vec<CompiledPwlF32> = functions
            .iter()
            .map(|f| CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(f)))
            .collect();
        for (&id, engine) in ids.iter().zip(&engines) {
            assert_eq!(registry.supports::<f32>(id), Some(true));
            // The registry's f32 reference is the same table we compiled.
            assert_eq!(
                registry.engine_f32(id).unwrap().engine().eval_one(0.37),
                engine.eval_one(0.37)
            );
        }
        let server = PwlServer::start(
            Arc::clone(&registry),
            ServeConfig {
                flush_elements: 48,
                flush_interval: Duration::from_micros(100),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();

        let clients = 6;
        let requests = 120;
        let barrier = Arc::new(Barrier::new(clients));
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let handle = handle.clone();
                let functions = functions.clone();
                let engines = engines.clone();
                let ids = ids.clone();
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let mut next = rng(c as u64 + 1);
                    barrier.wait();
                    for r in 0..requests {
                        let which = (c + r) % ids.len();
                        let len = (next() % 70) as usize; // includes 0
                        let xs = request_tensor_f32(&mut next, &functions[which], len);
                        let want = engines[which].eval_batch(&xs);
                        let got = handle
                            .submit::<f32>(ids[which], xs)
                            .unwrap()
                            .wait()
                            .unwrap();
                        assert_bits_eq_f32(&got, &want, &format!("client {c} request {r}"));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        server.shutdown();
    });
}

/// f64 and f32 jobs of the *same* function share its queue accounting
/// and flush policy but flush in separate units: interleaved
/// submissions of both precisions each come back bit-identical to
/// their own precision's direct eval, and the function's stats counter
/// sees every element of both.
#[test]
fn mixed_precision_traffic_stays_per_precision_exact() {
    with_watchdog(
        60,
        "mixed_precision_traffic_stays_per_precision_exact",
        || {
            let pwl = uniform_pwl(&Gelu, 31, (-8.0, 8.0));
            let engine64 = CompiledPwl::from_pwl(&pwl);
            let engine32 = CompiledPwlF32::from_compiled(&engine64);
            let registry = Arc::new(FunctionRegistry::new());
            let id = registry.register("gelu", &pwl);
            let server = PwlServer::start(
                Arc::clone(&registry),
                ServeConfig {
                    flush_elements: 64,
                    flush_interval: Duration::from_micros(100),
                    ..ServeConfig::default()
                },
            );
            let handle = server.handle();

            let mut next = rng(7);
            let mut total_elems = 0u64;
            let mut tickets64 = Vec::new();
            let mut tickets32 = Vec::new();
            for r in 0..200 {
                let len = (next() % 40) as usize;
                total_elems += len as u64;
                if r % 2 == 0 {
                    let xs: Vec<f64> = (0..len)
                        .map(|_| ((next() >> 11) as f64 / (1u64 << 53) as f64) * 16.0 - 8.0)
                        .collect();
                    let want: Vec<f64> = {
                        use flexsfu_core::PwlEvaluator;
                        engine64.eval_batch(&xs)
                    };
                    tickets64.push((handle.submit(id, xs).unwrap(), want));
                } else {
                    let xs = request_tensor_f32(&mut next, &pwl, len);
                    let want = engine32.eval_batch(&xs);
                    tickets32.push((handle.submit::<f32>(id, xs).unwrap(), want));
                }
            }
            for (i, (t, want)) in tickets64.into_iter().enumerate() {
                let got = t.wait().unwrap();
                assert_eq!(got.len(), want.len(), "f64 request {i}: length");
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "f64 request {i} element {j}");
                }
            }
            for (i, (t, want)) in tickets32.into_iter().enumerate() {
                let got = t.wait().unwrap();
                assert_bits_eq_f32(&got, &want, &format!("f32 request {i}"));
            }
            server.shutdown();
            // Both precisions' flushes land in one per-function counter.
            let stats = registry.backend_stats(id).unwrap();
            assert_eq!(stats.elems, total_elems, "stats count both precisions");
        },
    );
}

/// A backend without an f32 lane rejects f32 jobs **at admission** with
/// `PrecisionUnsupported` — blocking and non-blocking submits alike —
/// while its f64 service is untouched.
#[test]
fn backend_without_f32_lane_rejects_at_admission() {
    with_watchdog(30, "backend_without_f32_lane_rejects_at_admission", || {
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry
            .register_with_backend(
                "tanh",
                &uniform_pwl(&Tanh, 15, (-8.0, 8.0)),
                Arc::new(SfuBackend::fp16(16)),
            )
            .unwrap();
        assert_eq!(registry.supports::<f32>(id), Some(false));
        assert_eq!(registry.supports::<f32>(flexsfu_serve::FunctionId(9)), None);
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let handle = server.handle();
        assert_eq!(
            handle.submit::<f32>(id, vec![0.5f32]).err(),
            Some(ServeError::PrecisionUnsupported(id))
        );
        assert_eq!(
            handle.try_submit_f32(id, vec![0.5f32]).err(),
            Some(ServeError::PrecisionUnsupported(id))
        );
        // An unknown id still reports UnknownFunction, not precision.
        assert_eq!(
            handle
                .submit::<f32>(flexsfu_serve::FunctionId(9), vec![0.5f32])
                .err(),
            Some(ServeError::UnknownFunction(flexsfu_serve::FunctionId(9)))
        );
        // The f64 lane is unaffected.
        let ys = handle.submit(id, vec![0.5f64]).unwrap().wait().unwrap();
        assert_eq!(ys.len(), 1);
        server.shutdown();
    });
}

/// Publishing a new table swaps **both** precisions atomically: after
/// the publish returns, a fresh f32 submission evaluates the new
/// table's f32 form; an `engine_f32` snapshot taken before keeps
/// evaluating the old one.
#[test]
fn publish_swaps_the_f32_engine_with_the_f64_one() {
    with_watchdog(30, "publish_swaps_the_f32_engine_with_the_f64_one", || {
        let gelu = uniform_pwl(&Gelu, 15, (-8.0, 8.0));
        let tanh = uniform_pwl(&Tanh, 15, (-8.0, 8.0));
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("f", &gelu);
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let handle = server.handle();

        let old32 = registry.engine_f32(id).unwrap();
        let xs: Vec<f32> = (0..64).map(|i| i as f32 * 0.2 - 6.0).collect();
        let want_old = CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(&gelu)).eval_batch(&xs);
        let got = handle
            .submit::<f32>(id, xs.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_bits_eq_f32(&got, &want_old, "pre-publish");

        registry.publish(id, CompiledPwl::from_pwl(&tanh)).unwrap();
        let want_new = CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(&tanh)).eval_batch(&xs);
        let got = handle
            .submit::<f32>(id, xs.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_bits_eq_f32(&got, &want_new, "post-publish");
        // The pre-publish snapshot still evaluates the old table.
        assert_bits_eq_f32(&old32.eval_batch(&xs), &want_old, "snapshot");
        server.shutdown();
    });
}

/// The f32 ticket is a Future too, and shutdown drains queued f32 jobs
/// instead of discarding them.
#[test]
fn f32_future_interface_and_shutdown_drain() {
    with_watchdog(30, "f32_future_interface_and_shutdown_drain", || {
        use flexsfu_serve::testkit::noop_waker;
        use std::future::Future;
        use std::pin::Pin;
        use std::task::{Context, Poll};

        let pwl = uniform_pwl(&Gelu, 7, (-8.0, 8.0));
        let engine = CompiledPwlF32::from_compiled(&CompiledPwl::from_pwl(&pwl));
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("gelu", &pwl);
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let handle = server.handle();

        let xs = vec![-2.0f32, 0.5, f32::NAN, 3.0];
        let want = engine.eval_batch(&xs);
        let mut ticket = handle.submit::<f32>(id, xs).unwrap();
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let got = loop {
            match Pin::new(&mut ticket).poll(&mut cx) {
                Poll::Ready(r) => break r.unwrap(),
                Poll::Pending => thread::sleep(Duration::from_micros(50)),
            }
        };
        assert_bits_eq_f32(&got, &want, "future-polled f32 ticket");

        // Park a job behind a never-expiring deadline, then shut down:
        // the final drain must still complete it.
        registry
            .set_policy(
                id,
                Some(flexsfu_serve::FlushPolicy {
                    max_elems: usize::MAX,
                    deadline: Duration::MAX,
                }),
            )
            .unwrap();
        let xs = vec![1.0f32, -1.0];
        let want = engine.eval_batch(&xs);
        let ticket = handle.submit::<f32>(id, xs).unwrap();
        server.shutdown();
        assert_bits_eq_f32(&ticket.wait().unwrap(), &want, "drained at shutdown");
        assert_eq!(
            handle.submit::<f32>(id, vec![0.0f32]).err(),
            Some(ServeError::ShuttingDown)
        );
    });
}
