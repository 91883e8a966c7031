//! Integration battery for the TCP wire tier: bit-identity over the
//! socket, out-of-order multiplexing, backpressure as `RetryAfter`,
//! fault-injected failure paths, torn-frame/garbage handling without
//! panics or connection leaks, drain semantics, and the ordering rules
//! of coalesced reply writes.
//!
//! Every test runs under the serve testkit's watchdog so a protocol
//! deadlock aborts with a named test instead of hanging CI.

use flexsfu_core::init::uniform_pwl;
use flexsfu_core::PwlEvaluator;
use flexsfu_funcs::{Gelu, Tanh};
use flexsfu_obs::{MetricsRegistry, MonotonicClock, SampleRate, SpanRecorder};
use flexsfu_serve::testkit::{with_watchdog, Faults};
use flexsfu_serve::{FlushPolicy, FunctionId, FunctionRegistry, PwlServer, ServeConfig, ServeObs};
use flexsfu_wire::frame::ErrorCode;
use flexsfu_wire::obs::{M_FRAMES_OUT, M_WRITES_OUT};
use flexsfu_wire::{Frame, FrameReader, WireClient, WireConfig, WireError, WireServer};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One serving stack + wire front on an ephemeral port.
struct Stack {
    registry: Arc<FunctionRegistry>,
    server: PwlServer,
    wire: WireServer,
}

fn stack(config: &ServeConfig, faults: Option<Arc<Faults>>) -> Stack {
    let registry = Arc::new(FunctionRegistry::new());
    registry.register("gelu", &uniform_pwl(&Gelu, 24, (-8.0, 8.0)));
    registry.register("tanh", &uniform_pwl(&Tanh, 24, (-6.0, 6.0)));
    let server = match faults {
        Some(f) => PwlServer::start_with_faults(Arc::clone(&registry), config.clone(), f),
        None => PwlServer::start(Arc::clone(&registry), config.clone()),
    };
    let wire = WireServer::start_local(server.handle(), WireConfig::default())
        .expect("bind ephemeral wire server");
    Stack {
        registry,
        server,
        wire,
    }
}

/// A small serving config: one worker, a 256-element threshold and a
/// short 200 µs hold, so round trips stay quick while flushes still
/// coalesce concurrent requests.
fn quick_config() -> ServeConfig {
    ServeConfig {
        flush_elements: 256,
        flush_interval: Duration::from_micros(200),
        queue_elements: 4096,
        eval_workers: 1,
    }
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

/// A request tensor mixing ordinary values with the adversarial floats
/// whose bit patterns the wire must not disturb.
fn request_f64(next: &mut impl FnMut() -> u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| match next() % 10 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            _ => (next() % 2_000) as f64 / 100.0 - 10.0,
        })
        .collect()
}

#[test]
fn wire_results_bit_identical_to_direct_eval_both_precisions() {
    with_watchdog(
        60,
        "wire_results_bit_identical_to_direct_eval_both_precisions",
        || {
            let stack = stack(&quick_config(), None);
            let client = WireClient::connect(stack.wire.local_addr()).unwrap();
            let mut next = xorshift(0x5eed);

            for func in [0u32, 1u32] {
                let id = flexsfu_serve::FunctionId(func);
                // f64 lane.
                let xs = request_f64(&mut next, 97);
                let ticket = client.submit_f64(func, xs.clone()).unwrap();
                let ys = ticket.wait().unwrap();
                let direct = stack.registry.engine(id).unwrap().engine().eval_batch(&xs);
                assert_eq!(ys.len(), direct.len());
                for (a, b) in ys.iter().zip(&direct) {
                    assert_eq!(a.to_bits(), b.to_bits(), "f64 bit divergence over the wire");
                }
                // f32 lane.
                let xs32: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
                let t32 = client.submit_f32(func, xs32.clone()).unwrap();
                let ys32 = t32.wait().unwrap();
                let direct32: Vec<f32> = stack
                    .registry
                    .engine_f32(id)
                    .unwrap()
                    .engine()
                    .eval_batch(&xs32);
                for (a, b) in ys32.iter().zip(&direct32) {
                    assert_eq!(a.to_bits(), b.to_bits(), "f32 bit divergence over the wire");
                }
            }
            drop(client);
            stack.wire.shutdown();
            stack.server.shutdown();
        },
    );
}

#[test]
fn responses_multiplex_out_of_order() {
    with_watchdog(60, "responses_multiplex_out_of_order", || {
        let stack = stack(&quick_config(), None);
        // Function 0 flushes only after a long deadline; function 1
        // flushes almost immediately — so a job on 0 submitted *first*
        // completes *after* a job on 1, and the connection must carry
        // the reordered responses.
        stack
            .registry
            .set_policy(
                flexsfu_serve::FunctionId(0),
                Some(FlushPolicy {
                    max_elems: 1_000_000,
                    deadline: Duration::from_millis(400),
                }),
            )
            .unwrap();
        let client = WireClient::connect(stack.wire.local_addr()).unwrap();

        let slow = client.submit_f64(0, vec![0.25; 8]).unwrap();
        let fast = client.submit_f64(1, vec![0.5; 8]).unwrap();

        let t0 = Instant::now();
        let fast_ys = fast.wait().unwrap();
        let fast_done = t0.elapsed();
        let slow_ys = slow.wait().unwrap();
        let slow_done = t0.elapsed();

        assert_eq!(fast_ys.len(), 8);
        assert_eq!(slow_ys.len(), 8);
        assert!(
            fast_done < slow_done,
            "fast response should overtake the earlier slow submission \
             (fast {fast_done:?}, slow {slow_done:?})"
        );
        // The slow flush really was deadline-gated, i.e. the fast one
        // genuinely overtook it rather than both racing out together.
        assert!(
            slow_done >= Duration::from_millis(300),
            "slow {slow_done:?}"
        );

        drop(client);
        stack.wire.shutdown();
        stack.server.shutdown();
    });
}

#[test]
fn queue_full_surfaces_retry_after_hint() {
    with_watchdog(60, "queue_full_surfaces_retry_after_hint", || {
        let faults = Faults::new();
        let stack = stack(&quick_config(), Some(Arc::clone(&faults)));
        let client = WireClient::connect(stack.wire.local_addr()).unwrap();

        faults.force_queue_full(1);
        let bounced = client.submit_f64(0, vec![0.5; 4]).unwrap();
        match bounced.wait() {
            Err(WireError::RetryAfter { hint }) => {
                assert_eq!(hint, WireConfig::default().retry_after);
            }
            other => panic!("expected RetryAfter, got {other:?}"),
        }

        // The hint is honest: an immediate resubmit succeeds (the fault
        // token is spent).
        let retry = client.submit_f64(0, vec![0.5; 4]).unwrap();
        assert_eq!(retry.wait().unwrap().len(), 4);

        drop(client);
        stack.wire.shutdown();
        stack.server.shutdown();
    });
}

#[test]
fn dropped_reply_answers_typed_internal_error() {
    with_watchdog(60, "dropped_reply_answers_typed_internal_error", || {
        let faults = Faults::new();
        let stack = stack(&quick_config(), Some(Arc::clone(&faults)));
        let client = WireClient::connect(stack.wire.local_addr()).unwrap();

        faults.drop_replies(1);
        let doomed = client.submit_f64(0, vec![0.5; 4]).unwrap();
        // The job was accepted — the server must still answer it, as a
        // typed internal error rather than silence.
        assert_eq!(doomed.wait(), Err(WireError::ServerInternal));
        // The gauge decrements just after the reply is written, so give
        // it a bounded moment to settle.
        let leftover = settle(Duration::from_secs(10), || stack.wire.inflight() as usize);
        assert_eq!(leftover, 0, "answered jobs leave the gauge");

        let fine = client.submit_f64(0, vec![0.5; 4]).unwrap();
        assert_eq!(fine.wait().unwrap().len(), 4);

        drop(client);
        stack.wire.shutdown();
        stack.server.shutdown();
    });
}

/// Polls a gauge down to an expected value — socket teardown is
/// asynchronous, so leak checks need a bounded settle loop (the
/// watchdog still bounds the whole test).
fn settle(deadline: Duration, mut read: impl FnMut() -> usize) -> usize {
    let end = Instant::now() + deadline;
    loop {
        let v = read();
        if v == 0 || Instant::now() >= end {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn garbage_and_torn_frames_reject_typed_without_leaking_connections() {
    with_watchdog(
        60,
        "garbage_and_torn_frames_reject_typed_without_leaking_connections",
        || {
            let stack = stack(&quick_config(), None);
            let addr = stack.wire.local_addr();

            // Case 1: pure garbage. The server answers a typed protocol
            // error on req 0 and closes.
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&[0xDE; 64]).unwrap();
            let mut reply = Vec::new();
            raw.read_to_end(&mut reply).unwrap(); // EOF = server closed
            let mut reader = flexsfu_wire::FrameReader::new();
            reader.feed(&reply);
            match reader.next_frame().unwrap() {
                Some(Frame::Error { req: 0, code, .. }) => {
                    assert_eq!(code, flexsfu_wire::frame::ErrorCode::Protocol);
                }
                other => panic!("expected protocol error frame, got {other:?}"),
            }
            drop(raw);

            // Case 2: a torn frame — a valid header promising more bytes
            // than ever arrive, then the peer vanishes. No reply owed; the
            // server just retires the connection without panicking.
            let frame = Frame::SubmitF64 {
                req: 1,
                func: 0,
                data: vec![1.0; 64],
                trace: None,
            };
            let bytes = frame.encode();
            let mut torn = TcpStream::connect(addr).unwrap();
            torn.write_all(&bytes[..bytes.len() / 2]).unwrap();
            drop(torn);

            // Case 3: an oversized length prefix.
            let mut oversized = TcpStream::connect(addr).unwrap();
            oversized.write_all(&u32::MAX.to_le_bytes()).unwrap();
            let mut reply = Vec::new();
            oversized.read_to_end(&mut reply).unwrap();
            assert!(!reply.is_empty(), "oversized prefix earns a typed reply");
            drop(oversized);

            // No connection leaked: the gauge settles back to zero.
            let leaked = settle(Duration::from_secs(10), || stack.wire.active_connections());
            assert_eq!(leaked, 0, "connections leaked after malformed input");

            // And the server still serves.
            let client = WireClient::connect(addr).unwrap();
            let t = client.submit_f64(0, vec![0.5; 4]).unwrap();
            assert_eq!(t.wait().unwrap().len(), 4);
            drop(client);

            stack.wire.shutdown();
            stack.server.shutdown();
        },
    );
}

#[test]
fn drain_refuses_new_submits_and_answers_accepted_jobs() {
    with_watchdog(
        60,
        "drain_refuses_new_submits_and_answers_accepted_jobs",
        || {
            let faults = Faults::new();
            let stack = stack(&quick_config(), Some(Arc::clone(&faults)));
            let client = WireClient::connect(stack.wire.local_addr()).unwrap();

            // Hold results back long enough that the drain races real
            // in-flight work.
            faults.delay_flushes(Duration::from_millis(50));
            let inflight: Vec<_> = (0..8)
                .map(|_| client.submit_f64(0, vec![0.5; 16]).unwrap())
                .collect();

            // Drain over the wire (the protocol path, not the local call).
            client.drain().unwrap();
            let health = client.ping(Duration::from_secs(5)).unwrap();
            assert!(health.draining, "pong must advertise the drain");

            // New submissions bounce with the typed drain error.
            let refused = client.submit_f64(0, vec![0.5; 4]).unwrap();
            assert_eq!(refused.wait(), Err(WireError::Draining));

            // Every accepted job is still answered, correctly.
            for t in inflight {
                assert!(t.was_acked(), "accepted jobs were acked before drain");
                assert_eq!(t.wait().unwrap().len(), 16);
            }
            assert_eq!(
                settle(Duration::from_secs(10), || stack.wire.inflight() as usize),
                0
            );

            drop(client);
            stack.wire.shutdown();
            stack.server.shutdown();
        },
    );
}

/// The next frame off a raw connection, or `None` once the server has
/// closed it.
fn next_frame(raw: &mut TcpStream, reader: &mut FrameReader) -> Option<Frame> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame().expect("server sent a malformed frame") {
            return Some(frame);
        }
        let n = raw.read(&mut buf).expect("read from the server");
        if n == 0 {
            assert_eq!(reader.buffered(), 0, "server closed mid-frame");
            return None;
        }
        reader.feed(&buf[..n]);
    }
}

#[test]
fn pipelined_burst_acks_in_order_then_pongs_then_answers() {
    with_watchdog(
        60,
        "pipelined_burst_acks_in_order_then_pongs_then_answers",
        || {
            const JOBS: u64 = 64;
            let registry = Arc::new(FunctionRegistry::new());
            registry.register("gelu", &uniform_pwl(&Gelu, 24, (-8.0, 8.0)));
            let metrics = Arc::new(MetricsRegistry::new());
            let spans = Arc::new(SpanRecorder::new(
                64,
                SampleRate::ALL,
                Arc::new(MonotonicClock::new()),
            ));
            let obs = ServeObs::new(Arc::clone(&metrics), spans);
            let server =
                PwlServer::start_with_obs(Arc::clone(&registry), quick_config(), obs.clone());
            let wire =
                WireServer::start_local_with_obs(server.handle(), WireConfig::default(), obs)
                    .expect("bind ephemeral wire server");
            // Hold function 0: it flushes on neither size nor deadline.
            let gelu = FunctionId(0);
            registry
                .set_policy(
                    gelu,
                    Some(FlushPolicy {
                        max_elems: usize::MAX,
                        deadline: Duration::MAX,
                    }),
                )
                .unwrap();

            // 64 submits and a trailing ping, all in one write.
            let mut next = xorshift(0xb0257);
            let inputs: Vec<Vec<f64>> = (0..JOBS).map(|_| request_f64(&mut next, 16)).collect();
            let mut burst = Vec::new();
            for (req, xs) in inputs.iter().enumerate() {
                Frame::SubmitF64 {
                    req: req as u64,
                    func: gelu.0,
                    data: xs.clone(),
                    trace: None,
                }
                .encode_into(&mut burst);
            }
            Frame::Ping { nonce: 77 }.encode_into(&mut burst);
            let mut raw = TcpStream::connect(wire.local_addr()).unwrap();
            raw.write_all(&burst).unwrap();

            // Acks in request order, then a pong that already counts
            // every one of them in flight.
            let mut reader = FrameReader::new();
            for req in 0..JOBS {
                assert_eq!(next_frame(&mut raw, &mut reader), Some(Frame::Ack { req }));
            }
            match next_frame(&mut raw, &mut reader) {
                Some(Frame::Pong {
                    nonce: 77,
                    inflight,
                    ..
                }) => assert_eq!(inflight, JOBS, "the ping sees the burst acked"),
                other => panic!("expected the pong, got {other:?}"),
            }
            // The reader coalesced: the 65 replies shared a few writes,
            // not one each. (The counters move just after a write
            // returns, so let them catch up with what was read.)
            let counter = |name| metrics.snapshot().counter(name).unwrap_or(0);
            let frames = settle(Duration::from_secs(10), || {
                (JOBS as usize + 1).saturating_sub(counter(M_FRAMES_OUT) as usize)
            });
            assert_eq!(frames, 0, "every reply read was counted");
            let writes = counter(M_WRITES_OUT);
            assert!(
                2 * writes <= JOBS + 1,
                "{writes} writes carried the burst's 65 replies"
            );
            // And no result while the function is held.
            raw.set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let mut byte = [0u8; 1];
            let held = raw.read(&mut byte).map_err(|e| e.kind());
            assert!(
                matches!(held, Err(ErrorKind::WouldBlock | ErrorKind::TimedOut)),
                "no result may arrive while function 0 is held, got {held:?}"
            );
            raw.set_read_timeout(None).unwrap();

            // Release the hold: every job is answered, bit-identical to
            // direct evaluation.
            registry.set_policy(gelu, None).unwrap();
            let engine = registry.engine(gelu).unwrap();
            let mut answered = vec![false; JOBS as usize];
            for _ in 0..JOBS {
                let Some(Frame::ResultF64 { req, data }) = next_frame(&mut raw, &mut reader) else {
                    panic!("expected a result");
                };
                assert!(
                    !std::mem::replace(&mut answered[req as usize], true),
                    "req {req} answered twice"
                );
                let direct = engine.engine().eval_batch(&inputs[req as usize]);
                assert_eq!(data.len(), direct.len());
                for (a, b) in data.iter().zip(&direct) {
                    assert_eq!(a.to_bits(), b.to_bits(), "bit divergence on req {req}");
                }
            }
            assert_eq!(
                settle(Duration::from_secs(10), || wire.inflight() as usize),
                0
            );

            // Over the whole exchange, more frames went out than writes.
            let frames_out = counter(M_FRAMES_OUT);
            let writes = counter(M_WRITES_OUT);
            assert!(
                frames_out > writes,
                "frames out {frames_out} must exceed writes {writes}"
            );

            drop(raw);
            wire.shutdown();
            server.shutdown();
        },
    );
}

#[test]
fn submit_then_garbage_acks_refuses_and_still_answers() {
    with_watchdog(
        60,
        "submit_then_garbage_acks_refuses_and_still_answers",
        || {
            let stack = stack(&quick_config(), None);
            let xs = vec![0.75; 16];
            let mut bytes = Frame::SubmitF64 {
                req: 5,
                func: 0,
                data: xs.clone(),
                trace: None,
            }
            .encode();
            bytes.extend_from_slice(&[0xDE; 64]);
            let mut raw = TcpStream::connect(stack.wire.local_addr()).unwrap();
            raw.write_all(&bytes).unwrap();

            let mut reader = FrameReader::new();
            assert_eq!(
                next_frame(&mut raw, &mut reader),
                Some(Frame::Ack { req: 5 })
            );
            match next_frame(&mut raw, &mut reader) {
                Some(Frame::Error { req: 0, code, .. }) => assert_eq!(code, ErrorCode::Protocol),
                other => panic!("expected the protocol error after the ack, got {other:?}"),
            }
            // The accepted job is still answered before the close.
            let direct = stack
                .registry
                .engine(FunctionId(0))
                .unwrap()
                .engine()
                .eval_batch(&xs);
            match next_frame(&mut raw, &mut reader) {
                Some(Frame::ResultF64 { req: 5, data }) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&data), bits(&direct));
                }
                other => panic!("expected the accepted job's result, got {other:?}"),
            }
            assert_eq!(next_frame(&mut raw, &mut reader), None, "then EOF");

            drop(raw);
            let leaked = settle(Duration::from_secs(10), || stack.wire.active_connections());
            assert_eq!(leaked, 0, "connection leaked after submit + garbage");
            stack.wire.shutdown();
            stack.server.shutdown();
        },
    );
}
