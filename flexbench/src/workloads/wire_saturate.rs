//! `wire-saturate`: pipelined clients over loopback TCP (closed loop).
//!
//! Why: this is the capacity number. Two threads each own a
//! `WireClient` connected to a `WireServer` that fronts a `PwlServer`
//! (both on default configs), and each keeps 32 submits outstanding:
//! when its window is full it waits for the oldest before sending
//! again. The frame codec, the socket hops and the flush policy under a
//! full window set the throughput, so a transport refactor and a
//! batching change both show here while `bulk` predicts no change. The
//! function mix, precision mix and lengths are serve-open's.
//!
//! Latency counts from the submit call to the result.

use super::serve_open::{served_tables, warm_up};
use super::{quantile, Phase, Workload};
use crate::harness::{untimed, windowed, ClosedRun, Op};
use crate::mix::{self, Payload, ServeTarget, Stream, Tuned, WireTarget};
use crate::report::Metrics;
use flexsfu_serve::{PwlServer, ServeConfig, ServeHandle};
use flexsfu_wire::{Frame, FrameReader, WireClient, WireConfig, WireServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WINDOW: usize = 32;
/// Requests in the seeded stream; clients cycle through it.
const STREAM: usize = 8192;
/// Elements per table the accuracy metric reads.
const MSE_ELEMS: usize = 1 << 18;
/// Pings the idle-connection probe sends.
const PINGS: usize = 200;
/// Requests whose frames the codec probe encodes and decodes.
const CODEC_REQUESTS: usize = 256;
/// Bytes the codec probe feeds the reader at a time: the size of the
/// wire tier's socket reads.
const READ_CHUNK: usize = 64 * 1024;
/// Wall time of the wire warm-up in set-up. Being fixed, it is left out
/// of the set-up time.
const WARM_UP: Duration = Duration::from_millis(100);
/// Wall time the codec probe runs for.
const CODEC_PROBE: Duration = Duration::from_millis(150);

/// The `wire-saturate` workload after set-up. Fields drop in order:
/// connections, then the wire server, then the serving server.
pub struct WireSaturate {
    clients: Vec<WireClient>,
    idle: WireClient,
    _wire: WireServer,
    handle: ServeHandle,
    _server: PwlServer,
    stream: Stream,
    tuned: Tuned,
}

impl WireSaturate {
    /// Tunes and binds the tables, simulates the stream from `seed`,
    /// starts both servers, connects the clients and warms up.
    pub fn setup(seed: u64) -> Self {
        let tuned = mix::tune_registry(&["gelu", "silu", "exp"], true);
        let stream = mix::stream(seed, &tuned, Duration::MAX, STREAM);
        let server = PwlServer::start(Arc::clone(&tuned.registry), ServeConfig::default());
        let handle = server.handle();
        let wire = WireServer::start_local(handle.clone(), WireConfig::default())
            .expect("bind a loopback port");
        let connect = || WireClient::connect(wire.local_addr()).expect("connect over loopback");
        let clients: Vec<WireClient> = (0..CLIENTS).map(|_| connect()).collect();
        let idle = connect();
        warm_up(&handle, &stream);
        let target = WireTarget {
            clients: &clients,
            stream: &stream,
        };
        let warm = untimed(|| windowed(&target, CLIENTS, WINDOW, WARM_UP));
        assert_eq!(warm.tally.failed(), 0, "wire warm-up failed");
        Self {
            clients,
            idle,
            _wire: wire,
            handle,
            _server: server,
            stream,
            tuned,
        }
    }

    fn drive_wire(&self, dur: Duration) -> ClosedRun {
        let target = WireTarget {
            clients: &self.clients,
            stream: &self.stream,
        };
        windowed(&target, CLIENTS, WINDOW, dur)
    }

    /// Round trips of `WireClient::ping` on a connection with no other
    /// traffic, in µs.
    fn ping_probe(&self) -> Vec<f64> {
        (0..PINGS)
            .map(|_| {
                let t0 = Instant::now();
                self.idle.ping(Duration::from_secs(1)).expect("idle ping");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    }

    /// Nanoseconds per thousand elements to encode the stream's Submit
    /// and Result frames and decode them back through a `FrameReader`.
    fn codec_probe(&self) -> f64 {
        let n = CODEC_REQUESTS.min(self.stream.requests.len());
        let mut frames = Vec::with_capacity(2 * n);
        for (req, ((id, input), want)) in self.stream.requests[..n]
            .iter()
            .zip(&self.stream.expected)
            .enumerate()
        {
            let req = req as u64;
            frames.push(match input {
                Payload::F64(data) => Frame::SubmitF64 {
                    req,
                    func: id.0,
                    data: data.clone(),
                    trace: None,
                },
                Payload::F32(data) => Frame::SubmitF32 {
                    req,
                    func: id.0,
                    data: data.clone(),
                    trace: None,
                },
            });
            frames.push(match want {
                Payload::F64(data) => Frame::ResultF64 {
                    req,
                    data: data.clone(),
                },
                Payload::F32(data) => Frame::ResultF32 {
                    req,
                    data: data.clone(),
                },
            });
        }
        let elems_per_pass: usize = self.stream.requests[..n]
            .iter()
            .map(|(_, p)| 2 * p.len())
            .sum();
        let mut bytes = Vec::new();
        let mut reader = FrameReader::new();
        let (mut passes, t0) = (0usize, Instant::now());
        while t0.elapsed() < CODEC_PROBE {
            bytes.clear();
            for frame in &frames {
                frame.encode_into(&mut bytes);
            }
            let mut decoded = 0;
            for chunk in bytes.chunks(READ_CHUNK) {
                reader.feed(chunk);
                while let Some(frame) = reader.next_frame().expect("frames decode") {
                    std::hint::black_box(frame);
                    decoded += 1;
                }
            }
            assert_eq!(decoded, frames.len(), "every frame decodes");
            passes += 1;
        }
        t0.elapsed().as_secs_f64() * 1e9 / (passes * elems_per_pass) as f64 * 1e3
    }
}

impl Workload for WireSaturate {
    fn run(&mut self, dur: Duration, trace: bool) -> Phase {
        if !trace {
            let run = self.drive_wire(dur);
            return Phase {
                tally: run.tally,
                wall: run.wall,
                ops: run.ops,
                ..Phase::default()
            };
        }
        let ping = self.ping_probe();
        let codec = self.codec_probe();
        let run = self.drive_wire(dur / 2);
        let direct_target = ServeTarget {
            handle: &self.handle,
            stream: &self.stream,
        };
        let direct = windowed(&direct_target, CLIENTS, WINDOW, dur / 2);
        let lat = |ops: &[Op]| ops.iter().filter_map(|op| op.lat_us).collect::<Vec<f64>>();
        let wire_p50 = quantile(&lat(&run.ops), 0.5, "wire latency");
        let direct_p50 = quantile(&lat(&direct.ops), 0.5, "direct latency");
        let direct_tput = Phase {
            wall: direct.wall,
            ops: direct.ops,
            ..Phase::default()
        }
        .throughput_melem_s();
        let refused = run.tally.refused as f64 / run.tally.attempted.max(1) as f64;
        let layers = Metrics::from([
            ("serve.direct_window_melem_s", direct_tput),
            ("wire.ping_rtt_us_p50", quantile(&ping, 0.5, "ping")),
            ("wire.codec_ns_per_kelem", codec),
            ("wire.overhead_us_p50", wire_p50 - direct_p50),
            ("wire.refused_frac", refused),
        ]);
        Phase {
            tally: run.tally,
            wall: run.wall,
            ops: run.ops,
            layers,
            probes: direct.tally,
        }
    }

    fn approx_mse(&mut self) -> f64 {
        mix::approx_mse(&self.tuned, &self.stream, MSE_ELEMS)
    }

    fn setup_layers(&self) -> Metrics {
        Metrics::from([
            ("tune.bind_s", self.tuned.bind_s),
            ("traffic.simulate_s", self.stream.simulate_s),
        ])
    }

    fn tables(&self) -> Vec<String> {
        served_tables("wire-saturate", &self.tuned)
    }
}
