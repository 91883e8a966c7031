//! `serve-open`: independent requests arriving on a schedule, in
//! process (open loop).
//!
//! Why: `serve` queue wait dominates here — hundreds of µs at the median
//! against a sub-µs kernel — so a batching-policy change shows in
//! `lat_p50_us` while `bulk` predicts no change. One thread sends a
//! seeded `traffic::simulate` Poisson trace at 20 000 req/s with
//! `try_submit` / `try_submit_f32` to a `PwlServer` on
//! `ServeConfig::default()`; one completion thread waits on the tickets.
//! The mix (gelu 4, silu 2, exp 2 as softmax logits, sigmoid 1 bound to
//! the FP16 SFU emulator, one native request in four on the f32 lane)
//! keeps precision dispatch and backend dispatch on the path.
//!
//! Latency counts from each request's *scheduled* send to the instant its
//! own result is ready, so a stall shows in every request queued behind
//! it and a request that finishes early is not held behind slower ones.

use super::{quantile, Phase, Workload};
use crate::harness::{open_loop, Target};
use crate::host::table_line;
use crate::mix::{self, ServeTarget, Stream, Tuned};
use crate::report::Metrics;
use crate::stats::mean;
use flexsfu_serve::{PwlServer, ServeConfig, ServeHandle};
use std::sync::Arc;
use std::time::Duration;

/// The seeded trace's span; longer phases replay it back to back.
const TRACE: Duration = Duration::from_secs(1);
/// Requests sent and awaited in set-up, so threads and caches are warm.
const WARM_UP: usize = 256;
/// Elements per table the accuracy metric reads.
const MSE_ELEMS: usize = 1 << 18;

/// The `serve-open` workload after set-up.
pub struct ServeOpen {
    handle: ServeHandle,
    // Dropped after the handle user is gone; dropping shuts it down.
    _server: PwlServer,
    stream: Stream,
    tuned: Tuned,
}

impl ServeOpen {
    /// Tunes and binds the tables, simulates the trace from `seed`,
    /// starts the server and warms it up.
    pub fn setup(seed: u64) -> Self {
        let tuned = mix::tune_registry(&["gelu", "silu", "exp"], true);
        let stream = mix::stream(seed, &tuned, TRACE, usize::MAX);
        let server = PwlServer::start(Arc::clone(&tuned.registry), ServeConfig::default());
        let handle = server.handle();
        warm_up(&handle, &stream);
        Self {
            handle,
            _server: server,
            stream,
            tuned,
        }
    }
}

/// Sends the first requests and waits for them, checking each.
pub(crate) fn warm_up(handle: &ServeHandle, stream: &Stream) {
    let target = ServeTarget { handle, stream };
    let tickets: Vec<_> = (0..WARM_UP)
        .map(|i| (i, target.submit(i).expect("warm-up request refused")))
        .collect();
    for (i, ticket) in tickets {
        let out = target.wait(ticket).expect("warm-up request failed");
        target
            .verify(i, out)
            .expect("warm-up result differs from direct evaluation");
    }
}

impl Workload for ServeOpen {
    fn run(&mut self, dur: Duration, trace: bool) -> Phase {
        let target = ServeTarget {
            handle: &self.handle,
            stream: &self.stream,
        };
        let registry = &self.tuned.registry;
        let flush_totals = || {
            self.tuned.tables.iter().fold((0u64, 0u64), |(e, f), t| {
                let s = registry.backend_stats(t.id).expect("bound function");
                (e + s.elems, f + s.flushes)
            })
        };
        let before = flush_totals();
        let run = open_loop(&target, |i| self.stream.due(i, dur), trace);
        let after = flush_totals();
        let mut phase = Phase {
            tally: run.tally,
            wall: run.wall,
            ops: run.ops,
            ..Phase::default()
        };
        if trace {
            let flushes = (after.1 - before.1).max(1);
            phase.layers = Metrics::from([
                (
                    "serve.submit_us_p50",
                    quantile(&run.submit_us, 0.5, "submit"),
                ),
                ("serve.wait_us_p50", quantile(&run.wait_us, 0.5, "wait")),
                ("serve.wait_us_p99", quantile(&run.wait_us, 0.99, "wait")),
                (
                    "serve.elems_per_flush",
                    (after.0 - before.0) as f64 / flushes as f64,
                ),
                ("serve.queue_jobs_mean", mean(&run.gauge)),
                (
                    "traffic.gen_lag_us_p99",
                    quantile(&run.gen_lag_us, 0.99, "gen lag"),
                ),
            ]);
        }
        phase
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
        served_tables("serve-open", &self.tuned)
    }
}

/// Host-record lines for a registry's served tables.
pub(crate) fn served_tables(workload: &str, tuned: &Tuned) -> Vec<String> {
    tuned
        .tables
        .iter()
        .map(|t| {
            let name = format!("{}/{}bp", t.name, t.pwl.num_breakpoints());
            table_line(workload, &name, t.backend, t.pwl.num_segments())
        })
        .collect()
}
