//! Serving-mode benchmark: request-batched evaluation through
//! `flexsfu-serve` vs per-request designs, at 1 / 4 / 16 concurrent
//! clients.
//!
//! Run with `cargo bench -p flexsfu-bench --bench serving_throughput`.
//!
//! The workload is recorded once from the traffic simulator — a seeded
//! Poisson arrival process over Gaussian GELU pre-activations
//! (`flexsfu_traffic::sim::simulate`) — and every design replays the
//! same payloads (closed-loop clients issuing small request tensors
//! against a 64-segment GELU table — the LTC depth the paper
//! characterizes deepest):
//!
//! * **scalar/req** — request-at-a-time with scalar `PwlFunction::eval`,
//!   the path a naive service degenerates to (~90 Melem/s band);
//! * **engine/req** — request-at-a-time through `CompiledPwl::eval_batch`
//!   (SIMD kernels, but each small tensor evaluated alone);
//! * **batched** — requests submitted to a `PwlServer`, coalesced across
//!   clients into engine-scale flushes, scatter-evaluated, fanned back.
//!   Clients keep a bounded window of in-flight tickets (a closed loop
//!   with pipelining, like a real frontend), and drain it inside the
//!   timed region.
//! * **tuned** — the same batched design, but the registry is brought
//!   up by the auto-tuner (`flexsfu_tune::tune_and_bind` under an
//!   8-ulp@1 budget): tuned table, winning backend binding and derived
//!   flush policy per function. Informational — the tuner optimizes
//!   *modelled hardware* cycles, so a winner on the SFU emulator trades
//!   host throughput for modelled-silicon cost by design (that is the
//!   column's point).
//! * **wire/req** and **wire/batch** — the batched server fronted by
//!   the `flexsfu-wire` TCP tier over localhost: request-at-a-time
//!   (submit, wait, repeat — every request pays a socket round trip)
//!   and the same bounded-window pipeline as **batched** but over wire
//!   tickets. Informational, no floor: the rows price the wire — frame
//!   encode/decode plus loopback TCP — against in-process serving.
//! * **traced** — the recorded trace replayed straight through
//!   `flexsfu_traffic::sim::replay_rounds`: a single open-loop replayer
//!   submitting round-batched events. Informational, no floor — it
//!   prices the trace-replay harness and pins that recorded workloads
//!   drive the server end to end.
//!
//! The table reports aggregate throughput (Melem/s) plus the
//! per-request latency histogram — mean, p50, p95 and p99 — per client
//! count (for the batched design: submit → result observed). The ≥ 2×
//! batched-over-scalar/req bar at 16 clients is asserted on multi-core
//! hosts only; with a single online CPU the whole run is informational
//! (clients, batcher and workers all share the one core).

use flexsfu_core::init::uniform_pwl;
use flexsfu_core::{CompiledPwl, PwlEvaluator, PwlFunction};
use flexsfu_funcs::{Gelu, Tanh};
use flexsfu_serve::{FunctionId, FunctionRegistry, JobTicket, PwlServer, ServeConfig};
use flexsfu_traffic::arrival::ArrivalProcess;
use flexsfu_traffic::sampler::InputSampler;
use flexsfu_traffic::sim::{replay_rounds, simulate, FunctionLoad, WorkloadSpec};
use flexsfu_traffic::trace::Trace;
use flexsfu_tune::{tune_and_bind, TuneBudget, TuneOptions};
use flexsfu_wire::{WireClient, WireConfig, WireServer, WireTicket};
use std::collections::VecDeque;
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Elements per request — a per-token activation slice, far below the
/// batch scale where the SIMD kernels peak.
const REQ_ELEMS: usize = 96;

/// Requests each client issues per timed run.
const REQS_PER_CLIENT: usize = 1500;

/// In-flight tickets a batched client keeps before waiting the oldest.
const WINDOW: usize = 16;

/// Client counts to sweep.
const CLIENTS: [usize; 3] = [1, 4, 16];

/// The 2× design bar for batched over scalar/req at 16 clients.
const BATCHED_OVER_SCALAR_TARGET: f64 = 2.0;

/// The recorded workload every design serves: a seeded Poisson arrival
/// process over Gaussian GELU pre-activations from the traffic
/// simulator, one event per request the 16-client run will issue.
/// Simulated once; every design replays the same payloads, so the
/// design comparison (and the 2× floor) is unchanged by the generator.
fn workload_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let max_clients = *CLIENTS.iter().max().expect("non-empty sweep");
        let spec = WorkloadSpec {
            seed: 0xBE27C4,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1e6 },
            functions: vec![FunctionLoad {
                name: "gelu".into(),
                weight: 1.0,
                elems: (REQ_ELEMS as u32, REQ_ELEMS as u32),
                sampler: InputSampler::Gaussian {
                    mean: 0.0,
                    std: 2.0,
                    clamp: (-8.0, 8.0),
                },
            }],
            shifts: vec![],
        };
        let trace = simulate(&spec, u64::MAX, max_clients * REQS_PER_CLIENT);
        assert_eq!(trace.events.len(), max_clients * REQS_PER_CLIENT);
        trace
    })
}

fn request(index: usize) -> Vec<f64> {
    workload_trace().events[index].payload.clone()
}

/// Aggregate stats of one timed run.
struct RunStats {
    elems_per_sec: f64,
    /// Every completed request's observed latency, sorted ascending
    /// (sorted once at collection, so percentile reads just index).
    latencies: Vec<Duration>,
}

impl RunStats {
    fn mean(&self) -> Duration {
        let nanos: u128 = self.latencies.iter().map(|d| d.as_nanos()).sum();
        Duration::from_nanos((nanos / self.latencies.len().max(1) as u128) as u64)
    }

    /// The `q`-th latency percentile (nearest-rank on the sorted set).
    fn percentile(&self, q: f64) -> Duration {
        let idx = ((q / 100.0) * (self.latencies.len() - 1) as f64).round() as usize;
        self.latencies[idx]
    }
}

/// Runs `clients` closed-loop threads; `serve_request(client, req_index,
/// data, completed)` pushes the observed latency of every request it
/// *completed* during the call (zero or more — the batched design
/// completes windowed requests late, on drain). Returns aggregate
/// throughput and the full latency set.
fn run_clients<F>(clients: usize, serve_request: F) -> RunStats
where
    F: Fn(usize, usize, Vec<f64>, &mut Vec<Duration>) + Sync,
{
    let barrier = Barrier::new(clients + 1);
    let all_latencies = Mutex::new(Vec::new());
    let mut started = None;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let barrier = &barrier;
            let all_latencies = &all_latencies;
            let serve_request = &serve_request;
            scope.spawn(move || {
                let mut local = Vec::with_capacity(REQS_PER_CLIENT);
                barrier.wait();
                for r in 0..REQS_PER_CLIENT {
                    let data = request(c * REQS_PER_CLIENT + r);
                    serve_request(c, r, data, &mut local);
                }
                all_latencies.lock().unwrap().extend(local);
            });
        }
        // The clock starts before the barrier releases any client, so
        // no request can run before it.
        started = Some(Instant::now());
        barrier.wait();
        // The scope joins every client before returning.
    });
    let elapsed = started.expect("set before the barrier").elapsed();
    let requests = clients * REQS_PER_CLIENT;
    let mut latencies = all_latencies.into_inner().unwrap();
    assert_eq!(latencies.len(), requests, "every request must be observed");
    latencies.sort_unstable();
    RunStats {
        elems_per_sec: (requests * REQ_ELEMS) as f64 / elapsed.as_secs_f64(),
        latencies,
    }
}

/// The serving config of every server-backed row (batched, tuned,
/// traced, wire), so the wire rows price only the wire. The flush
/// deadline is the shipped default, so the rows measure the shipped
/// policy.
fn serve_config(online: usize) -> ServeConfig {
    ServeConfig {
        flush_elements: 8 * 1024,
        queue_elements: 64 * 1024,
        eval_workers: online.clamp(1, 4),
        ..ServeConfig::default()
    }
}

/// One closed-loop batched run against an existing registry: `clients`
/// submitters with a bounded in-flight window each, draining inside the
/// timed region. Latency per request = submit to result observed.
fn run_batched(
    clients: usize,
    online: usize,
    registry: &Arc<FunctionRegistry>,
    function: FunctionId,
) -> RunStats {
    let server = PwlServer::start(Arc::clone(registry), serve_config(online));
    let handle = server.handle();
    let windows: Vec<Mutex<VecDeque<(Instant, JobTicket)>>> =
        (0..clients).map(|_| Mutex::new(VecDeque::new())).collect();
    let wait_one = |window: &mut VecDeque<(Instant, JobTicket)>, completed: &mut Vec<Duration>| {
        let (t0, ticket) = window.pop_front().expect("window non-empty");
        std::hint::black_box(ticket.wait().expect("serving result"));
        completed.push(t0.elapsed());
    };
    let stats = run_clients(clients, |c, r, data, completed| {
        let mut window = windows[c].lock().unwrap();
        if window.len() == WINDOW {
            wait_one(&mut window, completed);
        }
        window.push_back((
            Instant::now(),
            handle.submit(function, data).expect("submit"),
        ));
        if r == REQS_PER_CLIENT - 1 {
            // Last request: drain inside the timed region so the
            // throughput number covers every result.
            while !window.is_empty() {
                wait_one(&mut window, completed);
            }
        }
    });
    server.shutdown();
    stats
}

/// The informational **traced** row: the recorded trace replayed
/// straight through `flexsfu_traffic::sim::replay_rounds` — a single
/// open-loop replayer submitting round-batched events against the same
/// server config as **batched**. Prices the trace-replay harness itself
/// (and pins that a recorded workload drives the server end to end);
/// no per-request latency histogram, no floor.
fn run_traced(clients: usize, online: usize, registry: &Arc<FunctionRegistry>) -> f64 {
    let full = workload_trace();
    let sub = Trace {
        functions: full.functions.clone(),
        events: full.events[..clients * REQS_PER_CLIENT].to_vec(),
    };
    let elems: usize = sub.events.iter().map(|e| e.payload.len()).sum();
    let server = PwlServer::start(Arc::clone(registry), serve_config(online));
    let handle = server.handle();
    let t0 = Instant::now();
    let report = replay_rounds(&sub, &handle, &|n| registry.id_of(n), 1024, |_| {})
        .expect("replay against the bench registry");
    let elapsed = t0.elapsed();
    assert_eq!(report.completed, sub.events.len());
    server.shutdown();
    elems as f64 / elapsed.as_secs_f64()
}

/// One closed-loop run over localhost TCP: `clients` connections into a
/// `WireServer` fronting a fresh `PwlServer`. `windowed` pipelines a
/// bounded in-flight window per client (the **wire/batch** row);
/// otherwise every request is submit → wait (the **wire/req** row).
fn run_wire(
    clients: usize,
    online: usize,
    registry: &Arc<FunctionRegistry>,
    function: FunctionId,
    windowed: bool,
) -> RunStats {
    let server = PwlServer::start(Arc::clone(registry), serve_config(online));
    let wire = WireServer::start_local(server.handle(), WireConfig::default())
        .expect("bind ephemeral wire server");
    let conns: Vec<WireClient> = (0..clients)
        .map(|_| WireClient::connect(wire.local_addr()).expect("connect to wire server"))
        .collect();
    let windows: Vec<Mutex<VecDeque<(Instant, WireTicket)>>> =
        (0..clients).map(|_| Mutex::new(VecDeque::new())).collect();
    let wait_one = |window: &mut VecDeque<(Instant, WireTicket)>, completed: &mut Vec<Duration>| {
        let (t0, ticket) = window.pop_front().expect("window non-empty");
        std::hint::black_box(ticket.wait().expect("wire result"));
        completed.push(t0.elapsed());
    };
    let stats = run_clients(clients, |c, r, data, completed| {
        let conn = &conns[c];
        if windowed {
            let mut window = windows[c].lock().unwrap();
            if window.len() == WINDOW {
                wait_one(&mut window, completed);
            }
            window.push_back((
                Instant::now(),
                conn.submit_f64(function.0, data).expect("submit over wire"),
            ));
            if r == REQS_PER_CLIENT - 1 {
                while !window.is_empty() {
                    wait_one(&mut window, completed);
                }
            }
        } else {
            let t0 = Instant::now();
            let ticket = conn.submit_f64(function.0, data).expect("submit over wire");
            std::hint::black_box(ticket.wait().expect("wire result"));
            completed.push(t0.elapsed());
        }
    });
    drop(conns);
    wire.shutdown();
    server.shutdown();
    stats
}

fn main() {
    let online = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let gelu: PwlFunction = uniform_pwl(&Gelu, 63, (-8.0, 8.0));
    let tanh: PwlFunction = uniform_pwl(&Tanh, 63, (-8.0, 8.0));
    let engine = Arc::new(CompiledPwl::from_pwl(&gelu));

    // The hand-configured registry every prior column serves from.
    let registry = Arc::new(FunctionRegistry::new());
    let gelu_id = registry.register("gelu", &gelu);
    // A second registered function keeps the per-function grouping
    // honest (idle here; the stress suite exercises it).
    let _tanh_id = registry.register("tanh", &tanh);

    // The tuned registry: table, backend binding and flush policy all
    // chosen by the design-space sweep under an 8-ulp@1 accuracy
    // budget. Tuning runs once, outside every timed region.
    let tuned_registry = Arc::new(FunctionRegistry::new());
    let tuned = tune_and_bind(
        &["gelu", "tanh"],
        &tuned_registry,
        &TuneBudget::max_error(8.0),
        &TuneOptions::default(),
    )
    .expect("an 8-ulp budget is feasible for gelu/tanh");
    let tuned_gelu_id = tuned[0].0;
    let tuned_winner = tuned[0].1.winner();

    println!(
        "serving_throughput: {REQ_ELEMS}-element requests x {REQS_PER_CLIENT}/client, \
         64-segment tables, {online} online CPU(s)"
    );
    println!(
        "tuned column: gelu auto-bound to {} {} x {} breakpoints \
         (ulp@1 {:.2}, modelled cycles/elem {:.2}; informational)",
        tuned_winner.config.backend.backend_label(),
        tuned_winner.config.backend.format_label(),
        tuned_winner.config.breakpoints,
        tuned_winner.ulp_at_1,
        tuned_winner.cycles_per_elem,
    );
    // Record the workload outside every timed region.
    workload_trace();
    println!("clients  design      Melem/s        mean         p50         p95         p99");

    let mut batched_vs_scalar_at_16 = None;
    for clients in CLIENTS {
        // Request-at-a-time, scalar eval — the naive server.
        let scalar = run_clients(clients, |_, _, data, completed| {
            let t0 = Instant::now();
            let mut out = vec![0.0; data.len()];
            for (&x, o) in data.iter().zip(out.iter_mut()) {
                *o = gelu.eval(x);
            }
            std::hint::black_box(out);
            completed.push(t0.elapsed());
        });

        // Request-at-a-time through the SIMD engine.
        let per_req = {
            let engine = Arc::clone(&engine);
            run_clients(clients, move |_, _, data, completed| {
                let t0 = Instant::now();
                std::hint::black_box(engine.eval_batch(&data));
                completed.push(t0.elapsed());
            })
        };

        // Request-batched serving: one server, `clients` submitters with
        // a bounded in-flight window each. Latency per request = submit
        // to result observed (accumulated when the ticket is waited).
        let batched = run_batched(clients, online, &registry, gelu_id);

        // The same design over the auto-tuned registry (tuned table,
        // winning backend, derived flush policy).
        let tuned = run_batched(clients, online, &tuned_registry, tuned_gelu_id);

        // The batched server behind the TCP wire tier — per-request and
        // windowed (informational; prices the socket, no floor).
        let wire_req = run_wire(clients, online, &registry, gelu_id, false);
        let wire_batch = run_wire(clients, online, &registry, gelu_id, true);

        // The recorded trace replayed through replay_rounds
        // (informational; single open-loop replayer, no floor).
        let traced = run_traced(clients, online, &registry);

        let m = 1e-6;
        for (design, stats) in [
            ("scalar/req", &scalar),
            ("engine/req", &per_req),
            ("batched   ", &batched),
            ("tuned     ", &tuned),
            ("wire/req  ", &wire_req),
            ("wire/batch", &wire_batch),
        ] {
            println!(
                "{clients:>7}  {design}  {:>7.0}  {:>10.1?}  {:>10.1?}  {:>10.1?}  {:>10.1?}",
                stats.elems_per_sec * m,
                stats.mean(),
                stats.percentile(50.0),
                stats.percentile(95.0),
                stats.percentile(99.0),
            );
        }
        println!(
            "{clients:>7}  traced      {:>7.0}  open-loop replay of the recorded trace \
             (informational)",
            traced * m,
        );
        if clients == 16 {
            batched_vs_scalar_at_16 = Some(batched.elems_per_sec / scalar.elems_per_sec);
        }
    }

    let ratio = batched_vs_scalar_at_16.expect("16-client run always executes");
    println!("\nbatched / scalar-per-request at 16 clients: {ratio:.2}x");
    if online == 1 {
        println!(
            "single online CPU: informational only — clients, batcher and workers \
             share one core, so the {BATCHED_OVER_SCALAR_TARGET:.1}x bar is not enforced"
        );
    } else {
        let status = if ratio >= BATCHED_OVER_SCALAR_TARGET {
            "MET"
        } else {
            "BELOW"
        };
        println!("{BATCHED_OVER_SCALAR_TARGET:.1}x batched-over-per-request target: {status}");
        assert!(
            ratio >= BATCHED_OVER_SCALAR_TARGET,
            "request batching must be ≥ {BATCHED_OVER_SCALAR_TARGET:.1}x a scalar \
             request-at-a-time design at 16 clients on multi-core, measured {ratio:.2}x"
        );
    }
}
