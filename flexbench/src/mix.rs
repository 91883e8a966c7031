//! The served side shared by `serve-open`, `wire-saturate` and
//! `model-forward`: tuned tables bound into a registry, the seeded
//! request stream, its expected outputs, and the targets that drive a
//! server or a wire client with it.

use crate::harness::{untimed, Failure, Target};
use crate::inputs;
use flexsfu_backend::{BackendProgram, SfuBackend, SfuProgram};
use flexsfu_core::{CompiledPwl, PwlEvaluator, PwlFunction};
use flexsfu_serve::{
    FunctionId, FunctionRegistry, JobTicket, JobTicketF32, ServeError, ServeHandle,
};
use flexsfu_traffic::{ArrivalProcess, FunctionLoad, InputSampler, WorkloadSpec};
use flexsfu_tune::{tune_and_bind, tune_named, TuneBudget, TuneOptions, TuneSpace};
use flexsfu_wire::{WireClient, WireError, WireTicket, WireTicketF32};
use rand::Rng;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// Offered load of the served mix, requests per second.
pub const RATE_HZ: f64 = 20_000.0;

/// The accuracy budget tables are tuned to, in FP16 ULPs at 1.
const ULP_BUDGET: f64 = 8.0;

/// One served table, for the host record and the accuracy metric.
#[derive(Debug, Clone)]
pub struct Table {
    /// Registry name, also the `flexsfu_funcs` name of the exact function.
    pub name: String,
    /// Live registry id.
    pub id: FunctionId,
    /// The bound backend's name.
    pub backend: &'static str,
    /// The tuned table.
    pub pwl: PwlFunction,
}

/// Tables tuned and bound into a fresh registry.
pub struct Tuned {
    /// The registry the server serves from.
    pub registry: Arc<FunctionRegistry>,
    /// Every bound table, in registration order.
    pub tables: Vec<Table>,
    /// The SFU program sigmoid is lowered to, when bound: the direct
    /// evaluation its served results must match.
    pub sfu: Option<(FunctionId, SfuProgram)>,
    /// Wall time of the tuning and binding calls.
    pub bind_s: f64,
}

impl Tuned {
    /// The table registered as `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such table was bound.
    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("no table named {name}"))
    }
}

/// Tunes `native` onto the native backend with `tune_and_bind`,
/// restricted to native candidates under the 8 ulp@1 budget, into a
/// fresh registry. With `sigmoid_on_sfu`, also tunes sigmoid the same
/// way and binds its table to the FP16 SFU emulator.
///
/// # Panics
///
/// Panics if tuning or binding fails; the budget is feasible for every
/// function the workloads use.
pub fn tune_registry(native: &[&str], sigmoid_on_sfu: bool) -> Tuned {
    let opts = TuneOptions {
        space: TuneSpace {
            formats: Vec::new(),
            fixed_point_for_range: false,
            include_native: true,
            ..TuneSpace::default()
        },
        ..TuneOptions::default()
    };
    let budget = TuneBudget::max_error(ULP_BUDGET);
    let registry = Arc::new(FunctionRegistry::new());
    let t0 = Instant::now();
    let bound =
        tune_and_bind(native, &registry, &budget, &opts).expect("native tuning is feasible");
    let mut tables: Vec<Table> = bound
        .into_iter()
        .map(|(id, plan)| Table {
            name: plan.name.clone(),
            id,
            backend: "native",
            pwl: plan.table,
        })
        .collect();
    let mut sfu = None;
    if sigmoid_on_sfu {
        let plan = tune_named("sigmoid", &budget, &opts).expect("sigmoid tuning is feasible");
        let depth = (plan.table.num_breakpoints() + 1)
            .next_power_of_two()
            .max(4);
        let backend = SfuBackend::fp16(depth);
        let id = registry
            .register_with_backend("sigmoid", &plan.table, Arc::new(backend))
            .expect("the tuned sigmoid table fits the FP16 unit");
        let program = backend
            .lower_program(&CompiledPwl::from_pwl(&plan.table))
            .expect("the registry lowered this table already");
        tables.push(Table {
            name: "sigmoid".into(),
            id,
            backend: "sfu-emu",
            pwl: plan.table,
        });
        sfu = Some((id, program));
    }
    Tuned {
        registry,
        tables,
        sfu,
        bind_s: t0.elapsed().as_secs_f64(),
    }
}

/// A request tensor or result, in its lane's precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// The f64 lane.
    F64(Vec<f64>),
    /// The f32 lane.
    F32(Vec<f32>),
}

impl Payload {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Payload::F64(v) => v.len(),
            Payload::F32(v) => v.len(),
        }
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bit-for-bit equality (NaN payloads included).
    pub fn bit_eq(&self, other: &Payload) -> bool {
        match (self, other) {
            (Payload::F64(a), Payload::F64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Payload::F32(a), Payload::F32(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

/// The seeded request stream with every request's expected output.
pub struct Stream {
    /// Target function and input of each request.
    pub requests: Vec<(FunctionId, Payload)>,
    /// Direct evaluation of each request: the registry's engines for
    /// native functions, the lowered SFU program for sigmoid.
    pub expected: Vec<Payload>,
    /// When each request is due, from the start of the trace.
    pub at: Vec<Duration>,
    /// The trace's span; a replay repeats it back to back.
    pub horizon: Duration,
    /// Wall time of `traffic::simulate`.
    pub simulate_s: f64,
}

impl Stream {
    /// Request `i` of an endless replay.
    pub fn request(&self, i: usize) -> usize {
        i % self.requests.len()
    }

    /// Checks `out` against request `i`'s expected output.
    ///
    /// # Errors
    ///
    /// [`Failure::Mismatched`] when they differ in any bit.
    pub fn verify(&self, i: usize, out: &Payload) -> Result<u64, Failure> {
        let want = &self.expected[self.request(i)];
        if want.bit_eq(out) {
            Ok(out.len() as u64)
        } else {
            Err(Failure::Mismatched)
        }
    }

    /// When request `i` of a back-to-back replay is due, or `None` once
    /// that is `dur` or later.
    pub fn due(&self, i: usize, dur: Duration) -> Option<Duration> {
        let round = u32::try_from(i / self.requests.len()).ok()?;
        let at = self.horizon * round + self.at[self.request(i)];
        (at < dur).then_some(at)
    }
}

/// The mix: gelu 4, silu 2 (32–512 Gaussian elements), exp 2 (8–64
/// softmax logits), sigmoid 1 (96 elements), Poisson arrivals at
/// [`RATE_HZ`].
fn spec(seed: u64) -> WorkloadSpec {
    let gaussian = InputSampler::Gaussian {
        mean: 0.0,
        std: 2.5,
        clamp: (-8.0, 8.0),
    };
    let load = |name: &str, weight: f64, elems: (u32, u32), sampler: &InputSampler| FunctionLoad {
        name: name.into(),
        weight,
        elems,
        sampler: sampler.clone(),
    };
    WorkloadSpec {
        seed,
        arrivals: ArrivalProcess::Poisson { rate_hz: RATE_HZ },
        functions: vec![
            load("gelu", 4.0, (32, 512), &gaussian),
            load("silu", 2.0, (32, 512), &gaussian),
            load(
                "exp",
                2.0,
                (8, 64),
                &InputSampler::SoftmaxLogits {
                    temp: 2.0,
                    floor: -10.0,
                },
            ),
            load("sigmoid", 1.0, (96, 96), &gaussian),
        ],
        shifts: Vec::new(),
    }
}

/// Simulates the mix for `horizon` (or `max_events` requests), sends one
/// native request in four through the f32 lane, and evaluates every
/// request directly for its expected output (outside the set-up time).
pub fn stream(seed: u64, tuned: &Tuned, horizon: Duration, max_events: usize) -> Stream {
    let t0 = Instant::now();
    let horizon_ns = u64::try_from(horizon.as_nanos()).unwrap_or(u64::MAX);
    let trace = inputs::trace(&spec(seed), horizon_ns, max_events);
    let simulate_s = t0.elapsed().as_secs_f64();
    let ids: Vec<FunctionId> = trace
        .functions
        .iter()
        .map(|name| tuned.table(name).id)
        .collect();
    let mut lanes = inputs::rng(seed, 0xF32);
    let mut requests = Vec::with_capacity(trace.events.len());
    let mut at = Vec::with_capacity(trace.events.len());
    let mut last_ns = 0;
    for event in trace.events {
        let id = ids[event.func as usize];
        at.push(Duration::from_nanos(event.at_ns));
        last_ns = event.at_ns;
        let on_sfu = matches!(&tuned.sfu, Some((sfu_id, _)) if *sfu_id == id);
        let input = if !on_sfu && lanes.gen_range(0..4u32) == 0 {
            Payload::F32(event.payload.iter().map(|&x| x as f32).collect())
        } else {
            Payload::F64(event.payload)
        };
        requests.push((id, input));
    }
    assert!(!requests.is_empty(), "the trace holds no request");
    let expected = untimed(|| {
        requests
            .iter()
            .map(|(id, input)| match (&tuned.sfu, input) {
                (Some((sfu_id, program)), Payload::F64(xs)) if sfu_id == id => {
                    Payload::F64(program.eval_batch(xs).0)
                }
                (_, Payload::F64(xs)) => {
                    let engine = tuned.registry.engine(*id).expect("bound function");
                    Payload::F64(engine.eval_batch(xs))
                }
                (_, Payload::F32(xs)) => {
                    let engine = tuned.registry.engine_f32(*id).expect("bound function");
                    Payload::F32(engine.eval_batch(xs))
                }
            })
            .collect()
    });
    Stream {
        requests,
        expected,
        at,
        horizon: horizon.min(Duration::from_nanos(last_ns + 1)),
        simulate_s,
    }
}

/// Mean over the served tables of the MSE of their f64 outputs against
/// the exact activation, on the stream's f64 inputs (at most `cap`
/// elements per table).
pub fn approx_mse(tuned: &Tuned, stream: &Stream, cap: usize) -> f64 {
    let per_table: Vec<f64> = tuned
        .tables
        .iter()
        .map(|table| {
            let exact = flexsfu_funcs::by_name(&table.name).expect("a flexsfu_funcs name");
            let (mut sum, mut n) = (0.0, 0usize);
            let pairs = stream.requests.iter().zip(&stream.expected);
            for ((id, input), want) in pairs {
                if let (true, Payload::F64(xs), Payload::F64(ys)) = (*id == table.id, input, want) {
                    for (&x, &y) in xs.iter().zip(ys) {
                        sum += (y - exact.eval(x)).powi(2);
                    }
                    n += xs.len();
                    if n >= cap {
                        break;
                    }
                }
            }
            sum / n.max(1) as f64
        })
        .collect();
    per_table.iter().sum::<f64>() / per_table.len() as f64
}

/// A served result on its way back.
pub enum ServeTicket {
    /// f64 lane.
    F64(JobTicket),
    /// f32 lane.
    F32(JobTicketF32),
}

fn serve_failure(e: ServeError) -> Failure {
    match e {
        ServeError::QueueFull => Failure::Refused,
        _ => Failure::Errored,
    }
}

impl Future for ServeTicket {
    type Output = Result<Payload, Failure>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match self.get_mut() {
            ServeTicket::F64(t) => Pin::new(t).poll(cx).map(|r| r.map(Payload::F64)),
            ServeTicket::F32(t) => Pin::new(t).poll(cx).map(|r| r.map(Payload::F32)),
        }
        .map(|r| r.map_err(serve_failure))
    }
}

/// Drives a `PwlServer` through its handle with the stream, using the
/// non-blocking `try_submit` / `try_submit_f32` (a full queue refuses,
/// nothing is retried).
pub struct ServeTarget<'a> {
    /// The server's submission handle.
    pub handle: &'a ServeHandle,
    /// The requests and their expected outputs.
    pub stream: &'a Stream,
}

impl Target for ServeTarget<'_> {
    type Ticket = ServeTicket;
    type Output = Payload;

    fn submit(&self, i: usize) -> Result<ServeTicket, Failure> {
        let (id, input) = &self.stream.requests[self.stream.request(i)];
        match input {
            Payload::F64(xs) => self
                .handle
                .try_submit(*id, xs.clone())
                .map(ServeTicket::F64),
            Payload::F32(xs) => self
                .handle
                .try_submit_f32(*id, xs.clone())
                .map(ServeTicket::F32),
        }
        .map_err(serve_failure)
    }

    fn wait(&self, ticket: ServeTicket) -> Result<Payload, Failure> {
        match ticket {
            ServeTicket::F64(t) => t.wait().map(Payload::F64),
            ServeTicket::F32(t) => t.wait().map(Payload::F32),
        }
        .map_err(serve_failure)
    }

    fn verify(&self, i: usize, out: Payload) -> Result<u64, Failure> {
        self.stream.verify(i, &out)
    }

    fn gauge(&self) -> f64 {
        self.handle.queue_depth().jobs as f64
    }
}

/// A wire result on its way back.
pub enum WireTicketAny {
    /// f64 lane.
    F64(WireTicket),
    /// f32 lane.
    F32(WireTicketF32),
}

fn wire_failure(e: WireError) -> Failure {
    match e {
        WireError::RetryAfter { .. } => Failure::Refused,
        _ => Failure::Errored,
    }
}

/// Drives a `WireServer` over loopback: request `i` goes out on
/// `clients[i % clients.len()]`, the connection of the client thread
/// [`windowed`](crate::harness::windowed) sends it from.
pub struct WireTarget<'a> {
    /// One connection per client thread.
    pub clients: &'a [WireClient],
    /// The requests and their expected outputs.
    pub stream: &'a Stream,
}

impl Target for WireTarget<'_> {
    type Ticket = WireTicketAny;
    type Output = Payload;

    fn submit(&self, i: usize) -> Result<WireTicketAny, Failure> {
        let (id, input) = &self.stream.requests[self.stream.request(i)];
        let conn = &self.clients[i % self.clients.len()];
        match input {
            Payload::F64(xs) => conn.submit_f64(id.0, xs.clone()).map(WireTicketAny::F64),
            Payload::F32(xs) => conn.submit_f32(id.0, xs.clone()).map(WireTicketAny::F32),
        }
        .map_err(wire_failure)
    }

    fn wait(&self, ticket: WireTicketAny) -> Result<Payload, Failure> {
        match ticket {
            WireTicketAny::F64(t) => t.wait().map(Payload::F64),
            WireTicketAny::F32(t) => t.wait().map(Payload::F32),
        }
        .map_err(wire_failure)
    }

    fn verify(&self, i: usize, out: Payload) -> Result<u64, Failure> {
        self.stream.verify(i, &out)
    }
}
