//! `bulk`: offline batch evaluation.
//!
//! Why: `core` and `backend` do all the work and `serve` and `wire` do
//! none. One thread calls `BackendProgram::eval_batch` /
//! `BackendProgramF32::eval_batch` on `NativeBackend`-lowered tables,
//! round-robin over {gelu, silu, tanh, sigmoid} × {7, 63 breakpoints,
//! from `optim::quick_nonuniform`} × {f64, f32} × {16 Ki, 1 Mi
//! elements}. That covers both kernel shapes (linear scan for ≤ 8
//! segments, bucket line for deeper tables), both precisions, and both
//! sides of `ParallelPwl`'s serial/threaded split (32 Ki) and of the L2
//! working set. Kernel changes must hold here; serving changes predict
//! no change.
//!
//! An operation is one `eval_batch` call. The latency percentiles are
//! read over the 1 Mi-element calls only: the 16 Ki calls are 64×
//! shorter, and a median over both sizes would sit on the gap between
//! them.

use super::{Phase, Workload};
use crate::harness::{untimed, Failure, Op};
use crate::host::{table_line, LINEAR_SCAN_MAX_SEGMENTS};
use crate::inputs::{gaussian_vec, rng};
use crate::report::Metrics;
use flexsfu_backend::{
    BackendProgram, BackendProgramF32, EvalBackend, NativeBackend, SfuBackend, SfuProgram,
};
use flexsfu_core::{CompiledPwl, CompiledPwlF32, PwlEvaluator, PwlFunction};
use flexsfu_optim::quick_nonuniform;
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FUNCS: [&str; 4] = ["gelu", "silu", "tanh", "sigmoid"];
const BREAKPOINTS: [usize; 2] = [7, 63];
const SIZES: [usize; 2] = [16 << 10, 1 << 20];
const SIGMA: f64 = 2.5;
const FIT_SAMPLES: usize = 1024;
const FIT_MOVES: usize = 2;
/// Element count of serve-open's requests, for the scatter probe.
const JOB_ELEMS: (usize, usize) = (32, 512);
/// Element count of serve-open's SFU-bound sigmoid requests.
const SFU_JOB: usize = 96;
/// Wall time each traced probe runs for.
const PROBE: Duration = Duration::from_millis(150);

struct Table {
    name: &'static str,
    pwl: PwlFunction,
    engine: CompiledPwl,
    engine32: CompiledPwlF32,
    program: Arc<dyn BackendProgram>,
    program32: Arc<dyn BackendProgramF32>,
    /// Direct single-thread evaluation of each input size, computed in
    /// set-up: what every served output must equal bit for bit.
    reference: [Vec<f64>; 2],
    reference32: [Vec<f32>; 2],
}

/// The `bulk` workload after set-up.
pub struct Bulk {
    tables: Vec<Table>,
    xs: [Vec<f64>; 2],
    xs32: [Vec<f32>; 2],
    /// Job lengths splitting a packed buffer like serve-open's requests.
    job_lens: Vec<usize>,
    sfu: SfuProgram,
    fit_s: f64,
}

/// Bit-for-bit equality, read in blocks without a branch per element so
/// checking a 1 Mi-element output costs about one pass over memory.
fn same_bits<T: Copy>(a: &[T], b: &[T], bits: impl Fn(T) -> u64) -> bool {
    a.len() == b.len()
        && a.chunks(64).zip(b.chunks(64)).all(|(x, y)| {
            x.iter()
                .zip(y)
                .fold(0, |acc, (&p, &q)| acc | (bits(p) ^ bits(q)))
                == 0
        })
}

impl Phase {
    /// Books one `eval_batch` call on input size `SIZES[size]`.
    fn record(&mut self, size: usize, dt: Duration, ok: bool) {
        self.wall += dt;
        let elems = SIZES[size] as u64;
        if ok {
            self.ops.push(Op {
                lat_us: (size == 1).then_some(dt.as_secs_f64() * 1e6),
                elems,
            });
        }
        self.tally.record(if ok {
            Ok(elems)
        } else {
            Err(Failure::Mismatched)
        });
    }
}

/// Elements and seconds of one kernel class's direct evaluations.
#[derive(Default, Clone, Copy)]
struct Rate {
    elems: u64,
    secs: f64,
    bytes: u64,
}

impl Rate {
    fn add(&mut self, elems: usize, elem_bytes: usize, d: Duration) {
        self.elems += elems as u64;
        self.bytes += (2 * elems * elem_bytes) as u64;
        self.secs += d.as_secs_f64();
    }

    fn melem_s(&self) -> f64 {
        self.elems as f64 / self.secs / 1e6
    }
}

impl Bulk {
    /// Fits and lowers the tables, draws the inputs from `seed`,
    /// computes the reference outputs and warms every call up once.
    pub fn setup(seed: u64) -> Self {
        let mut xs_rng = rng(seed, 0xB01C);
        let xs = SIZES.map(|n| gaussian_vec(&mut xs_rng, n, SIGMA));
        let xs32 = xs
            .clone()
            .map(|v| v.iter().map(|&x| x as f32).collect::<Vec<f32>>());
        let mut lens_rng = rng(seed, 0x1E45);
        let mut job_lens = Vec::new();
        let mut packed = 0;
        while packed < SIZES[0] {
            let len = lens_rng
                .gen_range(JOB_ELEMS.0..=JOB_ELEMS.1)
                .min(SIZES[0] - packed);
            job_lens.push(len);
            packed += len;
        }

        let mut fit_s = 0.0;
        let mut tables = Vec::new();
        for name in FUNCS {
            let f = flexsfu_funcs::by_name(name).expect("a flexsfu_funcs name");
            for bp in BREAKPOINTS {
                let t0 = Instant::now();
                let pwl =
                    quick_nonuniform(f.as_ref(), bp, f.default_range(), FIT_SAMPLES, FIT_MOVES);
                fit_s += t0.elapsed().as_secs_f64();
                let engine = CompiledPwl::from_pwl(&pwl);
                let engine32 = CompiledPwlF32::from_compiled(&engine);
                let program = NativeBackend.lower(&engine).expect("native lowering");
                let program32 = NativeBackend
                    .lower_f32(&engine32)
                    .expect("the native backend has an f32 lane");
                let (reference, reference32) = untimed(|| {
                    (
                        [0, 1].map(|s| engine.eval_batch(&xs[s])),
                        [0, 1].map(|s| engine32.eval_batch(&xs32[s])),
                    )
                });
                tables.push(Table {
                    name,
                    pwl,
                    engine,
                    engine32,
                    program,
                    program32,
                    reference,
                    reference32,
                });
            }
        }
        let deepest = tables.last().expect("tables were fitted");
        let sfu = SfuBackend::fp16((deepest.engine.num_segments()).next_power_of_two())
            .lower_program(&deepest.engine)
            .expect("a 63-breakpoint table fits the 64-deep FP16 unit");
        let bulk = Self {
            tables,
            xs,
            xs32,
            job_lens,
            sfu,
            fit_s,
        };
        for t in &bulk.tables {
            for s in 0..SIZES.len() {
                std::hint::black_box(t.program.eval_batch(&bulk.xs[s]));
                std::hint::black_box(t.program32.eval_batch(&bulk.xs32[s]));
            }
        }
        bulk
    }

    /// Traced probe: `CompiledPwl::eval_scatter_into` over a packed
    /// buffer split into serve-open-sized job slices.
    fn scatter_probe(&self) -> f64 {
        let engine = &self.tables.last().expect("tables").engine;
        let xs = &self.xs[1][..SIZES[0]];
        let mut out = vec![0.0; xs.len()];
        let mut outs: Vec<&mut [f64]> = Vec::with_capacity(self.job_lens.len());
        let mut rest = out.as_mut_slice();
        for &len in &self.job_lens {
            let (head, tail) = rest.split_at_mut(len);
            outs.push(head);
            rest = tail;
        }
        let (mut elems, t0) = (0usize, Instant::now());
        while t0.elapsed() < PROBE {
            engine.eval_scatter_into(xs, &mut outs);
            elems += xs.len();
        }
        elems as f64 / t0.elapsed().as_secs_f64() / 1e6
    }

    /// Traced probe: the FP16 SFU emulator on 96-element jobs.
    fn sfu_probe(&self) -> f64 {
        let jobs = self.xs[0].chunks_exact(SFU_JOB);
        let (mut elems, t0) = (0usize, Instant::now());
        for job in jobs.cycle() {
            if t0.elapsed() >= PROBE {
                break;
            }
            std::hint::black_box(self.sfu.eval_batch(job));
            elems += job.len();
        }
        elems as f64 / t0.elapsed().as_secs_f64() / 1e6
    }
}

impl Workload for Bulk {
    fn run(&mut self, dur: Duration, trace: bool) -> Phase {
        let mut phase = Phase::default();
        // [f64 linear, f64 bucket, f32 linear, f32 bucket]
        let mut direct = [Rate::default(); 4];
        let mut f64_out = [vec![0.0; SIZES[0]], vec![0.0; SIZES[1]]];
        let mut f32_out = [vec![0.0f32; SIZES[0]], vec![0.0f32; SIZES[1]]];
        let begin = Instant::now();
        // Whole sweeps only, so every run sees the same mix.
        while begin.elapsed() < dur {
            for t in &self.tables {
                let bucket = usize::from(t.engine.num_segments() > LINEAR_SCAN_MAX_SEGMENTS);
                for s in 0..SIZES.len() {
                    let n = SIZES[s];
                    let t0 = Instant::now();
                    let (out, _) = t.program.eval_batch(&self.xs[s]);
                    let dt = t0.elapsed();
                    let ok = same_bits(&out, &t.reference[s], f64::to_bits);
                    phase.record(s, dt, ok);
                    if trace {
                        let t0 = Instant::now();
                        t.engine.eval_into(&self.xs[s], &mut f64_out[s]);
                        direct[bucket].add(n, 8, t0.elapsed());
                    }
                }
                for s in 0..SIZES.len() {
                    let n = SIZES[s];
                    let t0 = Instant::now();
                    let (out, _) = t.program32.eval_batch(&self.xs32[s]);
                    let dt = t0.elapsed();
                    let ok = same_bits(&out, &t.reference32[s], |x: f32| u64::from(x.to_bits()));
                    phase.record(s, dt, ok);
                    if trace {
                        let t0 = Instant::now();
                        t.engine32.eval_into(&self.xs32[s], &mut f32_out[s]);
                        direct[2 + bucket].add(n, 4, t0.elapsed());
                    }
                }
            }
        }
        if trace {
            let all = direct.iter().fold(Rate::default(), |mut acc, r| {
                acc.elems += r.elems;
                acc.bytes += r.bytes;
                acc.secs += r.secs;
                acc
            });
            phase.layers = Metrics::from([
                ("core.f64_linear_melem_s", direct[0].melem_s()),
                ("core.f64_bucket_melem_s", direct[1].melem_s()),
                ("core.f32_linear_melem_s", direct[2].melem_s()),
                ("core.f32_bucket_melem_s", direct[3].melem_s()),
                ("core.stream_gb_s", all.bytes as f64 / all.secs / 1e9),
                ("core.scatter_melem_s", self.scatter_probe()),
                ("backend.native_melem_s", phase.throughput_melem_s()),
                ("backend.sfu_emu_melem_s", self.sfu_probe()),
            ]);
        }
        phase
    }

    fn approx_mse(&mut self) -> f64 {
        let xs = &self.xs[1];
        let mut sum = 0.0;
        for name in FUNCS {
            let f = flexsfu_funcs::by_name(name).expect("a flexsfu_funcs name");
            let exact: Vec<f64> = xs.iter().map(|&x| f.eval(x)).collect();
            for t in self.tables.iter().filter(|t| t.name == name) {
                let sq: f64 = t.reference[1]
                    .iter()
                    .zip(&exact)
                    .map(|(y, e)| (y - e).powi(2))
                    .sum();
                sum += sq / xs.len() as f64;
            }
        }
        sum / self.tables.len() as f64
    }

    fn setup_layers(&self) -> Metrics {
        Metrics::from([("optim.fit_s", self.fit_s)])
    }

    fn tables(&self) -> Vec<String> {
        self.tables
            .iter()
            .map(|t| {
                let name = format!("{}/{}bp", t.name, t.pwl.num_breakpoints());
                table_line("bulk", &name, "native", t.engine.num_segments())
            })
            .collect()
    }
}
