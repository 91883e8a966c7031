//! Serving: many concurrent clients, one batching evaluation service.
//!
//! Demonstrates the `flexsfu-serve` front-end end to end: (1) register
//! uniform-baseline GELU and tanh tables — tanh twice, once on the
//! native SIMD backend and once lowered onto the **bit-faithful SFU
//! emulator** — and start a [`PwlServer`]; (2) drive it from 8
//! concurrent clients issuing small request tensors, asserting every
//! response is bit-identical to its own backend's reference evaluation;
//! (3) run the paper's optimizer in the background and **hot-swap** the
//! optimized GELU table in while traffic keeps flowing — no request is
//! dropped, and responses cut over to the new coefficients at a flush
//! boundary; (4) serve the same tensor as a **pure-f32 job** through the
//! single-precision lane and print the f64-vs-f32 delta in FP32 ULPs;
//! (5) shut down gracefully and print the per-function backend report
//! (flushes, elements, modelled cycles/energy).
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Expected output (numbers vary by machine; the bit-identity and clean
//! drain do not):
//!
//! ```text
//! serving 3 functions to 8 concurrent clients (request = 96 elems)
//!   batched  : 1600 requests in 28.3 ms  (5.4 Melem/s), all bit-identical per backend
//!   hot swap : optimized gelu table published mid-traffic; MSE 2.1e-4 -> 5.4e-6
//!   cutover  : post-publish responses match the optimized table exactly
//!   f32 lane : same tensor served in pure f32, bit-identical to the f32 engine; max f64-vs-f32 delta 4.64 FP32 ulp@1
//!   shutdown : drained cleanly
//!
//! function      backend   flushes      elems      cycles  energy(nJ)  elems/cycle
//! gelu          native         61      53664           0           -            -
//! tanh          native         44      25632           0           -            -
//! tanh-sfu      sfu-emu        41      25632       13373        82.5         1.92
//! ```
//!
//! [`PwlServer`]: flexsfu::serve::PwlServer

use flexsfu::backend::{BackendProgram, SfuBackend};
use flexsfu::core::init::uniform_pwl;
use flexsfu::core::loss::integral_mse;
use flexsfu::core::{CompiledPwl, PwlEvaluator};
use flexsfu::funcs::{Gelu, Tanh};
use flexsfu::optim::{optimize, OptimizeConfig};
use flexsfu::perf::{render_backend_table, BackendReportRow};
use flexsfu::serve::{FunctionRegistry, PwlServer, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 200;
const REQ_ELEMS: usize = 96;

fn request_tensor(seed: u64) -> Vec<f64> {
    flexsfu::serve::testkit::request_tensor(seed, REQ_ELEMS)
}

fn main() {
    // 1. Register baseline tables and start the server.
    let range = (-8.0, 8.0);
    let gelu_uniform = uniform_pwl(&Gelu, 15, range);
    let tanh_uniform = uniform_pwl(&Tanh, 15, range);
    let registry = Arc::new(FunctionRegistry::new());
    let gelu_id = registry.register("gelu", &gelu_uniform);
    let tanh_id = registry.register("tanh", &tanh_uniform);
    // The same tanh table, lowered onto the FP16 SFU emulator: flushes
    // of this function walk the modelled ADU/LTC datapath and report
    // cycle/energy estimates.
    let sfu_backend = SfuBackend::fp16(16);
    let sfu_reference = sfu_backend
        .lower_program(&tanh_uniform.compile())
        .expect("16 segments fit the depth-16 emulator");
    let tanh_sfu_id = registry
        .register_with_backend("tanh-sfu", &tanh_uniform, Arc::new(sfu_backend))
        .expect("lowering succeeds");
    let server = PwlServer::start(
        Arc::clone(&registry),
        ServeConfig {
            flush_elements: 4096,
            flush_interval: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    println!("serving 3 functions to {CLIENTS} concurrent clients (request = {REQ_ELEMS} elems)");

    // 2. Concurrent traffic, every response checked bitwise against its
    //    own backend's reference evaluation of the same tensor.
    let e_gelu = CompiledPwl::from_pwl(&gelu_uniform);
    let e_tanh = CompiledPwl::from_pwl(&tanh_uniform);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let handle = handle.clone();
            let (e_gelu, e_tanh) = (&e_gelu, &e_tanh);
            let sfu_reference = &sfu_reference;
            scope.spawn(move || {
                for r in 0..REQUESTS_PER_CLIENT {
                    let data = request_tensor((client * REQUESTS_PER_CLIENT + r) as u64);
                    let (id, want) = match (client + r) % 4 {
                        0 | 2 => (gelu_id, e_gelu.eval_batch(&data)),
                        1 => (tanh_id, e_tanh.eval_batch(&data)),
                        _ => (tanh_sfu_id, sfu_reference.eval_batch(&data).0),
                    };
                    let got = handle.submit(id, data).unwrap().wait().unwrap();
                    assert!(
                        got.iter()
                            .zip(&want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "client {client} request {r}: response diverged from its backend"
                    );
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    println!(
        "  batched  : {total} requests in {:.1} ms  ({:.1} Melem/s), all bit-identical per backend",
        elapsed.as_secs_f64() * 1e3,
        (total * REQ_ELEMS) as f64 / elapsed.as_secs_f64() / 1e6
    );

    // 3. Hot swap: optimize GELU with the paper's Adam pipeline and
    //    publish the result while clients keep submitting.
    let mse_before = integral_mse(&gelu_uniform, &Gelu, range.0, range.1);
    let publisher = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            let result = optimize(
                &Gelu,
                OptimizeConfig::quick(15).with_range(range.0, range.1),
            );
            let mse_after = integral_mse(&result.pwl, &Gelu, range.0, range.1);
            registry
                .publish(gelu_id, CompiledPwl::from_pwl(&result.pwl))
                .expect("gelu id is live");
            (result.pwl, mse_after)
        })
    };
    // Keep traffic flowing through the optimize + publish window — the
    // point here is that no request is dropped while the table swaps.
    // (The stronger old-or-new-never-a-blend property is asserted
    // bitwise by the `serving_stress` suite.)
    let mut swap_traffic = 0usize;
    let (optimized_pwl, mse_after) = loop {
        let data = request_tensor(0xC0FFEE + swap_traffic as u64);
        let got = handle.submit(gelu_id, data).unwrap().wait().unwrap();
        assert_eq!(got.len(), REQ_ELEMS);
        swap_traffic += 1;
        if publisher.is_finished() {
            break publisher.join().expect("optimizer thread");
        }
    };
    println!(
        "  hot swap : optimized gelu table published mid-traffic ({swap_traffic} requests \
         served meanwhile); MSE {mse_before:.1e} -> {mse_after:.1e}"
    );

    // 4. After publish returns, new submissions are guaranteed the new
    //    table (publish happens-before submit happens-before its flush).
    let e_optimized = CompiledPwl::from_pwl(&optimized_pwl);
    let data = request_tensor(0xDECAF);
    let want = e_optimized.eval_batch(&data);
    let got = handle
        .submit(gelu_id, data.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        got.iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "post-publish response must come from the optimized table"
    );
    println!("  cutover  : post-publish responses match the optimized table exactly");

    // 5. The f32 lane: the same tensor as a single-precision job. The
    //    request stays f32 end to end — an f32 submit flows through packed
    //    f32 flush buffers into the registry's `CompiledPwlF32`, and the
    //    response is bit-identical to evaluating that engine directly.
    //    The printed delta is against the f64 path: the cost of serving
    //    in single precision, in FP32 ULPs at base 1 (2⁻²³).
    use flexsfu::formats::{ulp::error_in_ulps_at, FloatFormat};
    let data32: Vec<f32> = data.iter().map(|&x| x as f32).collect();
    let got32 = handle
        .submit::<f32>(gelu_id, data32.clone())
        .unwrap()
        .wait()
        .unwrap();
    let engine32 = registry.engine_f32(gelu_id).expect("gelu id is live");
    let want32 = engine32.eval_batch(&data32);
    assert!(
        got32
            .iter()
            .zip(&want32)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "f32 response must be bit-identical to the registry's f32 engine"
    );
    let max_ulp = got32
        .iter()
        .zip(&want)
        .map(|(&y32, &y64)| error_in_ulps_at(f64::from(y32), y64, FloatFormat::FP32, 1.0))
        .fold(0.0f64, f64::max);
    println!(
        "  f32 lane : same tensor served in pure f32, bit-identical to the f32 engine; \
         max f64-vs-f32 delta {max_ulp:.2} FP32 ulp@1"
    );

    server.shutdown();
    println!("  shutdown : drained cleanly");

    // 6. The per-function backend report: the emulated function carries
    //    modelled hardware costs, the native ones do not.
    let rows: Vec<BackendReportRow> = registry
        .functions()
        .into_iter()
        .map(|(id, function, backend)| {
            let s = registry.backend_stats(id).unwrap();
            BackendReportRow {
                function,
                backend,
                flushes: s.flushes,
                elems: s.elems,
                cycles: s.cycles,
                energy_nj: s.energy_nj,
            }
        })
        .collect();
    println!("\n{}", render_backend_table(&rows).trim_end());
    let sfu_stats = registry.backend_stats(tanh_sfu_id).unwrap();
    assert!(sfu_stats.flushes > 0 && sfu_stats.cycles > 0);
}
