//! Wire serving: a 2-shard TCP deployment with a mid-traffic handoff.
//!
//! Demonstrates the `flexsfu-wire` + `flexsfu-shard` tier end to end:
//! (1) deploy a [`ShardRouter`] of two in-process wire servers, each a
//! full serving stack (registry → batching `PwlServer` → TCP front) on
//! an ephemeral localhost port, registering GELU, tanh and sigmoid
//! identically on both; (2) drive mixed **f64 and f32** traffic from 6
//! concurrent clients through the router, asserting every response is
//! bit-identical to direct engine evaluation — the frame protocol
//! carries floats as IEEE bit patterns, so the socket adds exactly
//! nothing; (3) mid-stream, **drain shard 0** (new traffic re-routes,
//! accepted jobs finish) and stop it — no request errors, nothing is
//! lost; (4) print per-shard `backend_stats` showing how the work split
//! across the deployment.
//!
//! ```sh
//! cargo run --release --example wire_serving
//! ```
//!
//! Expected output (flush counts vary by machine; the elems split does
//! not — routing is a deterministic hash, so in phase 1 gelu and
//! sigmoid land on shard 0 and tanh on shard 1, and in phase 2
//! everything lands on the survivor):
//!
//! ```text
//! deploying 2 shards x 3 functions; 6 clients, mixed f64/f32 requests
//!   shard 0 @ 127.0.0.1:35685  shard 1 @ 127.0.0.1:40569
//!   phase 1  : 360 requests, all bit-identical to direct eval
//!   handoff  : shard 0 drained (settled, 0 accepted jobs lost) and stopped
//!   phase 2  : 360 requests against the surviving shard, zero errors
//!
//! shard  function  flushes    elems
//!     0  gelu           40    11520
//!     0  tanh            0        0
//!     0  sigmoid        41    11520
//!     1  gelu           60    11520
//!     1  tanh           97    23040
//!     1  sigmoid        65    11520
//! ```
//!
//! [`ShardRouter`]: flexsfu::shard::ShardRouter

use flexsfu::core::init::uniform_pwl;
use flexsfu::core::{CompiledPwl, CompiledPwlF32, PwlEvaluator};
use flexsfu::funcs::{Gelu, Sigmoid, Tanh};
use flexsfu::serve::{FunctionId, ServeConfig};
use flexsfu::shard::{RouterConfig, ShardRouter, ShardState};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 6;
const REQS_PER_PHASE: usize = 60;
const REQ_ELEMS: usize = 96;
const FUNCTIONS: [&str; 3] = ["gelu", "tanh", "sigmoid"];

fn tables() -> Vec<flexsfu::core::PwlFunction> {
    vec![
        uniform_pwl(&Gelu, 24, (-8.0, 8.0)),
        uniform_pwl(&Tanh, 48, (-6.0, 6.0)),
        uniform_pwl(&Sigmoid, 16, (-10.0, 10.0)),
    ]
}

fn request_tensor(seed: u64) -> Vec<f64> {
    flexsfu::serve::testkit::request_tensor(seed, REQ_ELEMS)
}

/// One phase of concurrent mixed-precision traffic; panics on any
/// routing error or bit divergence.
fn drive_phase(
    router: &Arc<ShardRouter>,
    refs64: &Arc<Vec<CompiledPwl>>,
    refs32: &Arc<Vec<CompiledPwlF32>>,
    phase: u64,
) {
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let router = Arc::clone(router);
            let refs64 = Arc::clone(refs64);
            let refs32 = Arc::clone(refs32);
            scope.spawn(move || {
                for r in 0..REQS_PER_PHASE {
                    let func = FunctionId(((c + r) % 3) as u32);
                    let xs = request_tensor(phase * 1_000_003 + (c * REQS_PER_PHASE + r) as u64);
                    if r % 3 == 0 {
                        // Every third request takes the f32 lane.
                        let xs32: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
                        let ys = router.eval::<f32>(func, &xs32).expect("routed f32 request");
                        let want = refs32[func.0 as usize].eval_batch(&xs32);
                        assert!(
                            ys.iter()
                                .zip(&want)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "f32 response diverged from direct eval"
                        );
                    } else {
                        let ys = router.eval(func, &xs).expect("routed f64 request");
                        let want = refs64[func.0 as usize].eval_batch(&xs);
                        assert!(
                            ys.iter()
                                .zip(&want)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "f64 response diverged from direct eval"
                        );
                    }
                }
            });
        }
    });
}

fn main() {
    println!(
        "deploying 2 shards x {} functions; {CLIENTS} clients, mixed f64/f32 requests",
        FUNCTIONS.len()
    );
    let config = RouterConfig {
        serve: ServeConfig {
            flush_elements: 2048,
            flush_interval: Duration::from_micros(300),
            ..ServeConfig::default()
        },
        ..RouterConfig::default()
    };
    let router = Arc::new(
        ShardRouter::deploy(2, config, |registry| {
            for (name, table) in FUNCTIONS.iter().zip(tables()) {
                registry.register(*name, &table);
            }
        })
        .expect("deploy 2-shard wire tier"),
    );
    println!(
        "  shard 0 @ {}  shard 1 @ {}",
        router.shard_addr(0).unwrap(),
        router.shard_addr(1).unwrap()
    );

    let refs64 = Arc::new(
        tables()
            .iter()
            .map(CompiledPwl::from_pwl)
            .collect::<Vec<_>>(),
    );
    let refs32 = Arc::new(
        refs64
            .iter()
            .map(CompiledPwlF32::from_compiled)
            .collect::<Vec<_>>(),
    );

    // Phase 1: both shards serving.
    drive_phase(&router, &refs64, &refs32, 1);
    println!(
        "  phase 1  : {} requests, all bit-identical to direct eval",
        CLIENTS * REQS_PER_PHASE
    );

    // Handoff: drain shard 0 (accepted jobs finish, router re-routes),
    // then stop it.
    let settled = router
        .drain_shard(0, Duration::from_secs(30))
        .expect("shard 0 exists");
    router.stop_shard(0).expect("shard 0 exists");
    assert_eq!(router.shard_state(0).unwrap(), ShardState::Down);
    println!(
        "  handoff  : shard 0 drained ({}, 0 accepted jobs lost) and stopped",
        if settled { "settled" } else { "timed out" }
    );

    // Phase 2: everything lands on the survivor.
    drive_phase(&router, &refs64, &refs32, 2);
    println!(
        "  phase 2  : {} requests against the surviving shard, zero errors",
        CLIENTS * REQS_PER_PHASE
    );

    // Per-shard backend stats: where the work actually went.
    println!();
    println!("shard  function  flushes    elems");
    for shard in 0..router.shard_count() {
        let registry = router.registry(shard).unwrap();
        for (f, name) in FUNCTIONS.iter().enumerate() {
            let stats = registry.backend_stats(FunctionId(f as u32)).unwrap();
            println!(
                "{shard:>5}  {name:<8}  {:>7}  {:>7}",
                stats.flushes, stats.elems
            );
        }
    }

    Arc::try_unwrap(router).ok().expect("sole owner").shutdown();
}
