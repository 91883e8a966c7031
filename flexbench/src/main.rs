//! The benchmark command.
//!
//! ```text
//! flexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up nine times,
//! measures it for `<s>` seconds and prints the end-to-end metrics.
//! `setup_s` is the median set-up time, leaving out the benchmark's own
//! work in set-up (expected outputs, fixed-length warm-ups). A
//! traced run (`--trace 1`) splits `<s>` into five equal phases: the
//! workload untraced, then every workload traced, the named one first.
//! It prints every per-layer metric; each comes from the workload that
//! exercises its layer. The last line of standard output is the JSON
//! result. A wrong output makes the command exit with code 1.

use flexbench::harness::{untimed_s, Tally};
use flexbench::host::Host;
use flexbench::report::{self, unit_of, Metrics, END_TO_END, PER_LAYER};
use flexbench::stats::median;
use flexbench::workloads::{self, Phase, Workload, NAMES};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Equal phases a traced run splits its time into.
const TRACED_PHASES: u32 = 5;

const USAGE: &str =
    "usage: flexbench --workload <bulk|serve-open|wire-saturate|model-forward> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let name = NAMES.iter().find(|n| **n == value);
                workload = Some(*name.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    workloads::setup(name, seed).expect("names are checked when parsed")
}

fn print_metric(declared: &[(&'static str, &'static str)], name: &str, value: f64, note: &str) {
    println!("{name} = {value:.6} {} {note}", unit_of(declared, name));
}

fn print_tally(tally: &Tally) {
    println!(
        "fail_frac = {:.6} ({} of {} attempted: refused {}, errored {}, mismatched {})",
        tally.failed() as f64 / tally.attempted.max(1) as f64,
        tally.failed(),
        tally.attempted,
        tally.refused,
        tally.errored,
        tally.mismatched
    );
}

/// The end-to-end run: the result line and whether every output was
/// correct.
fn untraced(args: &Args) -> Result<(bool, String), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let own = untimed_s();
        let t0 = Instant::now();
        let w = setup(args.workload, args.seed);
        setup_s.push(t0.elapsed().as_secs_f64() - (untimed_s() - own));
        prepared = Some(w);
    }
    let mut w = prepared.expect("at least one set-up");
    w.tables().iter().for_each(|line| println!("{line}"));
    let phase = w.run(Duration::from_secs(args.seconds), false);
    let approx_mse = w.approx_mse();
    drop(w);

    let p50 = phase.lat_p50().map_err(|e| e.to_string())?;
    let p99 = phase.lat_p99().map_err(|e| e.to_string())?;
    let p99_whole = phase.lat_p99_whole().map_err(|e| e.to_string())?;
    let metrics = Metrics::from([
        ("setup_s", median(&setup_s)),
        ("throughput_melem_s", phase.throughput_melem_s()),
        ("lat_p50_us", p50.value),
        ("lat_p99_us", p99.value),
        ("approx_mse", approx_mse),
    ]);
    let setups = format!("(median of {SETUPS} set-ups: {setup_s:.4?})");
    print_metric(END_TO_END, "setup_s", metrics["setup_s"], &setups);
    let verified = format!(
        "({} elements verified in {:.3} s timed)",
        phase.tally.elems,
        phase.wall.as_secs_f64()
    );
    print_metric(
        END_TO_END,
        "throughput_melem_s",
        metrics["throughput_melem_s"],
        &verified,
    );
    for (name, p) in [("lat_p50_us", p50), ("lat_p99_us", p99)] {
        let counts = format!("(n={}, {} beyond)", p.samples, p.beyond);
        print_metric(END_TO_END, name, p.value, &counts);
    }
    println!(
        "whole-run p99 = {:.6} us (n={}, {} beyond; lat_p99_us is the median p99 of 1000-latency windows)",
        p99_whole.value, p99_whole.samples, p99_whole.beyond
    );
    println!("approx_mse = {approx_mse:e}");
    print_tally(&phase.tally);

    let tally = phase.tally;
    let line = report::result_line(
        tally.mismatched == 0,
        tally.attempted,
        tally.failed(),
        END_TO_END,
        &metrics,
    )?;
    Ok((tally.mismatched == 0, line))
}

/// Median latency and throughput of a phase.
fn speed(phase: &Phase) -> Result<(f64, f64), String> {
    let p50 = phase.lat_p50().map_err(|e| e.to_string())?;
    Ok((p50.value, phase.throughput_melem_s()))
}

/// The traced run: the result line and whether every output was
/// correct.
fn traced(args: &Args) -> Result<(bool, String), String> {
    let d = Duration::from_secs(args.seconds) / TRACED_PHASES;
    let order =
        std::iter::once(args.workload).chain(NAMES.into_iter().filter(|n| *n != args.workload));
    let mut layers = Metrics::new();
    let mut tally = Tally::default();
    for (k, name) in order.enumerate() {
        let mut w = setup(name, args.seed);
        w.tables().iter().for_each(|line| println!("{line}"));
        let base = if k == 0 { Some(w.run(d, false)) } else { None };
        let phase = w.run(d, true);
        let setup_layers = w.setup_layers();
        drop(w);
        tally.merge(&phase.tally);
        tally.merge(&phase.probes);
        let (lat_p50, tput) = speed(&phase)?;
        println!(
            "traced {name}: lat_p50_us = {lat_p50:.3} us, throughput_melem_s = {tput:.3} Melem/s"
        );
        if let Some(base) = base {
            tally.merge(&base.tally);
            let (base_p50, base_tput) = speed(&base)?;
            let lat_pct = 100.0 * (lat_p50 / base_p50 - 1.0);
            let tput_pct = 100.0 * (base_tput / tput - 1.0);
            println!(
                "untraced {name}: lat_p50_us = {base_p50:.3} us, throughput_melem_s = \
                 {base_tput:.3} Melem/s; tracing costs {lat_pct:.2}% latency, {tput_pct:.2}% throughput"
            );
            layers.insert("bench.trace_overhead_pct", lat_pct.max(tput_pct));
        }
        match name {
            "serve-open" => {
                let parts = phase.layers["serve.submit_us_p50"] + phase.layers["serve.wait_us_p50"];
                println!(
                    "serve-open: submit p50 + wait p50 = {parts:.3} us against lat_p50_us {lat_p50:.3} us ({:+.2}%)",
                    100.0 * (parts / lat_p50 - 1.0)
                );
            }
            "model-forward" => {
                let parts: f64 = ["nn.dense_ms", "nn.attention_ms", "nn.activation_ms"]
                    .iter()
                    .map(|m| phase.layers[m])
                    .sum();
                println!(
                    "model-forward: dense + attention + activation = {:.3} us against lat_p50_us {lat_p50:.3} us ({:+.2}%)",
                    parts * 1e3,
                    100.0 * (parts * 1e3 / lat_p50 - 1.0)
                );
            }
            _ => {}
        }
        // The named workload runs first, so its readings win.
        for (metric, value) in phase.layers.into_iter().chain(setup_layers) {
            layers.entry(metric).or_insert(value);
        }
    }
    for (name, _) in PER_LAYER {
        if let Some(v) = layers.get(name) {
            print_metric(PER_LAYER, name, *v, "");
        }
    }
    print_tally(&tally);
    let line = report::result_line(
        tally.mismatched == 0,
        tally.attempted,
        tally.failed(),
        PER_LAYER,
        &layers,
    )?;
    Ok((tally.mismatched == 0, line))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flexbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", Host::detect());
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("flexbench: an output differed from direct evaluation");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("flexbench: {e}");
            ExitCode::FAILURE
        }
    }
}
