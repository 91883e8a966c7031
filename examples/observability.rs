//! End-to-end observability over a sharded deployment.
//!
//! One binary walks the whole telemetry surface the `flexsfu-obs` crate
//! threads through the serving stack:
//!
//! 1. **Deploy observed** — a two-shard [`ShardRouter`] with
//!    `observability: true`: every shard gets its own metrics registry
//!    and sampled span ring, the router keeps its own registry for
//!    routing decisions.
//! 2. **Serve + adapt** — warm traffic on both shards, then a shifted
//!    input distribution at GELU drives the [`AdaptiveRetuner`]
//!    (metered into shard 0's registry) through drift-detect →
//!    histogram-weighted retune → hot swap, while a declarative
//!    [`SloEvaluator`] rule on the drift-score gauge **fires** at the
//!    breach and **resolves** once the rebased detector settles.
//! 3. **Trace** — the router originates sampled trace ids that ride the
//!    Submit frames across the wire; [`ShardRouter::assemble_traces`]
//!    joins the router's routing stages with the serving shard's queue /
//!    backend / wire stages into one rendered waterfall.
//! 4. **Push** — a [`TelemetryExporter`] per origin ships snapshots and
//!    spans to a [`TelemetryCollector`] over the same wire protocol: a
//!    fleet view assembled with zero scrapes.
//! 5. **Expose** — a per-stage latency table from the sampled spans,
//!    and one [`ShardRouter::scrape_all`] snapshot that provably equals
//!    the label-then-merge of every shard's own snapshot, rendered as
//!    Prometheus text.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! [`ShardRouter`]: flexsfu::shard::ShardRouter
//! [`ShardRouter::scrape_all`]: flexsfu::shard::ShardRouter::scrape_all
//! [`ShardRouter::assemble_traces`]: flexsfu::shard::ShardRouter::assemble_traces
//! [`AdaptiveRetuner`]: flexsfu::traffic::AdaptiveRetuner
//! [`SloEvaluator`]: flexsfu::obs::SloEvaluator
//! [`TelemetryExporter`]: flexsfu::obs::TelemetryExporter
//! [`TelemetryCollector`]: flexsfu::wire::TelemetryCollector

use flexsfu::core::init::uniform_pwl;
use flexsfu::funcs::{Gelu, Tanh};
use flexsfu::obs::{
    labeled, ExporterConfig, LogHistogram, SampleRate, SloAlert, SloEvaluator, SloRule, Stage,
    TelemetryExporter, M_EXPORTER_SHIPPED, M_SLO_FIRED, M_SLO_RESOLVED,
};
use flexsfu::serve::obs::{M_FLUSH_UNITS, M_SUBMITS};
use flexsfu::serve::FunctionId;
use flexsfu::shard::{RouterConfig, ShardRouter};
use flexsfu::traffic::{AdaptiveRetuner, RetuneEvent, RetunePolicy, M_DRIFT_SCORE, M_RETUNES};
use flexsfu::tune::TuneBudget;
use flexsfu::wire::obs::{M_ACK_TO_RESULT_NS, M_FRAMES_IN, M_FRAMES_OUT};
use flexsfu::wire::{TelemetryCollector, WireSink};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const GELU: FunctionId = FunctionId(0);
const TANH: FunctionId = FunctionId(1);
const ELEMS: usize = 64;

/// Warm-phase GELU payload: deterministic sweep over `[-4, 4]`.
fn warm_payload(i: usize) -> Vec<f64> {
    (0..ELEMS)
        .map(|j| -4.0 + 8.0 * ((i * ELEMS + j) % 257) as f64 / 256.0)
        .collect()
}

/// Post-shift GELU payload: traffic jumps into the saturated tail.
fn shifted_payload(i: usize) -> Vec<f64> {
    (0..ELEMS)
        .map(|j| 5.5 + 2.3 * ((i * ELEMS + j) % 193) as f64 / 192.0)
        .collect()
}

fn main() {
    // ── 1. Observed two-shard deployment ────────────────────────────
    // GELU pinned to shard 0, tanh to shard 1, health thread off so the
    // scrape-equality check below compares a quiescent deployment.
    let overrides: HashMap<_, _> = [(GELU, 0usize), (TANH, 1usize)].into();
    let config = RouterConfig {
        health_interval: Duration::ZERO,
        observability: true,
        trace_sample: SampleRate(4),
        overrides,
        ..RouterConfig::default()
    };
    let router = ShardRouter::deploy(2, config, |r| {
        r.register("gelu", &uniform_pwl(&Gelu, 31, (-8.0, 8.0)));
        r.register("tanh", &uniform_pwl(&Tanh, 31, (-6.0, 6.0)));
    })
    .expect("deploy observed router");
    println!("deployed 2 observed shards (gelu -> shard 0, tanh -> shard 1)");

    // ── 2a. Warm traffic on both shards ─────────────────────────────
    for i in 0..120 {
        router.eval(GELU, &warm_payload(i)).expect("gelu eval");
        router.eval(TANH, &warm_payload(i + 7)).expect("tanh eval");
    }

    // ── 2b. Adaptive retuner, metered into shard 0's registry ───────
    // The warm histogram becomes the reference; the retuner's gauge and
    // counters land in the same registry `scrape_all` folds in, so the
    // adaptive loop is visible in the deployment-wide scrape for free.
    let policy = RetunePolicy {
        min_samples: 1024,
        ..RetunePolicy::quick(TuneBudget::max_error(f64::INFINITY))
    };
    let drift_ceiling = policy.threshold.score();
    let shard0_metrics = router
        .shard_metrics(0)
        .expect("shard 0 exists")
        .expect("observability is on");
    let mut retuner = AdaptiveRetuner::new(router.registry(0).expect("shard 0"), policy)
        .with_metrics(std::sync::Arc::clone(&shard0_metrics));
    retuner.watch_current("gelu").expect("watch gelu");

    // A declarative SLO on the drift-score gauge, metered into the same
    // registry: the firing gauge and transition counters ride the
    // deployment-wide scrape alongside everything else.
    let gauge_key = labeled(M_DRIFT_SCORE, &[("function", "gelu")]);
    let mut slo = SloEvaluator::new()
        .with_metrics(std::sync::Arc::clone(&shard0_metrics))
        .rule(SloRule::gauge_ceiling(
            "gelu-drift",
            &gauge_key,
            drift_ceiling,
        ));

    let mut retuned = None;
    'shifted: for round in 0..40 {
        for i in 0..40 {
            router
                .eval(GELU, &shifted_payload(round * 40 + i))
                .expect("shifted eval");
        }
        for event in retuner.poll() {
            if let RetuneEvent::Retuned {
                score,
                breakpoints,
                backend,
                ..
            } = &event
            {
                println!(
                    "round {round}: drift score {score:.4} -> retuned gelu \
                     ({breakpoints} breakpoints, backend {backend}) and hot-swapped"
                );
                retuned = Some(event);
            }
        }
        for alert in slo.eval(&shard0_metrics.snapshot()) {
            if let SloAlert::Firing {
                rule,
                value,
                ceiling,
            } = alert
            {
                println!("SLO [{rule}] FIRING: drift score {value:.4} > ceiling {ceiling}");
            }
        }
        if retuned.is_some() {
            break 'shifted;
        }
    }
    assert!(retuned.is_some(), "shifted traffic never drove a retune");
    assert!(
        slo.is_firing("gelu-drift"),
        "the breach never fired the SLO"
    );

    // Post-swap traffic keeps flowing through the new table; the rebased
    // detector scores the shifted window as the new normal, the gauge
    // drops, and the rule emits exactly one edge-triggered resolve.
    let mut resolved = false;
    'resolve: for round in 0..40 {
        for i in 0..40 {
            router
                .eval(GELU, &shifted_payload(10_000 + round * 40 + i))
                .expect("post-swap eval");
        }
        retuner.poll();
        for alert in slo.eval(&shard0_metrics.snapshot()) {
            if let SloAlert::Resolved { rule, value } = alert {
                println!("SLO [{rule}] RESOLVED: drift score back to {value:.4}");
                resolved = true;
                break 'resolve;
            }
        }
    }
    assert!(resolved, "the SLO never resolved after the hot swap");

    // ── 3. One request, both processes, one waterfall ───────────────
    // The router mints sampled trace ids that ride the Submit frames;
    // the shard adopts them, so assembling the rings joins the routing
    // stages with the serving stages. The wire pump stamps the final
    // stage just after writing the result frame, so settle until a
    // cross-process trace is complete.
    let deadline = Instant::now() + Duration::from_secs(10);
    let sample = loop {
        let traces = router.assemble_traces();
        if let Some(t) = traces.iter().rev().find(|t| {
            t.spans.len() >= 2
                && t.spans
                    .iter()
                    .any(|m| m.span.stage(Stage::WireWrite).is_some())
        }) {
            break t.clone();
        }
        assert!(Instant::now() < deadline, "no cross-process trace settled");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(sample.is_consistent(), "waterfall stepped backwards");
    println!("\ndistributed trace waterfall:");
    for line in sample.render().lines() {
        println!("  {line}");
    }
    println!(
        "  end-to-end: {} ns across {} processes",
        sample.total_ns().expect("stamped trace"),
        sample.spans.len()
    );

    // ── 4. Push-mode telemetry: exporters -> collector ──────────────
    // One exporter per origin ships snapshots + spans over the same
    // wire protocol; the collector merges a fleet view and re-assembles
    // cross-process traces — nobody scrapes anything.
    let collector = TelemetryCollector::start_local().expect("collector");
    let addr = collector.local_addr();
    let exporter_config = ExporterConfig {
        interval: Duration::from_millis(20),
        ..ExporterConfig::default()
    };
    let handles = vec![
        TelemetryExporter::new(
            "router",
            router.router_metrics().expect("observed"),
            Box::new(WireSink::new(addr)),
        )
        .with_spans(router.router_spans().expect("observed"))
        .with_config(exporter_config.clone())
        .spawn(),
        TelemetryExporter::new(
            "shard0",
            router.shard_metrics(0).unwrap().expect("observed"),
            Box::new(WireSink::new(addr)),
        )
        .with_spans(router.shard_spans(0).unwrap().expect("observed"))
        .with_config(exporter_config.clone())
        .spawn(),
        TelemetryExporter::new(
            "shard1",
            router.shard_metrics(1).unwrap().expect("observed"),
            Box::new(WireSink::new(addr)),
        )
        .with_spans(router.shard_spans(1).unwrap().expect("observed"))
        .with_config(exporter_config)
        .spawn(),
    ];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let pushed_traces = collector.assembler().assemble();
        if collector.origins() == ["router", "shard0", "shard1"]
            && pushed_traces
                .iter()
                .any(|t| t.spans.len() >= 2 && t.is_consistent())
        {
            println!(
                "\npush pipeline: collector holds {} origins, {} batches, \
                 {} assembled cross-process traces",
                collector.origins().len(),
                collector.batches_received(),
                pushed_traces.len()
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "push pipeline never delivered: {:?}",
            collector.origins()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let merged = collector.merged();
    let pushed_submits = merged
        .counter(&labeled(M_SUBMITS, &[("origin", "shard0")]))
        .unwrap_or(0);
    assert!(
        pushed_submits > 0,
        "pushed fleet view missing shard0 serves"
    );
    println!("  merged fleet view: shard0 submits = {pushed_submits} (zero scrapes issued)");
    // Stop the exporters (each flushes once more), then the collector —
    // the scrape-equality check below wants a quiescent deployment.
    for h in handles {
        h.stop();
    }
    collector.shutdown();

    // ── 5a. Per-stage latency table from shard 0's sampled spans ────
    // The wire pump stamps the final stage just after writing the
    // result frame, so settle until every dumped span is complete.
    let spans = router
        .shard_spans(0)
        .expect("shard 0 exists")
        .expect("observability is on");
    let deadline = Instant::now() + Duration::from_secs(10);
    let dump = loop {
        let dump = spans.dump();
        if !dump.is_empty() && dump.iter().all(|s| s.stage(Stage::WireWrite).is_some()) {
            break dump;
        }
        assert!(Instant::now() < deadline, "spans never finished stamping");
        std::thread::sleep(Duration::from_millis(5));
    };
    const LEGS: [(&str, Stage, Stage); 6] = [
        ("submit   -> enqueue     ", Stage::Submit, Stage::Enqueue),
        ("enqueue  -> flush plan  ", Stage::Enqueue, Stage::FlushPlan),
        (
            "flush    -> backend eval",
            Stage::FlushPlan,
            Stage::BackendEval,
        ),
        (
            "backend  -> scatter back",
            Stage::BackendEval,
            Stage::ScatterBack,
        ),
        (
            "scatter  -> wire write  ",
            Stage::ScatterBack,
            Stage::WireWrite,
        ),
        ("submit   -> wire write  ", Stage::Submit, Stage::WireWrite),
    ];
    println!("\nper-stage latency, {} sampled spans (ns):", dump.len());
    println!("  {:<26} {:>9} {:>9} {:>9}", "leg", "p50", "p95", "p99");
    let mut leg_p99_sum = 0u64;
    for (label, from, to) in LEGS {
        let h = LogHistogram::new();
        for span in &dump {
            let d = span
                .between(from, to)
                .expect("settled spans have every stage");
            h.record(d);
        }
        let s = h.snapshot();
        println!(
            "  {:<26} {:>9} {:>9} {:>9}",
            label,
            s.p50(),
            s.p95(),
            s.p99()
        );
        if from != Stage::Submit {
            leg_p99_sum += s.p99();
        }
    }
    // Sanity: stage stamps are causally ordered in every span.
    for span in &dump {
        let mut prev = span.stage(Stage::Submit).expect("stamped");
        for stage in [
            Stage::Enqueue,
            Stage::FlushPlan,
            Stage::BackendEval,
            Stage::ScatterBack,
            Stage::WireWrite,
        ] {
            let t = span.stage(stage).expect("stamped");
            assert!(prev <= t, "stages out of order");
            prev = t;
        }
    }
    println!("  (sum of leg p99 upper bounds: {leg_p99_sum} ns)");

    // ── 5b. One scrape for the whole deployment ─────────────────────
    // `scrape_all` merges locally, so it must equal the label-then-merge
    // of the router's and every shard's own snapshot — exactly. The wire
    // pumps finish post-write bookkeeping moments after results land, so
    // settle until two passes agree.
    let deadline = Instant::now() + Duration::from_secs(10);
    let scrape = loop {
        let mut expected = router.router_metrics().expect("observed").snapshot();
        for idx in 0..2 {
            let shard = router
                .shard_snapshot(idx)
                .expect("shard exists")
                .expect("observability is on")
                .with_label("shard", &idx.to_string());
            expected.merge(&shard);
        }
        let got = router.scrape_all();
        if got == expected {
            break got;
        }
        assert!(
            Instant::now() < deadline,
            "scrape_all never settled to the per-shard merge"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    println!("\nscrape_all == router metrics + per-shard labelled snapshots: verified");

    // The headline series all moved.
    let series = [
        labeled(M_SUBMITS, &[("shard", "0")]),
        labeled(M_SUBMITS, &[("shard", "1")]),
        labeled(M_FLUSH_UNITS, &[("shard", "0")]),
        labeled(M_FRAMES_IN, &[("shard", "0")]),
        labeled(M_FRAMES_OUT, &[("shard", "1")]),
        labeled(M_RETUNES, &[("shard", "0")]),
        labeled(M_SLO_FIRED, &[("rule", "gelu-drift"), ("shard", "0")]),
        labeled(M_SLO_RESOLVED, &[("rule", "gelu-drift"), ("shard", "0")]),
        M_EXPORTER_SHIPPED.to_string(),
    ];
    println!("headline counters:");
    for key in &series {
        let v = scrape.counter(key).unwrap_or(0);
        assert!(v > 0, "{key} never moved");
        println!("  {key} = {v}");
    }
    let ack = scrape
        .histogram(&labeled(M_ACK_TO_RESULT_NS, &[("shard", "0")]))
        .expect("ack->result histogram scraped");
    println!(
        "  {} : count {}, p99 {} ns",
        labeled(M_ACK_TO_RESULT_NS, &[("shard", "0")]),
        ack.count(),
        ack.p99()
    );

    // Prometheus text exposition — bucket series elided for brevity.
    let text = scrape.render_prometheus();
    let (kept, elided): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| !l.contains("_bucket"));
    println!(
        "\nprometheus exposition ({} bucket lines elided):",
        elided.len()
    );
    for line in kept {
        println!("  {line}");
    }

    router.shutdown();
    println!("\ndone: deployment drained cleanly");
}
