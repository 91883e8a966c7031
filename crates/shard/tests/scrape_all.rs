//! Deployment-wide scrape acceptance: `scrape_all` must equal the
//! label-then-merge of every shard's own snapshot plus the router's
//! metrics — exactly, because snapshots are merged locally rather than
//! scraped over the wire — and the router's routing-decision counters
//! must move when the deployment actually retries and fails over.
//!
//! The health thread is disabled: its pings would keep mutating wire
//! frame counters between the two snapshot passes the equality check
//! compares.

use flexsfu_core::init::uniform_pwl;
use flexsfu_funcs::{Gelu, Sigmoid};
use flexsfu_obs::labeled;
use flexsfu_serve::obs::M_SUBMITS;
use flexsfu_serve::testkit::with_watchdog;
use flexsfu_shard::{RouterConfig, ShardRouter, ShardState, M_FAILOVERS, M_RETRIES};
use flexsfu_wire::WireClient;
use std::collections::HashMap;
use std::time::Duration;

fn observed_config(overrides: HashMap<flexsfu_serve::FunctionId, usize>) -> RouterConfig {
    RouterConfig {
        health_interval: Duration::ZERO,
        observability: true,
        overrides,
        ..RouterConfig::default()
    }
}

#[test]
fn scrape_all_equals_labeled_merge_of_shard_snapshots() {
    with_watchdog(
        60,
        "scrape_all_equals_labeled_merge_of_shard_snapshots",
        || {
            // Pin one function per shard so both stacks serve real traffic.
            let overrides: HashMap<_, _> = [
                (flexsfu_serve::FunctionId(0), 0usize),
                (flexsfu_serve::FunctionId(1), 1usize),
            ]
            .into();
            let router = ShardRouter::deploy(2, observed_config(overrides), |r| {
                r.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
                r.register("sigmoid", &uniform_pwl(&Sigmoid, 16, (-8.0, 8.0)));
            })
            .expect("deploy");

            for i in 0..10 {
                let x = vec![0.1 * i as f64; 32];
                assert_eq!(
                    router
                        .eval(flexsfu_serve::FunctionId(0), &x)
                        .expect("gelu")
                        .len(),
                    32
                );
                assert_eq!(
                    router
                        .eval(flexsfu_serve::FunctionId(1), &x)
                        .expect("sigmoid")
                        .len(),
                    32
                );
            }

            // Drain shard 0 *behind the router's back* (a direct wire
            // client, not drain_shard), so the next routed eval hits the
            // draining socket, gets the typed refusal, marks the shard and
            // fails over to shard 1 — driving the retry/failover counters
            // deterministically.
            let saboteur = WireClient::connect(router.shard_addr(0).unwrap()).expect("connect");
            saboteur.drain().expect("drain frame");
            // The drain flag is set by the shard's reader thread; make it
            // visible before routing traffic at it.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !saboteur
                .ping(Duration::from_secs(1))
                .expect("pong")
                .draining
            {
                assert!(std::time::Instant::now() < deadline, "drain never landed");
                std::thread::sleep(Duration::from_millis(2));
            }
            let ys = router
                .eval(flexsfu_serve::FunctionId(0), &[0.5; 8])
                .expect("failover eval");
            assert_eq!(ys.len(), 8);
            assert_eq!(router.shard_state(0).unwrap(), ShardState::Draining);

            // Router-level counters moved.
            let router_snap = router.router_metrics().expect("observed").snapshot();
            assert!(router_snap.counter(M_RETRIES).unwrap_or(0) >= 1);
            assert!(router_snap.counter(M_FAILOVERS).unwrap_or(0) >= 1);

            // Both shards served traffic under their own registries.
            for idx in 0..2 {
                let snap = router.shard_snapshot(idx).unwrap().expect("observed shard");
                assert!(
                    snap.counter(M_SUBMITS).unwrap_or(0) >= 10,
                    "shard {idx} must have admitted its pinned traffic"
                );
            }

            // The acceptance equality: scrape_all == router metrics merged
            // with each shard's snapshot under its shard label. The wire
            // pumps finish their post-write bookkeeping (ack->result
            // histogram, span stamps) a moment after results land at the
            // client, so settle until two passes agree before asserting.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            let got = loop {
                let mut expected = router.router_metrics().expect("observed").snapshot();
                for idx in 0..2 {
                    let labeled_snap = router
                        .shard_snapshot(idx)
                        .unwrap()
                        .expect("observed shard")
                        .with_label("shard", &idx.to_string());
                    expected.merge(&labeled_snap);
                }
                let got = router.scrape_all();
                if got == expected {
                    break got;
                }
                if std::time::Instant::now() >= deadline {
                    assert_eq!(got, expected, "scrape_all never settled to the merge");
                }
                std::thread::sleep(Duration::from_millis(5));
            };

            // And the merged view keeps shards disentangled: per-shard
            // submit series exist under their labels.
            for idx in 0..2 {
                let key = labeled(M_SUBMITS, &[("shard", &idx.to_string())]);
                assert!(
                    got.counter(&key).unwrap_or(0) >= 10,
                    "merged scrape must carry {key}"
                );
            }

            drop(saboteur);
            router.shutdown();
        },
    );
}

/// An unobserved deployment scrapes empty and answers `None` from every
/// observability accessor — the knob really gates the whole layer.
#[test]
fn unobserved_deployment_scrapes_empty() {
    with_watchdog(60, "unobserved_deployment_scrapes_empty", || {
        let config = RouterConfig {
            health_interval: Duration::ZERO,
            ..RouterConfig::default()
        };
        let router = ShardRouter::deploy(2, config, |r| {
            r.register("gelu", &uniform_pwl(&Gelu, 16, (-8.0, 8.0)));
        })
        .expect("deploy");
        assert_eq!(
            router
                .eval(flexsfu_serve::FunctionId(0), &[1.0; 4])
                .expect("eval")
                .len(),
            4
        );
        assert!(router.router_metrics().is_none());
        assert!(router.shard_metrics(0).unwrap().is_none());
        assert!(router.shard_spans(0).unwrap().is_none());
        assert!(router.shard_snapshot(0).unwrap().is_none());
        let snap = router.scrape_all();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        router.shutdown();
    });
}
