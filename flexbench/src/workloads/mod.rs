//! The four workloads. Each module's doc comment records why it exists.

pub mod bulk;
pub mod model_forward;
pub mod serve_open;
pub mod wire_saturate;

use crate::harness::{Op, Tally};
use crate::report::Metrics;
use crate::stats::{median, percentile, Percentile, TooFewSamples};
use std::time::Duration;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["bulk", "serve-open", "wire-saturate", "model-forward"];

/// A workload after set-up: everything it sends is already generated.
pub trait Workload {
    /// One measured phase of about `dur`. With `trace`, the phase also
    /// times the calls into each layer and reports them in
    /// [`Phase::layers`].
    fn run(&mut self, dur: Duration, trace: bool) -> Phase;

    /// The accuracy metric: mean MSE of the workload's tables against the
    /// exact activations, on the workload's inputs. Computed outside any
    /// timed region.
    fn approx_mse(&mut self) -> f64;

    /// Per-layer times taken during set-up.
    fn setup_layers(&self) -> Metrics;

    /// Host-record lines for the tables the workload times.
    fn tables(&self) -> Vec<String>;
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operation outcomes.
    pub tally: Tally,
    /// Timed wall time the throughput is read over.
    pub wall: Duration,
    /// Every verified operation, in the order it was sent or completed.
    pub ops: Vec<Op>,
    /// Traced runs only: per-layer metrics.
    pub layers: Metrics,
    /// Traced runs only: outcomes of probes outside the measured
    /// operations. They count as attempted and failed, not as throughput.
    pub probes: Tally,
}

/// Latencies per window the tail percentile is read from: the fewest
/// that leave ten samples beyond a p99.
const TAIL_WINDOW: usize = 1000;

impl Phase {
    /// Latencies in µs.
    pub fn latency_us(&self) -> Vec<f64> {
        self.ops.iter().filter_map(|op| op.lat_us).collect()
    }

    /// Activation elements returned and verified per second of timed
    /// wall time, in millions.
    pub fn throughput_melem_s(&self) -> f64 {
        let elems: u64 = self.ops.iter().map(|op| op.elems).sum();
        elems as f64 / self.wall.as_secs_f64() / 1e6
    }

    /// The median latency.
    ///
    /// # Errors
    ///
    /// When the phase collected too few latencies.
    pub fn lat_p50(&self) -> Result<Percentile, TooFewSamples> {
        percentile(&self.latency_us(), 0.5)
    }

    /// The 99th-percentile latency: the median over consecutive windows
    /// of [`TAIL_WINDOW`] latencies of each window's p99, with the
    /// phase's sample count.
    ///
    /// Why a median of windows: on a shared VM the host stalls the
    /// program for milliseconds at a time, in stretches lasting tens of
    /// seconds, and the p99 over a whole serve-open run moved between
    /// about 0.65 and 4.2 ms with them, even read per 250 ms window. A
    /// stall that recurs at least once per window (1000 requests: 50 ms
    /// of serve-open traffic) raises every window's p99 and so this one;
    /// sparser stalls do not move it. They show in
    /// [`Phase::lat_p99_whole`], the p99 over the whole phase.
    ///
    /// # Errors
    ///
    /// When a window has too few latencies beyond its p99.
    pub fn lat_p99(&self) -> Result<Percentile, TooFewSamples> {
        let lat = self.latency_us();
        let size = TAIL_WINDOW;
        let windows = (lat.len() / size).max(1);
        let mut tails = Vec::with_capacity(windows);
        let mut beyond = 0;
        for k in 0..windows {
            let end = if k + 1 == windows {
                lat.len()
            } else {
                (k + 1) * size
            };
            let p = percentile(&lat[k * size..end], 0.99)?;
            tails.push(p.value);
            beyond += p.beyond;
        }
        Ok(Percentile {
            value: median(&tails),
            samples: lat.len(),
            beyond,
        })
    }

    /// The 99th-percentile latency over every latency of the phase.
    ///
    /// # Errors
    ///
    /// When fewer than ten latencies lie beyond it.
    pub fn lat_p99_whole(&self) -> Result<Percentile, TooFewSamples> {
        percentile(&self.latency_us(), 0.99)
    }
}

/// Sets `name` up from `seed`, or `None` for an unknown name.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "bulk" => Box::new(bulk::Bulk::setup(seed)),
        "serve-open" => Box::new(serve_open::ServeOpen::setup(seed)),
        "wire-saturate" => Box::new(wire_saturate::WireSaturate::setup(seed)),
        "model-forward" => Box::new(model_forward::ModelForward::setup(seed)),
        _ => return None,
    })
}

/// The `q`-quantile of `values`, for a phase built to collect enough
/// samples.
///
/// # Panics
///
/// Panics when the percentile helper refuses: the phase was too short
/// for the quantile, which is a benchmark configuration bug.
pub fn quantile(values: &[f64], q: f64, what: &str) -> f64 {
    match percentile(values, q) {
        Ok(p) => p.value,
        Err(e) => panic!("{what}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four seconds of 20 000 requests/s at 600 µs each.
    fn calm() -> Phase {
        Phase {
            wall: Duration::from_secs(4),
            ops: vec![
                Op {
                    lat_us: Some(600.0),
                    elems: 1,
                };
                80_000
            ],
            ..Phase::default()
        }
    }

    /// A 2 ms stall every 40 ms delays about a twentieth of the
    /// requests; every window holds one, so the windowed p99 shows it.
    #[test]
    fn a_recurring_stall_shows_in_the_p99() {
        let mut phase = calm();
        for (i, op) in phase.ops.iter_mut().enumerate() {
            if i % 800 < 40 {
                op.lat_us = Some(20_000.0);
            }
        }
        let p = phase.lat_p99().expect("enough samples");
        assert_eq!(p.value, 20_000.0);
        assert_eq!(p.samples, 80_000);
    }

    /// One 50 ms stretch of stalls touches one of eighty windows: the
    /// windowed p99 holds, the whole-phase p99 reads it.
    #[test]
    fn a_one_off_stall_moves_only_the_whole_phase_p99() {
        let mut phase = calm();
        for op in &mut phase.ops[40_000..41_000] {
            op.lat_us = Some(20_000.0);
        }
        assert_eq!(phase.lat_p99().expect("enough samples").value, 600.0);
        let whole = phase.lat_p99_whole().expect("enough samples");
        assert_eq!(whole.value, 20_000.0);
    }
}
