//! Seeded input generation.
//!
//! Every input the program under test receives is made here, from the
//! workload seed, during set-up. [`generated_elems`] counts what was
//! made, so a test can pin that no timed region generates inputs.

use flexsfu_traffic::{simulate, Trace, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

static GENERATED: AtomicU64 = AtomicU64::new(0);

/// Input elements generated by this process so far.
pub fn generated_elems() -> u64 {
    GENERATED.load(Ordering::Relaxed)
}

fn count(n: usize) {
    GENERATED.fetch_add(n as u64, Ordering::Relaxed);
}

/// The stream for `seed`, separated from the workload's other streams
/// by `tag`.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// A standard normal sample (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `n` unsorted samples of `N(0, sigma²)`.
pub fn gaussian_vec(rng: &mut StdRng, n: usize, sigma: f64) -> Vec<f64> {
    count(n);
    (0..n).map(|_| sigma * gaussian(rng)).collect()
}

/// A standard-normal stream for the model's weight initializers.
pub fn weight_stream(rng: &mut StdRng) -> impl FnMut() -> f64 + '_ {
    move || {
        count(1);
        gaussian(rng)
    }
}

/// A seeded request trace from the traffic simulator.
pub fn trace(spec: &WorkloadSpec, horizon_ns: u64, max_events: usize) -> Trace {
    let trace = simulate(spec, horizon_ns, max_events);
    count(trace.events.iter().map(|e| e.payload.len()).sum());
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = gaussian_vec(&mut rng(7, 1), 64, 2.5);
        let b = gaussian_vec(&mut rng(7, 1), 64, 2.5);
        let c = gaussian_vec(&mut rng(8, 1), 64, 2.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gaussian_has_the_asked_spread() {
        let xs = gaussian_vec(&mut rng(1, 2), 100_000, 2.5);
        let var = xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64;
        assert!((var.sqrt() - 2.5).abs() < 0.05, "sigma {}", var.sqrt());
    }
}
