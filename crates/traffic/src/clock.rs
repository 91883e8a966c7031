//! The simulator's virtual timeline.
//!
//! Everything in the workload simulator is stamped in **virtual
//! nanoseconds** — a `u64` counter that only the simulation advances,
//! never the wall clock. That is what makes a recorded trace replay
//! bit-for-bit: the "when" of every event is data, not a measurement.

/// A point on the virtual timeline, in nanoseconds since simulation
/// start.
pub type VirtualNs = u64;

/// Converts a duration in (fractional) seconds to virtual nanoseconds,
/// rounding up and clamping to at least 1 ns — two events never collapse
/// onto the same instant just because a sampled gap rounded to zero.
pub fn secs_to_ns(dt_s: f64) -> VirtualNs {
    debug_assert!(dt_s >= 0.0 && dt_s.is_finite(), "bad duration {dt_s}");
    let ns = (dt_s * 1e9).ceil();
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        (ns as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_rounds_up_and_floors_at_one() {
        assert_eq!(secs_to_ns(0.0), 1);
        assert_eq!(secs_to_ns(1e-12), 1); // sub-ns gap still advances
        assert_eq!(secs_to_ns(1.0), 1_000_000_000);
        assert_eq!(secs_to_ns(1e30), u64::MAX); // saturates
    }
}
