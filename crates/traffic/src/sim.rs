//! The workload simulator and the trace→server replay driver.
//!
//! [`simulate`] turns a declarative [`WorkloadSpec`] into a [`Trace`]:
//! one seeded RNG drives arrivals, function choice, request sizing and
//! payload sampling **sequentially**, so a spec is a pure function of
//! its seed — same spec, same trace, bit for bit. Mid-run distribution
//! shifts ([`SamplerShift`]) swap a function's sampler at a virtual
//! instant, which is how the drift-injection batteries create their
//! step changes.
//!
//! [`replay_rounds`] then drives a recorded trace into a live
//! [`flexsfu_serve::ServeHandle`] in deterministic *rounds*: submit a
//! chunk, wait for every ticket, report the round. Because the serving
//! tier records input histograms before a ticket completes, the
//! histogram state at each round boundary is a pure function of the
//! trace prefix — the property that lets an adaptive retuner's decision
//! sequence replay exactly.

use crate::arrival::{ArrivalGen, ArrivalProcess};
use crate::clock::VirtualNs;
use crate::sampler::InputSampler;
use crate::trace::{Trace, TraceEvent, MAX_EVENT_ELEMS};
use flexsfu_serve::{FunctionId, ServeError, ServeHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One function's share of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionLoad {
    /// Registry name of the target function.
    pub name: String,
    /// Relative traffic share (any positive scale).
    pub weight: f64,
    /// Inclusive request-length range in elements.
    pub elems: (u32, u32),
    /// Payload distribution.
    pub sampler: InputSampler,
}

/// A scheduled sampler swap: from `at_ns` on, `function`'s payloads
/// come from `sampler` instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerShift {
    /// Virtual instant the shift takes effect.
    pub at_ns: VirtualNs,
    /// Which [`FunctionLoad::name`] shifts.
    pub function: String,
    /// The replacement distribution.
    pub sampler: InputSampler,
}

/// A complete declarative workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Master seed: the only source of randomness in [`simulate`].
    pub seed: u64,
    /// Interarrival model shared by all functions.
    pub arrivals: ArrivalProcess,
    /// The traffic mix.
    pub functions: Vec<FunctionLoad>,
    /// Scheduled distribution shifts, any order.
    pub shifts: Vec<SamplerShift>,
}

impl WorkloadSpec {
    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics on an empty mix, non-positive weights, empty or oversized
    /// length ranges, invalid samplers, or a shift naming an unknown
    /// function.
    pub fn validate(&self) {
        self.arrivals.validate();
        assert!(!self.functions.is_empty(), "workload needs >= 1 function");
        for f in &self.functions {
            assert!(
                f.weight > 0.0 && f.weight.is_finite(),
                "{}: weight must be positive",
                f.name
            );
            assert!(
                f.elems.0 >= 1 && f.elems.0 <= f.elems.1,
                "{}: bad length range {:?}",
                f.name,
                f.elems
            );
            assert!(
                f.elems.1 <= MAX_EVENT_ELEMS,
                "{}: requests above the trace payload cap",
                f.name
            );
            f.sampler.validate();
        }
        for s in &self.shifts {
            assert!(
                self.functions.iter().any(|f| f.name == s.function),
                "shift at {} ns targets unknown function {:?}",
                s.at_ns,
                s.function
            );
            s.sampler.validate();
        }
    }
}

/// Runs the simulator until `horizon_ns` of virtual time has elapsed or
/// `max_events` requests were generated, whichever is first.
///
/// Determinism contract: the returned [`Trace`] is a pure function of
/// `spec` — one sequential RNG seeded from [`WorkloadSpec::seed`]
/// drives every draw in arrival order.
///
/// # Panics
///
/// Panics if the spec fails [`WorkloadSpec::validate`].
pub fn simulate(spec: &WorkloadSpec, horizon_ns: VirtualNs, max_events: usize) -> Trace {
    spec.validate();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut arrivals = ArrivalGen::new(spec.arrivals.clone());
    let mut now: VirtualNs = 0;

    // Active sampler per function; shifts are applied in time order.
    let mut active: Vec<InputSampler> = spec.functions.iter().map(|f| f.sampler.clone()).collect();
    let mut shifts: Vec<&SamplerShift> = spec.shifts.iter().collect();
    shifts.sort_by_key(|s| s.at_ns);
    let mut next_shift = 0usize;

    let total_weight: f64 = spec.functions.iter().map(|f| f.weight).sum();
    let mut events = Vec::new();
    while events.len() < max_events {
        let t = arrivals.next_after(now, &mut rng);
        if t > horizon_ns {
            break;
        }
        assert!(t >= now, "virtual clock moved backwards: {now} -> {t}");
        now = t;
        while next_shift < shifts.len() && shifts[next_shift].at_ns <= t {
            let s = shifts[next_shift];
            let idx = spec
                .functions
                .iter()
                .position(|f| f.name == s.function)
                .expect("validated");
            active[idx] = s.sampler.clone();
            next_shift += 1;
        }
        // Weighted function pick, then length, then payload — a fixed
        // draw order so the stream stays aligned.
        let mut u: f64 = rng.gen_range(0.0..total_weight);
        let mut pick = spec.functions.len() - 1;
        for (i, f) in spec.functions.iter().enumerate() {
            if u < f.weight {
                pick = i;
                break;
            }
            u -= f.weight;
        }
        let f = &spec.functions[pick];
        let len = rng.gen_range(f.elems.0..=f.elems.1) as usize;
        let payload = active[pick].sample(&mut rng, len);
        events.push(TraceEvent {
            at_ns: t,
            func: pick as u32,
            payload,
        });
    }
    Trace {
        functions: spec.functions.iter().map(|f| f.name.clone()).collect(),
        events,
    }
}

/// What [`replay_rounds`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Requests submitted.
    pub submitted: usize,
    /// Requests whose results came back (always equals `submitted` on
    /// `Ok` — a lost job is an error, not a statistic).
    pub completed: usize,
    /// FNV-1a over every result's bit pattern, in event order — two
    /// replays produced identical outputs iff their checksums match.
    pub checksum: u64,
}

/// Replays `trace` into a serving handle in deterministic rounds of
/// `round` requests: submit the round, wait for **every** ticket, call
/// `on_round`, continue. `resolve` maps trace function names to live
/// [`FunctionId`]s.
///
/// The round barrier is what makes downstream decisions replayable:
/// when `on_round` runs, the serving tier has recorded exactly the
/// payloads of the trace prefix into its input histograms — no more, no
/// less — so anything `on_round` computes from them (drift scores,
/// retune decisions) is a pure function of the trace.
///
/// # Errors
///
/// [`ServeError::UnknownFunction`] if `resolve` returns `None` for a
/// trace function, plus any submission or completion error from the
/// serving tier. Jobs never go silently missing: every submitted
/// ticket is waited on.
pub fn replay_rounds(
    trace: &Trace,
    handle: &ServeHandle,
    resolve: &dyn Fn(&str) -> Option<FunctionId>,
    round: usize,
    mut on_round: impl FnMut(usize),
) -> Result<ReplayReport, ServeError> {
    assert!(round > 0, "round size must be positive");
    let ids: Vec<FunctionId> = trace
        .functions
        .iter()
        .map(|name| resolve(name).ok_or(ServeError::UnknownFunction(FunctionId(u32::MAX))))
        .collect::<Result<_, _>>()?;

    let mut report = ReplayReport {
        submitted: 0,
        completed: 0,
        checksum: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
    };
    for (round_idx, chunk) in trace.events.chunks(round).enumerate() {
        let mut tickets = Vec::with_capacity(chunk.len());
        for e in chunk {
            tickets.push(handle.submit(ids[e.func as usize], e.payload.clone())?);
            report.submitted += 1;
        }
        for ticket in tickets {
            let ys = ticket.wait()?;
            report.completed += 1;
            for y in ys {
                report.checksum ^= y.to_bits();
                report.checksum = report.checksum.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        on_round(round_idx);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            seed: 1234,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1e5 },
            functions: vec![
                FunctionLoad {
                    name: "gelu".into(),
                    weight: 3.0,
                    elems: (4, 64),
                    sampler: InputSampler::Gaussian {
                        mean: 0.0,
                        std: 2.0,
                        clamp: (-8.0, 8.0),
                    },
                },
                FunctionLoad {
                    name: "exp".into(),
                    weight: 1.0,
                    elems: (8, 8),
                    sampler: InputSampler::SoftmaxLogits {
                        temp: 3.0,
                        floor: -10.0,
                    },
                },
            ],
            shifts: vec![SamplerShift {
                at_ns: 5_000_000,
                function: "gelu".into(),
                sampler: InputSampler::Uniform { lo: 6.0, hi: 8.0 },
            }],
        }
    }

    #[test]
    fn simulation_is_a_pure_function_of_the_spec() {
        let a = simulate(&spec(), 10_000_000, 10_000);
        let b = simulate(&spec(), 10_000_000, 10_000);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        // Different seed, different trace.
        let mut other = spec();
        other.seed = 77;
        assert_ne!(simulate(&other, 10_000_000, 10_000), a);
    }

    #[test]
    fn shifts_take_effect_at_their_instant() {
        let t = simulate(&spec(), 10_000_000, 100_000);
        let gelu = 0u32;
        for e in &t.events {
            if e.func == gelu && e.at_ns >= 5_000_000 {
                assert!(
                    e.payload.iter().all(|&v| (6.0..8.0).contains(&v)),
                    "post-shift gelu payload escaped [6, 8) at {} ns",
                    e.at_ns
                );
            }
        }
        // The shift actually fired (traffic exists on both sides).
        assert!(t
            .events
            .iter()
            .any(|e| e.func == gelu && e.at_ns < 5_000_000));
        assert!(t
            .events
            .iter()
            .any(|e| e.func == gelu && e.at_ns >= 5_000_000));
    }

    #[test]
    fn traffic_mix_follows_weights() {
        let t = simulate(&spec(), 50_000_000, 100_000);
        let gelu = t.events.iter().filter(|e| e.func == 0).count() as f64;
        let share = gelu / t.events.len() as f64;
        assert!((share - 0.75).abs() < 0.03, "gelu share {share}");
    }

    #[test]
    fn horizon_and_event_caps_bound_the_run() {
        let by_events = simulate(&spec(), u64::MAX, 100);
        assert_eq!(by_events.events.len(), 100);
        let by_horizon = simulate(&spec(), 1_000_000, usize::MAX);
        assert!(by_horizon.events.iter().all(|e| e.at_ns <= 1_000_000));
    }

    #[test]
    #[should_panic(expected = "unknown function")]
    fn shift_on_unknown_function_is_rejected() {
        let mut s = spec();
        s.shifts[0].function = "nope".into();
        simulate(&s, 1, 1);
    }
}
