//! The flush decision and the flush's coalescing math, as pure
//! functions.
//!
//! Splitting them out of the worker loop keeps the parts of the system
//! that are easy to get subtly wrong — which function is due and why,
//! offsets, lengths, grouping — free of any lock, clock or thread.
//! `decide` is a function of the pending aggregates, one clock reading
//! and the policies, so this module's tests sweep it over random queues
//! and times. The property tests in `tests/batcher_props.rs` hammer
//! [`FlushPlan`] directly: for arbitrary job sequences the spans of each
//! group must partition that group's packed buffer exactly, scatter-back
//! must be a bijection on jobs, and no group may mix functions (and
//! therefore coefficient tables).

use crate::registry::FunctionId;
use crate::server::FlushPolicy;
use std::collections::HashMap;

/// Why a function's pending jobs drained, in precedence order: a
/// function's own trigger outranks the queue-wide overrides, so a
/// size-due function drained during shutdown still flushed "because it
/// was full".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Reason {
    Size,
    Deadline,
    Shutdown,
    Pressure,
}

/// One function's pending aggregate — its flush-policy triggers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FuncPending {
    /// Pending elements of this function.
    pub(crate) elems: usize,
    /// Clock reading (ns) when its oldest pending job arrived — the
    /// deadline anchor.
    pub(crate) oldest: u64,
}

/// Everything the flush decision reads of the queue.
#[derive(Default)]
pub(crate) struct Pending {
    /// Aggregates per function with pending jobs.
    pub(crate) funcs: HashMap<FunctionId, FuncPending>,
    /// Submitters parked on the element bound. Non-zero means the queue
    /// is saturated: the next decision drains *everything* rather than
    /// letting one long-deadline function hold the shared bound — and
    /// with it every other function's admissions — hostage.
    pub(crate) space_waiters: usize,
    /// Set when a non-blocking submit bounced off the full queue: a
    /// one-shot pressure signal, so pure `try_submit` producers (which
    /// never park) also force a drain instead of seeing `QueueFull`
    /// forever against a never-flushing function.
    pub(crate) rejected_full: bool,
    /// Admissions stopped; the final drain is one flush.
    pub(crate) shutdown: bool,
}

/// What a free worker does next.
#[derive(Debug, PartialEq)]
pub(crate) enum Decision {
    /// Drain these functions' jobs; `reasons[i]` is why `funcs[i]` is due.
    Drain {
        funcs: Vec<FunctionId>,
        reasons: Vec<Reason>,
    },
    /// Nothing is due: decide again at this clock reading, or on a wake.
    SleepUntil(u64),
    /// Nothing is pending: wait for a wake.
    Park,
}

/// How soon a worker re-checks jobs whose policies never expire, so a
/// concurrent `set_policy` that tightens a deadline applies within this
/// tick instead of waiting for the next submission.
pub(crate) const RECHECK_NS: u64 = 10_000_000;

/// The flush decision at clock reading `now` (ns, on the clock that
/// stamped every [`FuncPending::oldest`]).
///
/// A function is due when its pending elements reach its policy's
/// `max_elems` or its oldest job has waited out its `deadline`; a
/// deadline past the end of the clock never fires. Shutdown and
/// admission pressure make every pending function due. Otherwise only
/// the due function with the oldest pending job drains. Drained
/// functions are listed oldest first, a tie going to the lower id.
/// Every call consumes `rejected_full`.
pub(crate) fn decide(
    pending: &mut Pending,
    now: u64,
    policy_of: impl Fn(FunctionId) -> FlushPolicy,
) -> Decision {
    // Taken unconditionally: a drain forced by a parked waiter must not
    // leave the flag armed to force a spurious drain later.
    let rejected_full = std::mem::take(&mut pending.rejected_full);
    let force_all = pending.shutdown || pending.space_waiters > 0 || rejected_full;
    let mut due: Vec<(u64, FunctionId, Reason)> = Vec::new();
    let mut next: Option<u64> = None;
    for (&func, p) in &pending.funcs {
        let policy = policy_of(func);
        let deadline = u64::try_from(policy.deadline.as_nanos())
            .ok()
            .and_then(|d| p.oldest.checked_add(d));
        let reason = if p.elems >= policy.max_elems {
            Reason::Size
        } else if deadline.is_some_and(|d| now >= d) {
            Reason::Deadline
        } else if pending.shutdown {
            Reason::Shutdown
        } else if force_all {
            Reason::Pressure
        } else {
            next = next.into_iter().chain(deadline).min();
            continue;
        };
        due.push((p.oldest, func, reason));
    }
    if due.is_empty() {
        return match next {
            Some(t) => Decision::SleepUntil(t),
            None if pending.funcs.is_empty() => Decision::Park,
            None => Decision::SleepUntil(now.saturating_add(RECHECK_NS)),
        };
    }
    due.sort_unstable();
    if !force_all {
        due.truncate(1);
    }
    let (funcs, reasons) = due.into_iter().map(|(_, f, r)| (f, r)).unzip();
    Decision::Drain { funcs, reasons }
}

/// Moves the jobs of `funcs` out of `jobs`, keeping submission order in
/// both the drained and the remaining jobs (FIFO per function).
pub(crate) fn take_jobs<J>(
    jobs: &mut Vec<J>,
    funcs: &[FunctionId],
    func_of: impl Fn(&J) -> FunctionId,
) -> Vec<J> {
    jobs.extract_if(.., |j| funcs.contains(&func_of(j)))
        .collect()
}

/// Where one job's elements live inside its group's packed buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpan {
    /// Index of the job in the drained submission-order job list.
    pub job: usize,
    /// Offset of the job's first element in the packed buffer.
    pub offset: usize,
    /// Element count (zero-length jobs are legal and occupy no space).
    pub len: usize,
}

/// One function's share of a flush: the jobs to pack, in submission
/// order, and the packed buffer's total length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// The function every job in this group targets.
    pub func: FunctionId,
    /// Total packed elements (`Σ spans.len`).
    pub total: usize,
    /// Per-job spans; offsets ascend and tile `0..total` exactly.
    pub spans: Vec<JobSpan>,
}

/// The full coalescing plan for one flush: one group per distinct
/// function, groups ordered by first appearance, jobs within a group in
/// submission order (FIFO per function).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushPlan {
    /// Per-function groups.
    pub groups: Vec<GroupPlan>,
}

impl FlushPlan {
    /// Builds the plan for `jobs`, given as `(function, element count)`
    /// in submission order.
    pub fn build(jobs: &[(FunctionId, usize)]) -> Self {
        let mut groups: Vec<GroupPlan> = Vec::new();
        for (job, &(func, len)) in jobs.iter().enumerate() {
            let group = match groups.iter_mut().find(|g| g.func == func) {
                Some(g) => g,
                None => {
                    groups.push(GroupPlan {
                        func,
                        total: 0,
                        spans: Vec::new(),
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            group.spans.push(JobSpan {
                job,
                offset: group.total,
                len,
            });
            group.total += len;
        }
        Self { groups }
    }

    /// Total elements across every group.
    pub fn total_elements(&self) -> usize {
        self.groups.iter().map(|g| g.total).sum()
    }

    /// Total jobs across every group.
    pub fn total_jobs(&self) -> usize {
        self.groups.iter().map(|g| g.spans.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Duration;

    const F0: FunctionId = FunctionId(0);
    const F1: FunctionId = FunctionId(1);

    /// The policy a property case gives function `f`: thresholds from one
    /// element to never, deadlines from zero to past the clock's end.
    fn policy(seed: u64, f: FunctionId) -> FlushPolicy {
        let w = seed.rotate_left(f.0 * 16);
        FlushPolicy {
            max_elems: [1, 40, 200, usize::MAX][(w & 3) as usize],
            deadline: match (w >> 2) & 7 {
                0 => Duration::ZERO,
                1 => Duration::from_nanos(500),
                2 => Duration::from_micros(200),
                3 => Duration::from_secs(1),
                4 => Duration::from_nanos(u64::MAX),
                5 => Duration::from_secs(u64::MAX / 1_000_000_000 + 1),
                _ => Duration::MAX,
            },
        }
    }

    proptest! {
        /// `decide` over random queues, policies and clock readings, each
        /// under all eight combinations of the queue-wide flags (bit 0
        /// shutdown, bit 1 a parked submitter, bit 2 a bounced
        /// `try_submit`). Anchors start at zero, in the middle, or a
        /// millisecond before the clock's end.
        #[test]
        fn decide_drains_exactly_what_is_due(
            words in proptest::collection::vec(0u64..u64::MAX, 0..24),
            seed in 0u64..u64::MAX,
            clock in 0u64..u64::MAX,
        ) {
            let mut t = [0, 1 << 40, u64::MAX - (1 << 20)][(clock % 3) as usize];
            // (function, arrival, elements), in submission order.
            let jobs: Vec<(FunctionId, u64, usize)> = words
                .iter()
                .map(|w| {
                    t = t.saturating_add(w >> 44);
                    (FunctionId((w % 4) as u32), t, ((w >> 8) % 50) as usize)
                })
                .collect();
            let now = t.saturating_add([0, 300, 1 << 20, 1 << 31][((clock >> 8) % 4) as usize]);
            let mut before = HashMap::new();
            for &(func, at, elems) in &jobs {
                before.entry(func).or_insert(FuncPending { elems: 0, oldest: at }).elems += elems;
            }
            let fire_at = |f: FunctionId| {
                u64::try_from(policy(seed, f).deadline.as_nanos())
                    .ok()
                    .and_then(|d| before[&f].oldest.checked_add(d))
            };
            let own = |f: FunctionId| {
                if before[&f].elems >= policy(seed, f).max_elems {
                    Some(Reason::Size)
                } else if fire_at(f).is_some_and(|d| now >= d) {
                    Some(Reason::Deadline)
                } else {
                    None
                }
            };
            for flags in 0..8 {
                let mut pending = Pending {
                    funcs: before.clone(),
                    shutdown: flags & 1 != 0,
                    space_waiters: (flags >> 1) & 1,
                    rejected_full: flags & 4 != 0,
                };
                let forced = flags != 0;
                let decision = decide(&mut pending, now, |f| policy(seed, f));
                prop_assert!(!pending.rejected_full, "every decision consumes the bounce");
                prop_assert_eq!(&pending.funcs, &before);
                match decision {
                    Decision::Drain { funcs, reasons } => {
                        prop_assert_eq!(funcs.len(), reasons.len());
                        prop_assert_eq!(funcs.len(), if forced { before.len() } else { 1 });
                        let forced_reason = if flags & 1 != 0 { Reason::Shutdown } else { Reason::Pressure };
                        for (&f, &r) in funcs.iter().zip(&reasons) {
                            prop_assert_eq!(r, own(f).unwrap_or(forced_reason), "size > deadline > shutdown > pressure");
                            prop_assert!(forced || own(f).is_some(), "{:?} drained before it was due", f);
                            if policy(seed, f).deadline == Duration::MAX {
                                prop_assert!(r != Reason::Deadline, "a never-deadline fired");
                            }
                        }
                        // Oldest first, a tie to the lower id; unforced, no
                        // due function is older than the one drained.
                        let keys: Vec<_> = funcs.iter().map(|&f| (before[&f].oldest, f)).collect();
                        prop_assert!(keys.windows(2).all(|k| k[0] < k[1]));
                        for &f in before.keys().filter(|&&f| own(f).is_some()) {
                            prop_assert!((before[&f].oldest, f) >= keys[0], "{:?} is older and due", f);
                        }
                        // FIFO within a function, in both halves of the drain.
                        let mut kept: Vec<_> = (0..jobs.len()).collect();
                        let taken = take_jobs(&mut kept, &funcs, |&j| jobs[j].0);
                        prop_assert!(taken.iter().all(|&j| funcs.contains(&jobs[j].0)));
                        prop_assert!(kept.iter().all(|&j| !funcs.contains(&jobs[j].0)));
                        prop_assert!(taken.windows(2).all(|j| j[0] < j[1]));
                        prop_assert!(kept.windows(2).all(|j| j[0] < j[1]));
                    }
                    Decision::SleepUntil(at) => {
                        prop_assert!(!forced && !before.is_empty());
                        prop_assert!(before.keys().all(|&f| own(f).is_none()));
                        let earliest = before.keys().filter_map(|&f| fire_at(f)).min();
                        prop_assert_eq!(at, earliest.unwrap_or(now.saturating_add(RECHECK_NS)));
                    }
                    Decision::Park => prop_assert!(before.is_empty()),
                }
                // A bounce forces one drain, not two.
                if flags == 4 {
                    if let Decision::Drain { funcs, .. } = decide(&mut pending, now, |f| policy(seed, f)) {
                        prop_assert!(funcs.len() == 1 && own(funcs[0]).is_some());
                    }
                }
            }
        }
    }

    #[test]
    fn sleeps_until_the_earliest_deadline_or_the_recheck_tick() {
        let hold = |deadline| {
            move |_| FlushPolicy {
                max_elems: usize::MAX,
                deadline,
            }
        };
        let mut pending = Pending::default();
        assert_eq!(
            decide(&mut pending, 5, hold(Duration::ZERO)),
            Decision::Park
        );
        pending.funcs.insert(
            F0,
            FuncPending {
                elems: 1,
                oldest: 300,
            },
        );
        pending.funcs.insert(
            F1,
            FuncPending {
                elems: 1,
                oldest: 100,
            },
        );
        let micro = hold(Duration::from_micros(1));
        assert_eq!(
            decide(&mut pending, 150, micro),
            Decision::SleepUntil(1_100)
        );
        let never = hold(Duration::MAX);
        let tick = Decision::SleepUntil(150 + RECHECK_NS);
        assert_eq!(decide(&mut pending, 150, never), tick);
        // Never is never: not even from a zero anchor at the last tick.
        pending.funcs.insert(
            F0,
            FuncPending {
                elems: 1,
                oldest: 0,
            },
        );
        let tick = Decision::SleepUntil(u64::MAX);
        assert_eq!(decide(&mut pending, u64::MAX, never), tick);
    }

    #[test]
    fn empty_plan() {
        let plan = FlushPlan::build(&[]);
        assert!(plan.groups.is_empty());
        assert_eq!(plan.total_elements(), 0);
        assert_eq!(plan.total_jobs(), 0);
    }

    #[test]
    fn interleaved_functions_group_in_fifo_order() {
        let jobs = [(F0, 3), (F1, 5), (F0, 0), (F1, 2), (F0, 7)];
        let plan = FlushPlan::build(&jobs);
        assert_eq!(plan.groups.len(), 2);
        let g0 = &plan.groups[0];
        assert_eq!(g0.func, F0);
        assert_eq!(g0.total, 10);
        assert_eq!(
            g0.spans,
            vec![
                JobSpan {
                    job: 0,
                    offset: 0,
                    len: 3
                },
                JobSpan {
                    job: 2,
                    offset: 3,
                    len: 0
                },
                JobSpan {
                    job: 4,
                    offset: 3,
                    len: 7
                },
            ]
        );
        let g1 = &plan.groups[1];
        assert_eq!(g1.func, F1);
        assert_eq!(g1.total, 7);
        assert_eq!(plan.total_jobs(), jobs.len());
        assert_eq!(plan.total_elements(), 17);
    }
}
