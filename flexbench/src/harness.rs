//! Load runners whose clocks cannot be wrong by construction.
//!
//! * Every runner reads its start instant **before** any load thread
//!   exists, so no load runs outside the timed region.
//! * The open-loop runner times each request from the instant it was
//!   *due*, not from when the generator got round to sending it, so a
//!   stall shows in every request queued behind it (no coordinated
//!   omission). It ends each request's latency at the instant that
//!   request's own result is ready, so a request that finishes early is
//!   not held up behind slower ones sent before it.
//! * The closed-loop runner times each request from the call.
//!
//! Results are checked by the target after the completion instant is
//! taken, so checking never inflates a latency.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

static UNTIMED_NS: AtomicU64 = AtomicU64::new(0);

/// Runs `f`, the benchmark's own work inside a set-up (computing the
/// expected outputs, fixed-length warm-ups), and books its time so the
/// set-up time can leave it out.
pub fn untimed<R>(f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    UNTIMED_NS.fetch_add(ns, Ordering::Relaxed);
    r
}

/// Seconds this process has spent inside [`untimed`].
pub fn untimed_s() -> f64 {
    UNTIMED_NS.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Why one operation did not count as done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Backpressure turned it away (`QueueFull`, `RetryAfter`). Never
    /// retried.
    Refused,
    /// Any other error on the way.
    Errored,
    /// It returned, but not bit-identical to direct evaluation.
    Mismatched,
}

/// One verified operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Its latency in µs, when the workload's latency covers it.
    pub lat_us: Option<f64>,
    /// Activation elements it returned and verified.
    pub elems: u64,
}

/// Operation outcomes of one measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Refused by backpressure.
    pub refused: u64,
    /// Failed with another error.
    pub errored: u64,
    /// Returned a wrong result.
    pub mismatched: u64,
    /// Activation elements returned and verified.
    pub elems: u64,
}

impl Tally {
    /// Counts one finished operation: `Ok(elements verified)` or why it
    /// failed.
    pub fn record(&mut self, outcome: Result<u64, Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(elems) => self.elems += elems,
            Err(Failure::Refused) => self.refused += 1,
            Err(Failure::Errored) => self.errored += 1,
            Err(Failure::Mismatched) => self.mismatched += 1,
        }
    }

    /// Refused + errored + mismatched.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.mismatched
    }

    /// Adds another tally's counts into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.errored += other.errored;
        self.mismatched += other.mismatched;
        self.elems += other.elems;
    }
}

/// A service the runners drive. Requests are numbered by one flat
/// index `i`, whichever runner sends them.
pub trait Target: Sync {
    /// What a sent request hands back to wait on.
    type Ticket: Send;
    /// What a finished request returns.
    type Output;
    /// Sends request `i`.
    ///
    /// # Errors
    ///
    /// Why the request was not accepted.
    fn submit(&self, i: usize) -> Result<Self::Ticket, Failure>;
    /// Blocks until the request finishes.
    ///
    /// # Errors
    ///
    /// Why the request failed after it was accepted.
    fn wait(&self, ticket: Self::Ticket) -> Result<Self::Output, Failure>;
    /// Checks request `i`'s output; returns the elements verified.
    ///
    /// # Errors
    ///
    /// [`Failure::Mismatched`] when the output is wrong.
    fn verify(&self, i: usize, out: Self::Output) -> Result<u64, Failure>;
    /// A gauge the completion thread samples after each completion of a
    /// traced open-loop run (for example the server's queue depth).
    fn gauge(&self) -> f64 {
        0.0
    }
}

/// What an open-loop phase measured. Times are in microseconds.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// The clock start; every request is due at or after it.
    pub start: Option<Instant>,
    /// From the start to the last completion.
    pub wall: Duration,
    /// Operation outcomes.
    pub tally: Tally,
    /// Per verified request; latency from the due instant to completion.
    pub ops: Vec<Op>,
    /// Traced only, per sent request: how late the generator sent it.
    pub gen_lag_us: Vec<f64>,
    /// Traced only, per accepted request: time inside `submit`.
    pub submit_us: Vec<f64>,
    /// Traced only, per completed request: `submit` returning to the
    /// result being ready.
    pub wait_us: Vec<f64>,
    /// Traced only: [`Target::gauge`] after each completion.
    pub gauge: Vec<f64>,
}

/// Sleeps, then yields, until `t`. Sleeping stops well before `t`
/// because a sleep can overshoot by tens of microseconds.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Records the instant a request's result became ready. The thread that
/// completes the request calls its waker, so the instant does not wait
/// for the completion thread to be scheduled.
#[derive(Default)]
struct Stamp(OnceLock<Instant>);

impl Wake for Stamp {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let _ = self.0.set(Instant::now());
    }
}

/// A sent request as the generator hands it to the completion thread.
enum Sent<K, O> {
    /// Its result was ready when the generator first polled it.
    Ready(Instant, Result<O, Failure>),
    /// Still running; its waker stamps the instant it becomes ready.
    Running(K, Arc<Stamp>),
}

/// Drives `target` open loop: request `i` is due `due(i)` after the
/// start, and the schedule ends at the first `None`. The calling thread
/// sends, then polls each ticket once with a waker that stamps the
/// instant that request's own result is ready, whatever order requests
/// finish in. One completion thread collects the results in send order
/// and checks them.
pub fn open_loop<T>(target: &T, due: impl Fn(usize) -> Option<Duration>, trace: bool) -> OpenLoopRun
where
    T: Target,
    T::Ticket: Future<Output = Result<T::Output, Failure>> + Unpin,
    T::Output: Send,
{
    type Item<K, O> = (usize, Instant, Option<Instant>, Sent<K, O>);
    let (tx, rx) = mpsc::channel::<Item<T::Ticket, T::Output>>();
    let start = Instant::now();
    let mut run = OpenLoopRun {
        start: Some(start),
        ..OpenLoopRun::default()
    };
    let mut sent_tally = Tally::default();
    let (done, last) = std::thread::scope(|scope| {
        let completion = scope.spawn(move || {
            let mut done = OpenLoopRun::default();
            let mut last = start;
            for (i, due_at, submitted, sent) in rx {
                let (at, outcome) = match sent {
                    Sent::Ready(at, outcome) => (at, outcome),
                    Sent::Running(ticket, stamp) => {
                        let outcome = target.wait(ticket);
                        // The waker runs just after the result is stored;
                        // if `wait` won that race, now is the closer bound.
                        let at = stamp.0.get().copied().unwrap_or_else(Instant::now);
                        (at, outcome)
                    }
                };
                last = last.max(at);
                let outcome = outcome.and_then(|out| {
                    if let Some(s) = submitted {
                        done.wait_us.push(us(at.saturating_duration_since(s)));
                        done.gauge.push(target.gauge());
                    }
                    target.verify(i, out)
                });
                if let Ok(elems) = outcome {
                    done.ops.push(Op {
                        lat_us: Some(us(at - due_at)),
                        elems,
                    });
                }
                done.tally.record(outcome);
            }
            (done, last)
        });
        let mut i = 0;
        while let Some(offset) = due(i) {
            let due_at = start + offset;
            wait_until(due_at);
            let sent = Instant::now();
            match target.submit(i) {
                Ok(mut ticket) => {
                    let submitted = trace.then(Instant::now);
                    if let Some(s) = submitted {
                        run.gen_lag_us.push(us(sent - due_at));
                        run.submit_us.push(us(s - sent));
                    }
                    let stamp = Arc::new(Stamp::default());
                    let waker = Waker::from(Arc::clone(&stamp));
                    let polled = Pin::new(&mut ticket).poll(&mut Context::from_waker(&waker));
                    let item = match polled {
                        Poll::Ready(outcome) => Sent::Ready(Instant::now(), outcome),
                        Poll::Pending => Sent::Running(ticket, stamp),
                    };
                    tx.send((i, due_at, submitted, item))
                        .expect("the completion thread outlives the generator");
                }
                Err(f) => sent_tally.record(Err(f)),
            }
            i += 1;
        }
        drop(tx);
        completion.join().expect("completion thread panicked")
    });
    run.wall = last.max(Instant::now()) - start;
    run.tally = done.tally;
    run.tally.merge(&sent_tally);
    run.ops = done.ops;
    run.wait_us = done.wait_us;
    run.gauge = done.gauge;
    run
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct ClosedRun {
    /// The clock start, read before any client thread exists.
    pub start: Option<Instant>,
    /// From the start until every client drained its window.
    pub wall: Duration,
    /// Operation outcomes.
    pub tally: Tally,
    /// Per verified request in completion order; latency from the call
    /// to the result.
    pub ops: Vec<Op>,
}

/// Runs `clients` threads against `target` for `dur`. Each keeps
/// `window` requests outstanding: when the window is full it waits for
/// the oldest before sending again. After `dur` each drains its window
/// inside the timed region. Client `c`'s `seq`-th request is request
/// `seq * clients + c`.
pub fn windowed<T: Target>(target: &T, clients: usize, window: usize, dur: Duration) -> ClosedRun {
    assert!(clients > 0 && window > 0, "need a client and a window");
    let start = Instant::now();
    let parts: Vec<(Tally, Vec<(Instant, Op)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut ops = Vec::new();
                    let mut inflight: VecDeque<(usize, Instant, T::Ticket)> = VecDeque::new();
                    let finish =
                        |tally: &mut Tally,
                         ops: &mut Vec<(Instant, Op)>,
                         (i, called, ticket): (usize, Instant, T::Ticket)| {
                            let outcome = target.wait(ticket);
                            let now = Instant::now();
                            let outcome = outcome.and_then(|out| target.verify(i, out));
                            if let Ok(elems) = outcome {
                                let op = Op {
                                    lat_us: Some(us(now - called)),
                                    elems,
                                };
                                ops.push((now, op));
                            }
                            tally.record(outcome);
                        };
                    let mut seq = 0;
                    while start.elapsed() < dur {
                        if inflight.len() == window {
                            let oldest = inflight.pop_front().expect("window is full");
                            finish(&mut tally, &mut ops, oldest);
                        }
                        let i = seq * clients + client;
                        let called = Instant::now();
                        match target.submit(i) {
                            Ok(ticket) => inflight.push_back((i, called, ticket)),
                            Err(f) => tally.record(Err(f)),
                        }
                        seq += 1;
                    }
                    for pending in inflight {
                        finish(&mut tally, &mut ops, pending);
                    }
                    (tally, ops)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut run = ClosedRun {
        start: Some(start),
        wall,
        ..ClosedRun::default()
    };
    let mut ops = Vec::new();
    for (tally, part) in parts {
        run.tally.merge(&tally);
        ops.extend(part);
    }
    ops.sort_by_key(|(at, _)| *at);
    run.ops = ops.into_iter().map(|(_, op)| op).collect();
    run
}
