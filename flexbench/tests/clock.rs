//! Pins the ways the benchmark's clocks could be wrong by construction.

use flexbench::harness::{open_loop, windowed, Failure, Target};
use std::future::Future;
use std::pin::Pin;
use std::sync::Mutex;
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A service that records when each request reached it. Request
/// `stall_at` (if any) makes `submit` block for `stall`; request `i`'s
/// result is ready `service(i)` after it was submitted.
struct Fake {
    sent: Mutex<Vec<(usize, Instant)>>,
    stall_at: Option<usize>,
    stall: Duration,
    service: fn(usize) -> Duration,
}

impl Fake {
    fn new(stall_at: Option<usize>, stall: Duration) -> Self {
        Self {
            sent: Mutex::new(Vec::new()),
            stall_at,
            stall,
            service: |_| Duration::ZERO,
        }
    }
}

/// A result that becomes ready at `ready_at`; a timer thread wakes the
/// poller then.
struct FakeTicket {
    ready_at: Instant,
    timer: Option<JoinHandle<()>>,
}

impl Future for FakeTicket {
    type Output = Result<(), Failure>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let ready_at = self.ready_at;
        if Instant::now() >= ready_at {
            return Poll::Ready(Ok(()));
        }
        if self.timer.is_none() {
            let waker = cx.waker().clone();
            self.timer = Some(std::thread::spawn(move || {
                std::thread::sleep(ready_at.saturating_duration_since(Instant::now()));
                waker.wake();
            }));
        }
        Poll::Pending
    }
}

impl Drop for FakeTicket {
    fn drop(&mut self) {
        if let Some(timer) = self.timer.take() {
            let _ = timer.join();
        }
    }
}

impl Target for Fake {
    type Ticket = FakeTicket;
    type Output = ();

    fn submit(&self, i: usize) -> Result<FakeTicket, Failure> {
        let now = Instant::now();
        self.sent.lock().unwrap().push((i, now));
        if self.stall_at == Some(i) {
            std::thread::sleep(self.stall);
        }
        Ok(FakeTicket {
            ready_at: now + (self.service)(i),
            timer: None,
        })
    }

    fn wait(&self, mut ticket: FakeTicket) -> Result<(), Failure> {
        match ticket.timer.take() {
            Some(timer) => timer.join().expect("timer thread"),
            None => std::thread::sleep(ticket.ready_at.saturating_duration_since(Instant::now())),
        }
        Ok(())
    }

    fn verify(&self, _: usize, (): ()) -> Result<u64, Failure> {
        Ok(1)
    }
}

/// The closed-loop clock starts before any client thread can send: a
/// clock started after releasing the clients (the old
/// `serving_throughput` barrier bug) would miss their first requests.
#[test]
fn closed_loop_clock_starts_before_any_client_sends() {
    let fake = Fake::new(None, Duration::ZERO);
    let run = windowed(&fake, 4, 8, Duration::from_millis(30));
    let start = run.start.expect("the run records its start");
    let sent = fake.sent.into_inner().unwrap();
    assert!(sent.len() >= 4, "every client sent");
    for (i, at) in sent {
        assert!(at >= start, "request {i} was sent before the clock started");
    }
    assert_eq!(run.tally.attempted, run.ops.len() as u64);
    assert!(run.wall >= Duration::from_millis(30));
}

#[test]
fn open_loop_clock_starts_before_the_first_send() {
    let fake = Fake::new(None, Duration::ZERO);
    let run = open_loop(
        &fake,
        |i| (i < 20).then(|| Duration::from_micros(100 * i as u64)),
        true,
    );
    let start = run.start.expect("the run records its start");
    let sent = fake.sent.into_inner().unwrap();
    assert_eq!(sent.len(), 20);
    assert!(sent.iter().all(|(_, at)| *at >= start));
}

/// A service that stalls once for 20 ms must show the stall in every
/// request due while it lasted: their latency counts from when they
/// were due, not from when the stalled generator got to send them.
#[test]
fn open_loop_latency_counts_from_the_scheduled_send() {
    const STALL_AT: usize = 10;
    const STALL_MS: usize = 20;
    let fake = Fake::new(Some(STALL_AT), Duration::from_millis(STALL_MS as u64));
    let every_ms = |i: usize| (i < 60).then(|| Duration::from_millis(i as u64));
    let run = open_loop(&fake, every_ms, false);
    let lat: Vec<f64> = run
        .ops
        .iter()
        .map(|op| op.lat_us.expect("latency"))
        .collect();
    assert_eq!(lat.len(), 60);
    // Request i is due at i ms; nothing after STALL_AT is sent before
    // STALL_AT's due time + 20 ms.
    for (i, &us) in lat
        .iter()
        .enumerate()
        .take(STALL_AT + STALL_MS)
        .skip(STALL_AT)
    {
        let hidden_ms = (STALL_AT + STALL_MS - i) as f64;
        assert!(
            us >= hidden_ms * 1e3,
            "request {i} shows {us:.0} µs, but waited at least {hidden_ms} ms behind the stall"
        );
    }
    let calm = lat[..STALL_AT].iter().cloned().fold(0.0, f64::max);
    assert!(
        calm < 1e4,
        "requests before the stall wait no stall: {calm:.0} µs"
    );
}

/// Requests finish out of order: request 0 takes 30 ms, request 1 takes
/// 2 ms. Each latency must end when that request's own result is ready,
/// so request 1 is not held up behind request 0.
#[test]
fn open_loop_latency_ends_at_each_requests_own_completion() {
    let fake = Fake {
        service: |i| Duration::from_millis(if i == 0 { 30 } else { 2 }),
        ..Fake::new(None, Duration::ZERO)
    };
    let run = open_loop(
        &fake,
        |i| (i < 2).then(|| Duration::from_micros(100 * i as u64)),
        false,
    );
    let mut lat: Vec<f64> = run
        .ops
        .iter()
        .map(|op| op.lat_us.expect("latency"))
        .collect();
    assert_eq!(lat.len(), 2);
    lat.sort_by(f64::total_cmp);
    assert!(
        lat[0] < 10e3,
        "request 1 was ready after 2 ms but shows {:.0} µs",
        lat[0]
    );
    assert!(
        lat[1] >= 30e3,
        "request 0 took 30 ms, shows {:.0} µs",
        lat[1]
    );
}
