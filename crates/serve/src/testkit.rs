//! Test-support utilities for serving suites — **not** part of the
//! serving API.
//!
//! Every test that drives a live [`crate::PwlServer`] should run under
//! [`with_watchdog`] so a scheduling bug fails with a diagnostic instead
//! of hanging the suite; this module keeps that helper (and the no-op
//! waker used to hand-poll tickets) in one place for this crate's own
//! suites and for downstream crates' serving tests, instead of drifting
//! copies.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::task::{RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

/// Deterministic fault injection for serving tests — installed with
/// [`crate::PwlServer::start_with_faults`], armed from the test body.
///
/// Serving and wire-protocol suites need to *deterministically* drive
/// the server's failure paths and busy states (a bounced `try_submit`, a
/// worker that never replies, a worker still evaluating while more jobs
/// arrive) instead of racing real traffic and hoping. Each knob is
/// consumed by the server at a specific point:
///
/// * **Forced `QueueFull`** — the next *n* non-blocking admissions
///   ([`crate::ServeHandle::try_submit`], either precision) bounce with
///   [`crate::ServeError::QueueFull`] before touching the queue, exactly
///   as if the element bound were saturated (including raising the
///   one-shot pressure signal, so the retry path under test matches the
///   organic one).
/// * **Dropped replies** — the next *n* job completions drop the result
///   channel instead of sending, so the ticket observes
///   [`crate::ServeError::Disconnected`]: the "backend panicked
///   mid-unit" path, without actually panicking a backend.
/// * **Flush gate** — while the gate is held ([`Self::hold_flushes`]),
///   every packed flush unit parks at it just before it evaluates. The
///   test waits until the units it expects are parked
///   ([`Self::wait_parked`]), does what it wants to happen while the
///   workers are busy, then lets units through one by one
///   ([`Self::pass_flushes`]) or all at once ([`Self::release_flushes`]).
///   A server must not be shut down while a held gate still parks a
///   worker: the join would wait on it.
///
/// All knobs are live — tests arm them mid-traffic from another thread.
/// A server started without faults pays one `Option` check per site.
#[derive(Debug, Default)]
pub struct Faults {
    queue_full: AtomicU32,
    drop_replies: AtomicU32,
    gate: Mutex<Gate>,
    gate_moved: Condvar,
}

/// The flush gate: units are numbered as they reach it, and while it is
/// held (`passed` is set) unit `k` may go once `k < passed`.
#[derive(Debug, Default)]
struct Gate {
    arrived: u64,
    passed: Option<u64>,
}

impl Faults {
    /// A fresh, disarmed injector, ready for
    /// [`crate::PwlServer::start_with_faults`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms the next `n` non-blocking admissions to bounce with
    /// [`crate::ServeError::QueueFull`].
    pub fn force_queue_full(&self, n: u32) {
        self.queue_full.store(n, Ordering::SeqCst);
    }

    /// Arms the next `n` job completions to drop their reply channel
    /// (tickets observe [`crate::ServeError::Disconnected`]).
    pub fn drop_replies(&self, n: u32) {
        self.drop_replies.store(n, Ordering::SeqCst);
    }

    /// Holds the flush gate: from now on every flush unit parks before
    /// it evaluates.
    pub fn hold_flushes(&self) {
        let mut gate = self.gate.lock().unwrap();
        gate.passed = Some(gate.arrived);
    }

    /// Blocks until `n` units are parked at the held gate (forever if
    /// the gate is open, or no `n` units ever arrive).
    pub fn wait_parked(&self, n: u64) {
        let gate = self.gate.lock().unwrap();
        let few = |g: &mut Gate| g.passed.map_or(0, |p| g.arrived.saturating_sub(p)) < n;
        drop(self.gate_moved.wait_while(gate, few).unwrap());
    }

    /// Lets the next `n` units through the held gate, oldest first:
    /// parked ones at once, the rest as they arrive.
    pub fn pass_flushes(&self, n: u64) {
        if let Some(passed) = &mut self.gate.lock().unwrap().passed {
            *passed += n;
        }
        self.gate_moved.notify_all();
    }

    /// Opens the gate: every parked unit evaluates, and later units no
    /// longer park.
    pub fn release_flushes(&self) {
        self.gate.lock().unwrap().passed = None;
        self.gate_moved.notify_all();
    }

    /// Consumes one forced-`QueueFull` token, if armed.
    pub(crate) fn take_queue_full(&self) -> bool {
        take_token(&self.queue_full)
    }

    /// Consumes one dropped-reply token, if armed.
    pub(crate) fn take_drop_reply(&self) -> bool {
        take_token(&self.drop_replies)
    }

    /// A unit's visit to the gate: returns at once while it is open,
    /// else parks until the unit is passed or the gate released.
    pub(crate) fn pass_gate(&self) {
        let mut gate = self.gate.lock().unwrap();
        let ticket = gate.arrived;
        gate.arrived += 1;
        self.gate_moved.notify_all();
        let parked = |g: &mut Gate| g.passed.is_some_and(|p| ticket >= p);
        drop(self.gate_moved.wait_while(gate, parked).unwrap());
    }
}

/// Atomically decrements a fault counter, reporting whether a token was
/// available — each armed fault fires exactly once however many threads
/// race for it.
fn take_token(counter: &AtomicU32) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// Runs `f` on a helper thread and panics if it exceeds `secs` — a
/// deadlock detector for tests. Panics from `f` propagate. (On timeout
/// the wedged thread leaks, but the process is about to die with a
/// diagnostic anyway.)
///
/// # Panics
///
/// Panics with `name` in the message when the watchdog fires, and
/// re-panics whatever `f` panicked with otherwise.
pub fn with_watchdog<F: FnOnce() + Send + 'static>(secs: u64, name: &str, f: F) {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => t.join().expect("test body panicked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => t.join().expect("test body panicked"),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: suspected deadlock — exceeded {secs}s watchdog")
        }
    }
}

/// A deterministic uniform request tensor on the engines' default
/// fitting range `[-8, 8)` — the shared workload generator for serving
/// benches and examples, so their input distributions cannot drift
/// apart.
pub fn request_tensor(seed: u64, len: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 16.0 - 8.0
        })
        .collect()
}

/// A waker that does nothing — good enough to drive `Future::poll` by
/// hand in tests (paired with a sleep-or-spin loop).
pub fn noop_waker() -> Waker {
    fn clone(_: *const ()) -> RawWaker {
        RawWaker::new(std::ptr::null(), &VTABLE)
    }
    fn noop(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
    // SAFETY: every vtable entry is a no-op over a null pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_passes_fast_bodies_through() {
        with_watchdog(30, "trivial", || assert_eq!(1 + 1, 2));
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn watchdog_fires_on_a_wedged_body() {
        with_watchdog(1, "wedged", || {
            std::thread::sleep(Duration::from_secs(3600));
        });
    }

    #[test]
    fn fault_tokens_fire_exactly_n_times_and_gate_holds_passes_and_releases() {
        let faults = Faults::new();
        assert!(!faults.take_queue_full(), "disarmed injector never fires");
        faults.force_queue_full(2);
        assert!(faults.take_queue_full());
        assert!(faults.take_queue_full());
        assert!(!faults.take_queue_full(), "tokens must not underflow");

        faults.drop_replies(1);
        assert!(faults.take_drop_reply());
        assert!(!faults.take_drop_reply());

        faults.pass_gate(); // an open gate never parks
        faults.hold_flushes();
        let (done_tx, done_rx) = mpsc::channel();
        let units: Vec<_> = (0..2)
            .map(|k| {
                let (faults, done) = (Arc::clone(&faults), done_tx.clone());
                std::thread::spawn(move || {
                    faults.pass_gate();
                    done.send(k).unwrap();
                })
            })
            .collect();
        faults.wait_parked(2);
        faults.pass_flushes(1);
        let first = done_rx.recv().unwrap();
        assert_eq!(done_rx.try_recv(), Err(mpsc::TryRecvError::Empty));
        faults.wait_parked(1);
        faults.release_flushes();
        assert_eq!(done_rx.recv().unwrap(), 1 - first);
        units.into_iter().for_each(|u| u.join().unwrap());
        faults.pass_gate(); // released: open again
    }

    #[test]
    fn noop_waker_is_callable() {
        let w = noop_waker();
        let w2 = w.clone();
        w2.wake();
        w.wake_by_ref();
        w.wake();
    }
}
