//! Test-support utilities for serving suites — **not** part of the
//! serving API.
//!
//! Every test that drives a live [`crate::PwlServer`] should run under
//! [`with_watchdog`] so a scheduling bug fails with a diagnostic instead
//! of hanging the suite; this module keeps that helper (and the no-op
//! waker used to hand-poll tickets) in one place for this crate's own
//! suites and for downstream crates' serving tests, instead of drifting
//! copies.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::task::{RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

/// Deterministic fault injection for serving tests — installed with
/// [`crate::PwlServer::start_with_faults`], armed from the test body.
///
/// The wire-protocol suites need to *deterministically* drive the
/// server's failure paths (a bounced `try_submit`, a worker that never
/// replies, a flush that lands late) instead of racing real traffic and
/// hoping. Each knob is a counter or setting the server consumes at a
/// specific point:
///
/// * **Forced `QueueFull`** — the next *n* non-blocking admissions
///   ([`crate::ServeHandle::try_submit`] / `try_submit_f32`) bounce with
///   [`crate::ServeError::QueueFull`] before touching the queue, exactly
///   as if the element bound were saturated (including raising the
///   one-shot pressure signal, so the retry path under test matches the
///   organic one).
/// * **Dropped replies** — the next *n* job completions drop the result
///   channel instead of sending, so the ticket observes
///   [`crate::ServeError::Disconnected`]: the "backend panicked
///   mid-unit" path, without actually panicking a backend.
/// * **Flush delay** — every flush unit's evaluation sleeps this long
///   first, widening the window in which responses are pending (the
///   deterministic way to pin out-of-order wire multiplexing).
///
/// All knobs are live — tests arm them mid-traffic from another thread.
/// A server started without faults pays one `Option` check per site.
#[derive(Debug, Default)]
pub struct Faults {
    queue_full: AtomicU32,
    drop_replies: AtomicU32,
    delay_flush_micros: AtomicU64,
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

    /// Delays every flush unit's evaluation by `d` (`Duration::ZERO`
    /// disarms). Saturates at `u64::MAX` microseconds.
    pub fn delay_flushes(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.delay_flush_micros.store(micros, Ordering::SeqCst);
    }

    /// Consumes one forced-`QueueFull` token, if armed.
    pub(crate) fn take_queue_full(&self) -> bool {
        take_token(&self.queue_full)
    }

    /// Consumes one dropped-reply token, if armed.
    pub(crate) fn take_drop_reply(&self) -> bool {
        take_token(&self.drop_replies)
    }

    /// The currently armed flush delay, if any.
    pub(crate) fn flush_delay(&self) -> Option<Duration> {
        match self.delay_flush_micros.load(Ordering::SeqCst) {
            0 => None,
            micros => Some(Duration::from_micros(micros)),
        }
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
    fn fault_tokens_fire_exactly_n_times_and_delay_arms_and_disarms() {
        let faults = Faults::new();
        assert!(!faults.take_queue_full(), "disarmed injector never fires");
        faults.force_queue_full(2);
        assert!(faults.take_queue_full());
        assert!(faults.take_queue_full());
        assert!(!faults.take_queue_full(), "tokens must not underflow");

        faults.drop_replies(1);
        assert!(faults.take_drop_reply());
        assert!(!faults.take_drop_reply());

        assert_eq!(faults.flush_delay(), None);
        faults.delay_flushes(Duration::from_millis(3));
        assert_eq!(faults.flush_delay(), Some(Duration::from_millis(3)));
        faults.delay_flushes(Duration::ZERO);
        assert_eq!(faults.flush_delay(), None);
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
