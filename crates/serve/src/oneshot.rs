//! A minimal one-shot channel: one value, one producer, one consumer,
//! blocking *and* `Future`-based consumption.
//!
//! The workspace is offline and std-only, so instead of pulling in tokio
//! or `futures` the serving front-end carries this ~100-line channel: a
//! `Mutex`/`Condvar` pair for blocking waits plus a stored [`Waker`] so
//! the receiver is pollable from any executor. Sending never blocks;
//! dropping the sender without sending wakes the receiver with an error.

use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Channel state: pending (with the waker of a parked poller, if any),
/// a delivered value, or a sender dropped without sending.
enum State<T> {
    Pending(Option<Waker>),
    Sent(T),
    Dropped,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// The producing half. Consumed by [`Sender::send`]; dropping it without
/// sending closes the channel.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
    sent: bool,
}

/// The consuming half: block with [`Receiver::recv`] or `.await` it.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// The sender was dropped without sending a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Why [`Receiver::recv_timeout`] returned without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed first. The channel is consumed — a bounded
    /// wait that gives up abandons the value (the sender's `send` into
    /// the abandoned channel is still safe, it just goes nowhere).
    Timeout,
    /// The sender was dropped without sending.
    Disconnected,
}

/// Creates a connected sender/receiver pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State::Pending(None)),
        cv: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
            sent: false,
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Delivers `value`, waking a blocked or parked receiver. Never
    /// blocks.
    pub fn send(mut self, value: T) {
        let waker = {
            let mut s = self.inner.state.lock().unwrap();
            let prev = std::mem::replace(&mut *s, State::Sent(value));
            match prev {
                State::Pending(w) => w,
                // A oneshot sender is consumed by send; other states are
                // unreachable while it exists.
                _ => unreachable!("oneshot state corrupted"),
            }
        };
        self.sent = true;
        self.inner.cv.notify_one();
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        let waker = {
            let mut s = self.inner.state.lock().unwrap();
            match std::mem::replace(&mut *s, State::Dropped) {
                State::Pending(w) => w,
                other => {
                    // send() already ran (sent == false is impossible
                    // then) — restore and leave.
                    *s = other;
                    return;
                }
            }
        };
        self.inner.cv.notify_one();
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until the value arrives (or the sender is dropped).
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] if the sender was dropped without sending.
    pub fn recv(self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Bounded [`Self::recv`]: waits at most `timeout` for the value.
    /// The health-check path of the wire tier waits on pongs with this —
    /// a dead peer costs a bounded wait, never a hang. A timeout too
    /// large for the clock (e.g. [`Duration::MAX`]) means "never": the
    /// call is a plain [`Self::recv`].
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if the timeout elapses first,
    /// [`RecvTimeoutError::Disconnected`] if the sender was dropped
    /// without sending.
    pub fn recv_timeout(self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Instant::now().checked_add(timeout))
    }

    /// Waits for the value until `deadline`, or for good without one.
    fn recv_until(self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut s = self.inner.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *s, State::Dropped) {
                State::Sent(v) => return Ok(v),
                State::Dropped => return Err(RecvTimeoutError::Disconnected),
                pending @ State::Pending(_) => *s = pending,
            }
            s = match deadline {
                None => self.inner.cv.wait(s).unwrap(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    self.inner.cv.wait_timeout(s, deadline - now).unwrap().0
                }
            };
        }
    }

    /// Non-blocking poll used by the `Future` implementation.
    fn poll_inner(&mut self, cx: &mut Context<'_>) -> Poll<Result<T, RecvError>> {
        let mut s = self.inner.state.lock().unwrap();
        match std::mem::replace(&mut *s, State::Dropped) {
            State::Sent(v) => Poll::Ready(Ok(v)),
            State::Dropped => Poll::Ready(Err(RecvError)),
            State::Pending(_) => {
                *s = State::Pending(Some(cx.waker().clone()));
                Poll::Pending
            }
        }
    }
}

impl<T> std::future::Future for Receiver<T> {
    type Output = Result<T, RecvError>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut().poll_inner(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::noop_waker;
    use std::future::Future;
    use std::pin::Pin;

    #[test]
    fn send_then_recv() {
        let (tx, rx) = channel();
        tx.send(7u32);
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = channel();
        let t = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send("hello");
        assert_eq!(t.join().unwrap(), Ok("hello"));
    }

    #[test]
    fn recv_timeout_delivers_times_out_and_disconnects() {
        let (tx, rx) = channel();
        tx.send(5u8);
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)), Ok(5));

        let (_tx, rx) = channel::<u8>();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );

        let (tx, rx) = channel::<u8>();
        drop(tx);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );

        // A timeout past the clock's range waits like `recv`.
        let (tx, rx) = channel();
        let t = std::thread::spawn(move || rx.recv_timeout(Duration::MAX));
        tx.send(9u8);
        assert_eq!(t.join().unwrap(), Ok(9));
        let (tx, rx) = channel::<u8>();
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::MAX),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn dropped_sender_errors() {
        let (tx, rx) = channel::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn future_polls_pending_then_ready() {
        let (tx, rx) = channel();
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let mut rx = rx;
        assert!(Pin::new(&mut rx).poll(&mut cx).is_pending());
        tx.send(3i64);
        assert_eq!(Pin::new(&mut rx).poll(&mut cx), Poll::Ready(Ok(3)));
    }
}
