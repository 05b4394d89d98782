//! Offline stand-in for `crossbeam-channel`.
//!
//! The engine's only remaining use of the crate is the event-count
//! [`Waker`] a pooled-executor worker parks on: a notifier bumps the waker's
//! generation, and a waiter blocks only while the generation it captured
//! (its [`WakeToken`]) is still current, which rules out lost wakeups
//! without requiring the waiter to hold any queue lock.  Built on
//! `std::sync::{Mutex, Condvar}`.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

struct WakerInner {
    /// Event-count generation: bumped on every notification.
    generation: Mutex<u64>,
    condvar: Condvar,
}

impl WakerInner {
    fn notify(&self) {
        let mut generation = self.generation.lock().unwrap_or_else(|e| e.into_inner());
        *generation = generation.wrapping_add(1);
        drop(generation);
        self.condvar.notify_all();
    }
}

/// A wait handle shared between a parked waiter and its notifiers.
/// Notifiers bump the waker's generation; the waiter captures the generation
/// *before* scanning for work and then sleeps only while the generation is
/// unchanged, so an event that arrives mid-scan can never be lost.
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl Waker {
    /// Creates a fresh waker with no registrations.
    pub fn new() -> Self {
        Waker { inner: Arc::new(WakerInner { generation: Mutex::new(0), condvar: Condvar::new() }) }
    }

    /// Captures the current generation.  Pass the token to [`Waker::wait`]
    /// after scanning for work: any notification since the capture makes the
    /// wait return immediately.
    pub fn token(&self) -> WakeToken {
        WakeToken(*self.inner.generation.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Blocks until the generation moves past `token` (i.e. until at least
    /// one notification has happened since the token was captured).
    pub fn wait(&self, token: WakeToken) {
        let mut generation = self.inner.generation.lock().unwrap_or_else(|e| e.into_inner());
        while *generation == token.0 {
            generation = self.inner.condvar.wait(generation).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Manually bumps the generation, releasing any waiter.
    pub fn notify(&self) {
        self.inner.notify();
    }
}

impl Default for Waker {
    fn default() -> Self {
        Waker::new()
    }
}

impl fmt::Debug for Waker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Waker").finish_non_exhaustive()
    }
}

/// A captured [`Waker`] generation (see [`Waker::token`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeToken(u64);

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn waker_token_prevents_lost_wakeups() {
        let waker = Waker::new();
        let token = waker.token();
        waker.notify();
        // The notification happened after the capture: wait returns at once.
        waker.wait(token);
        assert_ne!(waker.token(), token, "the notification moved the generation");
    }

    #[test]
    fn wait_blocks_until_another_thread_notifies() {
        let waker = Arc::new(Waker::new());
        let token = waker.token();
        let notifier = {
            let waker = Arc::clone(&waker);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                waker.notify();
            })
        };
        waker.wait(token);
        notifier.join().unwrap();
    }
}
