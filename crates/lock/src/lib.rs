#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! [`Lock`]: the workspace's one mutex, and the blocking calls that must
//! not be made under it.
//!
//! Every lock in the engine is a `Lock`; the `clippy.toml` files
//! disallow `std::sync::Mutex` and `std::sync::RwLock` everywhere else.
//! It carries three policies that used to be repeated at each site:
//!
//! - **Poison is ignored.** A lock is poisoned only by a thread that
//!   panicked while holding it, and that panic is raised by whoever
//!   joins the thread; the data stays usable for the unwinding paths.
//! - **One lock at a time.** In debug builds [`Lock::lock`] panics when
//!   the calling thread already holds a `Lock`, so no two locks are ever
//!   nested and no lock-order deadlock can form.
//! - **No blocking call under a lock.** [`send`], [`recv`],
//!   [`recv_timeout`], [`join`] and [`join_scoped`] wait on another
//!   thread; in debug builds each panics when the calling thread holds a
//!   `Lock`, so a thread never sleeps on a channel or a join while others
//!   wait on its guard. The `clippy.toml` files disallow the std methods
//!   they wrap. `Sender::send` is not among them: an unbounded channel
//!   never blocks.
//!
//! Every test binary runs both debug checks on every path it reaches;
//! release builds compile them out. They stay silent while the thread
//! unwinds, so a second panic never aborts a test binary.

use std::ops::{Deref, DerefMut};
use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError, SendError, SyncSender};
use std::sync::{Condvar, MutexGuard, PoisonError};
use std::thread::{JoinHandle, ScopedJoinHandle};
use std::time::Duration;

/// A mutex that ignores poison and, in debug builds, refuses to nest.
#[derive(Debug, Default)]
pub struct Lock<T> {
    #[expect(
        clippy::disallowed_types,
        reason = "the one `Mutex` every other lock is built on"
    )]
    inner: std::sync::Mutex<T>,
}

/// The guard [`Lock::lock`] returns: the calling thread holds its one
/// lock until this drops.
#[derive(Debug)]
pub struct LockGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Lock<T> {
    /// A new, unlocked `Lock` holding `value`.
    #[expect(
        clippy::disallowed_types,
        reason = "the one `Mutex` every other lock is built on"
    )]
    pub const fn new(value: T) -> Self {
        Lock {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Blocks until the lock is free and takes it, poisoned or not.
    ///
    /// # Panics
    ///
    /// In debug builds, when the calling thread already holds a `Lock`
    /// and is not unwinding.
    pub fn lock(&self) -> LockGuard<'_, T> {
        // Checked before blocking: re-taking the lock this thread holds
        // panics instead of deadlocking.
        let held = Held::take();
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        LockGuard { guard, _held: held }
    }

    /// The value, poisoned or not. Takes no lock: owning the `Lock`
    /// means no thread can hold it.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> LockGuard<'_, T> {
    /// Releases the lock, blocks until `turn` is notified, and takes the
    /// lock again. The thread counts as holding it throughout: it can
    /// take no other lock while it waits.
    pub fn wait(self, turn: &Condvar) -> Self {
        let LockGuard { guard, _held } = self;
        let guard = turn.wait(guard).unwrap_or_else(PoisonError::into_inner);
        LockGuard { guard, _held }
    }

    /// [`wait`](Self::wait) until `condition` is false.
    pub fn wait_while(self, turn: &Condvar, condition: impl FnMut(&mut T) -> bool) -> Self {
        let LockGuard { guard, _held } = self;
        let guard = turn
            .wait_while(guard, condition)
            .unwrap_or_else(PoisonError::into_inner);
        LockGuard { guard, _held }
    }
}

impl<T> Deref for LockGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for LockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// [`SyncSender::send`]: blocks while the channel is full.
///
/// # Panics
///
/// In debug builds, when the calling thread holds a `Lock` and is not
/// unwinding.
#[expect(clippy::disallowed_methods, reason = "the one call site of the raw method")]
pub fn send<T>(tx: &SyncSender<T>, value: T) -> Result<(), SendError<T>> {
    refuse_under_lock("send");
    tx.send(value)
}

/// [`Receiver::recv`]: blocks until a message arrives.
///
/// # Panics
///
/// In debug builds, when the calling thread holds a `Lock` and is not
/// unwinding.
#[expect(clippy::disallowed_methods, reason = "the one call site of the raw method")]
pub fn recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    refuse_under_lock("recv");
    rx.recv()
}

/// [`Receiver::recv_timeout`]: blocks until a message arrives or
/// `timeout` passes.
///
/// # Panics
///
/// In debug builds, when the calling thread holds a `Lock` and is not
/// unwinding.
#[expect(clippy::disallowed_methods, reason = "the one call site of the raw method")]
pub fn recv_timeout<T>(rx: &Receiver<T>, timeout: Duration) -> Result<T, RecvTimeoutError> {
    refuse_under_lock("recv_timeout");
    rx.recv_timeout(timeout)
}

/// [`JoinHandle::join`]: blocks until the thread ends.
///
/// # Panics
///
/// In debug builds, when the calling thread holds a `Lock` and is not
/// unwinding.
#[expect(clippy::disallowed_methods, reason = "the one call site of the raw method")]
pub fn join<T>(handle: JoinHandle<T>) -> std::thread::Result<T> {
    refuse_under_lock("join");
    handle.join()
}

/// [`ScopedJoinHandle::join`]: blocks until the scoped thread ends.
///
/// # Panics
///
/// In debug builds, when the calling thread holds a `Lock` and is not
/// unwinding.
#[expect(clippy::disallowed_methods, reason = "the one call site of the raw method")]
pub fn join_scoped<T>(handle: ScopedJoinHandle<'_, T>) -> std::thread::Result<T> {
    refuse_under_lock("join");
    handle.join()
}

/// The calling thread's claim on its one lock: counted per thread in
/// debug builds, nothing in release builds.
#[derive(Debug)]
struct Held;

#[cfg(debug_assertions)]
thread_local! {
    /// How many `Held` the thread owns: 1 at most, except while unwinding.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Whether the calling thread holds a `Lock` and is not unwinding; always
/// `false` in release builds.
fn holds_a_lock() -> bool {
    #[cfg(debug_assertions)]
    {
        HELD.with(|held| held.get() > 0) && !std::thread::panicking()
    }
    #[cfg(not(debug_assertions))]
    {
        false
    }
}

/// The no-blocking-under-a-lock rule: panics before `call` would block
/// while the calling thread holds a `Lock`.
#[expect(clippy::panic, reason = "the no-blocking-call-under-a-lock rule")]
fn refuse_under_lock(call: &str) {
    if holds_a_lock() {
        panic!(
            "blocking call under a lock: this thread holds a `Lock` across `{call}`; drop its \
             guard first"
        );
    }
}

impl Held {
    #[expect(clippy::panic, reason = "the one-lock-at-a-time rule")]
    fn take() -> Held {
        if holds_a_lock() {
            panic!("one lock at a time: this thread already holds a `Lock`; drop its guard first");
        }
        #[cfg(debug_assertions)]
        HELD.with(|held| held.set(held.get() + 1));
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get().saturating_sub(1)));
    }
}
