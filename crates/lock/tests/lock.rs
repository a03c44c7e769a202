//! `Lock`'s three policies: one lock per thread at a time and no blocking
//! call under a lock (debug builds), and poison ignored.

use aadedupe_lock::Lock;
use std::sync::Barrier;
use std::thread;

#[test]
fn a_dropped_guard_frees_the_thread_to_lock_again() {
    let (alpha, beta) = (Lock::new(1), Lock::new(2));
    let a = alpha.lock();
    drop(a);
    let b = beta.lock();
    assert_eq!(*b, 2);
    drop(b);
    assert_eq!(*alpha.lock(), 1);
}

#[test]
fn two_threads_may_each_hold_a_different_lock() {
    let (alpha, beta) = (Lock::new(0), Lock::new(0));
    let both_held = Barrier::new(2);
    thread::scope(|s| {
        for lock in [&alpha, &beta] {
            let both_held = &both_held;
            s.spawn(move || {
                let mut g = lock.lock();
                both_held.wait();
                *g += 1;
            });
        }
    });
    assert_eq!(*alpha.lock(), 1);
    assert_eq!(*beta.lock(), 1);
}

#[test]
fn the_next_lock_after_a_holder_panicked_succeeds() {
    let lock = Lock::new(Vec::new());
    let died = thread::scope(|s| {
        aadedupe_lock::join_scoped(s.spawn(|| {
            let mut g = lock.lock();
            g.push(1);
            panic!("holder dies with the lock");
        }))
    });
    assert!(died.is_err());
    lock.lock().push(2);
    assert_eq!(*lock.lock(), vec![1, 2]);
}

/// The checks release builds compile out.
#[cfg(debug_assertions)]
mod one_lock_at_a_time {
    use aadedupe_lock::Lock;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Condvar};
    use std::thread;
    use std::time::Duration;

    const BLOCKING: &str = "blocking call under a lock";

    /// The message `call` panicked with; panics if it returned.
    fn refused<T>(call: impl FnOnce() -> T) -> String {
        match catch_unwind(AssertUnwindSafe(call)) {
            Ok(_) => panic!("the call was not refused"),
            Err(payload) => *payload.downcast::<String>().expect("a formatted message"),
        }
    }

    #[test]
    fn every_blocking_call_under_a_live_guard_panics() {
        let state = Lock::new(0);
        let (tx, rx) = mpsc::sync_channel(1);
        let guard = state.lock();
        assert!(refused(|| aadedupe_lock::send(&tx, 1)).contains(BLOCKING));
        assert!(refused(|| aadedupe_lock::recv(&rx)).contains(BLOCKING));
        assert!(refused(|| aadedupe_lock::recv_timeout(&rx, Duration::ZERO)).contains(BLOCKING));
        assert!(refused(|| aadedupe_lock::join(thread::spawn(|| 2))).contains(BLOCKING));
        thread::scope(|s| {
            assert!(refused(|| aadedupe_lock::join_scoped(s.spawn(|| 3))).contains(BLOCKING));
        });
        drop(guard);
        aadedupe_lock::send(&tx, 1).expect("receiver alive");
        assert_eq!(aadedupe_lock::recv(&rx), Ok(1));
        aadedupe_lock::send(&tx, 4).expect("receiver alive");
        assert_eq!(aadedupe_lock::recv_timeout(&rx, Duration::ZERO), Ok(4));
        assert_eq!(aadedupe_lock::join(thread::spawn(|| 2)).ok(), Some(2));
        let joined = thread::scope(|s| aadedupe_lock::join_scoped(s.spawn(|| 3)).ok());
        assert_eq!(joined, Some(3));
    }

    #[test]
    fn a_blocking_call_on_a_temporary_guard_panics() {
        let (tx, rx) = mpsc::sync_channel(1);
        let jobs = Lock::new(rx);
        aadedupe_lock::send(&tx, 7).expect("receiver alive");
        // The guard lives until the statement ends, across the `recv`.
        assert!(refused(|| aadedupe_lock::recv(&jobs.lock())).contains(BLOCKING));
        // Taken out of the lock, the receiver blocks with no guard live.
        let rx = std::mem::replace(&mut *jobs.lock(), mpsc::sync_channel(1).1);
        assert_eq!(aadedupe_lock::recv(&rx), Ok(7));
    }

    #[test]
    #[should_panic(expected = "one lock at a time")]
    fn a_second_lock_on_one_thread_panics() {
        let (alpha, beta) = (Lock::new(1), Lock::new(2));
        let _a = alpha.lock();
        let _b = beta.lock();
    }

    #[test]
    fn a_guard_back_from_wait_while_is_still_the_held_lock() {
        let (state, other) = (Lock::new(false), Lock::new(0));
        let turn = Condvar::new();
        thread::scope(|s| {
            s.spawn(|| {
                *state.lock() = true;
                turn.notify_all();
            });
            let ready = state.lock().wait_while(&turn, |ready| !*ready);
            assert!(*ready);
            let nested = catch_unwind(AssertUnwindSafe(|| *other.lock()));
            assert!(nested.is_err(), "the woken guard must still count as this thread's lock");
            drop(ready);
            assert_eq!(*other.lock(), 0, "dropping the woken guard releases it");
        });
    }
}
