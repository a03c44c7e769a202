//! `Lock`'s two policies: one lock per thread at a time (debug builds),
//! and poison ignored.

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
        s.spawn(|| {
            let mut g = lock.lock();
            g.push(1);
            panic!("holder dies with the lock");
        })
        .join()
    });
    assert!(died.is_err());
    lock.lock().push(2);
    assert_eq!(*lock.lock(), vec![1, 2]);
}

/// The check release builds compile out.
#[cfg(debug_assertions)]
mod one_lock_at_a_time {
    use aadedupe_lock::Lock;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Condvar;
    use std::thread;

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
