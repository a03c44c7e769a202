//! L3 fixtures: blocking calls while a `MutexGuard` is live.

use std::sync::mpsc::{Receiver, SendError, Sender};
use std::sync::Mutex;

pub fn sends_under_lock(state: &Mutex<u32>, tx: &Sender<u32>) {
    let guard = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if tx.send(*guard).is_err() {
        return;
    }
}

pub fn recv_on_temporary(jobs: &Mutex<Receiver<u32>>) -> Option<u32> {
    let job = jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).recv().ok();
    job
}

pub fn drops_before_send(state: &Mutex<u32>, tx: &Sender<u32>) -> Result<(), SendError<u32>> {
    let guard = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let value = *guard;
    drop(guard);
    tx.send(value)
}
