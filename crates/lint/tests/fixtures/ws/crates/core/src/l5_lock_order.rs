//! L5 fixtures: opposite-order acquisition of two named locks is
//! reported; one order only is not.

use std::sync::Mutex;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
    gamma: Mutex<u32>,
    delta: Mutex<u32>,
}

impl Pair {
    pub(crate) fn forward(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let b = self.beta.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *a + *b
    }

    pub(crate) fn backward(&self) -> u32 {
        let b = self.beta.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let a = self.alpha.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *a - *b
    }

    pub(crate) fn gamma_then_delta(&self) -> u32 {
        let g = self.gamma.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let d = self.delta.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *g + *d
    }
}
