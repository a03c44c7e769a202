//! Fixture crate root: one module per rule family.

pub mod l2_determinism;
pub mod l3_locks;
pub mod cross_crate;
pub mod l5_lock_order;
pub mod l7_fallibility;
