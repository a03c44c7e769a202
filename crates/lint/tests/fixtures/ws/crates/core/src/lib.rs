//! Fixture crate root: one module per rule.

pub mod l2_determinism;
pub mod l3_locks;
