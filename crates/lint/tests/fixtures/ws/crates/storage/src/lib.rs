//! Second fixture crate: the cross-crate call-graph linking target.
//! Not a dedup-decision crate, so its own public API is never reported;
//! the panic below matters only through callers in `core`.

/// The weight at `i`; panics when out of range.
pub fn nth_weight(table: &[u32], i: usize) -> u32 {
    table[i]
}
