//! L2 fixtures: the hash-order traversal clippy cannot name by path,
//! `into_iter` on a `HashMap` binding, with and without a sorted sink.

use std::collections::{BTreeMap, HashMap};

pub fn leaks_hash_order(m: HashMap<u64, u32>) -> Vec<(u64, u32)> {
    m.into_iter().collect::<Vec<_>>()
}

pub fn sorted_is_clean(m: HashMap<u64, u32>) -> BTreeMap<u64, u32> {
    m.into_iter().collect::<BTreeMap<_, _>>()
}
