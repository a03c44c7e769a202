//! Property-based tests for the index substrate: model-based checking
//! against a plain `HashMap` reference.

#![expect(clippy::disallowed_methods, reason = "test code: the HashMap model is compared as a set")]

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use aadedupe_filetype::AppType;
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::{AppAwareIndex, ChunkEntry, MonolithicIndex};

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u64),
    Lookup(u8),
    /// Nothing references the keys at or above the bound any more.
    KeepBelow(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            any::<u8>().prop_map(Op::Lookup),
            any::<u8>().prop_map(Op::KeepBelow),
        ],
        0..200,
    )
}

fn fp(k: u8) -> Fingerprint {
    Fingerprint::compute(HashAlgorithm::Sha1, &[k])
}

proptest! {
    /// The monolithic index behaves like a first-insert-wins HashMap whose
    /// keys leave only by wholesale replacement.
    #[test]
    fn monolithic_matches_reference_model(ops in arb_ops()) {
        let index = MonolithicIndex::new(1 << 12);
        let mut model: HashMap<u8, ChunkEntry> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let entry = ChunkEntry::new(v, 0, 0);
                    prop_assert_eq!(index.insert(fp(k), entry), !model.contains_key(&k));
                    model.entry(k).or_insert(entry);
                }
                Op::Lookup(k) => prop_assert_eq!(index.lookup(&fp(k)), model.get(&k).copied()),
                Op::KeepBelow(bound) => {
                    let before = model.len();
                    model.retain(|k, _| *k < bound);
                    let truth = model.iter().map(|(k, e)| (fp(*k), *e));
                    prop_assert_eq!(index.reconcile(truth), (before - model.len(), 0));
                }
            }
            prop_assert_eq!(index.len(), model.len());
        }
    }

    /// Partitions are mutually invisible: operations under one app never
    /// affect lookups under another.
    #[test]
    fn app_partitions_are_isolated(
        ops in arb_ops(),
        app_a in 0usize..13,
        app_b in 0usize..13,
    ) {
        prop_assume!(app_a != app_b);
        let a = AppType::ALL[app_a];
        let b = AppType::ALL[app_b];
        let index = AppAwareIndex::new(1 << 12);
        for op in &ops {
            match op {
                Op::Insert(k, v) => { index.insert(a, fp(*k), ChunkEntry::new(*v, 0, 0)); }
                Op::Lookup(k) => { index.lookup(a, &fp(*k)); }
                Op::KeepBelow(bound) => {
                    let part = index.partition(a);
                    let below: HashSet<Fingerprint> = (0..*bound).map(fp).collect();
                    part.reconcile(part.dump().into_iter().filter(|(f, _)| below.contains(f)));
                }
            }
        }
        // Partition b never saw anything.
        for op in &ops {
            if let Op::Insert(k, _) = op {
                prop_assert!(index.lookup(b, &fp(*k)).is_none());
            }
        }
        prop_assert_eq!(index.partition(b).len(), 0);
    }
}
