//! Property-based tests for the cloud simulator.

use proptest::prelude::*;

use aadedupe_cloud::{CloudSim, ObjectStore, PriceModel, WanModel};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..256))
                .prop_map(|(k, v)| Op::Put(k, v)),
            any::<u8>().prop_map(Op::Get),
            any::<u8>().prop_map(Op::Delete),
        ],
        0..100,
    )
}

proptest! {
    /// The object store behaves like a HashMap with exact accounting.
    #[test]
    fn store_matches_reference_model(ops in arb_ops()) {
        let store = ObjectStore::new();
        let mut model: std::collections::HashMap<u8, Vec<u8>> = Default::default();
        let (mut puts, mut gets, mut dels, mut bytes_in, mut bytes_out) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    puts += 1;
                    bytes_in += v.len() as u64;
                    store.put(&format!("k/{k}"), v.clone()).unwrap();
                    model.insert(k, v);
                }
                Op::Get(k) => {
                    gets += 1;
                    let got = store.get(&format!("k/{k}")).unwrap();
                    if let Some(v) = &got {
                        bytes_out += v.len() as u64;
                    }
                    prop_assert_eq!(got.as_deref(), model.get(&k));
                }
                Op::Delete(k) => {
                    dels += 1;
                    prop_assert_eq!(store.delete(&format!("k/{k}")).unwrap(), model.remove(&k).is_some());
                }
            }
        }
        let s = store.stats();
        prop_assert_eq!(s.put_requests, puts);
        prop_assert_eq!(s.get_requests, gets);
        prop_assert_eq!(s.delete_requests, dels);
        prop_assert_eq!(s.bytes_in, bytes_in);
        prop_assert_eq!(s.bytes_out, bytes_out);
        prop_assert_eq!(store.object_count(), model.len());
        prop_assert_eq!(store.stored_bytes(), model.values().map(|v| v.len() as u64).sum::<u64>());
    }

    /// Listing returns exactly the prefix-matching keys, sorted.
    #[test]
    fn listing_sorted_and_filtered(keys in proptest::collection::vec("[a-c]/[a-z]{1,4}", 0..30)) {
        let store = ObjectStore::new();
        for k in &keys {
            store.put(k, vec![]).unwrap();
        }
        for prefix in ["a/", "b/", "c/", ""] {
            let listed = store.list(prefix);
            prop_assert!(listed.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            let mut expected: Vec<String> = keys.iter()
                .filter(|k| k.starts_with(prefix)).cloned().collect();
            expected.sort();
            expected.dedup();
            prop_assert_eq!(listed, expected);
        }
    }

    /// WAN transfer time is additive and monotone in bytes.
    #[test]
    fn wan_time_monotone(a in 0u64..1 << 32, b in 0u64..1 << 32) {
        let wan = WanModel::paper_defaults();
        prop_assert!(wan.upload_time(a + b) >= wan.upload_time(a));
        // One big transfer beats two small ones (per-request overhead).
        let combined = wan.upload_time(a + b);
        let split = wan.upload_time(a) + wan.upload_time(b);
        prop_assert!(combined <= split);
        prop_assert!(wan.download_time(a) <= wan.upload_time(a), "download link is faster");
    }

    /// Cost model: linear in each component, zero at zero.
    #[test]
    fn cost_linear(stored in 0u64..1 << 40, uploaded in 0u64..1 << 40, reqs in 0u64..1 << 20) {
        let p = PriceModel::s3_april_2011();
        let c1 = p.monthly_cost(stored, uploaded, reqs);
        let c2 = p.monthly_cost(stored * 2, uploaded * 2, reqs * 2);
        prop_assert!((c2.total() - 2.0 * c1.total()).abs() < 1e-6 * c1.total().max(1.0));
        prop_assert_eq!(p.monthly_cost(0, 0, 0).total(), 0.0);
    }

    /// CloudSim clock advances by exactly the sum of transfer times.
    #[test]
    fn clock_is_sum_of_transfers(payloads in proptest::collection::vec(0usize..200_000, 1..10)) {
        let cloud = CloudSim::with_paper_defaults();
        let mut expected = std::time::Duration::ZERO;
        for (i, n) in payloads.iter().enumerate() {
            expected += cloud.put(&format!("o/{i}"), vec![0u8; *n]).unwrap();
        }
        prop_assert_eq!(cloud.elapsed(), expected);
    }
}
