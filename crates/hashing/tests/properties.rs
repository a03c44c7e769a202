//! Property-based tests for the hash substrate.

use proptest::prelude::*;

use aadedupe_hashing::rabin::{self, gf2, RabinFingerprinter, RollingHash};
use aadedupe_hashing::{md5, rabin96, sha1, Md5, Sha1};

proptest! {
    /// Streaming (arbitrary split points) equals one-shot for MD5/SHA-1.
    #[test]
    fn streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        splits in proptest::collection::vec(0usize..20_000, 0..8),
    ) {
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();

        let mut m = Md5::new();
        let mut s = Sha1::new();
        let mut r = RabinFingerprinter::new();
        for w in cuts.windows(2) {
            m.update(&data[w[0]..w[1]]);
            s.update(&data[w[0]..w[1]]);
            r.update(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(m.finalize(), md5(&data));
        prop_assert_eq!(s.finalize(), sha1(&data));
        prop_assert_eq!(r.finish(), RabinFingerprinter::fingerprint(&data));
    }

    /// The rolling hash over any window position equals the direct hash of
    /// that window.
    #[test]
    fn rolling_equals_direct(
        data in proptest::collection::vec(any::<u8>(), 64..4096),
        window in 1usize..64,
    ) {
        let mut rh = RollingHash::new(window);
        for &b in &data[..window] {
            rh.push(b);
        }
        prop_assert_eq!(rh.value(), RollingHash::hash_window(&data[..window], window));
        // Check a handful of positions including the last.
        let mut positions = vec![data.len() - 1];
        positions.extend([window, window + 1, data.len() / 2].iter().copied()
            .filter(|&p| p < data.len() && p >= window));
        let mut rh2 = RollingHash::new(window);
        for &b in &data[..window] {
            rh2.push(b);
        }
        for i in window..data.len() {
            rh2.roll(data[i - window], data[i]);
            if positions.contains(&i) {
                prop_assert_eq!(
                    rh2.value(),
                    RollingHash::hash_window(&data[i + 1 - window..=i], window),
                    "position {}", i
                );
            }
        }
    }

    /// The stateless steps are the stateful ones with the state in the
    /// caller's hands: any mix of pushes and rolls, over the shared default
    /// tables (window 48) and over freshly built ones, agrees step by step.
    #[test]
    fn pushed_and_rolled_equal_push_and_roll(
        window in prop_oneof![Just(rabin::DEFAULT_WINDOW), 1usize..64],
        steps in proptest::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 1..300),
    ) {
        let mut rh = RollingHash::new(window);
        let tables = RollingHash::new(window);
        let mut fp = 0u64;
        for (roll, outgoing, incoming) in steps {
            if roll {
                rh.roll(outgoing, incoming);
                fp = tables.rolled(fp, outgoing, incoming);
            } else {
                rh.push(incoming);
                fp = tables.pushed(fp, incoming);
            }
            prop_assert_eq!(rh.value(), fp);
        }
        prop_assert_eq!(tables.value(), 0, "the stateless steps leave the receiver alone");
    }

    /// Rabin fingerprints are linear-free: appending data changes the
    /// fingerprint (no trivial extension fixed points for nonempty tails).
    #[test]
    fn rabin_sensitive_to_extension(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        tail in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let base = RabinFingerprinter::fingerprint(&data);
        let mut extended = data.clone();
        extended.extend_from_slice(&tail);
        // Equal only with probability ~2^-53; treat equality as failure.
        prop_assert_ne!(base, RabinFingerprinter::fingerprint(&extended));
    }

    /// The extended 96-bit fingerprint distinguishes mutated inputs.
    #[test]
    fn extended_fingerprint_detects_mutation(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        idx in any::<usize>(),
        delta in 1u8..=255,
    ) {
        let idx = idx % data.len();
        let mut mutated = data.clone();
        mutated[idx] ^= delta;
        prop_assert_ne!(rabin96(&data), rabin96(&mutated));
    }

    /// pmod really is a remainder: degree(pmod(a,m)) < degree(m), and the
    /// operation is idempotent.
    #[test]
    fn pmod_contract(a in any::<u64>(), m in 2u64..) {
        let r = gf2::pmod(a, m);
        prop_assert!(gf2::degree(r) < gf2::degree(m));
        prop_assert_eq!(gf2::pmod(r, m), r);
    }

    /// Carry-less modular multiplication is commutative and distributes
    /// over XOR (the GF(2) addition).
    #[test]
    fn pmulmod_ring_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let m = rabin::POLY_53;
        prop_assert_eq!(gf2::pmulmod(a, b, m), gf2::pmulmod(b, a, m));
        prop_assert_eq!(
            gf2::pmulmod(a, b ^ c, m),
            gf2::pmulmod(a, b, m) ^ gf2::pmulmod(a, c, m)
        );
        // Multiplying by x then dividing the exponent chain agrees with
        // xpowmod.
        prop_assert_eq!(gf2::pmulmod(gf2::xpowmod(8, m), gf2::xpowmod(16, m), m), gf2::xpowmod(24, m));
    }

    /// Digests of distinct random inputs collide with negligible
    /// probability — a smoke test that no algorithm degenerates.
    #[test]
    fn no_trivial_collisions(
        a in proptest::collection::vec(any::<u8>(), 0..512),
        b in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(md5(&a), md5(&b));
        prop_assert_ne!(sha1(&a), sha1(&b));
        prop_assert_ne!(rabin96(&a), rabin96(&b));
    }
}
