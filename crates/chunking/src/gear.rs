//! The gear table and mask machinery behind gear-hash chunking.
//!
//! A gear hash replaces the Rabin rolling window with a single shift-add
//! per byte: `fp = (fp << 1) + GEAR[b]`. Each incorporated byte's random
//! 64-bit gear value marches one bit to the left per subsequent byte, so
//! bit `p` of the hash depends on (at most) the last `p + 1` input bytes —
//! an *implicit* sliding window, with no explicit out-rolling and no
//! per-chunk window priming. That is the whole trick behind FastCDC-family
//! chunkers being 5–10× faster than the 48-byte-window, 1-byte-step Rabin
//! scan ("A Thorough Investigation of Content-Defined Chunking Algorithms
//! for Data Deduplication").
//!
//! Because the low bits of a gear hash see only a few recent bytes, the
//! boundary masks produced here ([`spread_mask`]) place their bits in the
//! upper 48 bit positions, giving every mask bit an effective window of at
//! least [`MIN_MASK_BIT`] bytes.
//!
//! # Determinism contract
//!
//! The table is a `const` computed at compile time from a pinned seed by a
//! pinned PRNG (splitmix64). Every fingerprint in the fleet depends on it:
//! changing [`GEAR_SEED`], the generator, or the mask layout silently
//! re-chunks the world and destroys cross-version dedup. The golden-vector
//! test (`tests/golden_fastcdc.rs`) pins the table and the masks so no
//! such change can land unnoticed.

/// Seed of the gear table. Pinned forever: see the module docs.
pub const GEAR_SEED: u64 = 0x4AA0_DEDB_0C5E_ED01;

/// Lowest bit position a boundary mask may use. Mask bit `p` of a gear
/// hash is influenced by the last `p + 1` bytes, so this is also the
/// minimum effective window (in bytes) of any single mask bit.
pub const MIN_MASK_BIT: u32 = 16;

/// The number of recent bytes that can influence the masked hash at all:
/// bits above 63 are shifted out, so byte contributions older than 64
/// positions are gone entirely.
pub const GEAR_WINDOW: usize = 64;

/// One splitmix64 step: advances the state and returns the next output.
/// Pinned algorithm (Steele et al., the `SplittableRandom` finalizer) —
/// part of the fingerprint-stability contract.
const fn splitmix64(state: u64) -> (u64, u64) {
    let state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (state, z ^ (z >> 31))
}

const fn build_gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state = GEAR_SEED;
    let mut rest: &mut [u64] = &mut table;
    while let [entry, tail @ ..] = rest {
        let (next, value) = splitmix64(state);
        state = next;
        *entry = value;
        rest = tail;
    }
    table
}

/// The 256-entry gear table: one pinned random 64-bit value per byte,
/// generated at *compile time* — no runtime initialisation, no laziness,
/// no ordering hazards.
pub const GEAR: [u64; 256] = build_gear_table();

/// A boundary mask with `bits` one-bits spread evenly across bit positions
/// [`MIN_MASK_BIT`]..=63. Spreading (rather than packing the bits
/// contiguously) decorrelates the mask bits' effective windows, which
/// empirically flattens the chunk-size distribution; anchoring above
/// [`MIN_MASK_BIT`] keeps every bit's window deep enough that single-byte
/// periodic data cannot satisfy the mask at every position.
///
/// `bits` must be in `1..=48`; the positions are strictly decreasing from
/// bit 63, so the popcount is exactly `bits`.
///
/// # Panics
///
/// If `bits` is outside `1..=48` (at compile time in a const context).
pub const fn spread_mask(bits: u32) -> u64 {
    assert!(bits >= 1 && bits <= 48, "mask bits must be in 1..=48");
    let span = 63 - MIN_MASK_BIT; // inclusive position range 16..=63
    let mut mask = 0u64;
    let mut i = 0;
    while i < bits {
        // Evenly spaced over [MIN_MASK_BIT, 63], highest first. The step
        // span/(bits-1) is >= 1 for bits <= 48, so positions are distinct.
        let pos = if bits == 1 { 63 } else { 63 - (i * span) / (bits - 1) };
        mask |= 1u64 << pos;
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_no_trivial_entries() {
        for (i, &v) in GEAR.iter().enumerate() {
            assert_ne!(v, 0, "GEAR[{i}] is zero");
        }
    }

    #[test]
    fn table_entries_are_distinct() {
        let mut sorted: Vec<u64> = GEAR.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 256, "gear entries collide");
    }

    #[test]
    fn table_bits_are_balanced() {
        // A healthy random table has ~50% ones overall; a generator bug
        // (e.g. truncation to 32 bits) would skew this badly.
        let ones: u32 = GEAR.iter().map(|v| v.count_ones()).sum();
        let total = 256 * 64;
        assert!(
            (total * 45 / 100..=total * 55 / 100).contains(&ones),
            "gear table bit balance off: {ones}/{total}"
        );
    }

    #[test]
    fn spread_mask_popcount_and_range() {
        for bits in 1..=48u32 {
            let m = spread_mask(bits);
            assert_eq!(m.count_ones(), bits, "bits={bits}");
            assert_eq!(m & ((1u64 << MIN_MASK_BIT) - 1), 0, "low bits used at bits={bits}");
            assert_ne!(m & (1u64 << 63), 0, "top bit unused at bits={bits}");
        }
    }

    #[test]
    fn spread_mask_is_monotone_in_selectivity() {
        // More bits = harder to satisfy: the containment need not hold,
        // but popcount ordering must.
        for bits in 1..48u32 {
            assert!(spread_mask(bits).count_ones() < spread_mask(bits + 1).count_ones());
        }
    }
}
