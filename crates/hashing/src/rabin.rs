//! Rabin fingerprinting over GF(2), implemented from scratch.
//!
//! A Rabin fingerprint treats a byte string as a polynomial over GF(2) and
//! reduces it modulo a fixed irreducible polynomial `P`. Two strings collide
//! only if `P` divides the XOR of their polynomials, which for random
//! irreducible `P` of degree `k` happens with probability ≈ `n/2^k` for
//! `n`-bit inputs — AA-Dedupe's justification for using it as a *weak but
//! cheap* whole-file fingerprint.
//!
//! Three facilities are provided:
//!
//! * [`RabinFingerprinter`] — one-shot/streaming 53-bit fingerprints,
//! * [`extended_fingerprint`] — the paper's *extended 12-byte (96-bit) Rabin
//!   hash* for whole-file chunking, built from two independent irreducible
//!   polynomials plus the input length,
//! * [`RollingHash`] — a fixed-window rolling hash (the paper's 48-byte
//!   window, 1-byte step) used by content-defined chunking to find chunk
//!   boundaries.
//!
//! The [`gf2`] submodule contains the polynomial arithmetic (carry-less
//! multiply, mod-reduction, irreducibility test) used both to build the
//! lookup tables and to *prove in the test suite* that the chosen moduli are
//! irreducible.

use std::sync::{Arc, OnceLock};

use crate::byte_entry;

/// Default modulus: an irreducible polynomial of degree 53
/// (`x^53 + x^51 + x^49 + ... `), the same default used by several
/// production CDC implementations descended from LBFS.
pub const POLY_53: u64 = 0x3DA3358B4DC173;

/// Secondary modulus for the extended fingerprint: the primitive trinomial
/// `x^31 + x^3 + 1`.
pub const POLY_31: u64 = 0x8000_0009;

/// Second degree-31 modulus for the extended fingerprint: the primitive
/// trinomial `x^31 + x^13 + 1` (independent of [`POLY_31`]).
pub const POLY_31B: u64 = (1 << 31) | (1 << 13) | 1;

/// GF(2) polynomial arithmetic on `u64`-packed polynomials (bit `i` is the
/// coefficient of `x^i`).
pub mod gf2 {
    /// Degree of a nonzero polynomial; degree of `0` is defined as `-1`.
    pub const fn degree(p: u64) -> i32 {
        63 - p.leading_zeros() as i32
    }

    /// Remainder of `a` modulo `m` (schoolbook long division).
    ///
    /// # Panics
    ///
    /// If `m` is zero.
    pub const fn pmod(mut a: u64, m: u64) -> u64 {
        let dm = degree(m);
        assert!(dm >= 0, "modulus must be nonzero");
        while degree(a) >= dm {
            a ^= m << (degree(a) - dm);
        }
        a
    }

    /// Carry-less product of `a` and `b`, reduced modulo `m`.
    ///
    /// Reduction is interleaved so intermediate values never overflow 64
    /// bits: `a` is reduced first and shifted one bit at a time, so any
    /// nonzero modulus works.
    pub const fn pmulmod(a: u64, b: u64, m: u64) -> u64 {
        let mut result = 0u64;
        let mut shifted = pmod(a, m);
        let mut b = b;
        while b != 0 {
            if b & 1 != 0 {
                result ^= shifted;
            }
            b >>= 1;
            shifted <<= 1;
            shifted = pmod(shifted, m);
        }
        result
    }

    /// `x^e mod m` by square-and-multiply.
    pub const fn xpowmod(e: u64, m: u64) -> u64 {
        let mut result = pmod(1, m);
        let mut base = pmod(2, m); // the polynomial `x`
        let mut e = e;
        while e != 0 {
            if e & 1 != 0 {
                result = pmulmod(result, base, m);
            }
            base = pmulmod(base, base, m);
            e >>= 1;
        }
        result
    }

    /// Polynomial GCD.
    pub fn pgcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let r = pmod(a, b);
            a = b;
            b = r;
        }
        a
    }

    /// Tests irreducibility over GF(2) with the classic criterion:
    /// `f` of degree `d` is irreducible iff `x^(2^d) ≡ x (mod f)` and
    /// `gcd(x^(2^(d/q)) - x, f) = 1` for every prime divisor `q` of `d`.
    pub fn is_irreducible(f: u64) -> bool {
        let d = degree(f);
        if d <= 0 {
            return false;
        }
        let d = d as u64;
        // x^(2^d) mod f, computed by repeated squaring of x.
        let mut t = pmod(2, f);
        for _ in 0..d {
            t = pmulmod(t, t, f);
        }
        if t != pmod(2, f) {
            return false;
        }
        for q in prime_divisors(d) {
            let mut t = pmod(2, f);
            for _ in 0..(d / q) {
                t = pmulmod(t, t, f);
            }
            // gcd(x^(2^(d/q)) + x, f) must be trivial.
            if pgcd(t ^ pmod(2, f), f) != 1 {
                return false;
            }
        }
        true
    }

    fn prime_divisors(mut n: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut p = 2;
        while p * p <= n {
            if n.is_multiple_of(p) {
                out.push(p);
                while n.is_multiple_of(p) {
                    n /= p;
                }
            }
            p += 1;
        }
        if n > 1 {
            out.push(n);
        }
        out
    }
}

/// Lookup tables for byte-at-a-time reduction modulo one polynomial.
#[derive(Clone)]
struct Tables {
    degree: u32,
    /// `push[t] = (t << degree) ^ ((t << degree) mod poly)` — XORing it into
    /// a value whose top byte (bits `degree..degree+8`) equals `t` both
    /// clears those bits and adds their residue.
    push: [u64; 256],
}

impl Tables {
    fn new(poly: u64) -> Self {
        let degree = gf2::degree(poly);
        assert!((9..=56).contains(&degree), "modulus degree out of range");
        let degree = degree as u32;
        let mut push = [0u64; 256];
        for (t, entry) in push.iter_mut().enumerate() {
            let shifted = (t as u64) << degree;
            *entry = shifted ^ mod_slow(shifted, poly);
        }
        Tables { degree, push }
    }

    /// `(fp * x^8 + byte) mod poly` in two XORs.
    ///
    /// Indexed in place rather than through [`byte_entry`]: with the
    /// accessor the striped CDC scan compiles to a different register
    /// allocation and runs ≈ 6 % slower (`examples/cdc_rates`).
    #[inline(always)]
    #[expect(clippy::indexing_slicing, reason = "top is masked to 0xff and push is a full [u64; 256]")]
    fn push_byte(&self, fp: u64, byte: u8) -> u64 {
        let top = (fp >> (self.degree - 8)) as usize & 0xff;
        ((fp << 8) | byte as u64) ^ self.push[top]
    }
}

fn mod_slow(a: u64, m: u64) -> u64 {
    gf2::pmod(a, m)
}

/// The extended fingerprint's working modulus: the carry-less product
/// `POLY_31 · POLY_31B` (degree 62). A residue modulo `Q` reduces to the
/// residue modulo either factor.
const Q: u64 = (POLY_31 << 31) ^ (POLY_31 << 13) ^ POLY_31;

/// `t[k][b] = b·x^(shift + 8k) mod Q`: what byte `k` of a `u64` becomes
/// once the value is multiplied by `x^shift`.
const fn q_tables(shift: u64) -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let (mut k, mut tables): (u64, &mut [[u64; 256]]) = (0, &mut t);
    while let [table, rest @ ..] = tables {
        let xk = gf2::xpowmod(shift + 8 * k, Q);
        let (mut b, mut entries): (u64, &mut [u64]) = (0, table);
        while let [entry, tail @ ..] = entries {
            *entry = gf2::pmulmod(xk, b, Q);
            (b, entries) = (b + 1, tail);
        }
        (k, tables) = (k + 1, rest);
    }
    t
}

/// One 8-byte step of the extended fingerprint: `r·x^64 ≡ fold(&T64, r)`.
static T64: [[u64; 256]; 8] = q_tables(64);
/// One step of a chain that sees every other 8-byte word: `x^128`.
static T128: [[u64; 256]; 8] = q_tables(128);

/// XOR of `tables[k][byte k of r]`: `r` times the tables' power of `x`,
/// modulo `Q`, when there is one table per byte of `r`.
#[inline(always)]
fn fold<'a>(tables: impl IntoIterator<Item = &'a [u64; 256]>, r: u64) -> u64 {
    std::iter::zip(tables, r.to_le_bytes()).fold(0, |acc, (t, b)| acc ^ byte_entry(t, b))
}

/// `r·x^(8N) + w` modulo `Q`, for an `N`-byte word `w`, `N < 8`: the
/// bytes of `r` that pass `x^64` go through [`T64`].
fn shift_in<const N: usize>(r: u64, w: u64) -> u64 {
    (r << (8 * N)) ^ w ^ fold(T64.iter().take(N), r >> (64 - 8 * N))
}

/// The word mix of the extended fingerprint's third part.
fn mix_word(aux: u64, w: u32) -> u64 {
    (aux ^ u64::from(w)).wrapping_mul(0xFF51AFD7ED558CCD).rotate_left(29)
}

/// One-shot / streaming Rabin fingerprinter.
///
/// The state is initialised to the residue of a leading `1` byte so that
/// inputs differing only in leading zero bytes fingerprint differently.
///
/// ```
/// use aadedupe_hashing::rabin::RabinFingerprinter;
/// let mut f = RabinFingerprinter::new();
/// f.update(b"hello ");
/// f.update(b"world");
/// let a = f.finish();
/// assert_eq!(a, RabinFingerprinter::fingerprint(b"hello world"));
/// assert_ne!(a, RabinFingerprinter::fingerprint(b"hello worle"));
/// ```
#[derive(Clone)]
pub struct RabinFingerprinter {
    tables: Tables,
    fp: u64,
}

impl Default for RabinFingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl RabinFingerprinter {
    /// Fingerprinter over the default degree-53 modulus [`POLY_53`].
    pub fn new() -> Self {
        Self::with_poly(POLY_53)
    }

    /// Fingerprinter over a caller-supplied irreducible modulus.
    pub fn with_poly(poly: u64) -> Self {
        let tables = Tables::new(poly);
        // Start from the residue of an implicit leading 0x01 byte so that
        // inputs differing only in leading zero bytes fingerprint
        // differently.
        RabinFingerprinter { tables, fp: 1 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        let mut fp = self.fp;
        for &b in data {
            fp = self.tables.push_byte(fp, b);
        }
        self.fp = fp;
    }

    /// Returns the current fingerprint (residue of the absorbed message).
    pub fn finish(&self) -> u64 {
        self.fp
    }

    /// One-shot fingerprint over the default modulus.
    pub fn fingerprint(data: &[u8]) -> u64 {
        let mut f = Self::new();
        f.update(data);
        f.finish()
    }
}

/// The paper's *extended 12-byte Rabin hash* used to fingerprint whole-file
/// chunks of compressed applications.
///
/// Twelve bytes: the message (behind an implicit leading `0x01` byte)
/// modulo [`POLY_31`] and modulo [`POLY_31B`], then a 32-bit multiplicative
/// mix of its 4-byte words seeded with the length. The ~94 combined bits
/// keep accidental collision probability far below hardware error rates
/// for TB-scale personal datasets.
///
/// One pass keeps a single residue modulo their product `Q` (degree 62),
/// unreduced in a `u64`, and reduces it to the two 31-bit residues once at
/// the end (Chinese remainder). Two chains over alternate 8-byte words step
/// by `x^128` through eight table lookups each, independent of one another,
/// and combine once — which is what keeps the weak hash decisively cheaper
/// than MD5, the point of the paper's hash selection (Fig. 3). The word mix
/// is the one serial chain left.
pub fn extended_fingerprint(data: &[u8]) -> [u8; 12] {
    // Chain 1 carries the implicit leading 0x01 byte (leading-zero safety).
    let (mut r0, mut r1) = (0u64, 1u64);
    // Word-mix auxiliary, seeded with the length so equal residues of
    // different-length inputs still yield distinct fingerprints.
    let mut aux = 0x9E3779B97F4A7C15u64 ^ (data.len() as u64);

    let (blocks, rest) = data.as_chunks::<16>();
    for block in blocks {
        // Big-endian: earlier byte = higher-order polynomial coefficient.
        let v = u128::from_be_bytes(*block);
        r0 = (v >> 64) as u64 ^ fold(&T128, r0);
        r1 = v as u64 ^ fold(&T128, r1);
        for shift in [96, 64, 32, 0] {
            aux = mix_word(aux, (v >> shift) as u32);
        }
    }
    let mut r = fold(&T64, r0) ^ r1;
    let (words, bytes) = rest.as_chunks::<4>();
    for w in words {
        let w = u32::from_be_bytes(*w);
        r = shift_in::<4>(r, w.into());
        aux = mix_word(aux, w);
    }
    for &b in bytes {
        r = shift_in::<1>(r, b.into());
        aux = (aux ^ u64::from(b)).wrapping_mul(0xC2B2AE3D27D4EB4F);
    }
    aux ^= aux >> 33;

    let mut out = [0u8; 12];
    out[..4].copy_from_slice(&(gf2::pmod(r, POLY_31) as u32).to_le_bytes());
    out[4..8].copy_from_slice(&(gf2::pmod(r, POLY_31B) as u32).to_le_bytes());
    out[8..12].copy_from_slice(&(aux as u32).to_le_bytes());
    out
}

/// The paper's CDC window: 48 bytes, slid one byte at a time.
pub const DEFAULT_WINDOW: usize = 48;

/// A rolling hash's lookup tables for one window size over [`POLY_53`].
struct RollTables {
    push: Tables,
    /// `pop[b] = (b * x^(8*(window-1))) mod poly` — the contribution of
    /// the byte about to leave, *before* the incoming shift multiplies
    /// everything by another `x^8`.
    pop: [u64; 256],
}

impl RollTables {
    fn new(window: usize) -> Self {
        assert!(window > 0, "window must be nonzero");
        let xw = gf2::xpowmod(8 * (window as u64 - 1), POLY_53);
        let mut pop = [0u64; 256];
        for (b, entry) in pop.iter_mut().enumerate() {
            *entry = gf2::pmulmod(b as u64, xw, POLY_53);
        }
        RollTables { push: Tables::new(POLY_53), pop }
    }
}

/// Fixed-window rolling Rabin hash: the boundary detector of content-defined
/// chunking.
///
/// The window slides one byte at a time (the paper's 48-byte window, 1-byte
/// step); [`RollingHash::roll`] updates the fingerprint in O(1) using a
/// pop-table for the byte leaving the window.
///
/// The tables are shared, never copied: a clone is a reference count, and
/// those for [`DEFAULT_WINDOW`] are built once per process.
/// [`RollingHash::pushed`] / [`RollingHash::rolled`] are the same steps
/// with the state in the caller's hands, so one table set serves several
/// interleaved windows (the striped CDC scan); the stateful API is the
/// reference the property tests hold them to.
///
/// ```
/// use aadedupe_hashing::rabin::RollingHash;
/// let data = b"abcdefghijklmnopqrstuvwxyz0123456789";
/// let mut rh = RollingHash::new(8);
/// // Prime with the first window.
/// for &b in &data[..8] { rh.push(b); }
/// let direct = RollingHash::hash_window(&data[5..13], 8);
/// for i in 8..13 { rh.roll(data[i - 8], data[i]); }
/// assert_eq!(rh.value(), direct);
/// ```
#[derive(Clone)]
pub struct RollingHash {
    tables: Arc<RollTables>,
    fp: u64,
}

impl RollingHash {
    /// Rolling hash with the given window size over [`POLY_53`].
    pub fn new(window: usize) -> Self {
        static DEFAULT: OnceLock<Arc<RollTables>> = OnceLock::new();
        let tables = match window {
            DEFAULT_WINDOW => Arc::clone(DEFAULT.get_or_init(|| Arc::new(RollTables::new(window)))),
            _ => Arc::new(RollTables::new(window)),
        };
        RollingHash { tables, fp: 0 }
    }

    /// `fp` with `incoming` appended: the stateless [`RollingHash::push`].
    #[inline(always)]
    pub fn pushed(&self, fp: u64, incoming: u8) -> u64 {
        self.tables.push.push_byte(fp, incoming)
    }

    /// `fp` slid one byte — `outgoing` leaves, `incoming` enters: the
    /// stateless [`RollingHash::roll`].
    #[inline(always)]
    pub fn rolled(&self, fp: u64, outgoing: u8, incoming: u8) -> u64 {
        self.pushed(fp ^ byte_entry(&self.tables.pop, outgoing), incoming)
    }

    /// Appends `incoming` without expiring anything — used to prime the
    /// first window. Calling this more than `window` times without `roll`
    /// leaves stale contributions in the state.
    #[inline(always)]
    pub fn push(&mut self, incoming: u8) {
        self.fp = self.pushed(self.fp, incoming);
    }

    /// Slides the window one byte: `outgoing` leaves, `incoming` enters.
    #[inline(always)]
    pub fn roll(&mut self, outgoing: u8, incoming: u8) {
        self.fp = self.rolled(self.fp, outgoing, incoming);
    }

    /// Current fingerprint of the window contents.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        self.fp
    }

    /// Resets to the empty-window state.
    pub fn reset(&mut self) {
        self.fp = 0;
    }

    /// Non-rolling reference: the fingerprint a window-sized slice would
    /// have after being pushed byte-by-byte into a fresh state.
    ///
    /// # Panics
    ///
    /// If `window_bytes.len() != window`.
    pub fn hash_window(window_bytes: &[u8], window: usize) -> u64 {
        assert_eq!(window_bytes.len(), window);
        let mut rh = RollingHash::new(window);
        for &b in window_bytes {
            rh.push(b);
        }
        rh.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moduli_are_irreducible() {
        assert!(gf2::is_irreducible(POLY_53), "POLY_53 must be irreducible");
        assert!(gf2::is_irreducible(POLY_31), "POLY_31 must be irreducible");
        assert!(gf2::is_irreducible(POLY_31B), "POLY_31B must be irreducible");
        assert_ne!(POLY_31, POLY_31B);
        // Reducible examples must be rejected.
        assert!(!gf2::is_irreducible(0b110)); // x^2 + x = x(x+1)
        assert!(!gf2::is_irreducible(0b101)); // x^2 + 1 = (x+1)^2
        assert!(gf2::is_irreducible(0b111)); // x^2 + x + 1
        assert!(gf2::is_irreducible(0b1011)); // x^3 + x + 1
    }

    #[test]
    fn gf2_mod_basics() {
        // x^3 mod (x^2 + x + 1): x^3 = (x+1)(x^2+x+1) + 1 => remainder 1.
        assert_eq!(gf2::pmod(0b1000, 0b111), 0b1);
        assert_eq!(gf2::pmod(0, 0b111), 0);
        assert_eq!(gf2::degree(0), -1);
        assert_eq!(gf2::degree(1), 0);
        assert_eq!(gf2::degree(0b1000), 3);
    }

    #[test]
    fn xpowmod_matches_naive() {
        for e in 0..200u64 {
            let naive = {
                let mut acc = gf2::pmod(1, POLY_31);
                for _ in 0..e {
                    acc = gf2::pmulmod(acc, 2, POLY_31);
                }
                acc
            };
            assert_eq!(gf2::xpowmod(e, POLY_31), naive, "e={e}");
        }
    }

    #[test]
    fn table_push_matches_slow_mod() {
        let t = Tables::new(POLY_53);
        let mut fp = 0u64;
        let mut reference = 0u64;
        for b in [0u8, 1, 0xff, 0x80, 0x7f, 42, 0, 0, 255] {
            fp = t.push_byte(fp, b);
            reference = gf2::pmod((reference << 8) ^ b as u64, POLY_53);
            assert_eq!(fp, reference);
        }
    }

    #[test]
    fn leading_zeros_distinguished() {
        assert_ne!(
            RabinFingerprinter::fingerprint(b"\0\0abc"),
            RabinFingerprinter::fingerprint(b"abc")
        );
        assert_ne!(
            RabinFingerprinter::fingerprint(b"\0"),
            RabinFingerprinter::fingerprint(b"")
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let oneshot = RabinFingerprinter::fingerprint(&data);
        for split in [1usize, 3, 1024, 49_999] {
            let mut f = RabinFingerprinter::new();
            for piece in data.chunks(split) {
                f.update(piece);
            }
            assert_eq!(f.finish(), oneshot);
        }
    }

    #[test]
    fn rolling_matches_direct_every_offset() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let w = 48;
        let mut rh = RollingHash::new(w);
        for &b in &data[..w] {
            rh.push(b);
        }
        assert_eq!(rh.value(), RollingHash::hash_window(&data[..w], w));
        for i in w..data.len() {
            rh.roll(data[i - w], data[i]);
            assert_eq!(
                rh.value(),
                RollingHash::hash_window(&data[i + 1 - w..=i], w),
                "offset {i}"
            );
        }
    }

    #[test]
    fn shared_default_tables_equal_fresh_ones() {
        let (a, b) = (RollingHash::new(DEFAULT_WINDOW), RollingHash::new(DEFAULT_WINDOW));
        assert!(Arc::ptr_eq(&a.tables, &b.tables), "built once per process");
        assert!(!Arc::ptr_eq(&a.tables, &RollingHash::new(DEFAULT_WINDOW - 1).tables));
        let fresh = RollTables::new(DEFAULT_WINDOW);
        assert_eq!(a.tables.pop, fresh.pop);
        assert_eq!(a.tables.push.push, fresh.push.push);
        assert_eq!(a.tables.push.degree, fresh.push.degree);
        // A clone shares them too; the state is its own.
        let mut c = a.clone();
        c.push(7);
        assert!(Arc::ptr_eq(&a.tables, &c.tables));
        assert_eq!((a.value(), c.value()), (0, 7));
    }

    #[test]
    fn q_is_the_product_of_the_two_irreducible_moduli() {
        assert!(gf2::is_irreducible(POLY_31) && gf2::is_irreducible(POLY_31B));
        assert_ne!(POLY_31, POLY_31B);
        let mut product = 0u64;
        for i in 0..32 {
            if POLY_31B >> i & 1 == 1 {
                product ^= POLY_31 << i;
            }
        }
        assert_eq!(Q, product);
        assert_eq!(gf2::degree(Q), 62);
        assert_eq!((gf2::pmod(Q, POLY_31), gf2::pmod(Q, POLY_31B)), (0, 0));
    }

    #[test]
    fn const_tables_equal_runtime_ones() {
        for (tables, shift) in [(&T64, 64u64), (&T128, 128)] {
            for (k, table) in tables.iter().enumerate() {
                let xk = gf2::xpowmod(shift + 8 * k as u64, Q);
                for (b, &entry) in table.iter().enumerate() {
                    assert_eq!(entry, gf2::pmulmod(b as u64, xk, Q), "x^{shift} k={k} b={b}");
                }
            }
        }
    }

    #[test]
    fn extended_fingerprint_sensitivity() {
        let a = extended_fingerprint(b"some file contents");
        let mut b = *b"some file contents";
        b[0] ^= 1;
        assert_ne!(a, extended_fingerprint(&b));
        // Length-only differences must also be visible.
        assert_ne!(extended_fingerprint(b"\0"), extended_fingerprint(b"\0\0"));
        assert_ne!(extended_fingerprint(b""), extended_fingerprint(b"\0"));
        // Deterministic.
        assert_eq!(a, extended_fingerprint(b"some file contents"));
    }

    #[test]
    fn rolling_window_sizes() {
        for w in [1usize, 2, 16, 48, 64] {
            let data: Vec<u8> = (0..200u8).collect();
            let mut rh = RollingHash::new(w);
            for &b in &data[..w] {
                rh.push(b);
            }
            for i in w..data.len() {
                rh.roll(data[i - w], data[i]);
            }
            let direct = RollingHash::hash_window(&data[data.len() - w..], w);
            assert_eq!(rh.value(), direct, "window {w}");
        }
    }

    #[test]
    fn fingerprint_residue_fits_degree() {
        for n in 0..512usize {
            let data = vec![0xa5u8; n];
            assert!(RabinFingerprinter::fingerprint(&data) < (1 << 53));
        }
    }
}
