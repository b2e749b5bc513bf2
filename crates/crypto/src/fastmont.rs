//! The fast bignum backend: `u64`-limb CIOS Montgomery multiplication
//! with adaptive fixed-window exponentiation and a per-modulus context
//! cache.
//!
//! Three things make this fast relative to [`crate::bigint`]'s reference
//! arithmetic (and the older `u32`-limb [`crate::montgomery`] ablation):
//!
//! 1. **64-bit limbs.** The reference path works in `u32` limbs so every
//!    intermediate fits `u64`; here products accumulate in `u128`, which
//!    quarters the inner-loop iteration count at RSA sizes.
//! 2. **Division-free reduction.** Each modular multiplication is one
//!    CIOS (coarsely integrated operand scanning) pass — interleaved
//!    multiply and Montgomery reduction — instead of a schoolbook
//!    multiply followed by Knuth Algorithm D division.
//! 3. **Precomputation amortized per key.** The Montgomery domain
//!    (`n'`, `R² mod n`, `R mod n`) is computed once per modulus and
//!    cached process-wide, so repeated operations under one RSA/OPRF key
//!    (the service hot path) skip straight to the multiply loop, and
//!    exponentiation uses fixed windows (k = 4/5 for full-width secret
//!    exponents, narrower for short public ones) over a per-call table
//!    of small powers.
//!
//! Everything here is variable-time, like the rest of the crate (see the
//! crate-level note), and **value-equivalent** to the reference backend:
//! `tests/crypto_backend.rs` proptests the equivalence and CI byte-diffs
//! the DST probes across the backend swap.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::backend::Backend;
use crate::bigint::BigUint;
use crate::{CryptoError, Result};

/// Cap on cached per-modulus contexts. Each context is a few hundred
/// bytes; the workspace touches a handful of moduli per run (bank keys,
/// the Ed25519 group order, bench operands), so the cap only guards
/// against an adversarial stream of distinct moduli. On overflow the
/// whole cache is dropped — simple, deterministic, and refilled on use.
const MAX_CACHED_MODULI: usize = 64;

/// Precomputed Montgomery domain for one odd modulus, in `u64` limbs.
struct FastMont {
    /// The modulus, little-endian, exactly `k` limbs.
    n: Vec<u64>,
    /// Limb count of the modulus.
    k: usize,
    /// `-n⁻¹ mod 2⁶⁴` — the REDC constant.
    n0inv: u64,
    /// `R² mod n` where `R = 2^(64k)`, for entering the domain.
    r2: Vec<u64>,
    /// `R mod n` — the value 1 in Montgomery form.
    one: Vec<u64>,
}

fn to_u64_limbs(v: &BigUint, k: usize) -> Vec<u64> {
    let l32 = v.to_limbs(2 * k);
    (0..k)
        .map(|i| l32[2 * i] as u64 | ((l32[2 * i + 1] as u64) << 32))
        .collect()
}

fn from_u64_limbs(limbs: &[u64]) -> BigUint {
    let mut l32 = Vec::with_capacity(limbs.len() * 2);
    for &x in limbs {
        l32.push(x as u32);
        l32.push((x >> 32) as u32);
    }
    BigUint::from_limbs(&l32)
}

/// `a >= b` over equal-length little-endian limb slices.
fn geq(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b` over equal-length little-endian limb slices, returning the
/// final borrow (to cancel against a caller-held overflow limb).
fn sub_in_place(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    borrow
}

impl FastMont {
    /// Build the domain for an odd modulus `> 1`; `None` otherwise.
    fn new(n: &BigUint) -> Option<Self> {
        if n.is_zero() || n.is_one() || n.is_even() {
            return None;
        }
        let k = n.bit_len().div_ceil(64);
        let n_limbs = to_u64_limbs(n, k);
        // n' = -n⁻¹ mod 2⁶⁴ by Newton–Hensel on the low limb: each
        // iteration doubles the number of correct low bits (1 → 64 in 6).
        let n0 = n_limbs[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let r2 = to_u64_limbs(&BigUint::one().shl(128 * k).rem(n), k);
        let one = to_u64_limbs(&BigUint::one().shl(64 * k).rem(n), k);
        Some(FastMont {
            n: n_limbs,
            k,
            n0inv: inv.wrapping_neg(),
            r2,
            one,
        })
    }

    /// CIOS Montgomery product: `a · b · R⁻¹ mod n`, both operands and
    /// the result in `[0, n)` as `k` little-endian limbs.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = self.k;
        let n = &self.n;
        let mut t = vec![0u64; k + 2];
        for &a_limb in a.iter().take(k) {
            let ai = a_limb as u128;
            let mut carry = 0u128;
            for j in 0..k {
                let x = t[j] as u128 + ai * b[j] as u128 + carry;
                t[j] = x as u64;
                carry = x >> 64;
            }
            let x = t[k] as u128 + carry;
            t[k] = x as u64;
            t[k + 1] = (x >> 64) as u64;

            let m = t[0].wrapping_mul(self.n0inv) as u128;
            let x = t[0] as u128 + m * n[0] as u128;
            let mut carry = x >> 64;
            for j in 1..k {
                let x = t[j] as u128 + m * n[j] as u128 + carry;
                t[j - 1] = x as u64;
                carry = x >> 64;
            }
            let x = t[k] as u128 + carry;
            t[k - 1] = x as u64;
            t[k] = t[k + 1].wrapping_add((x >> 64) as u64);
            t[k + 1] = 0;
        }
        let mut out = t;
        out.truncate(k + 1);
        if out[k] != 0 || geq(&out[..k], n) {
            // t < 2n throughout CIOS, so one subtraction suffices; when
            // the overflow limb is set the subtraction borrows exactly
            // once against it (t ≥ 2⁶⁴ᵏ > n forces the reduction, and
            // t − n < n < 2⁶⁴ᵏ clears the limb).
            let borrow = sub_in_place(&mut out[..k], n);
            debug_assert_eq!(borrow, out[k]);
        }
        out.truncate(k);
        out
    }

    /// Fixed-window width for an exponent of `bits` bits: wide windows
    /// (the ISSUE's k = 4/5) only pay off once the squaring chain is long
    /// enough to amortize the 2^w-entry table.
    fn window_bits(bits: usize) -> usize {
        match bits {
            0..=24 => 1,
            25..=80 => 3,
            81..=240 => 4,
            _ => 5,
        }
    }

    /// `base^exp mod n` by Montgomery fixed-window exponentiation.
    fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let n_big = from_u64_limbs(&self.n);
        let base_m = self.mont_mul(&to_u64_limbs(&base.rem(&n_big), self.k), &self.r2);
        let bits = exp.bit_len();
        let w = Self::window_bits(bits);
        let mut acc = self.one.clone();
        if w == 1 {
            for i in (0..bits).rev() {
                acc = self.mont_mul(&acc, &acc);
                if exp.bit(i) {
                    acc = self.mont_mul(&acc, &base_m);
                }
            }
        } else {
            let mut table = Vec::with_capacity(1 << w);
            table.push(self.one.clone());
            for i in 1..(1usize << w) {
                table.push(self.mont_mul(&table[i - 1], &base_m));
            }
            let ndigits = bits.div_ceil(w);
            for d in (0..ndigits).rev() {
                if d + 1 < ndigits {
                    for _ in 0..w {
                        acc = self.mont_mul(&acc, &acc);
                    }
                }
                let mut digit = 0usize;
                for t in (0..w).rev() {
                    digit = (digit << 1) | exp.bit(d * w + t) as usize;
                }
                if digit != 0 {
                    acc = self.mont_mul(&acc, &table[digit]);
                }
            }
        }
        from_u64_limbs(&self.mont_mul(&acc, &to_u64_limbs(&BigUint::one(), self.k)))
    }

    /// `(a · b) mod n` — enter the domain once, multiply once.
    fn mulmod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let n_big = from_u64_limbs(&self.n);
        let am = self.mont_mul(&to_u64_limbs(&a.rem(&n_big), self.k), &self.r2);
        let bl = to_u64_limbs(&b.rem(&n_big), self.k);
        from_u64_limbs(&self.mont_mul(&am, &bl))
    }
}

/// The fast backend: `FastMont` contexts cached per modulus.
///
/// Obtain the process-wide instance through
/// [`crate::backend::fast`]; the cache is shared so every call site
/// operating under the same key reuses the same precomputation.
pub struct FastBackend {
    cache: Mutex<HashMap<Vec<u8>, Arc<FastMont>>>,
}

/// The process-wide [`FastBackend`] instance.
pub(crate) fn shared() -> &'static FastBackend {
    static SHARED: OnceLock<FastBackend> = OnceLock::new();
    SHARED.get_or_init(|| FastBackend {
        cache: Mutex::new(HashMap::new()),
    })
}

impl FastBackend {
    /// Cached context for `modulus`, or `None` when the modulus is even
    /// or trivial (those fall back to the reference arithmetic).
    fn ctx(&self, modulus: &BigUint) -> Option<Arc<FastMont>> {
        if modulus.is_zero() || modulus.is_one() || modulus.is_even() {
            return None;
        }
        let key = modulus.to_bytes_be();
        let mut cache = self.cache.lock().expect("fastmont cache poisoned");
        if let Some(ctx) = cache.get(&key) {
            return Some(ctx.clone());
        }
        let ctx = Arc::new(FastMont::new(modulus)?);
        if cache.len() >= MAX_CACHED_MODULI {
            cache.clear();
        }
        cache.insert(key, ctx.clone());
        Some(ctx)
    }
}

impl Backend for FastBackend {
    fn name(&self) -> &'static str {
        "fast"
    }

    fn modpow(&self, base: &BigUint, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::Malformed);
        }
        match self.ctx(modulus) {
            Some(ctx) => Ok(ctx.modpow(base, exp)),
            // Even or trivial modulus: Montgomery needs gcd(R, n) = 1 —
            // fall back to the reference arithmetic (identical values).
            None => Ok(base.modpow(exp, modulus)),
        }
    }

    fn modinv(&self, a: &BigUint, modulus: &BigUint) -> Option<BigUint> {
        // Inversion is off the hot path (once per blinding); extended
        // Euclid in the reference limbs is plenty.
        a.modinv(modulus)
    }

    fn mulmod(&self, a: &BigUint, b: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::Malformed);
        }
        match self.ctx(modulus) {
            Some(ctx) => Ok(ctx.mulmod(a, b)),
            None => Ok(a.mulmod(b, modulus)),
        }
    }

    fn reduce(&self, a: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::Malformed);
        }
        Ok(a.rem(modulus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{fast, reference};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn matches_reference_small() {
        let n = big(1_000_003);
        for (b, e) in [
            (2u128, 10u128),
            (3, 0),
            (0, 0),
            (0, 7),
            (999_999, 2),
            (7, 65537),
        ] {
            assert_eq!(
                fast().modpow(&big(b), &big(e), &n).unwrap(),
                reference().modpow(&big(b), &big(e), &n).unwrap(),
                "b={b} e={e}"
            );
        }
    }

    #[test]
    fn matches_reference_rsa_sized() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let p = BigUint::gen_prime(&mut rng, 256);
        let q = BigUint::gen_prime(&mut rng, 256);
        let n = p.mul(&q);
        for _ in 0..4 {
            let base = BigUint::random_below(&mut rng, &n);
            let exp = BigUint::random_below(&mut rng, &n);
            assert_eq!(
                fast().modpow(&base, &exp, &n).unwrap(),
                reference().modpow(&base, &exp, &n).unwrap()
            );
            let b2 = BigUint::random_below(&mut rng, &n);
            assert_eq!(
                fast().mulmod(&base, &b2, &n).unwrap(),
                reference().mulmod(&base, &b2, &n).unwrap()
            );
        }
    }

    #[test]
    fn edge_exponents_match() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let n = BigUint::gen_prime(&mut rng, 192);
        let a = BigUint::random_below(&mut rng, &n);
        for exp in [
            BigUint::zero(),
            BigUint::one(),
            n.sub(&BigUint::one()),
            n.clone(),
        ] {
            assert_eq!(
                fast().modpow(&a, &exp, &n).unwrap(),
                reference().modpow(&a, &exp, &n).unwrap()
            );
        }
        // Fermat: a^(n-1) ≡ 1 mod prime n.
        assert!(fast()
            .modpow(&a, &n.sub(&BigUint::one()), &n)
            .unwrap()
            .is_one());
    }

    #[test]
    fn even_and_trivial_moduli_fall_back() {
        assert_eq!(
            fast().modpow(&big(3), &big(4), &big(100)).unwrap(),
            big(81).rem(&big(100))
        );
        assert_eq!(
            fast().modpow(&big(5), &big(100), &BigUint::one()).unwrap(),
            BigUint::zero()
        );
        assert!(fast().modpow(&big(5), &big(2), &BigUint::zero()).is_err());
    }

    #[test]
    fn cache_reuses_and_bounds() {
        let be = shared();
        let n = big(1_000_003);
        let c1 = be.ctx(&n).unwrap();
        let c2 = be.ctx(&n).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "same modulus, same context");
        // Flood with distinct moduli; the cache must stay bounded.
        for i in 0..(2 * MAX_CACHED_MODULI as u64) {
            be.ctx(&BigUint::from_u64(2 * i + 2_000_001));
        }
        assert!(be.cache.lock().unwrap().len() <= MAX_CACHED_MODULI + 1);
    }

    proptest! {
        #[test]
        fn equivalence_random_odd_moduli(
            base in proptest::collection::vec(any::<u8>(), 1..48),
            exp in proptest::collection::vec(any::<u8>(), 0..16),
            modulus in proptest::collection::vec(any::<u8>(), 1..48),
        ) {
            let mut m = BigUint::from_bytes_be(&modulus);
            if m.is_even() { m = m.add(&BigUint::one()); }
            prop_assume!(!m.is_zero() && !m.is_one());
            let b = BigUint::from_bytes_be(&base);
            let e = BigUint::from_bytes_be(&exp);
            prop_assert_eq!(
                fast().modpow(&b, &e, &m).unwrap(),
                reference().modpow(&b, &e, &m).unwrap()
            );
        }
    }
}
