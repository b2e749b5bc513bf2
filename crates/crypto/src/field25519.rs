//! Arithmetic in GF(2²⁵⁵ − 19), the base field of Curve25519/Ed25519.
//!
//! Elements are five 51-bit limbs in `u64`s (the "ref10 radix-51"
//! representation); products are accumulated in `u128`. Addition and
//! multiplication keep limbs bounded so no overflow is possible; the only
//! full reduction happens in [`FieldElement::to_bytes`].

/// 51-bit limb mask.
const MASK: u64 = (1u64 << 51) - 1;

/// An element of GF(2²⁵⁵ − 19).
#[derive(Clone, Copy, Debug)]
pub struct FieldElement(pub(crate) [u64; 5]);

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// Construct from a small integer.
    pub fn from_u64(v: u64) -> Self {
        let mut fe = FieldElement([0; 5]);
        fe.0[0] = v & MASK;
        fe.0[1] = v >> 51;
        fe
    }

    /// Decode 32 little-endian bytes; the top bit (bit 255) is ignored,
    /// per convention.
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        let load = |i: usize| -> u64 {
            let mut v = 0u64;
            for j in (0..8).rev() {
                v = (v << 8) | bytes[i + j] as u64;
            }
            v
        };
        let lo0 = load(0);
        let lo1 = load(6) >> 3;
        let lo2 = load(12) >> 6;
        let lo3 = load(19) >> 1;
        let lo4 = (load(24) >> 12) & ((1u64 << 51) - 1);
        FieldElement([lo0 & MASK, lo1 & MASK, lo2 & MASK, lo3 & MASK, lo4])
    }

    /// Encode as 32 little-endian bytes with the canonical (fully reduced)
    /// representative.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut h = self.0;
        // Two carry passes bring all limbs below 2^52.
        for _ in 0..2 {
            let mut c = 0u64;
            for limb in h.iter_mut() {
                let t = *limb + c;
                *limb = t & MASK;
                c = t >> 51;
            }
            h[0] += 19 * c;
        }
        // Compute h + 19, and use its bit 255 as the quotient estimate:
        // q = 1 iff h >= p.
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        h[0] += 19 * q;
        let mut c = 0u64;
        for limb in h.iter_mut() {
            let t = *limb + c;
            *limb = t & MASK;
            c = t >> 51;
        }
        // c (the 2^255 bit) is discarded: subtracting p is exactly
        // "add 19 and drop the 2^255 bit".
        let mut out = [0u8; 32];
        let full0 = h[0] | (h[1] << 51);
        let full1 = (h[1] >> 13) | (h[2] << 38);
        let full2 = (h[2] >> 26) | (h[3] << 25);
        let full3 = (h[3] >> 39) | (h[4] << 12);
        out[0..8].copy_from_slice(&full0.to_le_bytes());
        out[8..16].copy_from_slice(&full1.to_le_bytes());
        out[16..24].copy_from_slice(&full2.to_le_bytes());
        out[24..32].copy_from_slice(&full3.to_le_bytes());
        out
    }

    /// `self + other` (no carry needed for freshly reduced inputs).
    pub fn add(&self, other: &Self) -> Self {
        let mut out = [0u64; 5];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            *o = a + b;
        }
        FieldElement(out).weak_reduce()
    }

    /// `self - other` (bias by 2p to avoid underflow).
    pub fn sub(&self, other: &Self) -> Self {
        // 2p in radix-51: [2*(2^51-19), 2*(2^51-1), ...]
        const TWO_P: [u64; 5] = [
            0xfffffffffffda,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
        ];
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + TWO_P[i] - other.0[i];
        }
        FieldElement(out).weak_reduce()
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self::ZERO.sub(self)
    }

    fn weak_reduce(self) -> Self {
        let mut h = self.0;
        let mut c = 0u64;
        for limb in h.iter_mut() {
            let t = *limb + c;
            *limb = t & MASK;
            c = t >> 51;
        }
        h[0] += 19 * c;
        FieldElement(h)
    }

    /// Field multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = other.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;

        let r0 = m(a0, b0) + 19 * (m(a1, b4) + m(a2, b3) + m(a3, b2) + m(a4, b1));
        let r1 = m(a0, b1) + m(a1, b0) + 19 * (m(a2, b4) + m(a3, b3) + m(a4, b2));
        let r2 = m(a0, b2) + m(a1, b1) + m(a2, b0) + 19 * (m(a3, b4) + m(a4, b3));
        let r3 = m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + 19 * m(a4, b4);
        let r4 = m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0);
        Self::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Field squaring: the 15 distinct limb products of `self · self`
    /// instead of `mul`'s 25.
    pub fn square(&self) -> Self {
        let [a0, a1, a2, a3, a4] = self.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        // Limbs stay below 2^52, so 2·a and 19·a fit comfortably in u64.
        let (d0, d1) = (2 * a0, 2 * a1);
        let (t3, t4) = (19 * a3, 19 * a4);

        let r0 = m(a0, a0) + 2 * (m(a1, t4) + m(a2, t3));
        let r1 = m(d0, a1) + m(a3, t3) + 2 * m(a2, t4);
        let r2 = m(d0, a2) + m(a1, a1) + 2 * m(a3, t4);
        let r3 = m(d0, a3) + m(d1, a2) + m(a4, t4);
        let r4 = m(d0, a4) + m(d1, a3) + m(a2, a2);
        Self::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Carry the wide limb accumulators of a product back to radix 51.
    fn carry_wide(r: [u128; 5]) -> Self {
        let [mut r0, mut r1, mut r2, mut r3, mut r4] = r;
        let mut c: u128;
        c = r0 >> 51;
        r0 &= MASK as u128;
        r1 += c;
        c = r1 >> 51;
        r1 &= MASK as u128;
        r2 += c;
        c = r2 >> 51;
        r2 &= MASK as u128;
        r3 += c;
        c = r3 >> 51;
        r3 &= MASK as u128;
        r4 += c;
        c = r4 >> 51;
        r4 &= MASK as u128;
        r0 += 19 * c;
        c = r0 >> 51;
        r0 &= MASK as u128;
        r1 += c;

        FieldElement([r0 as u64, r1 as u64, r2 as u64, r3 as u64, r4 as u64])
    }

    /// Multiply by a small constant (used for ×121666 in the X25519 ladder).
    pub fn mul_small(&self, k: u32) -> Self {
        let mut r = [0u128; 5];
        for (ri, a) in r.iter_mut().zip(&self.0) {
            *ri = *a as u128 * k as u128;
        }
        let mut c: u128 = 0;
        let mut out = [0u64; 5];
        for i in 0..5 {
            let t = r[i] + c;
            out[i] = (t & MASK as u128) as u64;
            c = t >> 51;
        }
        out[0] += 19 * c as u64;
        FieldElement(out).weak_reduce()
    }

    /// Repeated squaring: `self^(2^k)`.
    pub fn pow2k(&self, k: usize) -> Self {
        let mut out = *self;
        for _ in 0..k {
            out = out.square();
        }
        out
    }

    /// Shared prefix of the inversion/pow22523 addition chains:
    /// returns `(self^(2^250 - 1), self^11, self^(2^50 - 1))`.
    fn chain_common(&self) -> (Self, Self, Self) {
        let z = *self;
        let z2 = z.square(); // 2
        let z9 = z2.pow2k(2).mul(&z); // 9
        let z11 = z9.mul(&z2); // 11
        let z2_5_0 = z11.square().mul(&z9); // 2^5 - 1
        let z2_10_0 = z2_5_0.pow2k(5).mul(&z2_5_0); // 2^10 - 1
        let z2_20_0 = z2_10_0.pow2k(10).mul(&z2_10_0); // 2^20 - 1
        let z2_40_0 = z2_20_0.pow2k(20).mul(&z2_20_0); // 2^40 - 1
        let z2_50_0 = z2_40_0.pow2k(10).mul(&z2_10_0); // 2^50 - 1
        let z2_100_0 = z2_50_0.pow2k(50).mul(&z2_50_0); // 2^100 - 1
        let z2_200_0 = z2_100_0.pow2k(100).mul(&z2_100_0); // 2^200 - 1
        let z2_250_0 = z2_200_0.pow2k(50).mul(&z2_50_0); // 2^250 - 1
        (z2_250_0, z11, z2_50_0)
    }

    /// Multiplicative inverse, `self^(p-2)`. Returns zero for zero input.
    pub fn invert(&self) -> Self {
        let (z2_250_0, z11, _) = self.chain_common();
        // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11
        z2_250_0.pow2k(5).mul(&z11)
    }

    /// `self^((p-5)/8) = self^(2^252 - 3)`, the exponent used in square-root
    /// extraction (RFC 8032 §5.1.3).
    pub fn pow22523(&self) -> Self {
        let (z2_250_0, _, _) = self.chain_common();
        // 2^252 - 3 = (2^250 - 1) * 4 + 1
        z2_250_0.pow2k(2).mul(self)
    }

    /// Canonical equality (via full reduction).
    pub fn ct_eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// Is this the canonical zero?
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Parity of the canonical representative (bit 0).
    pub fn is_odd(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Constant-time-ish conditional swap (used by the Montgomery ladder).
    pub fn cswap(swap: bool, a: &mut Self, b: &mut Self) {
        let mask = if swap { u64::MAX } else { 0 };
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }

    /// √(-1) = 2^((p-1)/4), computed on first use.
    pub fn sqrt_m1() -> Self {
        // (p-1)/4 = 2^253 - 5 = 2*(2^252 - 3) + 1
        let two = FieldElement::from_u64(2);
        two.pow22523().square().mul(&two)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    #[test]
    fn zero_one_encoding() {
        assert_eq!(FieldElement::ZERO.to_bytes(), [0u8; 32]);
        let mut one = [0u8; 32];
        one[0] = 1;
        assert_eq!(FieldElement::ONE.to_bytes(), one);
        assert!(FieldElement::ZERO.is_zero());
        assert!(!FieldElement::ONE.is_zero());
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19 in little-endian bytes.
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        let z = FieldElement::from_bytes(&p);
        assert!(z.is_zero(), "p must encode to the canonical zero");
        // p + 1 reduces to 1.
        p[0] = 0xee;
        assert!(FieldElement::from_bytes(&p).ct_eq(&FieldElement::ONE));
    }

    #[test]
    fn bytes_roundtrip_below_p() {
        let mut b = [0u8; 32];
        b[0] = 42;
        b[10] = 0xaa;
        b[31] = 0x70; // < 2^255 - 19
        assert_eq!(FieldElement::from_bytes(&b).to_bytes(), b);
    }

    #[test]
    fn add_sub_mul_small_values() {
        assert!(fe(5).add(&fe(7)).ct_eq(&fe(12)));
        assert!(fe(7).sub(&fe(5)).ct_eq(&fe(2)));
        assert!(fe(5).sub(&fe(7)).add(&fe(2)).is_zero());
        assert!(fe(6).mul(&fe(7)).ct_eq(&fe(42)));
        assert!(fe(9).square().ct_eq(&fe(81)));
        assert!(fe(3).mul_small(121666).ct_eq(&fe(3 * 121666)));
    }

    #[test]
    fn minus_one_times_minus_one() {
        let m1 = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert!(m1.mul(&m1).ct_eq(&FieldElement::ONE));
        assert!(m1.neg().ct_eq(&FieldElement::ONE));
    }

    #[test]
    fn inversion() {
        for v in [1u64, 2, 3, 121665, 0xffff_ffff] {
            let x = fe(v);
            assert!(x.mul(&x.invert()).ct_eq(&FieldElement::ONE), "v={v}");
        }
        assert!(FieldElement::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = FieldElement::sqrt_m1();
        let m1 = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert!(i.square().ct_eq(&m1));
    }

    #[test]
    fn pow22523_consistency() {
        // For a quadratic residue u = x², u^((p-5)/8) relates to the square
        // root: (u * candidate²)² must be u² where candidate = u^((p+3)/8)
        // = u * u^((p-5)/8).
        let x = fe(123456789);
        let u = x.square();
        let cand = u.mul(&u.pow22523());
        // cand² = ±u
        let c2 = cand.square();
        assert!(c2.ct_eq(&u) || c2.neg().ct_eq(&u));
    }

    #[test]
    fn cswap_swaps() {
        let mut a = fe(1);
        let mut b = fe(2);
        FieldElement::cswap(false, &mut a, &mut b);
        assert!(a.ct_eq(&fe(1)) && b.ct_eq(&fe(2)));
        FieldElement::cswap(true, &mut a, &mut b);
        assert!(a.ct_eq(&fe(2)) && b.ct_eq(&fe(1)));
    }

    #[test]
    fn square_matches_mul_at_limb_bounds() {
        // add/sub/mul outputs keep every limb below 2^51 + 2^15 (limb 0
        // after weak_reduce, limb 1 after a product's final carry); 2^52 − 1
        // is a margin above anything reachable.
        let top = (1u64 << 52) - 1;
        let cases = [
            [top; 5],
            [MASK + 57, MASK, MASK, MASK, MASK],
            [MASK, MASK + (1 << 15), MASK, MASK, MASK],
            [top, 0, top, 0, top],
            [0, 0, 0, 0, top],
            FieldElement::ZERO.sub(&FieldElement::ONE).0,
        ];
        for limbs in cases {
            let x = FieldElement(limbs);
            assert!(x.square().ct_eq(&x.mul(&x)), "limbs {limbs:x?}");
        }
    }

    proptest! {
        #[test]
        fn square_matches_mul(limbs in proptest::collection::vec(any::<u64>(), 5)) {
            let mut x = FieldElement::ZERO;
            for (l, v) in x.0.iter_mut().zip(&limbs) {
                *l = v & ((1u64 << 52) - 1);
            }
            prop_assert_eq!(x.square().to_bytes(), x.mul(&x).to_bytes());
            let y = x.add(&x).sub(&FieldElement::ONE);
            prop_assert_eq!(y.square().to_bytes(), y.mul(&y).to_bytes());
        }

        #[test]
        fn field_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let (a, b, c) = (fe(a), fe(b), fe(c));
            // Commutativity and associativity.
            prop_assert!(a.add(&b).ct_eq(&b.add(&a)));
            prop_assert!(a.mul(&b).ct_eq(&b.mul(&a)));
            prop_assert!(a.add(&b).add(&c).ct_eq(&a.add(&b.add(&c))));
            prop_assert!(a.mul(&b).mul(&c).ct_eq(&a.mul(&b.mul(&c))));
            // Distributivity.
            prop_assert!(a.mul(&b.add(&c)).ct_eq(&a.mul(&b).add(&a.mul(&c))));
            // Subtraction inverts addition.
            prop_assert!(a.add(&b).sub(&b).ct_eq(&a));
        }

        #[test]
        fn invert_random(bytes in proptest::collection::vec(any::<u8>(), 32)) {
            let mut buf = [0u8; 32];
            buf.copy_from_slice(&bytes);
            buf[31] &= 0x7f;
            let x = FieldElement::from_bytes(&buf);
            prop_assume!(!x.is_zero());
            prop_assert!(x.mul(&x.invert()).ct_eq(&FieldElement::ONE));
        }

        #[test]
        fn roundtrip_random(bytes in proptest::collection::vec(any::<u8>(), 32)) {
            let mut buf = [0u8; 32];
            buf.copy_from_slice(&bytes);
            buf[31] &= 0x7f;
            let x = FieldElement::from_bytes(&buf);
            // from(to(x)) is the canonical representative of x.
            let y = FieldElement::from_bytes(&x.to_bytes());
            prop_assert!(x.ct_eq(&y));
        }
    }
}
